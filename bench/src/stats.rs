//! Order statistics used by every report: medians, percentiles, and the
//! quartile spread the driver computes (Python's
//! `statistics.quantiles(values, n=4)`, the exclusive method).

/// One reported number: the statistic, its unit, and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// The reported value (a median or a percentile of `n` samples, or an
    /// exact count when `n == 1`).
    pub value: f64,
    /// Unit string, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind `value` (0 = the workload's script never made the call).
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stat {
    /// Median of `samples`.
    pub fn median(unit: &'static str, samples: &[f64]) -> Stat {
        Stat::percentile(unit, samples, 50.0)
    }

    /// The `p`th percentile of `samples` (linear interpolation).
    pub fn percentile(unit: &'static str, samples: &[f64], p: f64) -> Stat {
        let sorted = sorted(samples);
        Stat {
            value: percentile(&sorted, p),
            unit,
            n: sorted.len(),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// A single exact reading (a count, or a one-shot timing).
    pub fn single(unit: &'static str, value: f64) -> Stat {
        Stat {
            value,
            unit,
            n: 1,
            min: value,
            max: value,
        }
    }

    /// A layer the script never called: `value` is what an empty bracket
    /// measured (see `trace::empty_bracket_ns`) or 0 for non-time units.
    pub fn absent(unit: &'static str, value: f64) -> Stat {
        Stat {
            value,
            unit,
            n: 0,
            min: value,
            max: value,
        }
    }
}

/// `samples` sorted ascending (NaNs last; none are expected).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Percentile `p` (0–100) of an ascending slice, linearly interpolated
/// between closest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The three quartile cut points of `samples`, as Python's
/// `statistics.quantiles(samples, n=4)` computes them (exclusive method).
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1).abs() / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 46.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let st = Stat::percentile("ms", &[5.0, 1.0, 3.0], 50.0);
        assert_eq!((st.value, st.n, st.min, st.max), (3.0, 3, 1.0, 5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }
}
