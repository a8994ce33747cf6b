//! Fleet-wide metric aggregation: merging per-rank recorder snapshots
//! into cross-rank aggregates.
//!
//! Each rank records into a small local [`crate::Recorder`] the signals
//! that genuinely differ per rank (iteration wall time, save-stall
//! blocking). The trainer's segment runner owns those recorders (this
//! module is pure data) and, once the rank threads are joined — cleanly
//! or after a rank failure — folds [`aggregate`]'s output into the
//! process-global recorder so the cross-rank view rides the existing
//! `ucp-metrics-v1` JSON and Prometheus exports.
//!
//! Naming: an input counter `rank/step_ms` becomes `fleet/rank/step_ms/
//! {sum,min,max,skew}` — `skew` (max − min across ranks) is the straggler
//! signal: a healthy fleet keeps it near zero, one slow rank drags it up.

use crate::report::{CounterStat, Report, SpanStat};

/// One rank's metrics snapshot.
#[derive(Debug, Clone)]
pub struct RankSnapshot {
    /// Originating cluster rank.
    pub rank: usize,
    /// That rank's local recorder snapshot.
    pub report: Report,
}

/// Prefix every aggregate name carries.
pub const FLEET_PREFIX: &str = "fleet/";

/// Merge per-rank snapshots into a cross-rank aggregate report. For every
/// counter name seen on any rank this emits `fleet/<name>/sum`, `/min`,
/// `/max`, and `/skew` (max − min, the straggler spread; ranks missing
/// the counter count as 0). Histograms merge bucket-wise and spans
/// accumulate under `fleet/<name>`. `fleet/ranks` records how many
/// snapshots arrived, so a dropped rank is visible in the export.
pub fn aggregate(snapshots: &[RankSnapshot]) -> Report {
    use std::collections::BTreeMap;

    let mut out = Report {
        label: "fleet".to_string(),
        ..Report::default()
    };
    let mut counter_values: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for snap in snapshots {
        for c in &snap.report.counters {
            counter_values.entry(&c.name).or_default().push(c.value);
        }
    }
    for (name, values) in counter_values {
        let sum: u64 = values.iter().sum();
        // A rank that never touched the counter contributes an implicit 0
        // — absence on one rank IS the skew signal.
        let min = if values.len() < snapshots.len() {
            0
        } else {
            values.iter().copied().min().unwrap_or(0)
        };
        let max = values.iter().copied().max().unwrap_or(0);
        for (suffix, value) in [
            ("sum", sum),
            ("min", min),
            ("max", max),
            ("skew", max - min),
        ] {
            out.counters.push(CounterStat {
                name: format!("{FLEET_PREFIX}{name}/{suffix}"),
                value,
            });
        }
    }
    out.counters.push(CounterStat {
        name: format!("{FLEET_PREFIX}ranks"),
        value: snapshots.len() as u64,
    });

    // Histograms and spans merge through Report::merge after re-keying,
    // so bucket arithmetic stays in one place.
    for snap in snapshots {
        let rekeyed = Report {
            label: "fleet".to_string(),
            spans: snap
                .report
                .spans
                .iter()
                .map(|s| SpanStat {
                    path: format!("{FLEET_PREFIX}{}", s.path),
                    ..s.clone()
                })
                .collect(),
            counters: Vec::new(),
            histograms: snap
                .report
                .histograms
                .iter()
                .map(|h| {
                    let mut h = h.clone();
                    h.name = format!("{FLEET_PREFIX}{}", h.name);
                    h
                })
                .collect(),
        };
        out.merge(&rekeyed);
    }
    out.counters.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn snap(rank: usize, step_ms: u64, iters: u64) -> RankSnapshot {
        let r = Recorder::new();
        r.count("rank/iterations", iters);
        for _ in 0..iters {
            r.observe("rank/step_ms", step_ms);
        }
        RankSnapshot {
            rank,
            report: r.report(&format!("rank{rank}")),
        }
    }

    #[test]
    fn aggregate_computes_sum_min_max_skew() {
        let agg = aggregate(&[snap(0, 10, 4), snap(1, 10, 4), snap(2, 80, 4)]);
        assert_eq!(agg.counter("fleet/ranks"), Some(3));
        assert_eq!(agg.counter("fleet/rank/iterations/sum"), Some(12));
        assert_eq!(agg.counter("fleet/rank/iterations/min"), Some(4));
        assert_eq!(agg.counter("fleet/rank/iterations/max"), Some(4));
        assert_eq!(agg.counter("fleet/rank/iterations/skew"), Some(0));
        let h = agg.hist("fleet/rank/step_ms").unwrap();
        assert_eq!(h.count, 12);
        assert_eq!((h.min, h.max), (10, 80));
    }

    #[test]
    fn missing_counter_on_a_rank_counts_as_zero() {
        let mut straggler = snap(1, 10, 2);
        straggler.report.counters.push(crate::CounterStat {
            name: "rank/retries".into(),
            value: 5,
        });
        let agg = aggregate(&[snap(0, 10, 2), straggler]);
        assert_eq!(agg.counter("fleet/rank/retries/sum"), Some(5));
        assert_eq!(agg.counter("fleet/rank/retries/min"), Some(0));
        assert_eq!(agg.counter("fleet/rank/retries/skew"), Some(5));
    }

    #[test]
    fn aggregate_of_nothing_still_reports_rank_count() {
        let agg = aggregate(&[]);
        assert_eq!(agg.counter("fleet/ranks"), Some(0));
        assert!(agg.histograms.is_empty());
    }

    #[test]
    fn aggregate_is_deterministic_and_exportable() {
        let snaps = [snap(0, 5, 3), snap(1, 7, 3)];
        let a = aggregate(&snaps);
        let b = aggregate(&snaps);
        assert_eq!(a, b);
        // The aggregate rides the standard report schema unchanged.
        let back = Report::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert!(a
            .to_prometheus()
            .contains("ucp_counter_total{run=\"fleet\",name=\"fleet/ranks\"} 2"));
    }
}
