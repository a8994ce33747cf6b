//! The CI perf-regression gate behind `ucp bench --check`.
//!
//! Gated metrics are *derived* from any `ucp-metrics-v1` report (see
//! [`crate::micro`]): throughputs come out of span best-pass seconds and
//! per-pass byte counters, wall times straight from span totals. A check
//! compares each metric's current value against the committed baseline
//! (`results/BENCH_baseline.json`) with a relative noise tolerance
//! (default 25%, sized for shared CI runners), plus optional absolute
//! floors that hold regardless of what the baseline says — the CRC
//! speedup floor of 3× is the repo's acceptance criterion for the
//! production kernel (set when that was slicing-by-8; the hardware kernel
//! clears it with room). Re-baselining after an intentional change is
//! documented in DESIGN.md ("Hot paths and perf gates").

use ucp_telemetry::Report;

/// Default relative tolerance (fraction) before a drift counts as a
/// regression.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Absolute floor on the sliced-vs-bytewise CRC speedup (the acceptance
/// criterion), enforced on the *current* run independent of the baseline.
pub const CRC_SPEEDUP_FLOOR: f64 = 3.0;

/// One gated metric: how to derive it from a report and which direction
/// is good.
pub struct MetricSpec {
    /// Metric name as shown in tables and errors.
    pub name: &'static str,
    /// Unit label for rendering.
    pub unit: &'static str,
    /// `true`: regressions are *drops* (throughputs). `false`:
    /// regressions are *rises* (wall times).
    pub higher_is_better: bool,
    /// Absolute floor the current value must clear regardless of the
    /// baseline (only meaningful for higher-is-better metrics).
    pub floor: Option<f64>,
    /// Derive the metric from a report; `None` when the report lacks the
    /// underlying spans/counters.
    pub derive: fn(&Report) -> Option<f64>,
}

/// GB/s of a probe whose span best pass moved `<span>_bytes` bytes.
fn gbps(report: &Report, span: &str) -> Option<f64> {
    let s = report.span(span)?;
    let bytes = report.counter(&format!("{span}_bytes"))?;
    if s.min_secs <= 0.0 {
        return None;
    }
    Some(bytes as f64 / s.min_secs / 1e9)
}

/// The gated metric registry. Order is presentation order.
pub fn metrics() -> Vec<MetricSpec> {
    vec![
        MetricSpec {
            name: "crc_sliced_gbps",
            unit: "GB/s",
            higher_is_better: true,
            floor: None,
            derive: |r| gbps(r, "bench/crc_sliced"),
        },
        MetricSpec {
            name: "crc_speedup",
            unit: "x",
            higher_is_better: true,
            floor: Some(CRC_SPEEDUP_FLOOR),
            derive: |r| {
                let sliced = gbps(r, "bench/crc_sliced")?;
                let bytewise = gbps(r, "bench/crc_bytewise")?;
                (bytewise > 0.0).then(|| sliced / bytewise)
            },
        },
        MetricSpec {
            name: "crc_blocks_gbps",
            unit: "GB/s",
            higher_is_better: true,
            floor: None,
            derive: |r| gbps(r, "bench/crc_blocks"),
        },
        MetricSpec {
            name: "range_read_gbps",
            unit: "GB/s",
            higher_is_better: true,
            floor: None,
            derive: |r| gbps(r, "bench/range_read"),
        },
        MetricSpec {
            name: "fig13_load_secs",
            unit: "s",
            higher_is_better: false,
            floor: None,
            derive: |r| {
                let s = r.span("bench/fig13_load")?;
                Some(s.total_secs)
            },
        },
    ]
}

/// One metric's verdict.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Baseline value, if present in the baseline report.
    pub baseline: Option<f64>,
    /// Current value, if derivable from the current report.
    pub current: Option<f64>,
    /// `false` when this metric regressed (or could not be compared).
    pub pass: bool,
    /// Human-readable verdict detail.
    pub note: String,
}

/// Compare `current` against `baseline` at `tolerance`. Returns the
/// per-metric rows (presentation order) and the overall verdict. A metric
/// present in the baseline but missing from the current run fails — a
/// silently skipped probe must not read as a pass. Metrics absent from
/// *both* reports are skipped (e.g. fig13 in a `--fast` baseline).
pub fn check(baseline: &Report, current: &Report, tolerance: f64) -> (Vec<GateRow>, bool) {
    let mut rows = Vec::new();
    let mut all_pass = true;
    for spec in metrics() {
        let base = (spec.derive)(baseline);
        let cur = (spec.derive)(current);
        let (pass, note) = match (base, cur) {
            (None, None) => {
                rows.push(GateRow {
                    name: spec.name,
                    unit: spec.unit,
                    baseline: None,
                    current: None,
                    pass: true,
                    note: "absent from both reports; skipped".into(),
                });
                continue;
            }
            (Some(_), None) => (false, "missing from current run".to_string()),
            (None, Some(_)) => (true, "no baseline; informational".to_string()),
            (Some(b), Some(c)) => {
                if spec.higher_is_better {
                    let bound = b * (1.0 - tolerance);
                    if c < bound {
                        (
                            false,
                            format!(
                                "regressed: {c:.3} < {bound:.3} (baseline {b:.3} − {tol}%)",
                                tol = (tolerance * 100.0).round()
                            ),
                        )
                    } else {
                        (
                            true,
                            format!("within {}% of baseline", (tolerance * 100.0).round()),
                        )
                    }
                } else {
                    let bound = b * (1.0 + tolerance);
                    if c > bound {
                        (
                            false,
                            format!(
                                "regressed: {c:.3} > {bound:.3} (baseline {b:.3} + {tol}%)",
                                tol = (tolerance * 100.0).round()
                            ),
                        )
                    } else {
                        (
                            true,
                            format!("within {}% of baseline", (tolerance * 100.0).round()),
                        )
                    }
                }
            }
        };
        // Absolute floor: checked on the current value even when the
        // relative comparison passed (a drifting baseline must not erode
        // the acceptance criterion).
        let (pass, note) = match (spec.floor, cur) {
            (Some(floor), Some(c)) if c < floor => (
                false,
                format!("below absolute floor {floor:.1}{}", spec.unit),
            ),
            _ => (pass, note),
        };
        all_pass &= pass;
        rows.push(GateRow {
            name: spec.name,
            unit: spec.unit,
            baseline: base,
            current: cur,
            pass,
            note,
        });
    }
    (rows, all_pass)
}

fn fmt(v: Option<f64>, unit: &str) -> String {
    match v {
        Some(v) => format!("{v:.3} {unit}"),
        None => "—".into(),
    }
}

/// Render gate rows as a GitHub-flavored markdown table — CI pipes this
/// into `$GITHUB_STEP_SUMMARY` so regressions are diagnosable from the
/// Actions page.
pub fn render_markdown(rows: &[GateRow]) -> String {
    let mut out = String::from("| metric | baseline | current | verdict |\n|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} {} |\n",
            r.name,
            fmt(r.baseline, r.unit),
            fmt(r.current, r.unit),
            if r.pass { "✅" } else { "❌" },
            r.note,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::{CounterStat, SpanStat};

    /// A synthetic ops_micro report with the given per-probe seconds.
    fn report(sliced: f64, bytewise: f64, range: f64, fig13: Option<f64>) -> Report {
        let span = |path: &str, secs: f64| SpanStat {
            path: path.into(),
            count: 1,
            total_secs: secs,
            min_secs: secs,
            max_secs: secs,
        };
        let counter = |name: &str, value: u64| CounterStat {
            name: name.into(),
            value,
        };
        let mut spans = vec![
            span("bench/crc_sliced", sliced),
            span("bench/crc_bytewise", bytewise),
            span("bench/crc_blocks", bytewise),
            span("bench/range_read", range),
        ];
        if let Some(secs) = fig13 {
            spans.push(span("bench/fig13_load", secs));
        }
        Report {
            label: "ops_micro".into(),
            spans,
            counters: vec![
                counter("bench/crc_sliced_bytes", 1_000_000_000),
                counter("bench/crc_bytewise_bytes", 1_000_000_000),
                counter("bench/crc_blocks_bytes", 1_000_000_000),
                counter("bench/range_read_bytes", 1_000_000_000),
            ],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(0.2, 1.0, 0.5, Some(30.0));
        let (rows, ok) = check(&r, &r, DEFAULT_TOLERANCE);
        assert!(ok, "{}", render_markdown(&rows));
        assert_eq!(rows.len(), metrics().len());
        // crc_speedup derives to 5× here, clearing the 3× floor.
        let speedup = rows.iter().find(|r| r.name == "crc_speedup").unwrap();
        assert!((speedup.current.unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn doctored_baseline_fails_the_gate() {
        // The committed-numbers scenario the acceptance criterion names:
        // doctor the baseline to claim 10× today's CRC throughput and the
        // gate must fail the current run.
        let current = report(0.2, 1.0, 0.5, Some(30.0));
        let doctored = report(0.02, 1.0, 0.5, Some(30.0));
        let (rows, ok) = check(&doctored, &current, DEFAULT_TOLERANCE);
        assert!(!ok);
        let row = rows.iter().find(|r| r.name == "crc_sliced_gbps").unwrap();
        assert!(!row.pass, "{}", row.note);
        assert!(row.note.contains("regressed"));
    }

    #[test]
    fn wall_time_regression_fails_in_the_other_direction() {
        let base = report(0.2, 1.0, 0.5, Some(30.0));
        // 50% slower fig13 load: over the 25% tolerance, must fail.
        let slow = report(0.2, 1.0, 0.5, Some(45.0));
        let (rows, ok) = check(&base, &slow, DEFAULT_TOLERANCE);
        assert!(!ok);
        assert!(
            !rows
                .iter()
                .find(|r| r.name == "fig13_load_secs")
                .unwrap()
                .pass
        );
        // And a *faster* wall time passes.
        let fast = report(0.2, 1.0, 0.5, Some(10.0));
        let (_, ok) = check(&base, &fast, DEFAULT_TOLERANCE);
        assert!(ok);
    }

    #[test]
    fn speedup_floor_holds_even_when_baseline_is_low() {
        // Baseline itself below the floor: relative check passes, the
        // absolute 3× floor still fails the gate.
        let weak = report(0.5, 1.0, 0.5, None);
        let (rows, ok) = check(&weak, &weak, DEFAULT_TOLERANCE);
        assert!(!ok);
        let row = rows.iter().find(|r| r.name == "crc_speedup").unwrap();
        assert!(row.note.contains("floor"));
    }

    #[test]
    fn probe_missing_from_current_fails_but_missing_everywhere_skips() {
        let with_fig = report(0.2, 1.0, 0.5, Some(30.0));
        let without_fig = report(0.2, 1.0, 0.5, None);
        // Baseline has fig13, current doesn't → fail.
        let (rows, ok) = check(&with_fig, &without_fig, DEFAULT_TOLERANCE);
        assert!(!ok);
        assert!(rows
            .iter()
            .any(|r| r.name == "fig13_load_secs" && !r.pass && r.note.contains("missing")));
        // Absent from both → skipped, gate passes.
        let (rows, ok) = check(&without_fig, &without_fig, DEFAULT_TOLERANCE);
        assert!(ok);
        assert!(rows
            .iter()
            .any(|r| r.name == "fig13_load_secs" && r.note.contains("skipped")));
    }

    #[test]
    fn tolerance_widens_the_band() {
        let base = report(0.2, 1.0, 0.5, None);
        let slower = report(0.26, 1.0, 0.5, None); // 23% throughput drop
        assert!(check(&base, &slower, 0.25).1);
        assert!(!check(&base, &slower, 0.10).1);
    }

    #[test]
    fn markdown_table_lists_every_metric() {
        let r = report(0.2, 1.0, 0.5, Some(30.0));
        let (rows, _) = check(&r, &r, DEFAULT_TOLERANCE);
        let table = render_markdown(&rows);
        for spec in metrics() {
            assert!(table.contains(spec.name), "missing {}", spec.name);
        }
        assert!(table.starts_with("| metric |"));
    }
}
