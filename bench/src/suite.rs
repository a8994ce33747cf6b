//! `ucp-e2e suite`: one set of runs — every workload × every seed, one
//! process each (so `peak_rss_mb` is that workload's) — collected into the
//! JSON file `compare` reads and `bench/results/BENCH_e2e.json` holds.
//! `ucp-e2e compare`: two such sets, row by row against the bounds.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::metrics::{Better, E2E, WORKLOADS};
use crate::report::{as_f64, get, obj, text};
use crate::stats::{iqr_share, median};

/// Prefix of the stdout line on which a run prints its full JSON.
pub const FULL_PREFIX: &str = "#full ";

/// What `suite` runs.
pub struct SuiteOptions {
    /// Seeds, one run per workload each.
    pub seeds: Vec<u64>,
    /// `--seconds` of each run.
    pub seconds: u64,
    /// Workloads to run (all when empty).
    pub workloads: Vec<String>,
    /// Also make one traced run per workload (first seed).
    pub layers: bool,
    /// Free-form revision label for the header.
    pub rev: String,
    /// Extra arguments passed to every run (e.g. `--smoke`, `--scratch`).
    pub pass_through: Vec<String>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    extra: &[String],
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .rev()
                .take(5)
                .collect::<Vec<_>>()
                .join(" | ")
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let full = stdout
        .lines()
        .find_map(|l| l.strip_prefix(FULL_PREFIX))
        .ok_or_else(|| format!("{workload} seed {seed}: no {FULL_PREFIX}line"))?;
    serde_json::from_str(full).map_err(|e| format!("{workload} seed {seed}: {e}"))
}

/// Run the set and return the collected JSON.
pub fn suite(opts: &SuiteOptions) -> Result<Value, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| opts.workloads.is_empty() || opts.workloads.iter().any(|w| w == n))
        .collect();
    let (mut e2e, mut layers, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nproc, mut scratch_fs) = (Value::Null, Value::Null);
    for &name in &names {
        let mut values: Vec<(String, &'static str, Vec<f64>)> = E2E
            .iter()
            .map(|d| (d.name.to_string(), d.unit, Vec::new()))
            .collect();
        let (mut run, mut failed) = (0u64, 0u64);
        for &seed in &opts.seeds {
            eprintln!("suite: {name} seed {seed}");
            let full = run_child(name, seed, opts.seconds, false, &opts.pass_through)?;
            let metrics = get(&full, "metrics").ok_or("run JSON has no metrics")?;
            for (metric, _, samples) in &mut values {
                let v = get(metrics, metric)
                    .and_then(|m| get(m, "value"))
                    .and_then(as_f64)
                    .ok_or_else(|| format!("{name}: no value for {metric}"))?;
                samples.push(v);
            }
            run += get(&full, "checks_run").and_then(as_f64).unwrap_or(0.0) as u64;
            failed += get(&full, "checks_failed").and_then(as_f64).unwrap_or(0.0) as u64;
            nproc = get(&full, "nproc").cloned().unwrap_or(Value::Null);
            scratch_fs = get(&full, "scratch_fs").cloned().unwrap_or(Value::Null);
        }
        let rows = values
            .into_iter()
            .map(|(metric, unit, samples)| {
                let spread = iqr_share(&samples).map_or(Value::Null, Value::Float);
                (
                    metric,
                    obj(vec![
                        ("unit", text(unit)),
                        ("median", Value::Float(median(&samples))),
                        ("iqr_share", spread),
                        (
                            "values",
                            Value::Array(samples.into_iter().map(Value::Float).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        e2e.push((name.to_string(), Value::Object(rows)));
        checks.push((
            name.to_string(),
            obj(vec![
                ("run", Value::UInt(run)),
                ("failed", Value::UInt(failed)),
            ]),
        ));
        if opts.layers {
            eprintln!("suite: {name} traced");
            let seed = opts.seeds.first().copied().unwrap_or(1);
            let full = run_child(name, seed, opts.seconds, true, &opts.pass_through)?;
            layers.push((
                name.to_string(),
                get(&full, "metrics").cloned().unwrap_or(Value::Null),
            ));
        }
    }
    let bounds = E2E
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                obj(vec![
                    ("unit", text(d.unit)),
                    ("better", text(d.better.as_str())),
                    ("bound", Value::Float(d.bound)),
                ]),
            )
        })
        .collect();
    Ok(obj(vec![
        ("schema", text("ucp-e2e-v1")),
        ("git_rev", text(&opts.rev)),
        ("nproc", nproc),
        ("scratch_fs", scratch_fs),
        ("run_seconds", Value::UInt(opts.seconds)),
        (
            "seeds",
            Value::Array(opts.seeds.iter().map(|s| Value::UInt(*s)).collect()),
        ),
        ("bounds", Value::Object(bounds)),
        ("end_to_end", Value::Object(e2e)),
        ("checks", Value::Object(checks)),
        ("per_layer", Value::Object(layers)),
    ]))
}

/// Verdict of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: no verdict possible.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of the first set.
    pub a: f64,
    /// Median of the second set.
    pub b: f64,
    /// Relative change toward "worse" (positive = worse), as a share of `a`.
    pub worse_by: f64,
    /// Larger of the two sets' quartile spreads (share of the median).
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Verdict.
    pub verdict: Verdict,
}

fn samples_of(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let row = get(get(get(set, "end_to_end")?, workload)?, metric)?;
    Some(
        get(row, "values")?
            .as_array()?
            .iter()
            .filter_map(as_f64)
            .collect(),
    )
}

/// Judge one metric: `a` is the baseline set, `b` the candidate.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = iqr_share(a).unwrap_or(0.0).max(iqr_share(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

fn failure_share(set: &Value, workload: &str) -> f64 {
    let c = get(set, "checks").and_then(|c| get(c, workload));
    let num = |k: &str| c.and_then(|c| get(c, k)).and_then(as_f64).unwrap_or(0.0);
    if num("run") == 0.0 {
        0.0
    } else {
        num("failed") / num("run")
    }
}

/// Compare two sets. Returns the rows, and whether the candidate fails
/// (any `regressed` row, or a rise in `checks_failed ÷ checks_run`).
pub fn compare(a: &Value, b: &Value) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for w in WORKLOADS {
        for d in E2E {
            let (Some(sa), Some(sb)) =
                (samples_of(a, w.name, d.name), samples_of(b, w.name, d.name))
            else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(&sa, &sb, d.better, d.bound);
            if verdict == Verdict::Regressed {
                failures.push(format!(
                    "{} {}: worse by {:.1}% (bound {:.0}%)",
                    w.name,
                    d.name,
                    worse_by * 100.0,
                    d.bound * 100.0
                ));
            }
            rows.push(Row {
                workload: w.name.to_string(),
                metric: d.name.to_string(),
                a: median(&sa),
                b: median(&sb),
                worse_by,
                spread,
                bound: d.bound,
                verdict,
            });
        }
        let (fa, fb) = (failure_share(a, w.name), failure_share(b, w.name));
        if fb > fa {
            failures.push(format!(
                "{}: checks_failed ÷ checks_run rose from {fa:.4} to {fb:.4}",
                w.name
            ));
        }
    }
    (rows, failures)
}

/// Render comparison rows as a table.
pub fn render(rows: &[Row], a: &Value, b: &Value) -> String {
    let label = |v: &Value| {
        get(v, "git_rev")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = format!("a = {}   b = {}\n", label(a), label(b));
    out.push_str(&format!(
        "{:<22} {:<24} {:>12} {:>12} {:>9} {:>8} {:>6}  {}\n",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<24} {:>12.5} {:>12.5} {:>8.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

/// Read a set file.
pub fn read_set(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_orders_verdicts() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.75, 1.25, 0.9, 1.1];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.1).2, Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1).2,
            Verdict::Regressed
        );
        // The same move is an improvement when higher is better.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.1).2, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.1).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.1).2,
            Verdict::Unresolved
        );
        let (worse_by, _, _) = judge(&steady, &slower, Better::Lower, 0.1);
        assert!((worse_by - 0.2).abs() < 1e-9, "{worse_by}");
    }

    fn set(values: &[f64], failed: u64) -> Value {
        let row = obj(vec![(
            "values",
            Value::Array(values.iter().map(|v| Value::Float(*v)).collect()),
        )]);
        let w = WORKLOADS[0].name;
        obj(vec![
            ("end_to_end", obj(vec![(w, obj(vec![("wall_s", row)]))])),
            (
                "checks",
                obj(vec![(
                    w,
                    obj(vec![
                        ("run", Value::UInt(10)),
                        ("failed", Value::UInt(failed)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_failed_checks() {
        let base = set(&[2.0, 2.02, 1.98, 2.0], 0);
        let (rows, failures) = compare(&base, &base);
        assert_eq!(rows.len(), 1);
        assert!(failures.is_empty());
        let (_, failures) = compare(&base, &set(&[2.6, 2.62, 2.58, 2.6], 0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        let (_, failures) = compare(&base, &set(&[2.0, 2.02, 1.98, 2.0], 1));
        assert!(failures[0].contains("checks_failed"), "{failures:?}");
        assert!(render(&rows, &base, &base).contains("ok"));
    }
}
