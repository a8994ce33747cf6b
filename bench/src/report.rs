//! Rendering a run: the result line the driver parses, a table for
//! people, and the richer JSON the `suite` subcommand collects.

use serde_json::Value;

use crate::metrics::{COMMAND, E2E, LAYERS, PATHS, RUN_SECONDS, WORKLOADS};
use crate::run::Report;
use crate::stats::Stat;

/// Build a JSON object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Look up `key` in a JSON object.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics`; each metric exactly `value` and `unit`.
pub fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, s)| {
            (
                name.to_string(),
                obj(vec![
                    ("value", Value::Float(s.value)),
                    ("unit", text(s.unit)),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(report.checks.failed == 0)),
        ("attempted", Value::UInt(report.checks.run.max(1))),
        ("failed", Value::UInt(report.checks.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

fn stat_json(s: &Stat) -> Value {
    obj(vec![
        ("value", Value::Float(s.value)),
        ("unit", text(s.unit)),
        ("n", Value::UInt(s.n as u64)),
        ("min", Value::Float(s.min)),
        ("max", Value::Float(s.max)),
    ])
}

/// Everything about the run, for `suite` to aggregate.
pub fn full_json(report: &Report) -> Value {
    obj(vec![
        ("workload", text(report.workload)),
        ("seed", Value::UInt(report.seed)),
        ("trace", Value::Bool(report.trace)),
        ("nproc", Value::UInt(report.nproc as u64)),
        ("scratch_fs", text(&report.scratch_fs)),
        ("passes", Value::UInt(report.passes as u64)),
        ("checks_run", Value::UInt(report.checks.run)),
        ("checks_failed", Value::UInt(report.checks.failed)),
        (
            "failures",
            Value::Array(report.checks.failures.iter().map(|f| text(f)).collect()),
        ),
        (
            "metrics",
            Value::Object(
                report
                    .metrics
                    .iter()
                    .map(|(name, s)| (name.to_string(), stat_json(s)))
                    .collect(),
            ),
        ),
    ])
}

/// Every metric by name with unit and `n`, for people.
pub fn table(report: &Report) -> String {
    let mut out = format!(
        "workload {}  seed {}  {}  nproc {}  scratch_fs {}  passes {}\n",
        report.workload,
        report.seed,
        if report.trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        },
        report.nproc,
        report.scratch_fs,
        report.passes,
    );
    out.push_str(&format!(
        "{:<36} {:>14} {:<8} {:>5} {:>14} {:>14}\n",
        "metric", "value", "unit", "n", "min", "max"
    ));
    for (name, s) in &report.metrics {
        if s.n == 0 {
            out.push_str(&format!("{name:<36} {:>14} {:<8} {:>5}\n", "-", s.unit, 0));
        } else {
            out.push_str(&format!(
                "{name:<36} {:>14.6} {:<8} {:>5} {:>14.6} {:>14.6}\n",
                s.value, s.unit, s.n, s.min, s.max
            ));
        }
    }
    out.push_str(&format!(
        "checks: {} run, {} failed\n",
        report.checks.run, report.checks.failed
    ));
    for f in &report.checks.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

/// The contents of `BENCHMARK.json`, from the tables in `metrics.rs`.
pub fn manifest() -> String {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let manifest = obj(vec![
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                E2E.iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                LAYERS
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&manifest).expect("manifest serializes") + "\n"
}
