//! Self-tests that drive the real binary: every name in `BENCHMARK.json`
//! is emitted by `--smoke` and vice versa, the traced loops do the same
//! work as the production drivers, and a damaged atom is caught.
//!
//! The runs are serialised: each is a two-rank training process and the
//! box has two cores.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use serde_json::Value;
use ucp_e2e::metrics::{E2E, LAYERS, WORKLOADS};
use ucp_e2e::report::{as_f64, get};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Run `ucp-e2e --smoke` and parse the last line of its standard output.
fn smoke(workload: &str, trace: bool, extra: &[&str]) -> Value {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let scratch = repo_root().join(".bench_scratch").join("selftest");
    let out = Command::new(env!("CARGO_BIN_EXE_ucp-e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--scratch")
        .arg(&scratch)
        .args(extra)
        .output()
        .expect("spawn ucp-e2e");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    // Trees are removed on the way out.
    let left: Vec<_> = std::fs::read_dir(&scratch)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "{workload} left {left:?} behind");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// The result line holds exactly the four keys, every metric of the mode
/// with exactly `value` and `unit`, and no failed check.
fn assert_result(workload: &str, trace: bool, line: &Value) {
    let expect = ["attempted", "correct", "failed", "metrics"];
    assert_eq!(keys(line), expect.iter().map(|s| s.to_string()).collect());
    let failed = get(line, "failed").and_then(as_f64).expect("failed");
    let attempted = get(line, "attempted").and_then(as_f64).expect("attempted");
    assert_eq!(failed, 0.0, "{workload} trace={trace}: checks failed");
    assert!(attempted >= 1.0);
    assert_eq!(get(line, "correct"), Some(&Value::Bool(true)));

    let metrics = get(line, "metrics").expect("metrics");
    let defined: Vec<(&str, &str)> = if trace {
        LAYERS.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        E2E.iter().map(|d| (d.name, d.unit)).collect()
    };
    let names: BTreeSet<String> = defined.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(keys(metrics), names, "{workload} trace={trace}");
    for (name, unit) in defined {
        let m = get(metrics, name).expect("metric");
        assert_eq!(
            keys(m),
            ["unit", "value"].iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(get(m, "unit").and_then(Value::as_str), Some(unit), "{name}");
        let value = get(m, "value").and_then(as_f64).expect("value");
        assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        if !trace {
            assert!(value > 0.0, "end-to-end metric {name} is 0 on {workload}");
        }
    }
}

/// Both modes of one workload. The traced mode compares, inside the run,
/// the bench-owned loop's losses and checkpoint tree with the production
/// driver's; a difference is a failed check.
fn both_modes(workload: &str) {
    assert_result(workload, false, &smoke(workload, false, &[]));
    assert_result(workload, true, &smoke(workload, true, &[]));
}

#[test]
fn smoke_dense_sync_reshard() {
    both_modes("dense_sync_reshard");
}

#[test]
fn smoke_dense_overlap_every1() {
    both_modes("dense_overlap_every1");
}

#[test]
fn smoke_moe_overlap_every1() {
    both_modes("moe_overlap_every1");
}

#[test]
fn smoke_dense_kill_recover() {
    both_modes("dense_kill_recover");
}

#[test]
fn smoke_reshard_load_fanout() {
    both_modes("reshard_load_fanout");
}

#[test]
fn corrupted_atom_fails_a_check() {
    let line = smoke("dense_overlap_every1", false, &["--corrupt-atom"]);
    let failed = get(&line, "failed").and_then(as_f64).expect("failed");
    assert!(failed >= 1.0, "a flipped atom byte went unnoticed");
    assert_eq!(get(&line, "correct"), Some(&Value::Bool(false)));
}

#[test]
fn benchmark_json_is_what_the_binary_defines() {
    let out = Command::new(env!("CARGO_BIN_EXE_ucp-e2e"))
        .arg("manifest")
        .output()
        .expect("spawn ucp-e2e");
    assert!(out.status.success());
    let file = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(String::from_utf8_lossy(&out.stdout), file);
    assert!(file.len() <= 64 << 10);
    let parsed: Value = serde_json::from_str(&file).expect("BENCHMARK.json parses");
    let expect = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    assert_eq!(
        keys(&parsed),
        expect.iter().map(|s| s.to_string()).collect()
    );
    let listed = get(&parsed, "workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
}
