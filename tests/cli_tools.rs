//! Integration tests for the `ucp` command-line tool (the
//! `ds_to_universal.py` counterpart): convert, inspect, and plan against a
//! real checkpoint.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{saving, scratch};
use ucp_cli::args::{parse, Parsed};
use ucp_cli::commands;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout::{self, AtomFile};
use ucp_repro::storage::ContainerIndex;
use ucp_repro::trainer::{train_run, TrainConfig};

fn make_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        33,
    );
    train_run(&saving(cfg, 2, 2, &dir)).unwrap();
    dir
}

fn flags(args: &[&str]) -> Parsed {
    parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn convert_then_inspect_then_plan() {
    let dir = make_checkpoint("full_flow");
    let dir_s = dir.to_string_lossy().to_string();

    // Convert resolves the step from the `latest` marker.
    commands::convert(&flags(&["--dir", &dir_s, "--workers", "2"])).unwrap();
    assert!(layout::universal_dir(&dir, 2).is_dir());

    // Inspect both halves.
    commands::inspect(&flags(&["--dir", &dir_s])).unwrap();

    // Plan for a reconfigured target.
    commands::plan(&flags(&[
        "--dir", &dir_s, "--step", "2", "--tp", "1", "--pp", "2", "--dp", "2", "--zero", "2",
        "--rank", "3",
    ]))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_with_no_verify() {
    let dir = make_checkpoint("no_verify");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s, "--step", "2", "--no-verify"])).unwrap();
    assert!(layout::universal_dir(&dir, 2)
        .join("manifest.ucpt")
        .is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_rejects_out_of_range_rank() {
    let dir = make_checkpoint("bad_rank");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    let err = commands::plan(&flags(&[
        "--dir", &dir_s, "--step", "2", "--tp", "1", "--pp", "1", "--dp", "1", "--rank", "5",
    ]))
    .unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// ZeRO partitions over dp × sp: SP rank 1 of a DP1·SP2 target owns the
/// second half of the layout, not a range past its end.
#[test]
fn plan_partitions_zero_over_dp_and_sp() {
    let dir = make_checkpoint("plan_sp");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    let report = commands::plan_report(&flags(&[
        "--dir", &dir_s, "--tp", "1", "--pp", "1", "--dp", "1", "--sp", "2", "--rank", "1",
    ]))
    .unwrap();
    // "  flat chunk: {chunk} elements at [{start}, {end}) of {total}"
    let line = report.lines().find(|l| l.contains("flat chunk")).unwrap();
    let numbers: Vec<usize> = (line.split(|c: char| !c.is_ascii_digit()))
        .filter_map(|n| n.parse().ok())
        .collect();
    let [chunk, start, end, total] = numbers[..] else {
        panic!("{line}")
    };
    assert_eq!((start, end, total), (chunk, 2 * chunk, 2 * chunk), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_dir_and_step_errors() {
    assert!(commands::convert(&flags(&[])).is_err());
    let empty = scratch("empty");
    let err = commands::convert(&flags(&["--dir", &empty.to_string_lossy()])).unwrap_err();
    assert!(err.contains("latest"), "{err}");
    std::fs::remove_dir_all(&empty).ok();
}

/// The tool does not link the evaluation harness: `bench` is as unknown
/// as any other word, and the error carries the usage text.
#[test]
fn bench_is_not_a_subcommand() {
    let err = commands::dispatch("bench", &flags(&[])).unwrap_err();
    assert!(err.contains("unknown command 'bench'"), "{err}");
    assert!(
        err.contains("USAGE:") && !err.contains("ucp bench"),
        "{err}"
    );
}

#[test]
fn verify_passes_then_detects_corruption() {
    let dir = make_checkpoint("verify");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap();

    // Flip one byte of one optimizer file: a payload byte, the first
    // block-table entry (payload intact), and the last section's trailing
    // whole-payload CRC each fail the step; restored, it verifies again.
    let victim = layout::optim_states_path(&layout::step_dir(&dir, 2), 0, 0, 0);
    let clean = std::fs::read(&victim).unwrap();
    let index = ContainerIndex::read_file(&victim).unwrap();
    let first = &index.sections[0];
    let table = (first.payload_offset + first.payload_len) as usize;
    for at in [first.payload_offset as usize + 5, table, clean.len() - 2] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x20;
        std::fs::write(&victim, bytes).unwrap();
        let err = commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap_err();
        assert!(err.contains("failed verification"), "byte {at}: {err}");
        assert!(err.contains("dp00_mp00_000/optim_states.ucpt"), "{err}");
        std::fs::write(&victim, &clean).unwrap();
        commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap();
    }

    // A file that is gone is as bad as one that is corrupt: an optimizer
    // shard the step's own parallel configuration implies...
    std::fs::remove_file(&victim).unwrap();
    let err = commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap_err();
    assert!(err.contains("dp00_mp00_000/optim_states.ucpt"), "{err}");

    // ...and, with the native tree out of the way, an atom file the
    // universal manifest lists.
    std::fs::remove_dir_all(layout::step_dir(&dir, 2)).unwrap();
    commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap();
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let atom = layout::atom_path(&universal, &manifest.params[0].name, AtomFile::ExpAvg);
    std::fs::remove_file(&atom).unwrap();
    let err = commands::verify(&flags(&["--dir", &dir_s, "--step", "2"])).unwrap_err();
    let atom_rel = atom.strip_prefix(&dir).unwrap().display().to_string();
    assert!(err.contains(&atom_rel), "{err}");

    // A step with neither tree is still its own error.
    let err = commands::verify(&flags(&["--dir", &dir_s, "--step", "7"])).unwrap_err();
    assert!(
        err.contains("no checkpoint files found for step 7"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_clean_tree_succeeds_and_corrupt_tree_fails() {
    let dir = make_checkpoint("fsck");
    let dir_s = dir.to_string_lossy().to_string();
    // Clean tree: Ok (exit 0 through main's dispatch).
    commands::fsck(&flags(&["--dir", &dir_s])).unwrap();
    commands::fsck(&flags(&["--dir", &dir_s, "--json"])).unwrap();

    // Corrupt one file: Err (non-zero exit), tree quarantined.
    let victim = layout::optim_states_path(&layout::step_dir(&dir, 2), 1, 0, 0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let err = commands::fsck(&flags(&["--dir", &dir_s])).unwrap_err();
    assert!(err.contains("problem"), "{err}");
    assert!(dir.join("global_step2.corrupt").is_dir());
    assert!(!layout::step_dir(&dir, 2).exists());

    // The quarantine fixed the tree: a second pass is clean.
    commands::fsck(&flags(&["--dir", &dir_s])).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_command_still_writes_its_metrics_and_trace() {
    use serde_json::Value;
    use ucp_repro::telemetry::Report;

    let dir = make_checkpoint("err_report");
    let dir_s = dir.to_string_lossy().to_string();
    commands::convert(&flags(&["--dir", &dir_s])).unwrap();
    // Truncate one atom: the session opens (manifest intact), the load
    // fails part-way through real work.
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let victim = layout::atom_path(&universal, &manifest.params[0].name, AtomFile::Fp32);
    std::fs::write(&victim, b"UCPT").unwrap();

    let metrics = dir.join("out/metrics.json");
    let trace = dir.join("out/trace.json");
    let load = [
        "--dir",
        &dir_s,
        "--step",
        "2",
        "--tp",
        "1",
        "--pp",
        "1",
        "--dp",
        "1",
        "--metrics-out",
        &metrics.to_string_lossy(),
        "--trace-out",
        &trace.to_string_lossy(),
    ];
    commands::dispatch("load", &flags(&load)).unwrap_err();

    let report = Report::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(report.label, "load");
    // The phase that failed is in the report: the guard records on `?`.
    assert_eq!(report.span("load/total").unwrap().count, 1);
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(doc.get("traceEvents").and_then(Value::as_array).is_some());
    assert!(commands::dispatch("no-such-command", &flags(&[])).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_no_repair_leaves_tree_alone() {
    let dir = make_checkpoint("fsck_norepair");
    let dir_s = dir.to_string_lossy().to_string();
    let victim = layout::model_states_path(&layout::step_dir(&dir, 2), 0, 0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let err = commands::fsck(&flags(&["--dir", &dir_s, "--no-repair"])).unwrap_err();
    assert!(err.contains("problem"), "{err}");
    assert!(layout::step_dir(&dir, 2).is_dir());
    assert!(!dir.join("global_step2.corrupt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prune_respects_policy() {
    let dir = scratch("prune");
    let dir_s = dir.to_string_lossy().to_string();
    // Three checkpoints at steps 1, 2, 3.
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        34,
    );
    train_run(&saving(cfg, 3, 1, &dir)).unwrap();
    assert_eq!(
        ucp_repro::storage::retention::list_steps(&dir),
        vec![1, 2, 3]
    );
    commands::prune(&flags(&["--dir", &dir_s, "--keep-last", "1"])).unwrap();
    assert_eq!(ucp_repro::storage::retention::list_steps(&dir), vec![3]);
    // Missing policy flag errors.
    assert!(commands::prune(&flags(&["--dir", &dir_s])).is_err());
    // A zero count is refused by name, not clamped or read as "off".
    for (flag, args) in [
        ("--keep-last", vec!["--dir", &dir_s, "--keep-last", "0"]),
        (
            "--keep-every",
            vec!["--dir", &dir_s, "--keep-last", "1", "--keep-every", "0"],
        ),
    ] {
        let err = commands::prune(&flags(&args)).unwrap_err();
        assert!(err.contains(flag) && err.contains(">= 1"), "{err}");
    }
    assert_eq!(ucp_repro::storage::retention::list_steps(&dir), vec![3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_detects_equal_and_different_checkpoints() {
    // Two identically-seeded runs convert to identical universal trees; a
    // differently-seeded run differs.
    let mk = |name: &str, seed: u64| {
        let dir = scratch(name);
        let cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            seed,
        );
        train_run(&saving(cfg, 2, 2, &dir)).unwrap();
        commands::convert(&flags(&["--dir", &dir.to_string_lossy()])).unwrap();
        dir
    };
    let a = mk("diff_a", 70);
    let b = mk("diff_b", 70);
    let c = mk("diff_c", 71);
    let ua = layout::universal_dir(&a, 2).to_string_lossy().to_string();
    let ub = layout::universal_dir(&b, 2).to_string_lossy().to_string();
    let uc = layout::universal_dir(&c, 2).to_string_lossy().to_string();
    commands::diff(&flags(&["--dir", &ua, "--other", &ub])).unwrap();
    let err = commands::diff(&flags(&["--dir", &ua, "--other", &uc])).unwrap_err();
    assert!(err.contains("differences"), "{err}");
    // A huge tolerance swallows the differences.
    commands::diff(&flags(&[
        "--dir",
        &ua,
        "--other",
        &uc,
        "--tolerance",
        "1000",
    ]))
    .unwrap();
    for d in [a, b, c] {
        std::fs::remove_dir_all(&d).ok();
    }
}
