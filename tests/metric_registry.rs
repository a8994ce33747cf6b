//! DESIGN.md's "Metric-name registry" cannot drift from the code: every
//! span, counter and histogram a full train → convert → load → fsck flow
//! records must be a row of that table.
//!
//! One test, one process: it owns the process-global recorder.

use std::collections::BTreeSet;
use std::time::Duration;

use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::fsck::{fsck, FsckOptions};
use ucp_repro::core::load::{LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::trainer::supervisor::{supervise, FaultKind, RankFault, SupervisorOptions};
use ucp_repro::trainer::{ResumeMode, SavePolicy, TrainConfig, TrainPlan};

/// The backticked names in the first column of the registry table, with
/// `a/{x,y}` alternations expanded.
fn registered(design: &str) -> BTreeSet<String> {
    let section = design
        .split("## Metric-name registry")
        .nth(1)
        .expect("DESIGN.md has the registry section");
    let section = section.split("\n## ").next().unwrap();
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).unwrap();
        for name in cell.split('`').skip(1).step_by(2) {
            match name.split_once('{') {
                Some((stem, alts)) => {
                    for alt in alts.trim_end_matches('}').split(',') {
                        names.insert(format!("{stem}{alt}"));
                    }
                }
                None => {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Undo the fleet expansion: `fleet/<name>` and
/// `fleet/<name>/{sum,min,max,skew}` are registered through `<name>`.
fn base_name(name: &str) -> &str {
    let Some(rest) = name.strip_prefix("fleet/") else {
        return name;
    };
    if rest == "ranks" {
        return name;
    }
    ["/sum", "/min", "/max", "/skew"]
        .iter()
        .find_map(|suffix| rest.strip_suffix(suffix))
        .unwrap_or(rest)
}

#[test]
fn every_recorded_name_is_in_the_design_registry() {
    let registry = registered(include_str!("../DESIGN.md"));
    assert!(registry.contains("save/persist") && registry.contains("fleet/ranks"));

    let dir = std::env::temp_dir().join(format!("ucp_it_metric_registry_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);

    // Train: overlapped born-universal saves at every iteration with the
    // hot tier armed, one rank killed mid-run. A sparsely routed MoE keeps
    // most experts clean between saves, so atoms are linked, not only
    // written.
    let mut model = ModelConfig::moe_tiny();
    model.num_experts = 32;
    model.top_k = 1;
    model.max_seq_len = 4;
    let source = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
    let mut config = TrainConfig::quick(model, source, 61);
    config.global_batch = 2;
    config.micro_batch = 1;
    let plan = TrainPlan {
        config,
        until_iteration: 4,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.clone()),
    };
    let opts = SupervisorOptions {
        deadline: Duration::from_secs(2),
        max_restarts: 1,
        ladder: Vec::new(),
        faults: vec![RankFault {
            rank: 3,
            step: 3,
            kind: FaultKind::Panic,
        }],
        hot_replicas: Some(1),
        save: SavePolicy::BORN_UNIVERSAL,
    };
    let report = supervise(&plan, &opts).unwrap();
    assert_eq!(report.restarts.len(), 1);

    // Convert → load (resharded) → fsck on the tree the run left.
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let session = LoadSession::open(&dir, 4, LoadOptions::default()).unwrap();
    for rank in 0..target.world_size() {
        session.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
    }
    assert!(fsck(&dir, &FsckOptions::default()).unwrap().clean());

    let metrics = rec.report("registry");
    rec.set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();

    let recorded: BTreeSet<&str> = (metrics.spans.iter().map(|s| s.path.as_str()))
        .chain(metrics.counters.iter().map(|c| c.name.as_str()))
        .chain(metrics.histograms.iter().map(|h| h.name.as_str()))
        .collect();
    // The flow reaches every layer, including the names the registry once
    // missed.
    for name in [
        "save/atom_write",
        "save/atom_link",
        "convert/atom_write",
        "load/worker_busy_ns",
        "recovery/locate",
        "fsck/total",
        "storage/write",
        "fleet/rank/step_us",
    ] {
        assert!(recorded.contains(name), "flow did not record {name}");
    }
    let unregistered: Vec<&str> = recorded
        .iter()
        .copied()
        .filter(|name| !registry.contains(base_name(name)))
        .collect();
    assert!(
        unregistered.is_empty(),
        "recorded but missing from DESIGN.md's metric-name registry: {unregistered:?}"
    );
}
