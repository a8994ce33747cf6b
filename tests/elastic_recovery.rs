//! Elastic recovery chaos matrix (PR 5 acceptance).
//!
//! For every scheduled rank kill — panic AND hang variants — across three
//! kill steps and two degraded target topologies, the supervisor must
//! auto-resume from the latest committed checkpoint, the post-resume loss
//! trajectory must be bitwise-equal to a fault-free reference run from
//! that step, no collective may block past the watchdog deadline, and
//! `ucp fsck` must find the tree clean after every recovery.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ucp_repro::core::fsck::{fsck, FsckOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::{journal, layout, JournalEvent};
use ucp_repro::trainer::supervisor::{supervise, FaultKind, RankFault, SupervisorOptions};
use ucp_repro::trainer::{train_run, ResumeMode, SavePolicy, TrainConfig, TrainPlan};

#[path = "support/tree.rs"]
mod tree;

const ITERS: u64 = 6;
const SAVE_EVERY: u64 = 2;
const SEED: u64 = 4242;
const DEADLINE: Duration = Duration::from_secs(1);

/// Serializes the tests in this file: the recovery-counter test reads
/// the process-global telemetry recorder, which a concurrently running
/// supervised recovery from another test would also increment.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucp_elastic_recovery_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn source_topology() -> ParallelConfig {
    // 4 ranks: TP2 x PP1 x DP2.
    ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1)
}

fn degraded_targets() -> Vec<ParallelConfig> {
    vec![
        // Lose the second DP replica: TP2 x PP1 x DP1 (2 ranks).
        ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
        // Lose a whole TP pair too: TP1 x PP1 x DP2 (2 ranks).
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
    ]
}

/// Names of this process's live threads (Linux `comm` values).
fn live_thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                .map(|name| name.trim().to_string())
                .collect()
        })
        .unwrap_or_default()
}

/// One chaos cell: train under the source topology saving with `save`,
/// kill the highest rank at `kill_step`, and let the supervisor resume
/// under `target`. Asserts what every cell must satisfy — one recovery
/// cycle with exact attribution, resume from `expected_resume`, losses
/// bitwise-equal to a fault-free reference, markers ordered, no writer
/// thread left behind, `fsck` clean.
fn recover_cell(
    label: &str,
    kill_step: u64,
    kind: FaultKind,
    target: ParallelConfig,
    save: SavePolicy,
    expected_resume: u64,
) {
    let source = source_topology();
    let kill_rank = source.world_size() - 1;
    let dir = tmp(label);
    let plan = TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), source, SEED),
        until_iteration: ITERS,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(SAVE_EVERY),
        checkpoint_dir: Some(dir.clone()),
    };
    let opts = SupervisorOptions {
        deadline: DEADLINE,
        hot_replicas: None,
        max_restarts: 2,
        ladder: vec![target],
        faults: vec![RankFault {
            rank: kill_rank,
            step: kill_step,
            kind,
        }],
        save,
    };
    let t0 = Instant::now();
    let report =
        supervise(&plan, &opts).unwrap_or_else(|e| panic!("cell {label} did not recover: {e}"));
    let elapsed = t0.elapsed();
    // Every background writer is joined before `supervise` returns (the
    // tests in this file run one at a time, so any saver is ours).
    let threads = live_thread_names();
    assert!(
        !threads.iter().any(|t| t == "ucp-saver"),
        "cell {label} left a writer thread alive: {threads:?}"
    );
    // No collective may block past the watchdog deadline: even
    // the hang cells must finish in bounded time (training +
    // recovery + one deadline), far under this ceiling.
    assert!(
        elapsed < Duration::from_secs(120),
        "cell {label} took {elapsed:?}"
    );

    assert_eq!(report.restarts.len(), 1, "exactly one recovery cycle");
    let restart = &report.restarts[0];
    assert_eq!(restart.rank, kill_rank);
    assert_eq!(restart.step, kill_step);
    assert!(
        restart.payload.contains("injected fault"),
        "unexpected payload: {}",
        restart.payload
    );
    assert_eq!(restart.parallel, target);
    assert_eq!(restart.resume_step, Some(expected_resume));
    assert_eq!(restart.lost_steps, kill_step - expected_resume);
    // A hang trips the watchdog on the ranks blocked on it: exactly one
    // `watchdog` record, naming the hung rank. A panic is seen as a dead
    // peer within one tick — no watchdog fires.
    let run_journal = journal::read(&dir).unwrap();
    let watchdogs: Vec<_> = run_journal.of_kind("watchdog").map(|r| &r.event).collect();
    match kind {
        FaultKind::Hang => {
            assert_eq!(watchdogs.len(), 1, "cell {label}: {watchdogs:?}");
            let JournalEvent::Watchdog { rank, step, detail } = watchdogs[0] else {
                unreachable!("of_kind(\"watchdog\") yields watchdog records");
            };
            assert_eq!((*rank, *step), (kill_rank, kill_step), "cell {label}");
            assert!(
                detail.starts_with("watchdog timeout"),
                "cell {label}: {detail}"
            );
        }
        _ => assert!(watchdogs.is_empty(), "cell {label}: {watchdogs:?}"),
    }

    // Post-resume trajectory must be bitwise-equal to a
    // fault-free run resumed from the same committed
    // checkpoint under the same degraded topology.
    let reference = train_run(&TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), target, SEED),
        until_iteration: ITERS,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: expected_resume,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    let resumed = &report.final_segment().losses;
    assert_eq!(resumed.len(), reference.losses.len());
    for ((ia, la), (ib, lb)) in resumed.iter().zip(&reference.losses) {
        assert_eq!(ia, ib);
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "cell {label} iteration {ia}: resumed {la} != reference {lb}"
        );
    }

    // Marker ordering: the universal marker never runs ahead of the
    // native one.
    let latest = layout::read_latest(&dir).expect("the run committed a checkpoint");
    assert!(
        layout::read_latest_universal(&dir).is_none_or(|u| u <= latest),
        "cell {label}: latest_universal ahead of latest ({latest})"
    );
    // The tree must be fsck-clean after the recovery.
    let fsck_report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    assert!(
        fsck_report.clean(),
        "cell {label} left a dirty tree: {fsck_report:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos matrix: 3 kill steps x {panic, hang} x 2 degraded targets.
/// Every cell replays a fault-free reference from its own checkpoint
/// tree and compares loss trajectories bit for bit.
#[test]
fn chaos_matrix_recovers_bitwise_under_reduced_parallelism() {
    let _guard = test_guard();
    let mut cells_run = 0usize;
    for kill_step in [3u64, 4, 5] {
        for kind in [FaultKind::Panic, FaultKind::Hang] {
            for (ti, target) in degraded_targets().into_iter().enumerate() {
                let kind_label = match kind {
                    FaultKind::Panic => "panic",
                    FaultKind::Hang => "hang",
                    FaultKind::SlowMs(_) => unreachable!(),
                };
                // Checkpoints land at steps 2, 4, 6; the latest committed
                // step before the kill is the resume point.
                let expected_resume = (kill_step / SAVE_EVERY) * SAVE_EVERY;
                recover_cell(
                    &format!("s{kill_step}_{kind_label}_t{ti}"),
                    kill_step,
                    kind,
                    target,
                    SavePolicy::default(),
                    expected_resume,
                );
                cells_run += 1;
            }
        }
    }
    assert_eq!(cells_run, 12);
}

/// Supervised x overlapped born-universal: the same cell under
/// [`SavePolicy::BORN_UNIVERSAL`]. An overlapped save commits `latest` one
/// boundary late (step 4's writers are still in flight when rank 3 dies
/// at step 5), so the disk tier resumes from step 2 — whose universal
/// tree the save pipeline already published, so recovery skips the
/// convert pass.
#[test]
fn supervised_overlapped_recovery_skips_the_convert() {
    let _guard = test_guard();
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    recover_cell(
        "overlapped",
        5,
        FaultKind::Panic,
        degraded_targets()[0],
        SavePolicy::BORN_UNIVERSAL,
        2,
    );
    let metrics = rec.report("supervised_overlapped");
    rec.set_enabled(false);
    assert_eq!(metrics.counter("recovery/convert_skipped"), Some(1));
}

/// A kill before the first committed checkpoint restarts fresh under the
/// degraded topology — no checkpoint means losing all progress, not
/// deadlocking or giving up.
#[test]
fn kill_before_first_checkpoint_restarts_fresh() {
    let _guard = test_guard();
    let dir = tmp("fresh_restart");
    let source = source_topology();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let plan = TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), source, SEED),
        until_iteration: 4,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(4),
        checkpoint_dir: Some(dir.clone()),
    };
    let opts = SupervisorOptions {
        deadline: DEADLINE,
        hot_replicas: None,
        max_restarts: 2,
        ladder: vec![target],
        faults: vec![RankFault {
            rank: 0,
            step: 1,
            kind: FaultKind::Panic,
        }],
        save: SavePolicy::default(),
    };
    let report = supervise(&plan, &opts).unwrap();
    assert_eq!(report.restarts.len(), 1);
    assert_eq!(report.restarts[0].resume_step, None);
    assert_eq!(report.restarts[0].lost_steps, 1);
    // The fresh restart under the degraded topology matches a plain fresh
    // run bitwise.
    let reference = train_run(&TrainPlan::simple(
        TrainConfig::quick(ModelConfig::gpt3_tiny(), target, SEED),
        4,
    ))
    .unwrap();
    let resumed = &report.final_segment().losses;
    assert_eq!(resumed.len(), reference.losses.len());
    for ((ia, la), (ib, lb)) in resumed.iter().zip(&reference.losses) {
        assert_eq!(ia, ib);
        assert_eq!(la.to_bits(), lb.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two sequential faults consume two rungs of the ladder: the run first
/// degrades TP2xPP1xDP2 -> TP2xPP1xDP1, is killed again, and finishes on
/// the final single-rank rung — the paper's repeated-shrink scenario.
#[test]
fn repeated_failures_walk_down_the_ladder() {
    let _guard = test_guard();
    let dir = tmp("ladder_walk");
    let source = source_topology();
    let rung1 = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let rung2 = ParallelConfig::single();
    let plan = TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), source, SEED),
        until_iteration: 8,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    };
    let opts = SupervisorOptions {
        deadline: DEADLINE,
        hot_replicas: None,
        max_restarts: 3,
        ladder: vec![rung1, rung2],
        faults: vec![
            RankFault {
                rank: 3,
                step: 3,
                kind: FaultKind::Panic,
            },
            // Fires in the rung1 segment (2 ranks), killing rank 1.
            RankFault {
                rank: 1,
                step: 5,
                kind: FaultKind::Hang,
            },
        ],
        save: SavePolicy::default(),
    };
    let report = supervise(&plan, &opts).unwrap();
    assert_eq!(report.restarts.len(), 2);
    assert_eq!(report.restarts[0].parallel, rung1);
    assert_eq!(report.restarts[0].resume_step, Some(2));
    assert_eq!(report.restarts[1].parallel, rung2);
    assert_eq!(report.restarts[1].resume_step, Some(4));
    let last = report.final_segment();
    assert_eq!(last.start_iteration, 4);
    assert_eq!(last.losses.last().unwrap().0, 8);
    // Reference: fault-free single-rank run from the step-4 universal
    // checkpoint the second recovery produced.
    let reference = train_run(&TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), rung2, SEED),
        until_iteration: 8,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 4,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    for ((ia, la), (ib, lb)) in last.losses.iter().zip(&reference.losses) {
        assert_eq!(ia, ib);
        assert_eq!(la.to_bits(), lb.to_bits());
    }
    assert!(fsck(&dir, &FsckOptions { repair: false }).unwrap().clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The telemetry recovery counters are recorded when the global recorder
/// is enabled during a supervised recovery.
#[test]
fn recovery_counters_are_recorded() {
    let _guard = test_guard();
    let dir = tmp("telemetry");
    let plan = TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            SEED,
        ),
        until_iteration: 6,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    };
    let opts = SupervisorOptions {
        deadline: DEADLINE,
        hot_replicas: None,
        max_restarts: 2,
        ladder: vec![ParallelConfig::single()],
        faults: vec![RankFault {
            rank: 1,
            step: 3,
            kind: FaultKind::Panic,
        }],
        save: SavePolicy::default(),
    };
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let report = supervise(&plan, &opts).unwrap();
    let metrics = rec.report("elastic_recovery_test");
    rec.set_enabled(false);
    assert_eq!(report.restarts.len(), 1);
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter("recovery/failures"), 1);
    assert_eq!(counter("recovery/restarts"), 1);
    assert_eq!(counter("recovery/lost_steps"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `UCP_RANK_FAULTS` clause syntax parses into the same schedule the
/// programmatic API takes ([`supervise`] merges both sources).
#[test]
fn parse_faults_roundtrip_matches_env_syntax() {
    let faults =
        ucp_repro::trainer::parse_faults("rank=3,step=4,kind=hang;rank=0,step=2,kind=slow:50")
            .unwrap();
    assert_eq!(
        faults,
        vec![
            RankFault {
                rank: 3,
                step: 4,
                kind: FaultKind::Hang
            },
            RankFault {
                rank: 0,
                step: 2,
                kind: FaultKind::SlowMs(50)
            },
        ]
    );
}

/// Copy the directory tree `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().flatten() {
        let dest = to.join(e.file_name());
        if e.path().is_dir() {
            copy_tree(&e.path(), &dest);
        } else {
            std::fs::copy(e.path(), &dest).unwrap();
        }
    }
}

/// Disk recovery of a sync-native step converts it durably and resumes
/// from the atoms the convert assembled, still in RAM: the resumed ranks
/// read no checkpoint bytes (`load/bytes_read` stays 0), the universal
/// tree left behind is byte-identical to an offline convert of the same
/// step and fsck-clean, and the resumed losses are bitwise-equal to a
/// reference resumed from that tree. The MoE cell publishes its expert
/// weights as split sub-atoms, which the in-RAM checkpoint serves whole.
#[test]
fn disk_recovery_resumes_from_the_converted_atoms_in_ram() {
    let _guard = test_guard();
    let source = source_topology();
    let target = degraded_targets()[0];
    for (label, model) in [
        ("dense", ModelConfig::gpt3_tiny()),
        ("moe", ModelConfig::moe_tiny()),
    ] {
        let dir = tmp(&format!("in_ram_{label}"));
        let plan = TrainPlan {
            config: TrainConfig::quick(model.clone(), source, SEED),
            until_iteration: ITERS,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(SAVE_EVERY),
            checkpoint_dir: Some(dir.clone()),
        };
        let opts = SupervisorOptions {
            deadline: DEADLINE,
            hot_replicas: None,
            max_restarts: 2,
            ladder: vec![target],
            faults: vec![RankFault {
                rank: source.world_size() - 1,
                step: 3,
                kind: FaultKind::Panic,
            }],
            save: SavePolicy::default(),
        };
        let rec = ucp_repro::telemetry::global();
        rec.reset();
        rec.set_enabled(true);
        let report = supervise(&plan, &opts);
        let metrics = rec.report(label);
        rec.set_enabled(false);
        let report = report.unwrap_or_else(|e| panic!("{label} did not recover: {e}"));

        assert_eq!(report.restarts.len(), 1, "{label}");
        let restart = &report.restarts[0];
        assert_eq!(restart.source, "disk", "{label}");
        assert_eq!(restart.resume_step, Some(2), "{label}");
        assert_eq!(metrics.counter("recovery/convert_skipped"), None, "{label}");
        assert!(
            metrics.counter("convert/atoms_written").unwrap_or(0) > 0,
            "{label}: the recovery did not convert"
        );
        assert_eq!(
            metrics.counter("load/bytes_read").unwrap_or(0),
            0,
            "{label}: the resumed ranks read atoms back from disk"
        );

        // The tree the recovery published is the offline convert's.
        let offline = tmp(&format!("in_ram_{label}_offline"));
        copy_tree(&layout::step_dir(&dir, 2), &layout::step_dir(&offline, 2));
        ucp_repro::trainer::convert_checkpoint(
            &offline,
            2,
            &ucp_repro::core::convert::ConvertOptions::default(),
        )
        .unwrap();
        let published = tree::tree_bytes(&layout::universal_dir(&dir, 2));
        assert!(!published.is_empty(), "{label}: no universal tree");
        if label == "moe" {
            assert!(
                published
                    .iter()
                    .any(|(name, _)| name.ends_with(".ucpt.000")),
                "{label}: no split sub-atom in the tree"
            );
        }
        assert!(
            published == tree::tree_bytes(&layout::universal_dir(&offline, 2)),
            "{label}: the recovery's tree differs from an offline convert"
        );
        assert_eq!(layout::read_latest_universal(&dir), Some(2), "{label}");
        let fsck_report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
        assert!(fsck_report.clean(), "{label}: {fsck_report:?}");

        // Resumed from memory, bitwise-equal to a resume from the tree.
        let reference = train_run(&TrainPlan {
            config: TrainConfig::quick(model, target, SEED),
            until_iteration: ITERS,
            resume: ResumeMode::Universal {
                dir: dir.clone(),
                step: 2,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        let resumed = &report.final_segment().losses;
        assert_eq!(resumed.len(), reference.losses.len(), "{label}");
        for ((ia, la), (ib, lb)) in resumed.iter().zip(&reference.losses) {
            assert_eq!(ia, ib, "{label}");
            assert_eq!(
                la.to_bits(),
                lb.to_bits(),
                "{label} iteration {ia}: resumed {la} != reference {lb}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&offline);
    }
}
