//! Peer-replicated hot checkpoint tier: tiered recovery (RAM → disk).
//!
//! The hot tier replicates each rank's optimizer shard to K peers in RAM
//! every save; a supervised recovery must serve the resume state from the
//! surviving replicas when the lost set fits inside K, and fall back to
//! the committed disk checkpoint — without data loss — when it does not.
//! These tests pin down both directions plus the acceptance invariants:
//!
//! - a single-rank kill recovers from **peer memory**, and the resumed
//!   loss trajectory is bitwise-equal to a fault-free run resumed from
//!   the *disk* checkpoint of the same step (the RAM-assembled universal
//!   checkpoint is bit-identical to the converted one);
//! - a double fault (lost set 2 > K=1) cleanly falls back to **disk**,
//!   again bitwise-equal, ticking `recovery/fallback_disk`;
//! - killing a rank together with its only replica holder (replica-owner
//!   dead) also falls back to disk;
//! - the journal records the `hot_replicated` / `hot_recovery_begin` /
//!   `hot_recovery_end` lifecycle and attributes `recovery_end` to the
//!   tier that actually served.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use ucp_repro::core::fsck::{fsck, FsckOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::journal;
use ucp_repro::trainer::supervisor::{supervise, FaultKind, RankFault, SupervisorOptions};
use ucp_repro::trainer::{train_run, ResumeMode, SavePolicy, TrainConfig, TrainPlan};

const ITERS: u64 = 6;
const SAVE_EVERY: u64 = 2;
const SEED: u64 = 7117;
const DEADLINE: Duration = Duration::from_secs(2);

/// Serializes the tests: several read the process-global telemetry
/// recorder, which a concurrent supervised recovery would also touch.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_hot_tier_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn source_topology() -> ParallelConfig {
    // 4 ranks: TP2 x PP1 x DP2.
    ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1)
}

fn hot_plan(dir: &Path) -> TrainPlan {
    TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), source_topology(), SEED),
        until_iteration: ITERS,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(SAVE_EVERY),
        checkpoint_dir: Some(dir.to_path_buf()),
    }
}

fn hot_opts(target: ParallelConfig, faults: Vec<RankFault>) -> SupervisorOptions {
    SupervisorOptions {
        deadline: DEADLINE,
        max_restarts: 2,
        ladder: vec![target],
        faults,
        hot_replicas: Some(1),
        save: SavePolicy::default(),
    }
}

/// Reference trajectory: a fault-free run resumed from the *disk*
/// universal checkpoint at `step` under `target`. Converts first when the
/// universal tree is missing (a peer-memory recovery never touches it),
/// which makes the bitwise comparison a direct RAM-vs-disk equivalence
/// proof.
fn disk_reference(dir: &Path, target: ParallelConfig, step: u64) -> Vec<(u64, f64)> {
    let universal = ucp_repro::storage::layout::universal_dir(dir, step);
    if !ucp_repro::storage::layout::manifest_path(&universal).exists() {
        ucp_repro::trainer::convert_checkpoint(
            dir,
            step,
            &ucp_repro::core::convert::ConvertOptions::default(),
        )
        .unwrap();
    }
    train_run(&TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), target, SEED),
        until_iteration: ITERS,
        resume: ResumeMode::Universal {
            dir: dir.to_path_buf(),
            step,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap()
    .losses
}

fn assert_bitwise_equal(resumed: &[(u64, f64)], reference: &[(u64, f64)], label: &str) {
    assert_eq!(resumed.len(), reference.len(), "{label}: length mismatch");
    for ((ia, la), (ib, lb)) in resumed.iter().zip(reference) {
        assert_eq!(ia, ib, "{label}: iteration mismatch");
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "{label} iteration {ia}: resumed {la} != reference {lb}"
        );
    }
}

/// Single-rank kill, K = 1: recovery must come from peer memory, beat the
/// trip to disk entirely (no convert pass), and replay bitwise-equal to a
/// disk-resumed reference — including under a *reconfigured* (degraded)
/// topology, which exercises the shard remapping of the in-memory
/// universal checkpoint. The last cell runs the tier under the overlapped
/// born-universal policy: the push then rides the snapshot the background
/// writers persist, and the replicas are one save ahead of `latest`.
#[test]
fn single_kill_recovers_from_peer_memory_bitwise() {
    let _guard = test_guard();
    let source = source_topology();
    for (ti, (target, save)) in [
        (
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            SavePolicy::default(),
        ),
        (
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            SavePolicy::default(),
        ),
        (
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            SavePolicy::BORN_UNIVERSAL,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = tmp(&format!("peer_t{ti}"));
        let rec = ucp_repro::telemetry::global();
        rec.reset();
        rec.set_enabled(true);
        let mut opts = hot_opts(
            target,
            vec![RankFault {
                rank: source.world_size() - 1,
                step: 3,
                kind: FaultKind::Panic,
            }],
        );
        opts.save = save;
        let report = supervise(&hot_plan(&dir), &opts).unwrap();
        let metrics = rec.report("hot_single");
        rec.set_enabled(false);

        assert_eq!(report.restarts.len(), 1);
        let restart = &report.restarts[0];
        assert_eq!(restart.source, "peer", "expected a RAM-served recovery");
        assert_eq!(restart.resume_step, Some(2));
        assert_eq!(restart.lost_steps, 1);
        assert_eq!(restart.parallel, target);

        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(counter("recovery/source_peer"), 1);
        assert_eq!(counter("recovery/fallback_disk"), 0);
        // The peer path never ran the convert pass.
        assert_eq!(counter("recovery/convert_skipped"), 0);
        // Supervised segments report their per-rank step time and save
        // stall — what `ucp status --max-save-stall-ms` reads.
        for name in ["fleet/rank/step_us", "fleet/rank/save_block_us"] {
            assert!(
                metrics.hist(name).is_some_and(|h| h.count > 0),
                "supervised run recorded no {name}"
            );
        }

        // The killed segment keeps its per-rank metrics. Every source rank
        // finished the 2 iterations before the save barrier; the 3rd is
        // counted by the victim and by each survivor whose last collective
        // returned before the death was noticed; none can finish a 4th
        // without rank 3. Every target rank ran the 4 after the resume.
        let resumed = target.world_size() as u64 * (ITERS - 2);
        let killed = source.world_size() as u64;
        let steps = metrics.hist("fleet/rank/step_us").unwrap().count;
        assert!(
            (killed * 2 + 1 + resumed..=killed * 3 + resumed).contains(&steps),
            "{steps} iterations recorded; the dead segment's are missing"
        );
        assert_eq!(metrics.counter("fleet/rank/iterations/sum"), Some(steps));

        // Bitwise equivalence against the disk tier (converted on demand).
        let reference = disk_reference(&dir, target, 2);
        assert_bitwise_equal(
            &report.final_segment().losses,
            &reference,
            &format!("peer_t{ti}"),
        );

        // Journal lifecycle: replication waves at both save boundaries of
        // the first segment, one hot recovery that did NOT fall back, and
        // a recovery_end attributed to the peer tier.
        let j = journal::read(&dir).unwrap();
        assert!(j.of_kind("hot_replicated").count() >= 1);
        assert_eq!(j.of_kind("hot_recovery_begin").count(), 1);
        let hot_ends: Vec<_> = j.of_kind("hot_recovery_end").collect();
        assert_eq!(hot_ends.len(), 1);
        match &hot_ends[0].event {
            journal::JournalEvent::HotRecoveryEnd {
                served_ranks,
                fallback,
            } => {
                assert!(!fallback);
                assert!(!served_ranks.is_empty());
                assert!(
                    !served_ranks.contains(&(source.world_size() - 1)),
                    "the dead rank cannot serve replicas: {served_ranks:?}"
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &j.of_kind("recovery_end").next().unwrap().event {
            journal::JournalEvent::RecoveryEnd { source, .. } => assert_eq!(source, "peer"),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(fsck(&dir, &FsckOptions { repair: false }).unwrap().clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Double fault with K = 1: the lost set (2 consecutive ranks) exceeds the
/// replication factor, so every copy of the first victim's shard is gone —
/// the recovery must fall back to disk, tick `recovery/fallback_disk`,
/// and still replay bitwise-equal with no data loss.
#[test]
fn double_fault_falls_back_to_disk_bitwise() {
    let _guard = test_guard();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let dir = tmp("double_fault");
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    // Ranks 2 and 3 die at the same step: rank 2's only replica holder
    // (rank 3) is part of the lost set.
    let report = supervise(
        &hot_plan(&dir),
        &hot_opts(
            target,
            vec![
                RankFault {
                    rank: 3,
                    step: 3,
                    kind: FaultKind::Panic,
                },
                RankFault {
                    rank: 2,
                    step: 3,
                    kind: FaultKind::Panic,
                },
            ],
        ),
    )
    .unwrap();
    let metrics = rec.report("hot_double");
    rec.set_enabled(false);

    // One recovery cycle: the supervisor models the co-scheduled faults as
    // a single lost set instead of burning a restart per kill.
    assert_eq!(report.restarts.len(), 1);
    let restart = &report.restarts[0];
    assert_eq!(restart.source, "disk", "2 faults > K=1 must go to disk");
    assert_eq!(restart.resume_step, Some(2));
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(counter("recovery/fallback_disk"), 1);
    assert_eq!(counter("recovery/source_peer"), 0);

    let reference = disk_reference(&dir, target, 2);
    assert_bitwise_equal(&report.final_segment().losses, &reference, "double_fault");

    let j = journal::read(&dir).unwrap();
    let hot_ends: Vec<_> = j.of_kind("hot_recovery_end").collect();
    assert_eq!(hot_ends.len(), 1);
    assert!(matches!(
        &hot_ends[0].event,
        journal::JournalEvent::HotRecoveryEnd { fallback: true, .. }
    ));
    match &j.of_kind("recovery_end").next().unwrap().event {
        journal::JournalEvent::RecoveryEnd { source, .. } => assert_eq!(source, "disk"),
        other => panic!("unexpected event {other:?}"),
    }
    assert!(fsck(&dir, &FsckOptions { repair: false }).unwrap().clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica-owner-dead: the failing rank's unique holder (K = 1) dies in
/// the same lost set even though the two are not the "top N" ranks — the
/// tier must detect the hole and fall back to disk.
#[test]
fn replica_owner_dead_falls_back_to_disk() {
    let _guard = test_guard();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let dir = tmp("owner_dead");
    // holders_of(3) = {0} with K=1 on 4 ranks: kill 3 and its holder 0.
    let report = supervise(
        &hot_plan(&dir),
        &hot_opts(
            target,
            vec![
                RankFault {
                    rank: 3,
                    step: 3,
                    kind: FaultKind::Panic,
                },
                RankFault {
                    rank: 0,
                    step: 3,
                    kind: FaultKind::Panic,
                },
            ],
        ),
    )
    .unwrap();
    assert_eq!(report.restarts.len(), 1);
    assert_eq!(report.restarts[0].source, "disk");
    assert_eq!(report.restarts[0].resume_step, Some(2));
    let reference = disk_reference(&dir, target, 2);
    assert_bitwise_equal(&report.final_segment().losses, &reference, "owner_dead");
    let _ = std::fs::remove_dir_all(&dir);
}

/// K = 2 absorbs the same double fault that K = 1 could not: the lost set
/// {2, 3} leaves rank 2's second holder (rank 0) and rank 3's (ranks 0,
/// 1) alive, so recovery stays in RAM.
#[test]
fn wider_replication_absorbs_the_double_fault() {
    let _guard = test_guard();
    let target = ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1);
    let dir = tmp("k2_double");
    let mut opts = hot_opts(
        target,
        vec![
            RankFault {
                rank: 3,
                step: 3,
                kind: FaultKind::Panic,
            },
            RankFault {
                rank: 2,
                step: 3,
                kind: FaultKind::Panic,
            },
        ],
    );
    opts.hot_replicas = Some(2);
    let report = supervise(&hot_plan(&dir), &opts).unwrap();
    assert_eq!(report.restarts.len(), 1);
    assert_eq!(report.restarts[0].source, "peer");
    assert_eq!(report.restarts[0].resume_step, Some(2));
    let reference = disk_reference(&dir, target, 2);
    assert_bitwise_equal(&report.final_segment().losses, &reference, "k2_double");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill before any save boundary: no replicas AND no disk checkpoint —
/// the run restarts fresh under the degraded topology, attributed to the
/// disk tier (the hot lookup came up empty, not wrong).
#[test]
fn kill_before_first_save_restarts_fresh() {
    let _guard = test_guard();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let dir = tmp("pre_save");
    let report = supervise(
        &hot_plan(&dir),
        &hot_opts(
            target,
            vec![RankFault {
                rank: 3,
                step: 1,
                kind: FaultKind::Panic,
            }],
        ),
    )
    .unwrap();
    assert_eq!(report.restarts.len(), 1);
    assert_eq!(report.restarts[0].source, "disk");
    assert_eq!(report.restarts[0].resume_step, None);
    // Fresh restart under the degraded topology matches a plain fresh run.
    let reference = train_run(&TrainPlan::simple(
        TrainConfig::quick(ModelConfig::gpt3_tiny(), target, SEED),
        ITERS,
    ))
    .unwrap();
    assert_bitwise_equal(
        &report.final_segment().losses,
        &reference.losses,
        "pre_save",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor rejects invalid replication factors up front, matching
/// the CLI's reject-don't-clamp convention.
#[test]
fn invalid_replication_factors_are_rejected() {
    let _guard = test_guard();
    let dir = tmp("bad_factor");
    let plan = hot_plan(&dir);
    // K = 0 is a contradiction.
    let mut opts = hot_opts(ParallelConfig::single(), Vec::new());
    opts.hot_replicas = Some(0);
    let err = supervise(&plan, &opts).unwrap_err();
    assert!(err.to_string().contains("hot_replicas"), "{err}");
    // K >= the smallest world size in the ladder wraps the ring.
    let mut opts = hot_opts(ParallelConfig::single(), Vec::new());
    opts.hot_replicas = Some(1); // ladder rung is 1 rank
    let err = supervise(&plan, &opts).unwrap_err();
    assert!(err.to_string().contains("smallest world size"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
