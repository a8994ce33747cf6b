//! Run drivers: complete train → checkpoint → reconfigure → resume flows.
//!
//! One segment runner wraps [`crate::RankEngine`] in a
//! [`ucp_collectives::Cluster`] run — one fan-out, one step loop — and acts
//! on a [`SavePolicy`] at each save boundary. [`train_run`],
//! [`train_run_overlapped`] and [`crate::supervisor::supervise`] are named
//! presets over it: the entry points used by the figure harness,
//! integration tests, and examples.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ucp_collectives::{Cluster, ClusterOptions, Comm};
use ucp_core::convert::{convert_to_memory, convert_to_universal, ConvertOptions, ConvertStats};
use ucp_core::load::{LoadOptions, LoadSession};
use ucp_core::manifest::UcpManifest;
use ucp_storage::JournalEvent;
use ucp_telemetry::fleet::{aggregate, RankSnapshot};
use ucp_telemetry::Recorder;

use crate::engine::{RankEngine, TrainConfig, UniversalSource};
use crate::snapshot::{PendingSave, SnapshotPool};
use crate::TrainError;

/// How a run obtains its initial state.
#[derive(Debug, Clone)]
pub enum ResumeMode {
    /// Fresh initialization from the run seed.
    Fresh,
    /// Resume a native distributed checkpoint (same strategy only).
    Native {
        /// Checkpoint base directory.
        dir: PathBuf,
        /// Step to resume from.
        step: u64,
    },
    /// Resume a universal checkpoint (any strategy).
    Universal {
        /// Checkpoint base directory.
        dir: PathBuf,
        /// Step to resume from.
        step: u64,
    },
    /// Resume from an in-memory universal checkpoint — the recovery path
    /// of both tiers and the elastic hand-over (constructed by the
    /// supervisor and [`run_elastic`], never by CLI parsing): the peer
    /// tier's assembly of surviving replicas, or a convert that keeps the
    /// atoms it published (the disk tier's, an elastic phase boundary's).
    /// Serves the same atoms as `Universal` for the same step, without
    /// reading them from disk.
    Hot {
        /// The consolidated checkpoint, shared across rank threads.
        checkpoint: std::sync::Arc<ucp_core::MemoryCheckpoint>,
    },
}

/// A complete run description.
#[derive(Debug, Clone)]
pub struct TrainPlan {
    /// Run configuration.
    pub config: TrainConfig,
    /// Iterations to run (resume runs continue from the checkpoint's
    /// iteration up to `until_iteration`).
    pub until_iteration: u64,
    /// Initial-state source.
    pub resume: ResumeMode,
    /// Save a native distributed checkpoint every N iterations (`None`
    /// disables periodic saving).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint base directory (required if `checkpoint_every` is set).
    pub checkpoint_dir: Option<PathBuf>,
}

impl TrainPlan {
    /// A plain run with no checkpointing.
    pub fn simple(config: TrainConfig, iterations: u64) -> TrainPlan {
        TrainPlan {
            config,
            until_iteration: iterations,
            resume: ResumeMode::Fresh,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Mean LM loss per iteration, indexed by absolute iteration number
    /// (the first entry is `(start_iteration, loss)`).
    pub losses: Vec<(u64, f64)>,
    /// Iteration the run started at (0 for fresh runs).
    pub start_iteration: u64,
    /// Wall-clock seconds spent saving checkpoints (across the run, max
    /// over ranks).
    pub save_secs: f64,
    /// Wall-clock seconds spent loading/initializing state (max over
    /// ranks).
    pub load_secs: f64,
    /// Per-iteration observability records (rank 0's view).
    pub metrics: Vec<crate::engine::IterStats>,
}

/// Where a save boundary persists the rank's files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Persist {
    /// On the training thread: every rank writes its files, then the
    /// world barriers and rank 0 commits `latest`.
    #[default]
    Sync,
    /// CheckFreq/Gemini-style: the rank takes an in-memory snapshot — the
    /// only blocking cost — and a background thread writes the files while
    /// training continues. A step's `latest` is published once its writers
    /// have drained (at the next boundary, or at run end).
    Overlapped,
}

/// What happens at a save boundary. The presets ([`train_run`],
/// [`train_run_overlapped`]) and the supervisor all run the same step
/// loop; this is the only thing they differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SavePolicy {
    /// Where the native files are written.
    pub persist: Persist,
    /// Run the born-universal save pipeline ([`crate::pipeline`]): the
    /// background writers assemble universal atom checkpoints while
    /// persisting, and rank 0's writer publishes `latest_universal` once
    /// its manifest is durable and the step's native `latest` has been
    /// committed — resume needs no convert pass.
    pub universal: bool,
}

impl SavePolicy {
    /// Overlapped persist with the born-universal pipeline.
    pub const BORN_UNIVERSAL: SavePolicy = SavePolicy {
        persist: Persist::Overlapped,
        universal: true,
    };

    /// The one place a combination of save policy and hot-tier factor is
    /// rejected. `min_world` is the smallest world size the run can reach
    /// (the plan's, or the smallest ladder rung under supervision).
    pub fn validate(&self, hot_replicas: Option<usize>, min_world: usize) -> Result<(), String> {
        if self.persist == Persist::Sync && self.universal {
            return Err(
                "SavePolicy { persist: Sync, universal: true } is not supported: `universal` \
                 assembles atoms on the background writers only `persist: Overlapped` spawns — \
                 a synchronous save would put atom assembly on the training thread (convert \
                 after the fact instead)"
                    .to_string(),
            );
        }
        match hot_replicas {
            Some(0) => Err(
                "hot_replicas must be >= 1: each rank pushes its shard to that many peers \
                 (disable the hot tier by not setting it)"
                    .to_string(),
            ),
            // The factor must leave room for K distinct successor ranks in
            // *every* topology the run can degrade to, or a late rung would
            // wrap the placement ring onto the source rank itself.
            Some(k) if k >= min_world => Err(format!(
                "hot_replicas ({k}) must be < the smallest world size the run can reach \
                 ({min_world}): the placement ring needs that many distinct successor ranks"
            )),
            _ => Ok(()),
        }
    }
}

/// Execute a training plan on an in-process cluster with synchronous
/// native saves. Returns the per-rank agreed result (losses are identical
/// on every rank; rank 0's copy is returned).
pub fn train_run(plan: &TrainPlan) -> Result<RunResult, TrainError> {
    run_unsupervised(plan, SavePolicy::default())
}

/// Like [`train_run`], but under [`SavePolicy::BORN_UNIVERSAL`]: checkpoint
/// persistence overlaps training and each step's universal atom
/// checkpoints are assembled during the overlapped persist, so a crash
/// mid-run resumes from the newest completed save — under *any* target
/// strategy, with no convert pass. The native on-disk checkpoints are
/// byte-identical to the synchronous path.
pub fn train_run_overlapped(plan: &TrainPlan) -> Result<RunResult, TrainError> {
    run_unsupervised(plan, SavePolicy::BORN_UNIVERSAL)
}

fn run_unsupervised(plan: &TrainPlan, policy: SavePolicy) -> Result<RunResult, TrainError> {
    let segment = Segment {
        policy,
        deadline: ClusterOptions::default().deadline,
        step_hook: None,
        hot: None,
    };
    run_segment(plan, &segment)
}

/// Called by every rank before each iteration, with the iteration about to
/// run (the supervisor's fault injector; it may sleep or panic).
pub(crate) type StepHook<'a> = &'a (dyn Fn(&Comm, u64) + Sync);

/// What one cluster run of the step loop is armed with, besides the plan.
pub(crate) struct Segment<'a> {
    /// What a save boundary does.
    pub policy: SavePolicy,
    /// Watchdog deadline for the run's collectives and hot-tier pushes.
    pub deadline: Duration,
    /// The per-iteration hook, if any.
    pub step_hook: Option<StepHook<'a>>,
    /// Peer-replicate every save into this tier.
    pub hot: Option<&'a crate::hot::HotTier>,
}

/// Reject plans the step loop cannot run. `checkpoint_every: Some(0)`
/// would divide by zero at the first boundary check, and a cadence with
/// nowhere to save would silently train without checkpoints.
fn validate_plan(plan: &TrainPlan) -> Result<(), TrainError> {
    plan.config.validate().map_err(TrainError::Config)?;
    match (plan.checkpoint_every, &plan.checkpoint_dir) {
        (Some(0), _) => Err(TrainError::Config(
            "checkpoint_every must be >= 1 (use None to disable periodic saving)".into(),
        )),
        (Some(_), None) => Err(TrainError::Config(
            "checkpoint_every is set but checkpoint_dir is None: nowhere to save".into(),
        )),
        _ => Ok(()),
    }
}

/// The segment runner: one cluster fan-out, one step loop. Every entry
/// point — the presets above and each segment of
/// [`crate::supervisor::supervise`] — is this function under a different
/// [`Segment`]. A rank that dies comes back as [`TrainError::Rank`] —
/// the one error the supervisor recovers from.
pub(crate) fn run_segment(plan: &TrainPlan, seg: &Segment<'_>) -> Result<RunResult, TrainError> {
    validate_plan(plan)?;
    let world = plan.config.parallel.world_size();
    // Resolve the resume mode once, before the fan-out. A universal
    // resume opens one load session for all ranks: those needing the same
    // atom ranges (all DP replicas of a (tp, pp) slice) share the cached
    // bytes instead of each re-reading them.
    let session;
    let start = match &plan.resume {
        ResumeMode::Fresh => Start::Fresh,
        ResumeMode::Native { dir, step } => Start::Native(dir, *step),
        ResumeMode::Universal { dir, step } => {
            session =
                LoadSession::open(dir, *step, LoadOptions::default()).map_err(TrainError::Ucp)?;
            Start::Universal(UniversalSource::Session(&session))
        }
        ResumeMode::Hot { checkpoint } => {
            Start::Universal(UniversalSource::Memory(checkpoint.as_ref()))
        }
    };
    // One persistent exchange mesh for the whole run, wired before the
    // fan-out so every rank's background writer leases the same fabric.
    // Each save step claims an epoch-tagged lease instead of paying for a
    // fresh O(world²) mesh — the fixed cost that dominates at
    // per-iteration cadence.
    let pipelines = seg
        .policy
        .universal
        .then(|| crate::pipeline::SavePipelines::new(world));
    if let Some(tier) = seg.hot {
        // Fresh mesh + empty replica banks for the new topology: epochs
        // restart per segment, and stale replicas from a previous shape
        // cannot masquerade as current ones.
        tier.begin_segment(world);
    }
    let parked = parking_lot::Mutex::new(Vec::new());
    // Signals that genuinely differ per rank (iteration wall time, save
    // stall) go to one recorder per rank, owned here rather than by the
    // rank's thread so a rank that dies keeps what it measured.
    let new_local: fn() -> Recorder = if ucp_telemetry::enabled() {
        Recorder::new
    } else {
        Recorder::new_disabled
    };
    let locals: Vec<Recorder> = (0..world).map(|_| new_local()).collect();
    let rank_run = RankRun {
        plan,
        seg,
        start,
        pipelines: pipelines.as_ref(),
        parked: &parked,
        locals: &locals,
    };
    let cluster_opts = ClusterOptions {
        deadline: seg.deadline,
    };
    let joined = Cluster::try_run_with(world, &cluster_opts, |comm| rank_run.run(comm));
    // Writers still in flight on a rank that failed were parked, not
    // joined. Dropping the pipelines releases rank 0's un-notified
    // publishers (and hangs up leases no peer will ever claim), so these
    // joins cannot deadlock; whatever failed the run reports the error.
    drop(pipelines);
    for writer in parked.into_inner() {
        let _ = writer.wait();
    }
    // Fleet metrics: the per-rank recorders fold into the global one as
    // `fleet/*` aggregates — before the failure path returns, so a segment
    // that died still contributes the iterations it ran.
    if ucp_telemetry::enabled() {
        let snapshots: Vec<RankSnapshot> = locals
            .iter()
            .enumerate()
            .map(|(rank, local)| RankSnapshot {
                rank,
                report: local.report(&format!("rank{rank}")),
            })
            .collect();
        ucp_telemetry::global().absorb(&aggregate(&snapshots));
    }
    collect_results(joined.map_err(TrainError::Rank)?)
}

/// A rank's in-flight background writers. Dropped on any exit — error
/// return or unwind — it parks them with the segment, which joins them
/// once the cluster is down: no writer outlives [`run_segment`].
struct InFlight<'a> {
    /// The newest writer, not yet drained.
    pending: Option<PendingSave>,
    /// Drained writers still assembling universal atoms; joined (and
    /// their errors surfaced) at run end. Bounded so a pipeline that
    /// can't keep up with the save cadence applies backpressure instead
    /// of accumulating snapshots.
    tail: Vec<PendingSave>,
    parked: &'a parking_lot::Mutex<Vec<PendingSave>>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let left = self.pending.take().into_iter().chain(self.tail.drain(..));
        self.parked.lock().extend(left);
    }
}

/// A [`ResumeMode`] resolved to what a rank builds its engine from.
enum Start<'a> {
    Fresh,
    Native(&'a Path, u64),
    Universal(UniversalSource<'a>),
}

/// Everything a rank's body borrows from [`run_segment`].
struct RankRun<'a> {
    plan: &'a TrainPlan,
    seg: &'a Segment<'a>,
    start: Start<'a>,
    pipelines: Option<&'a crate::pipeline::SavePipelines>,
    parked: &'a parking_lot::Mutex<Vec<PendingSave>>,
    /// One per-rank recorder, indexed by rank.
    locals: &'a [Recorder],
}

impl RankRun<'_> {
    fn run(&self, comm: &Comm) -> Result<RunResult, TrainError> {
        let plan = self.plan;
        let local = &self.locals[comm.rank()];
        let t_load = Instant::now();
        let cfg = plan.config.clone();
        let mut engine = match &self.start {
            Start::Fresh => RankEngine::fresh(cfg, comm),
            Start::Native(dir, step) => RankEngine::resume_native(cfg, comm, dir, *step),
            Start::Universal(source) => RankEngine::resume_universal_source(cfg, comm, source),
        }?;
        let load_secs = t_load.elapsed().as_secs_f64();

        let start_iteration = engine.iteration;
        let mut losses = Vec::new();
        let mut metrics = Vec::new();
        let mut save_secs = 0.0f64;
        let mut writers = InFlight {
            pending: None,
            tail: Vec::new(),
            parked: self.parked,
        };
        // Snapshots come from a bounded pool of reusable buffers sized to
        // the writers the tail bound allows in flight: capturing one is a
        // memcpy into recycled capacity, and a lagging pipeline blocks the
        // next capture instead of growing memory without bound.
        let pool = SnapshotPool::new(crate::pipeline::SNAPSHOT_POOL_CAPACITY);
        let boundary = plan.checkpoint_every.zip(plan.checkpoint_dir.as_deref());
        while engine.iteration < plan.until_iteration {
            let it = engine.iteration;
            comm.set_step(it);
            if let Some(hook) = self.seg.step_hook {
                hook(comm, it);
            }
            let t_it = Instant::now();
            let loss = engine.train_iteration()?;
            local.count("rank/iterations", 1);
            local.observe("rank/step_us", t_it.elapsed().as_micros() as u64);
            losses.push((it + 1, loss));
            metrics.extend(engine.last_stats);
            if let Some((every, dir)) = boundary {
                if engine.iteration % every == 0 {
                    let t0 = Instant::now();
                    self.save(&mut engine, comm, dir, &pool, &mut writers)?;
                    save_secs += t0.elapsed().as_secs_f64();
                    local.observe("rank/save_block_us", t0.elapsed().as_micros() as u64);
                }
            }
        }
        // (A pending writer implies the boundary that spawned it.)
        if let (Some(prev), Some((_, dir))) = (writers.pending.take(), boundary) {
            let drained = self.drain(&engine, comm, prev, dir)?;
            writers.tail.push(drained);
        }
        // Join every outstanding writer. This is shutdown latency, not a
        // training stall (there is no more training to overlap with), so
        // it lands on its own span.
        if !writers.tail.is_empty() {
            let _sp = ucp_telemetry::span("save/final_drain");
            // One at a time, so an error leaves the rest in the guard.
            while !writers.tail.is_empty() {
                writers.tail.remove(0).wait()?;
            }
        }
        Ok(RunResult {
            losses,
            start_iteration,
            save_secs,
            load_secs,
            metrics,
        })
    }

    /// One save boundary at `engine.iteration`.
    fn save(
        &self,
        engine: &mut RankEngine<'_>,
        comm: &Comm,
        dir: &Path,
        pool: &std::sync::Arc<SnapshotPool>,
        writers: &mut InFlight<'_>,
    ) -> Result<(), TrainError> {
        let (rank, step) = (comm.rank(), engine.iteration);
        if rank == 0 {
            journal(dir, &JournalEvent::SaveStarted { step })?;
        }
        // The hot push below replicates what this boundary captured, so it
        // needs the dirty runs drained here — one tracker drain per
        // boundary, shared by the disk save and the RAM push.
        let dirty = match self.seg.policy.persist {
            Persist::Sync => {
                engine.save_checkpoint(dir)?;
                // The save barriers internally: when rank 0 returns, every
                // rank's files and the `latest` marker are published.
                if rank == 0 {
                    journal(dir, &JournalEvent::NativePersisted { step })?;
                }
                self.seg.hot.map(|_| engine.take_dirty())
            }
            Persist::Overlapped => {
                // Only the drain of the previous writer's persist and the
                // snapshot block training.
                if let Some(prev) = writers.pending.take() {
                    let drained = self.drain(engine, comm, prev, dir)?;
                    writers.tail.push(drained);
                }
                while writers.tail.len() > 2 {
                    writers.tail.remove(0).wait()?;
                }
                let snapshot = {
                    let _sp = ucp_telemetry::span("save/snapshot");
                    engine.snapshot_pooled(pool)
                };
                let dirty = self.seg.hot.and_then(|_| snapshot.get().dirty.clone());
                let task = self.pipelines.and_then(|p| p.take(step, rank));
                writers.pending = Some(PendingSave::spawn_with(snapshot, dir.to_path_buf(), task));
                dirty
            }
        };
        let (Some(tier), Some(dirty)) = (self.seg.hot, dirty) else {
            return Ok(());
        };
        // Replicate the freshly captured shard into K peer banks. All ranks
        // save at the same boundary, so the wave completes before any fault
        // can fire. A push failure degrades to disk-only recovery for this
        // generation — never fails the run.
        match tier.replicate(rank, step, engine.hot_shard(), &dirty, self.seg.deadline) {
            Ok(bytes) if rank == 0 => journal(
                dir,
                &JournalEvent::HotReplicated {
                    step,
                    ranks: comm.world_size() as u64,
                    bytes,
                },
            ),
            Ok(_) => Ok(()),
            Err(e) => {
                ucp_telemetry::count("hot/replica_errors", 1);
                eprintln!(
                    "hot tier: rank {rank} replication at step {step} failed ({e}); this \
                     generation recovers from disk"
                );
                Ok(())
            }
        }
    }

    /// Drain a background writer only as far as its native persist and
    /// commit the native `latest` marker. The writer keeps assembling
    /// universal atoms in the background and publishes `latest_universal`
    /// itself once rank 0's training thread reports the native marker
    /// durable — atom assembly never blocks training. The writer handle is
    /// returned so the run can join it (and surface its errors) later.
    fn drain(
        &self,
        engine: &RankEngine<'_>,
        comm: &Comm,
        prev: PendingSave,
        dir: &Path,
    ) -> Result<PendingSave, TrainError> {
        let step = prev.step;
        {
            let _sp = ucp_telemetry::span("save/drain");
            prev.wait_persisted()?;
        }
        // The drained step's native files are complete on every rank:
        // publish `latest` now, so a crash later in the run loses one
        // interval, not the whole run.
        engine.publish_markers(dir, step, false)?;
        // Native marker durable (the publish barrier guarantees it on
        // every rank): clear the step's writer to publish the universal
        // marker whenever its manifest lands.
        if comm.rank() == 0 {
            journal(dir, &JournalEvent::NativePersisted { step })?;
            if let Some(p) = self.pipelines {
                p.notify_native_published(step);
            }
        }
        Ok(prev)
    }
}

/// Append a run-journal event under `dir`. The save boundaries and the
/// supervisor's recovery steps both journal through here, so their
/// records are totally ordered in one file.
pub(crate) fn journal(dir: &Path, event: &JournalEvent) -> Result<(), TrainError> {
    ucp_storage::journal::append(dir, event).map_err(|e| TrainError::Ucp(e.into()))
}

/// Merge per-rank results; on failure, the root-cause rank's error.
fn collect_results(results: Vec<Result<RunResult, TrainError>>) -> Result<RunResult, TrainError> {
    let mut out: Option<RunResult> = None;
    let mut errors: Vec<TrainError> = Vec::new();
    for r in results {
        match r {
            Ok(res) => {
                if let Some(first) = &mut out {
                    first.save_secs = first.save_secs.max(res.save_secs);
                    first.load_secs = first.load_secs.max(res.load_secs);
                } else {
                    out = Some(res);
                }
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        // When one rank fails, its peers observe peer-failure comm errors
        // (disconnects, dead marks, watchdog timeouts); surface the root
        // cause, not the symptom.
        let secondary = |e: &TrainError| matches!(e, TrainError::Comm(c) if c.is_peer_failure());
        let at = errors.iter().position(|e| !secondary(e)).unwrap_or(0);
        return Err(errors.swap_remove(at));
    }
    Ok(out.expect("world_size >= 1"))
}

/// Convert a native checkpoint under `dir` at `step` into a universal
/// checkpoint (the lazy, on-demand conversion of §3.1).
pub fn convert_checkpoint(
    dir: &Path,
    step: u64,
    opts: &ConvertOptions,
) -> Result<(UcpManifest, ConvertStats), TrainError> {
    convert_to_universal(dir, step, opts).map_err(TrainError::Ucp)
}

/// One phase of an elastic schedule: a parallelism strategy held until a
/// target iteration.
#[derive(Debug, Clone)]
pub struct ElasticPhase {
    /// Strategy for this phase (rank count may differ per phase).
    pub parallel: ucp_parallel::ParallelConfig,
    /// Train until this absolute iteration, then checkpoint and hand over.
    pub until_iteration: u64,
}

/// Run an elastic schedule: train each phase under its strategy,
/// checkpointing at the phase boundary and converting to a universal
/// checkpoint so the next phase can resume under a different strategy —
/// the paper's failure-resilience / elastic-capacity scenario as a single
/// driver call. The convert writes and publishes the universal tree
/// durably, and the next phase resumes from the atoms it assembled, in RAM
/// ([`convert_to_memory`], [`ResumeMode::Hot`]), without reading them
/// back. Returns the per-phase results.
pub fn run_elastic(
    base: TrainConfig,
    phases: &[ElasticPhase],
    dir: &Path,
) -> Result<Vec<RunResult>, TrainError> {
    if phases.is_empty() {
        return Ok(Vec::new());
    }
    let mut results = Vec::with_capacity(phases.len());
    let mut prev_boundary: Option<u64> = None;
    for phase in phases {
        let mut config = base.clone();
        config.parallel = phase.parallel;
        let resume = match prev_boundary {
            None => ResumeMode::Fresh,
            Some(step) => {
                let (checkpoint, _) = convert_to_memory(dir, step, &ConvertOptions::default())
                    .map_err(TrainError::Ucp)?;
                ResumeMode::Hot {
                    checkpoint: std::sync::Arc::new(checkpoint),
                }
            }
        };
        let result = train_run(&TrainPlan {
            config,
            until_iteration: phase.until_iteration,
            resume,
            checkpoint_every: Some(phase.until_iteration),
            checkpoint_dir: Some(dir.to_path_buf()),
        })?;
        prev_boundary = Some(phase.until_iteration);
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_model::ModelConfig;
    use ucp_parallel::{ParallelConfig, ZeroStage};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ucp_driver_test_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_single_rank_loss_decreases() {
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 42);
        let result = train_run(&TrainPlan::simple(cfg, 10)).unwrap();
        assert_eq!(result.losses.len(), 10);
        let first = result.losses[0].1;
        let last = result.losses.last().unwrap().1;
        assert!(
            last < first,
            "loss should decrease over 10 iterations: {first} → {last}"
        );
    }

    #[test]
    fn dp2_matches_single_rank_losses() {
        let single = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 7);
        let dp2 = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            7,
        );
        let a = train_run(&TrainPlan::simple(single, 5)).unwrap();
        let b = train_run(&TrainPlan::simple(dp2, 5)).unwrap();
        for ((ia, la), (ib, lb)) in a.losses.iter().zip(&b.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 5e-3,
                "iteration {ia}: DP1 {la} vs DP2 {lb}"
            );
        }
    }

    #[test]
    fn native_resume_same_strategy_continues_exactly() {
        let dir = tmp("native_resume");
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 3);
        // Uninterrupted baseline.
        let full = train_run(&TrainPlan::simple(cfg.clone(), 8)).unwrap();
        // Interrupted at 4, resumed natively.
        let part1 = train_run(&TrainPlan {
            config: cfg.clone(),
            until_iteration: 4,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(4),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        let part2 = train_run(&TrainPlan {
            config: cfg,
            until_iteration: 8,
            resume: ResumeMode::Native {
                dir: dir.clone(),
                step: 4,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        assert_eq!(part2.start_iteration, 4);
        let stitched: Vec<(u64, f64)> = part1.losses.iter().chain(&part2.losses).cloned().collect();
        for ((ia, la), (ib, lb)) in full.losses.iter().zip(&stitched) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 1e-9,
                "iteration {ia}: uninterrupted {la} vs resumed {lb}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn native_resume_rejects_strategy_change() {
        let dir = tmp("native_reject");
        let src = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 5);
        train_run(&TrainPlan {
            config: src,
            until_iteration: 2,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        let target = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            5,
        );
        let err = train_run(&TrainPlan {
            config: target,
            until_iteration: 4,
            resume: ResumeMode::Native {
                dir: dir.clone(),
                step: 2,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap_err();
        // The engine's typed error comes back unchanged from the rank.
        assert!(
            matches!(err, TrainError::StrategyMismatch { .. }),
            "{err:?}"
        );
        assert!(err
            .to_string()
            .contains("convert it to a universal checkpoint"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn elastic_schedule_crosses_three_strategies() {
        let dir = tmp("elastic");
        let base = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 13);
        let phases = [
            ElasticPhase {
                parallel: ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1),
                until_iteration: 3,
            },
            ElasticPhase {
                parallel: ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
                until_iteration: 6,
            },
            ElasticPhase {
                parallel: ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
                until_iteration: 9,
            },
        ];
        let results = run_elastic(base.clone(), &phases, &dir).unwrap();
        assert_eq!(results.len(), 3);
        // The stitched curve equals one uninterrupted run.
        let mut baseline_cfg = base;
        baseline_cfg.parallel = ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1);
        let baseline = train_run(&TrainPlan::simple(baseline_cfg, 9)).unwrap();
        let stitched: Vec<(u64, f64)> = results.iter().flat_map(|r| r.losses.clone()).collect();
        assert_eq!(stitched.len(), baseline.losses.len());
        for ((ia, la), (ib, lb)) in baseline.losses.iter().zip(&stitched) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 2e-3,
                "elastic run diverges at iteration {ia}: {la} vs {lb}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_record_every_iteration() {
        let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 99);
        let clip = cfg.grad_clip;
        let run = train_run(&TrainPlan::simple(cfg, 4)).unwrap();
        assert_eq!(run.metrics.len(), 4);
        for (m, (it, loss)) in run.metrics.iter().zip(&run.losses) {
            assert_eq!(m.iteration, *it);
            assert_eq!(m.loss, *loss);
            assert!(m.grad_norm.is_finite() && m.grad_norm > 0.0);
            assert!(m.lr > 0.0);
            assert!(m.tokens_per_sec > 0.0);
            let _ = clip;
        }
    }

    #[test]
    fn one_f_one_b_matches_sequential() {
        use crate::engine::PipelineSchedule;
        // Same run under both schedules: losses must agree to f64-reorder
        // precision, across deep-pipeline and PP×DP layouts.
        for (parallel, seed) in [
            (ParallelConfig::new(1, 4, 1, 1, ZeroStage::Zero1), 101u64),
            (ParallelConfig::new(1, 2, 2, 1, ZeroStage::Zero1), 102),
            (ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1), 103),
        ] {
            let mut sequential = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, seed);
            sequential.global_batch = 8;
            sequential.micro_batch = 1; // 8 microbatches: real overlap depth
            let mut one_f_one_b = sequential.clone();
            one_f_one_b.schedule = PipelineSchedule::OneFOneB;
            let a = train_run(&TrainPlan::simple(sequential, 3)).unwrap();
            let b = train_run(&TrainPlan::simple(one_f_one_b, 3)).unwrap();
            for ((ia, la), (ib, lb)) in a.losses.iter().zip(&b.losses) {
                assert_eq!(ia, ib);
                assert!(
                    (la - lb).abs() < 1e-9,
                    "{} iteration {ia}: sequential {la} vs 1F1B {lb}",
                    parallel.label()
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_checkpoints_resume_under_sequential() {
        use crate::engine::PipelineSchedule;
        let dir = tmp("schedule_resume");
        let mut cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 2, 1, 1, ZeroStage::Zero1),
            104,
        );
        cfg.schedule = PipelineSchedule::OneFOneB;
        train_run(&TrainPlan {
            config: cfg.clone(),
            until_iteration: 2,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        })
        .unwrap();
        convert_checkpoint(&dir, 2, &ucp_core::convert::ConvertOptions::default()).unwrap();
        let mut tgt = TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            104,
        );
        tgt.schedule = PipelineSchedule::Sequential;
        let run = train_run(&TrainPlan {
            config: tgt,
            until_iteration: 4,
            resume: ResumeMode::Universal {
                dir: dir.clone(),
                step: 2,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
