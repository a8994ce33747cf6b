//! The one seam between the benchmark and the program under test.
//!
//! Every call from `bench/` into a `ucp-*` crate is in this file, so when
//! drivers or load entry points are collapsed (ROADMAP item 2) the
//! follow-up benchmark change is a diff of this file only. Nothing here
//! reads the program's telemetry; the only thing the benchmark ever does
//! to it is switch it on for one overhead measurement.
//!
//! Functions, by what they stand in for:
//!
//! configs      `params`, `train_config`
//! drivers      `train` (`train_run` / `train_run_overlapped`), `convert`
//!              (`convert_checkpoint`), `kill_recover` (`supervise`)
//! load         `Session::open`, `Session::plan`, `Session::load_rank`,
//!              `Loaded::{digest, state_bytes}`
//! health       `fsck_clean`, `markers`, `set_telemetry`
//! traced loops `traced_train`, `traced_kill_recover` — the same public
//!              calls as the drivers, in the same order, each in a span
//! probes       `probe_save`, `probe_memory_checkpoint`,
//!              `probe_collectives`, `probe_exchange`, `probe_matmul`,
//!              `probe_adam`, `probe_shard_segments`, `probe_flat_build`,
//!              `probe_crc`, `ContainerProbe::{build, write, write_durable,
//!              read, open_index, range_read}`, `probe_atom_write`,
//!              `probe_atomic_write`, `probe_fsync_dir`, `probe_link_file`,
//!              `probe_journal_append`, `probe_publish_markers`

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ucp_collectives::exchange::Mesh;
use ucp_collectives::{Cluster, ClusterOptions, Comm, Group};
use ucp_core::convert::ConvertOptions;
use ucp_core::fsck::{fsck, FsckOptions};
use ucp_core::load::{gen_ucp_metadata, LoadOptions, LoadSession, RankState, DEFAULT_ALIGNMENT};
use ucp_core::pattern::ParamPattern;
use ucp_core::{HotShard, MemoryCheckpoint};
use ucp_model::{param_specs, ModelConfig, SizePreset};
use ucp_optim::{AdamConfig, AdamState};
use ucp_parallel::{FlatLayout, ParallelConfig, ZeroStage};
use ucp_storage::container::RangeScratch;
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{commit, crc, journal, Container, ContainerIndex, JournalEvent};
use ucp_tensor::{ops, DetRng, Tensor};
use ucp_trainer::pipeline::SNAPSHOT_POOL_CAPACITY;
use ucp_trainer::{
    convert_checkpoint, supervise, train_run, train_run_overlapped, FaultKind, HotTier,
    PendingSave, RankEngine, RankFault, ResumeMode, RunResult, SavePipelines, SnapshotPool,
    SupervisorOptions, TrainConfig, TrainPlan, UniversalSource,
};

use crate::trace::{ThreadTrace, Tracer, MAIN};

// ---- configs --------------------------------------------------------------

/// The two benchmark models. Defined here, not in `ucp-model`: state is
/// large relative to compute on purpose (≈4 M parameters, 8–16 tokens a
/// step), which is the regime the paper's checkpoints live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// GPT-style dense model, 3.95 M parameters.
    Dense4m,
    /// Mixtral-style MoE, 32 experts top-1, 3.5 M parameters; a step
    /// touches at most 8 of 32 experts per layer.
    Moe4m,
}

impl Model {
    fn config(self) -> ModelConfig {
        match self {
            Model::Dense4m => {
                let mut m = ModelConfig::sized(SizePreset::Medium);
                m.family = "dense4m".into();
                m.hidden_size = 192;
                m.num_heads = 8;
                m.num_kv_heads = 8;
                m.ffn_size = 768;
                m.num_layers = 8;
                m.vocab_size = 1024;
                m.max_seq_len = 8;
                m
            }
            Model::Moe4m => {
                let mut m = ModelConfig::moe_tiny();
                m.family = "moe4m".into();
                m.hidden_size = 128;
                m.num_heads = 8;
                m.num_kv_heads = 4;
                m.ffn_size = 128;
                m.num_experts = 32;
                m.top_k = 1;
                m.num_layers = 2;
                m.vocab_size = 1024;
                m.max_seq_len = 4;
                m
            }
        }
    }
}

/// Parameter count of `model`.
pub fn params(model: Model) -> u64 {
    model.config().num_parameters() as u64
}

/// A parallel layout: TP × PP × DP, ZeRO-1 unless `zero3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topo {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
    /// Data-parallel degree.
    pub dp: usize,
    /// ZeRO stage 3 instead of 1.
    pub zero3: bool,
}

impl Topo {
    /// TP × PP × DP at ZeRO-1.
    pub const fn new(tp: usize, pp: usize, dp: usize) -> Topo {
        Topo {
            tp,
            pp,
            dp,
            zero3: false,
        }
    }

    /// Ranks in the layout.
    pub const fn world(self) -> usize {
        self.tp * self.pp * self.dp
    }

    fn parallel(self) -> ParallelConfig {
        let zero = if self.zero3 {
            ZeroStage::Zero3
        } else {
            ZeroStage::Zero1
        };
        ParallelConfig::new(self.tp, self.pp, self.dp, 1, zero)
    }
}

fn train_config(model: Model, topo: Topo, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::quick(model.config(), topo.parallel(), seed);
    cfg.global_batch = 2;
    cfg.micro_batch = 1;
    cfg
}

// ---- drivers ----------------------------------------------------------------

/// Which production driver runs the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `train_run`: saves block the training thread.
    Sync,
    /// `train_run_overlapped`: born-universal background saves.
    Overlapped,
}

/// Where a run's initial state comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Initialise from the seed.
    Fresh,
    /// Native checkpoint of `step` (same topology).
    Native(u64),
    /// Universal checkpoint of `step` (any topology).
    Universal(u64),
}

/// One training call.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Model.
    pub model: Model,
    /// Layout.
    pub topo: Topo,
    /// Seed (init, data order, MoE routing).
    pub seed: u64,
    /// Train until this many iterations are done.
    pub until: u64,
    /// Which driver.
    pub driver: Driver,
    /// Save every N iterations (`None`: the no-save twin).
    pub every: Option<u64>,
    /// Initial state.
    pub resume: Resume,
    /// Checkpoint tree (read for a resume, written for saves).
    pub dir: PathBuf,
}

impl TrainSpec {
    fn plan(&self) -> TrainPlan {
        let dir = self.dir.clone();
        TrainPlan {
            config: train_config(self.model, self.topo, self.seed),
            until_iteration: self.until,
            resume: match self.resume {
                Resume::Fresh => ResumeMode::Fresh,
                Resume::Native(step) => ResumeMode::Native { dir, step },
                Resume::Universal(step) => ResumeMode::Universal { dir, step },
            },
            checkpoint_every: self.every,
            checkpoint_dir: self.every.map(|_| self.dir.clone()),
        }
    }
}

/// What a training call returns.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOut {
    /// `(iteration, mean loss)`.
    pub losses: Vec<(u64, f64)>,
    /// Time until every rank held its initial state (max over ranks).
    pub load_secs: f64,
    /// Wall time of the call.
    pub wall_secs: f64,
}

fn run_out(r: RunResult, wall_secs: f64) -> RunOut {
    RunOut {
        losses: r.losses,
        load_secs: r.load_secs,
        wall_secs,
    }
}

/// Run `spec` through its production driver.
pub fn train(spec: &TrainSpec) -> Result<RunOut, String> {
    let plan = spec.plan();
    let t = Instant::now();
    let result = match spec.driver {
        Driver::Sync => train_run(&plan),
        Driver::Overlapped => train_run_overlapped(&plan),
    }
    .map_err(|e| e.to_string())?;
    Ok(run_out(result, t.elapsed().as_secs_f64()))
}

/// Timing of one convert, as the converter accounts it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertOut {
    /// Wall time of the call.
    pub wall_secs: f64,
    /// Extract phase.
    pub extract_secs: f64,
    /// Union + write phase.
    pub union_secs: f64,
    /// Atom bytes written.
    pub bytes_written: u64,
}

/// Offline convert of `step` under `dir` (default options).
pub fn convert(dir: &Path, step: u64) -> Result<ConvertOut, String> {
    let t = Instant::now();
    let (_, stats) =
        convert_checkpoint(dir, step, &ConvertOptions::default()).map_err(|e| e.to_string())?;
    Ok(ConvertOut {
        wall_secs: t.elapsed().as_secs_f64(),
        extract_secs: stats.extract_secs,
        union_secs: stats.union_secs,
        bytes_written: stats.bytes_written,
    })
}

/// A supervised run that loses one rank.
#[derive(Debug, Clone)]
pub struct KillSpec {
    /// Model.
    pub model: Model,
    /// Layout before the failure.
    pub topo: Topo,
    /// Layout the run degrades to.
    pub ladder: Topo,
    /// Seed.
    pub seed: u64,
    /// Train until this many iterations are done.
    pub until: u64,
    /// Save every N iterations (`None`: no saves — pair with `kill: None`).
    pub every: Option<u64>,
    /// `(rank, step)` of the injected panic.
    pub kill: Option<(usize, u64)>,
    /// Peer-replicate each save to one neighbour's RAM.
    pub hot: bool,
    /// Checkpoint tree.
    pub dir: PathBuf,
}

/// What a supervised run returns.
#[derive(Debug, Clone, Default)]
pub struct KillOut {
    /// Losses of the segment that finished the plan.
    pub losses: Vec<(u64, f64)>,
    /// Wall time of the whole supervised call.
    pub wall_secs: f64,
    /// Failure observed → resume plan ready, as the supervisor reports it.
    pub recovery_ms: f64,
    /// Resumed segment: time until every rank held state.
    pub resumed_load_secs: f64,
    /// Steps of progress lost.
    pub lost_steps: u64,
    /// `"peer"` or `"disk"`; empty when nothing failed.
    pub source: String,
    /// Failure → cluster torn down (traced loop only).
    pub detect_teardown_ms: f64,
    /// Replica bytes resident in the hot tier at run end (traced loop only).
    pub hot_resident_bytes: u64,
}

fn kill_plan(spec: &KillSpec, topo: Topo) -> TrainPlan {
    TrainPlan {
        config: train_config(spec.model, topo, spec.seed),
        until_iteration: spec.until,
        resume: ResumeMode::Fresh,
        checkpoint_every: spec.every,
        checkpoint_dir: Some(spec.dir.clone()),
    }
}

/// Run `spec` through the production supervisor.
pub fn kill_recover(spec: &KillSpec) -> Result<KillOut, String> {
    let opts = SupervisorOptions {
        ladder: vec![spec.ladder.parallel()],
        faults: spec
            .kill
            .iter()
            .map(|&(rank, step)| RankFault {
                rank,
                step,
                kind: FaultKind::Panic,
            })
            .collect(),
        hot_replicas: spec.hot.then_some(1),
        ..SupervisorOptions::default()
    };
    let t = Instant::now();
    let report = supervise(&kill_plan(spec, spec.topo), &opts).map_err(|e| e.to_string())?;
    let wall_secs = t.elapsed().as_secs_f64();
    let last = report.final_segment();
    let mut out = KillOut {
        losses: last.losses.clone(),
        wall_secs,
        ..KillOut::default()
    };
    if let Some(ev) = report.restarts.first() {
        out.recovery_ms = ev.recovery_ms as f64;
        out.resumed_load_secs = last.load_secs;
        out.lost_steps = ev.lost_steps;
        out.source = ev.source.clone();
    }
    Ok(out)
}

// ---- load -------------------------------------------------------------------

/// An open universal checkpoint (one shared atom cache).
pub struct Session(LoadSession);

/// One rank's reconstructed state.
pub struct Loaded(RankState);

impl Session {
    /// Open `step` under `dir`; atom reads fan out over `workers` threads.
    /// `ranged: false` reads whole atom files (the reference path).
    pub fn open(dir: &Path, step: u64, workers: usize, ranged: bool) -> Result<Session, String> {
        let opts = LoadOptions {
            ranged,
            ..LoadOptions::with_workers(workers)
        };
        LoadSession::open(dir, step, opts)
            .map(Session)
            .map_err(|e| e.to_string())
    }

    /// `GenUcpMetadata` alone (the plan `load_rank` computes again).
    pub fn plan(&self, topo: Topo, rank: usize) -> Result<usize, String> {
        gen_ucp_metadata(self.0.manifest(), &topo.parallel(), rank, DEFAULT_ALIGNMENT)
            .map(|p| p.atoms_touched())
            .map_err(|e| e.to_string())
    }

    /// `GenUcpMetadata` + `Load` for one target rank.
    pub fn load_rank(&self, topo: Topo, rank: usize) -> Result<Loaded, String> {
        self.0
            .load_rank(&topo.parallel(), rank, DEFAULT_ALIGNMENT)
            .map(Loaded)
            .map_err(|e| e.to_string())
    }
}

impl Loaded {
    /// Bytes of state delivered to the rank.
    pub fn state_bytes(&self) -> u64 {
        let s = &self.0;
        let model: usize = s.model_params.iter().map(|(_, t)| t.num_elements()).sum();
        ((s.fp32.len() + s.exp_avg.len() + s.exp_avg_sq.len() + model) * 4) as u64
    }

    /// Hash of every bit of the state (equal digests ⇔ bitwise-equal state,
    /// up to hash collisions).
    pub fn digest(&self) -> u64 {
        let s = &self.0;
        let mut h = crate::checks::Hasher64::default();
        for chunk in [&s.fp32, &s.exp_avg, &s.exp_avg_sq] {
            h.f32s(chunk);
        }
        for (name, t) in &s.model_params {
            h.bytes(name.as_bytes());
            h.f32s(t.as_slice());
        }
        h.finish()
    }
}

// ---- health -----------------------------------------------------------------

/// `fsck` without repair: `(clean, container files verified)`.
pub fn fsck_clean(dir: &Path) -> Result<(bool, usize), String> {
    let report = fsck(dir, &FsckOptions { repair: false }).map_err(|e| e.to_string())?;
    Ok((report.clean(), report.files_verified))
}

/// `(latest, latest_universal)` markers under `dir`.
pub fn markers(dir: &Path) -> (Option<u64>, Option<u64>) {
    (layout::read_latest(dir), layout::read_latest_universal(dir))
}

/// Directory of `step`'s universal tree under `dir`.
pub fn universal_dir(dir: &Path, step: u64) -> PathBuf {
    layout::universal_dir(dir, step)
}

/// Directory of `step`'s native tree under `dir`.
pub fn native_dir(dir: &Path, step: u64) -> PathBuf {
    layout::step_dir(dir, step)
}

/// Path of one atom file (test-only corruption target).
pub fn first_atom_file(dir: &Path, step: u64) -> Option<PathBuf> {
    let session = LoadSession::open(dir, step, LoadOptions::default()).ok()?;
    let name = &session.manifest().params.first()?.name;
    Some(layout::atom_path(
        &layout::universal_dir(dir, step),
        name,
        AtomFile::Fp32,
    ))
}

/// Switch the program's own telemetry on or off (off is its default; the
/// benchmark turns it on only to measure what it costs).
pub fn set_telemetry(on: bool) {
    ucp_telemetry::global().set_enabled(on);
    if !on {
        ucp_telemetry::global().reset();
    }
}

// ---- traced loops -----------------------------------------------------------

fn journal_event(tt: &ThreadTrace<'_>, dir: &Path, event: &JournalEvent) -> Result<(), String> {
    tt.time("storage.journal_append", || journal::append(dir, event))
        .map_err(|e| e.to_string())
}

fn build_engine<'c>(
    tt: &ThreadTrace<'_>,
    cfg: TrainConfig,
    comm: &'c Comm,
    resume: &ResumeMode,
    session: Option<&LoadSession>,
) -> Result<RankEngine<'c>, String> {
    match resume {
        ResumeMode::Fresh => tt.time("trainer.fresh", || RankEngine::fresh(cfg, comm)),
        ResumeMode::Native { dir, step } => tt.time("trainer.resume_native", || {
            RankEngine::resume_native(cfg, comm, dir, *step)
        }),
        ResumeMode::Universal { .. } => tt.time("trainer.resume_universal", || {
            RankEngine::resume_universal_session(
                cfg,
                comm,
                session.expect("session opened for a universal resume"),
            )
        }),
        ResumeMode::Hot { checkpoint } => tt.time("trainer.resume_hot", || {
            RankEngine::resume_universal_source(
                cfg,
                comm,
                &UniversalSource::Memory(checkpoint.as_ref()),
            )
        }),
    }
    .map_err(|e| e.to_string())
}

fn open_resume_session(
    tt: &ThreadTrace<'_>,
    resume: &ResumeMode,
) -> Result<Option<LoadSession>, String> {
    match resume {
        ResumeMode::Universal { dir, step } => tt
            .time("core.session_open", || {
                LoadSession::open(dir, *step, LoadOptions::default())
            })
            .map(Some)
            .map_err(|e| e.to_string()),
        _ => Ok(None),
    }
}

/// Merge per-rank results the way the drivers do: rank 0's losses, the
/// slowest rank's load time; the first error wins.
fn merge_ranks(results: Vec<Result<RunResult, String>>) -> Result<RunResult, String> {
    let mut out: Option<RunResult> = None;
    for (rank, r) in results.into_iter().enumerate() {
        let r = r.map_err(|e| format!("rank {rank}: {e}"))?;
        match &mut out {
            Some(first) => first.load_secs = first.load_secs.max(r.load_secs),
            None => out = Some(r),
        }
    }
    out.ok_or_else(|| "empty cluster".to_string())
}

/// The bench-owned step loop: what `train_run` / `train_run_overlapped`
/// do, call for call, with every call into a layer inside a span. Must
/// yield bitwise-equal losses and a byte-identical tree (the self-tests
/// hold it to that), or the per-layer numbers describe different work.
pub fn traced_train(spec: &TrainSpec, tracer: &Tracer) -> Result<RunOut, String> {
    let plan = spec.plan();
    plan.config.validate()?;
    let world = plan.config.parallel.world_size();
    let main = tracer.thread(MAIN, "main");
    let t_call = Instant::now();
    let session = open_resume_session(&main, &plan.resume)?;
    let overlapped = spec.driver == Driver::Overlapped;
    let pipelines = overlapped.then(|| SavePipelines::new(world));
    let results = main.time("collectives.cluster_run", || {
        Cluster::run(world, |comm| -> Result<RunResult, String> {
            let rank = comm.rank();
            let tt = tracer.thread(rank, "train");
            let t_load = Instant::now();
            let mut engine = build_engine(
                &tt,
                plan.config.clone(),
                comm,
                &plan.resume,
                session.as_ref(),
            )?;
            let load_secs = t_load.elapsed().as_secs_f64();
            let start_iteration = engine.iteration;
            let mut losses = Vec::new();

            // Overlapped driver state (unused by the sync driver).
            let pool = SnapshotPool::new(SNAPSHOT_POOL_CAPACITY);
            let mut pending: Option<PendingSave> = None;
            let mut tail: Vec<PendingSave> = Vec::new();
            let drain = |engine: &RankEngine, prev: PendingSave, dir: &Path| {
                let step = prev.step;
                tt.time("trainer.persist_wait", || prev.wait_persisted())
                    .map_err(|e| e.to_string())?;
                tt.time("trainer.publish", || {
                    engine.publish_markers(dir, step, false)
                })
                .map_err(|e| e.to_string())?;
                if rank == 0 {
                    journal_event(&tt, dir, &JournalEvent::NativePersisted { step })?;
                    if let Some(p) = pipelines.as_ref() {
                        p.notify_native_published(step);
                    }
                }
                Ok::<PendingSave, String>(prev)
            };

            while engine.iteration < plan.until_iteration {
                let it = engine.iteration;
                let loss = tt
                    .time("trainer.step", || engine.train_iteration())
                    .map_err(|e| e.to_string())?;
                losses.push((it + 1, loss));
                let (Some(every), Some(dir)) = (plan.checkpoint_every, &plan.checkpoint_dir) else {
                    continue;
                };
                if engine.iteration % every != 0 {
                    continue;
                }
                let step = engine.iteration;
                let _boundary = tt.span("trainer.save_boundary");
                if rank == 0 {
                    journal_event(&tt, dir, &JournalEvent::SaveStarted { step })?;
                }
                if !overlapped {
                    tt.time("trainer.sync_save", || engine.save_checkpoint(dir))
                        .map_err(|e| e.to_string())?;
                    if rank == 0 {
                        journal_event(&tt, dir, &JournalEvent::NativePersisted { step })?;
                    }
                    continue;
                }
                if let Some(prev) = pending.take() {
                    tail.push(drain(&engine, prev, dir)?);
                }
                while tail.len() > 2 {
                    let oldest = tail.remove(0);
                    tt.time("trainer.drain", || oldest.wait())
                        .map_err(|e| e.to_string())?;
                }
                // `snapshot_pooled` acquires its buffer itself; taking and
                // returning one first puts the pool's backpressure wait in
                // its own span without changing which buffer gets filled.
                tt.time("trainer.pool_acquire", || drop(pool.acquire()));
                let snapshot = tt.time("trainer.snapshot", || engine.snapshot_pooled(&pool));
                pending = Some(tt.time("trainer.spawn_writer", || {
                    let task = pipelines.as_ref().and_then(|p| p.take(step, rank));
                    PendingSave::spawn_with(snapshot, dir.clone(), task)
                }));
            }
            {
                let _end = overlapped.then(|| tt.span("trainer.final_drain"));
                if let Some(prev) = pending.take() {
                    match &plan.checkpoint_dir {
                        Some(dir) => tail.push(drain(&engine, prev, dir)?),
                        None => prev.wait().map_err(|e| e.to_string())?,
                    }
                }
                for prev in tail {
                    prev.wait().map_err(|e| e.to_string())?;
                }
            }
            Ok(RunResult {
                losses,
                start_iteration,
                save_secs: 0.0,
                load_secs,
                metrics: Vec::new(),
            })
        })
    });
    let merged = merge_ranks(results)?;
    Ok(run_out(merged, t_call.elapsed().as_secs_f64()))
}

/// Hot shards of the last save before the failure, kept for
/// [`probe_memory_checkpoint`].
pub struct HotShards(Vec<HotShard>);

/// The bench-owned supervisor: what `supervise` does for one injected
/// panic — segment, detect, tear down, tiered recovery, resumed segment —
/// call for call, in spans. Returns the hot shards of the last completed
/// replication wave when the tier is on.
pub fn traced_kill_recover(
    spec: &KillSpec,
    tracer: &Tracer,
) -> Result<(KillOut, Option<HotShards>), String> {
    let main = tracer.thread(MAIN, "main");
    let t_call = Instant::now();
    let deadline = ClusterOptions::default().deadline;
    let tier = spec.hot.then(|| HotTier::new(1));
    let fired = AtomicBool::new(false);
    let fault_at: Mutex<Option<Instant>> = Mutex::new(None);
    // Shards of the last replication wave before the failure: what the
    // tier recovers from, kept for `probe_memory_checkpoint`.
    let keep_step = match (spec.kill, spec.every) {
        (Some((_, at)), Some(every)) => at / every * every,
        _ => 0,
    };
    let kept_shards: Mutex<Vec<(usize, HotShard)>> = Mutex::new(Vec::new());

    let run_segment = |plan: &TrainPlan| {
        let world = plan.config.parallel.world_size();
        let session = match open_resume_session(&main, &plan.resume) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        if let Some(t) = &tier {
            t.begin_segment(world);
        }
        let opts = ClusterOptions { deadline };
        main.time("collectives.cluster_run", || {
            Cluster::try_run_with(world, &opts, |comm| -> Result<RunResult, String> {
                let rank = comm.rank();
                let tt = tracer.thread(rank, "train");
                let t_load = Instant::now();
                let mut engine = build_engine(
                    &tt,
                    plan.config.clone(),
                    comm,
                    &plan.resume,
                    session.as_ref(),
                )?;
                let load_secs = t_load.elapsed().as_secs_f64();
                let start_iteration = engine.iteration;
                let mut losses = Vec::new();
                while engine.iteration < plan.until_iteration {
                    let it = engine.iteration;
                    comm.set_step(it);
                    if spec.kill == Some((rank, it)) && !fired.swap(true, Ordering::SeqCst) {
                        *fault_at.lock().expect("fault clock") = Some(Instant::now());
                        panic!("injected fault: rank {rank} panics at step {it}");
                    }
                    let loss = tt
                        .time("trainer.step", || engine.train_iteration())
                        .map_err(|e| e.to_string())?;
                    losses.push((it + 1, loss));
                    let (Some(every), Some(dir)) = (plan.checkpoint_every, &plan.checkpoint_dir)
                    else {
                        continue;
                    };
                    if engine.iteration % every != 0 {
                        continue;
                    }
                    let step = engine.iteration;
                    let boundary = tt.span("trainer.save_boundary");
                    if rank == 0 {
                        journal_event(&tt, dir, &JournalEvent::SaveStarted { step })?;
                    }
                    tt.time("trainer.sync_save", || engine.save_checkpoint(dir))
                        .map_err(|e| e.to_string())?;
                    if rank == 0 {
                        journal_event(&tt, dir, &JournalEvent::NativePersisted { step })?;
                    }
                    let Some(t) = &tier else { continue };
                    let dirty = engine.take_dirty();
                    let bytes = tt
                        .time("trainer.hot_replicate", || {
                            t.replicate(rank, step, engine.hot_shard(), &dirty, deadline)
                        })
                        .map_err(|e| format!("hot replicate: {e}"))?;
                    if rank == 0 {
                        journal_event(
                            &tt,
                            dir,
                            &JournalEvent::HotReplicated {
                                step,
                                ranks: comm.world_size() as u64,
                                bytes,
                            },
                        )?;
                    }
                    drop(boundary);
                    if step == keep_step && !fired.load(Ordering::SeqCst) {
                        let shard = engine.hot_shard();
                        kept_shards.lock().expect("kept shards").push((rank, shard));
                    }
                }
                Ok(RunResult {
                    losses,
                    start_iteration,
                    save_secs: 0.0,
                    load_secs,
                    metrics: Vec::new(),
                })
            })
        })
        .map(merge_ranks)
    };

    let mut plan = kill_plan(spec, spec.topo);
    let mut out = KillOut::default();
    let first = run_segment(&plan);
    let last = match first {
        Ok(done) => done?,
        Err(failure) => {
            let t_recover = Instant::now();
            if let Some(t) = fault_at.lock().expect("fault clock").take() {
                out.detect_teardown_ms = t.elapsed().as_secs_f64() * 1e3;
            }
            let _recover = main.span("trainer.recover");
            let dir = spec.dir.as_path();
            journal_event(
                &main,
                dir,
                &JournalEvent::RecoveryBegin {
                    rank: failure.rank,
                    step: failure.step,
                    cause: failure.payload.clone(),
                },
            )?;
            if let Some(t) = &tier {
                t.mark_lost(&[failure.rank]);
            }
            plan.config.parallel = spec.ladder.parallel();
            let mut source = "disk";
            let mut resume_step = None;
            if let Some(t) = &tier {
                journal_event(
                    &main,
                    dir,
                    &JournalEvent::HotRecoveryBegin { step: failure.step },
                )?;
                let recovered = main
                    .time("trainer.hot_recover", || t.try_recover())
                    .filter(|(ckpt, _)| layout::read_latest(dir).is_none_or(|d| d <= ckpt.step()));
                let (served_ranks, fallback) = match &recovered {
                    Some((_, served)) => (served.clone(), false),
                    None => (Vec::new(), true),
                };
                journal_event(
                    &main,
                    dir,
                    &JournalEvent::HotRecoveryEnd {
                        served_ranks,
                        fallback,
                    },
                )?;
                if let Some((ckpt, _)) = recovered {
                    resume_step = Some(ckpt.step());
                    plan.resume = ResumeMode::Hot {
                        checkpoint: Arc::new(ckpt),
                    };
                    source = "peer";
                }
            }
            if source != "peer" {
                match layout::read_latest(dir) {
                    Some(step) => {
                        if !layout::manifest_path(&layout::universal_dir(dir, step)).exists() {
                            main.time("core.convert", || {
                                convert_checkpoint(dir, step, &ConvertOptions::default())
                            })
                            .map_err(|e| e.to_string())?;
                        }
                        plan.resume = ResumeMode::Universal {
                            dir: dir.to_path_buf(),
                            step,
                        };
                        resume_step = Some(step);
                    }
                    None => plan.resume = ResumeMode::Fresh,
                }
            }
            out.lost_steps = failure.step.saturating_sub(resume_step.unwrap_or(0));
            out.recovery_ms = t_recover.elapsed().as_millis() as f64;
            out.source = source.to_string();
            journal_event(
                &main,
                dir,
                &JournalEvent::RecoveryEnd {
                    resume_step,
                    lost_steps: out.lost_steps,
                    recovery_ms: out.recovery_ms as u64,
                    parallel: plan.config.parallel.label(),
                    source: out.source.clone(),
                },
            )?;
            drop(_recover);
            let resumed = run_segment(&plan).map_err(|f| format!("second failure: {f}"))??;
            out.resumed_load_secs = resumed.load_secs;
            resumed
        }
    };
    out.losses = last.losses;
    out.wall_secs = t_call.elapsed().as_secs_f64();
    out.hot_resident_bytes = tier.as_ref().map_or(0, HotTier::resident_bytes);

    let shards = (out.source == "peer").then(|| {
        let mut kept = kept_shards.into_inner().expect("kept shards");
        kept.sort_by_key(|(rank, _)| *rank);
        HotShards(kept.into_iter().map(|(_, shard)| shard).collect())
    });
    Ok((out, shards))
}

// ---- probes -----------------------------------------------------------------
//
// One call into one layer each; `probes.rs` owns the repetition and the
// statistics. The two that need a live cluster (`probe_save`,
// `probe_collectives`) time inside the rank closure and return samples.

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one save costs with the training threads idle, and how many
/// commit points (fsync / rename / dir-sync / write gates) it passes.
#[derive(Debug, Clone, Default)]
pub struct SaveProbe {
    /// Overlapped driver only: `spawn_with` → `wait`, one sample per save
    /// (both ranks' writers: persist + exchange + assemble + atom write).
    pub writer_busy_ms: Vec<f64>,
    /// Kill points all ranks hit during the first (full) save.
    pub commit_points: u64,
}

/// Train one step, then save `saves` times under `dir` (one more step
/// between saves, untimed, so an MoE save has dirty experts to write).
pub fn probe_save(
    model: Model,
    topo: Topo,
    driver: Driver,
    seed: u64,
    saves: usize,
    dir: &Path,
) -> Result<SaveProbe, String> {
    let cfg = train_config(model, topo, seed);
    let world = topo.world();
    let pipelines = SavePipelines::new(world);
    let results = Cluster::run(world, |comm| -> Result<SaveProbe, String> {
        let rank = comm.rank();
        let everyone = Group::world(world);
        let barrier = || comm.barrier(&everyone).map_err(|e| e.to_string());
        let mut engine = RankEngine::fresh(cfg.clone(), comm).map_err(|e| e.to_string())?;
        let pool = SnapshotPool::new(SNAPSHOT_POOL_CAPACITY);
        let mut out = SaveProbe::default();
        for k in 0..saves {
            engine.train_iteration().map_err(|e| e.to_string())?;
            let step = engine.iteration;
            // Count commit points on the first save only: an armed plan
            // puts a lock on every write, so that save is not timed.
            let armed = (k == 0 && rank == 0).then(|| {
                ucp_storage::io::fault::arm(ucp_storage::io::fault::FaultPlan::count_only(dir))
            });
            barrier()?;
            let t = Instant::now();
            match driver {
                Driver::Sync => engine.save_checkpoint(dir).map_err(|e| e.to_string())?,
                Driver::Overlapped => {
                    let snapshot = engine.snapshot_pooled(&pool);
                    let pending = PendingSave::spawn_with(
                        snapshot,
                        dir.to_path_buf(),
                        pipelines.take(step, rank),
                    );
                    pending.wait_persisted().map_err(|e| e.to_string())?;
                    engine
                        .publish_markers(dir, step, false)
                        .map_err(|e| e.to_string())?;
                    if rank == 0 {
                        pipelines.notify_native_published(step);
                    }
                    pending.wait().map_err(|e| e.to_string())?;
                }
            }
            barrier()?;
            match armed {
                Some(guard) => out.commit_points = guard.hits(),
                None if k > 0 && driver == Driver::Overlapped => out.writer_busy_ms.push(ms(t)),
                None => {}
            }
        }
        Ok(out)
    });
    results
        .into_iter()
        .next()
        .unwrap_or_else(|| Err("empty cluster".into()))
}

/// `MemoryCheckpoint::assemble` over one replication wave, then
/// `MemoryCheckpoint::load_rank` for every rank of `target`:
/// `(assemble ms, load ms per rank)`.
pub fn probe_memory_checkpoint(shards: HotShards, target: Topo) -> Result<(f64, Vec<f64>), String> {
    let t = Instant::now();
    let ckpt = MemoryCheckpoint::assemble(shards.0).map_err(|e| e.to_string())?;
    let assemble_ms = ms(t);
    let mut loads = Vec::new();
    for rank in 0..target.world() {
        let t = Instant::now();
        let state = ckpt
            .load_rank(&target.parallel(), rank, DEFAULT_ALIGNMENT)
            .map_err(|e| e.to_string())?;
        loads.push(ms(t));
        std::hint::black_box(state);
    }
    Ok((assemble_ms, loads))
}

/// World-2 `Comm::all_reduce_sum_f64` over `len` values and
/// `Comm::barrier`, `iters` times each: `(all-reduce ms, barrier µs)` as
/// rank 0 saw them.
pub fn probe_collectives(len: usize, iters: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let results = Cluster::run(2, |comm| -> Result<(Vec<f64>, Vec<f64>), String> {
        let pair = Group::world(2);
        let grad = vec![comm.rank() as f64 + 0.5; len];
        let (mut reduce, mut barrier) = (Vec::new(), Vec::new());
        for _ in 0..iters {
            let t = Instant::now();
            let sum = comm
                .all_reduce_sum_f64(&pair, &grad)
                .map_err(|e| e.to_string())?;
            reduce.push(ms(t));
            std::hint::black_box(sum);
        }
        for _ in 0..iters * 8 {
            let t = Instant::now();
            comm.barrier(&pair).map_err(|e| e.to_string())?;
            barrier.push(ms(t) * 1e3);
        }
        Ok((reduce, barrier))
    });
    results
        .into_iter()
        .next()
        .unwrap_or_else(|| Err("empty cluster".into()))
}

/// `Mesh::lease` + `EpochLease::send` / `recv_from` between two threads,
/// `elems` f32 each way per round, each payload copied out of a resident
/// buffer first (as a writer copies a fragment out of its snapshot):
/// milliseconds per round as rank 0 saw it.
pub fn probe_exchange(elems: usize, rounds: u64) -> Result<Vec<f64>, String> {
    let mesh: Mesh<Vec<f32>> = Mesh::new(2);
    let deadline = Duration::from_secs(30);
    let side = |rank: usize| -> Result<Vec<f64>, String> {
        let snapshot = vec![rank as f32 + 0.5; elems];
        let mut out = Vec::new();
        for epoch in 1..=rounds {
            let t = Instant::now();
            let lease = mesh.lease(rank, epoch);
            lease
                .send(1 - rank, snapshot.clone())
                .map_err(|e| e.to_string())?;
            let got = lease
                .recv_from(1 - rank, deadline)
                .map_err(|e| e.to_string())?;
            lease.finish();
            out.push(ms(t));
            std::hint::black_box(got);
        }
        Ok(out)
    };
    std::thread::scope(|s| {
        let peer = s.spawn(|| side(1));
        let mine = side(0);
        peer.join()
            .map_err(|_| "exchange peer panicked".to_string())??;
        mine
    })
}

/// Inputs for [`probe_matmul`]: `[m×k]` and `[k×n]`.
pub struct MatmulProbe(Tensor, Tensor);

impl MatmulProbe {
    /// Random operands of the given shape.
    pub fn build(m: usize, k: usize, n: usize) -> MatmulProbe {
        let rng = DetRng::new(17);
        MatmulProbe(
            Tensor::randn([m, k], 1.0, &rng),
            Tensor::randn([k, n], 1.0, &rng),
        )
    }

    /// One `ops::matmul`.
    pub fn run(&self) {
        std::hint::black_box(ops::matmul(&self.0, &self.1).expect("matmul shapes agree"));
    }
}

/// State for [`AdamProbe::step`]: one rank's chunk.
pub struct AdamProbe {
    state: AdamState,
    master: Vec<f32>,
    grad: Vec<f32>,
}

impl AdamProbe {
    /// A chunk of `len` elements with non-zero gradients everywhere (lazy
    /// Adam skips exact zeros).
    pub fn build(len: usize) -> AdamProbe {
        AdamProbe {
            state: AdamState::new(len),
            master: vec![0.5; len],
            grad: (0..len).map(|i| 1e-3 + (i % 7) as f32 * 1e-4).collect(),
        }
    }

    /// One `AdamState::step`.
    pub fn step(&mut self) {
        self.state
            .step(&AdamConfig::default(), &mut self.master, &self.grad, 1e-3);
    }
}

/// `Partition::shard_segments` for every parameter and TP rank of `model`
/// at `tp`; returns the number of runs (so the work is not optimised out).
pub fn probe_shard_segments(model: Model, tp: usize) -> usize {
    param_specs(&model.config())
        .iter()
        .map(|s| {
            (0..tp)
                .map(|r| s.partition.shard_segments(&s.shape, tp, r).len())
                .sum::<usize>()
        })
        .sum()
}

/// `FlatLayout::build` over `model`'s TP-`tp` shard shapes at `dp`.
pub fn probe_flat_build(model: Model, tp: usize, dp: usize) -> usize {
    let entries: Vec<(String, ucp_tensor::Shape)> = param_specs(&model.config())
        .iter()
        .map(|s| (s.name.clone(), s.partition.shard_shape(&s.shape, tp)))
        .collect();
    FlatLayout::build(&entries, DEFAULT_ALIGNMENT, dp).total_len
}

/// `crc::crc32c` over `buf`.
pub fn probe_crc(buf: &[u8]) -> u32 {
    crc::crc32c(buf)
}

/// `crc::crc32c_blocks` over `buf` at the container's block size.
pub fn probe_crc_blocks(buf: &[u8]) -> usize {
    crc::crc32c_blocks(buf, ucp_storage::container::RANGE_CRC_BLOCK as usize).len()
}

/// A shard-sized container (three fp32 sections, like an optimizer shard)
/// and the calls the save and load paths make on it.
pub struct ContainerProbe {
    container: Container,
    /// Elements per section.
    pub elems: usize,
}

/// An opened container index plus the reader range reads go through —
/// the same `BufReader<File>` the atom cache uses.
pub struct IndexProbe {
    index: ContainerIndex,
    reader: std::io::BufReader<std::fs::File>,
    scratch: RangeScratch,
}

impl ContainerProbe {
    /// Three sections of `elems` random f32.
    pub fn build(elems: usize) -> ContainerProbe {
        let rng = DetRng::new(23);
        let mut container = Container::new(r#"{"probe": true}"#);
        for key in ["fp32", "exp_avg", "exp_avg_sq"] {
            container.push(key, Tensor::randn([elems], 1.0, &rng));
        }
        ContainerProbe { container, elems }
    }

    /// Encoded size in bytes.
    pub fn bytes(&self) -> u64 {
        self.container.encoded_len() as u64
    }

    /// `Container::write_file`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        self.container.write_file(path).map_err(|e| e.to_string())
    }

    /// `Container::write_file_durable`.
    pub fn write_durable(&self, path: &Path) -> Result<(), String> {
        self.container
            .write_file_durable(path)
            .map_err(|e| e.to_string())
    }

    /// `Container::read_file`.
    pub fn read(path: &Path) -> Result<(), String> {
        Container::read_file(path)
            .map(|c| {
                std::hint::black_box(c);
            })
            .map_err(|e| e.to_string())
    }

    /// `ContainerIndex::read_file` alone.
    pub fn open_index(path: &Path) -> Result<(), String> {
        ContainerIndex::read_file(path)
            .map(|i| {
                std::hint::black_box(i);
            })
            .map_err(|e| e.to_string())
    }

    /// Open `path` for range reads.
    pub fn open_for_ranges(path: &Path) -> Result<IndexProbe, String> {
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let mut reader = std::io::BufReader::new(file);
        let index = ContainerIndex::read_from(&mut reader).map_err(|e| e.to_string())?;
        Ok(IndexProbe {
            index,
            reader,
            scratch: RangeScratch::default(),
        })
    }
}

impl IndexProbe {
    /// `ContainerIndex::read_section_range_with` over `elems` of the first
    /// section.
    pub fn range_read(&mut self, elems: std::ops::Range<usize>) -> Result<(), String> {
        self.index
            .read_section_range_with(&mut self.reader, "fp32", elems, &mut self.scratch)
            .map(|t| {
                std::hint::black_box(t);
            })
            .map_err(|e| e.to_string())
    }
}

/// `assemble::write_atom_file` of one `elems`-element fp32 atom under
/// `universal`; returns the encoded bytes.
pub fn probe_atom_write(universal: &Path, name: &str, elems: usize) -> Result<u64, String> {
    let atom = Tensor::full([elems], 0.25);
    ucp_core::assemble::write_atom_file(
        universal,
        name,
        &ParamPattern::Replicated,
        AtomFile::Fp32,
        atom,
        "bench/atom_write",
    )
    .map_err(|e| e.to_string())
}

/// `commit::atomic_write` of a marker-sized file.
pub fn probe_atomic_write(path: &Path) -> Result<(), String> {
    commit::atomic_write(path, b"global_step00000000").map_err(|e| e.to_string())
}

/// `commit::fsync_dir`.
pub fn probe_fsync_dir(dir: &Path) -> Result<(), String> {
    commit::fsync_dir(dir).map_err(|e| e.to_string())
}

/// `commit::link_file_durable`.
pub fn probe_link_file(src: &Path, dst: &Path) -> Result<(), String> {
    commit::link_file_durable(src, dst).map_err(|e| e.to_string())
}

/// `journal::append` of a save record.
pub fn probe_journal_append(dir: &Path, step: u64) -> Result<(), String> {
    journal::append(dir, &JournalEvent::SaveStarted { step }).map_err(|e| e.to_string())
}

/// `layout::publish_step_markers` (both markers).
pub fn probe_publish_markers(dir: &Path, step: u64) -> Result<(), String> {
    layout::publish_step_markers(dir, step, true).map_err(|e| e.to_string())
}
