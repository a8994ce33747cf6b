//! The per-rank training engine: one SPMD program combining TP/SP/PP/DP
//! with ZeRO-partitioned AdamW and mixed precision.
//!
//! ZeRO semantics follow DeepSpeed + Ulysses: the optimizer state is
//! partitioned across the *combined* data × sequence parallel group (its
//! size is the "ZeRO degree"). Each rank owns one flat chunk of the fp32
//! master and its Adam moments, updates only that chunk, and all-gathers
//! the updated master to refresh its bf16/fp16 model copy. Stages 1–3
//! share this code path — they differ in what is persisted and in the
//! gradient communication pattern, neither of which changes the math
//! (our collectives are deterministic, so reduce-scatter + gather equals
//! all-reduce + slice bitwise).

use std::path::Path;
use std::sync::Arc;

use ucp_collectives::{Comm, Group};
use ucp_core::checkpoint::{load_optim_states, CommonState, OptimShard, OptimShardRef};
use ucp_core::load::LoadSession;
use ucp_model::{GradStore, ModelConfig, Partition, Stage, StageIn, StageLayout, StageOut};
use ucp_optim::{clip_scale, AdamConfig, AdamState, LrSchedule};
use ucp_parallel::{FlatLayout, ParallelConfig, RankCoord};
use ucp_storage::layout as disk;
use ucp_telemetry::trace::{self, TraceCat};
use ucp_tensor::{DType, DetRng, Tensor};

use crate::comm_group::CommGroup;
use crate::data;
use crate::dirty::DirtyTracker;
use crate::TrainError;

/// Pipeline execution schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineSchedule {
    /// Run each microbatch's forward and backward to completion before the
    /// next (simple, maximal bubble).
    #[default]
    Sequential,
    /// Non-interleaved 1F1B (PipeDream-flush / Megatron default): warm up
    /// with `P − 1 − stage` forwards, then alternate one forward with one
    /// backward, then drain. Gradients are identical to `Sequential` up to
    /// f64 summation order; activation memory is bounded by the warmup
    /// depth instead of the microbatch count.
    OneFOneB,
}

/// Everything that defines a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture.
    pub model: ModelConfig,
    /// Parallelism strategy.
    pub parallel: ParallelConfig,
    /// Run seed (initialization + data order).
    pub seed: u64,
    /// Samples per iteration (across all DP replicas).
    pub global_batch: usize,
    /// Samples per microbatch per DP replica.
    pub micro_batch: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// AdamW hyperparameters.
    pub adam: AdamConfig,
    /// Global gradient-norm clip (≤ 0 disables).
    pub grad_clip: f64,
    /// Model-copy precision (mixed-precision training).
    pub dtype: DType,
    /// ZeRO flat-buffer alignment quantum (elements).
    pub alignment: usize,
    /// Pipeline execution schedule.
    pub schedule: PipelineSchedule,
}

impl TrainConfig {
    /// Sensible small defaults for a model + strategy (tests, examples).
    pub fn quick(model: ModelConfig, parallel: ParallelConfig, seed: u64) -> TrainConfig {
        TrainConfig {
            model,
            parallel,
            seed,
            global_batch: 8,
            micro_batch: 2,
            lr: LrSchedule {
                max_lr: 1e-3,
                min_lr: 1e-4,
                warmup_iters: 5,
                decay_iters: 200,
            },
            adam: AdamConfig::default(),
            grad_clip: 1.0,
            dtype: DType::BF16,
            alignment: 8,
            schedule: PipelineSchedule::Sequential,
        }
    }

    /// The ZeRO partitioning degree: the combined DP × SP group size.
    pub fn zero_degree(&self) -> usize {
        self.parallel.dp * self.parallel.sp
    }

    /// Check divisibility constraints.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate(self.parallel.tp)?;
        self.parallel
            .validate(self.model.num_layers, self.model.max_seq_len)?;
        let per_replica = self.global_batch.checked_div(self.parallel.dp).unwrap_or(0);
        if per_replica == 0 || !self.global_batch.is_multiple_of(self.parallel.dp) {
            return Err(format!(
                "global batch {} not divisible by DP {}",
                self.global_batch, self.parallel.dp
            ));
        }
        if !per_replica.is_multiple_of(self.micro_batch) {
            return Err(format!(
                "replica batch {per_replica} not divisible by microbatch {}",
                self.micro_batch
            ));
        }
        Ok(())
    }
}

/// Per-iteration observability record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Iteration number (1-based, the iteration just completed).
    pub iteration: u64,
    /// Mean LM loss.
    pub loss: f64,
    /// Global (clipped-against) gradient L2 norm.
    pub grad_norm: f64,
    /// Learning rate applied.
    pub lr: f32,
    /// Wall-clock seconds for the iteration on this rank.
    pub wall_secs: f64,
    /// Tokens processed per second (global batch × seq / wall).
    pub tokens_per_sec: f64,
}

/// Where a universal resume reads its atoms from: the committed disk
/// checkpoint (through a shared [`LoadSession`]) or the peer-assembled
/// in-memory hot checkpoint. Both answer the same `GenUcpMetadata` +
/// `Load` queries and yield identical state for the same step.
pub enum UniversalSource<'s> {
    /// On-disk universal checkpoint, loaded through a shared atom cache.
    Session(&'s LoadSession),
    /// In-memory universal checkpoint assembled from peer replicas.
    Memory(&'s ucp_core::MemoryCheckpoint),
}

impl UniversalSource<'_> {
    /// The source checkpoint's manifest.
    pub fn manifest(&self) -> &ucp_core::UcpManifest {
        match self {
            UniversalSource::Session(s) => s.manifest(),
            UniversalSource::Memory(m) => m.manifest(),
        }
    }

    /// `GenUcpMetadata` + `Load` for one target rank.
    pub fn load_rank(
        &self,
        target: &ParallelConfig,
        rank: usize,
        alignment: usize,
    ) -> ucp_core::Result<ucp_core::RankState> {
        match self {
            UniversalSource::Session(s) => s.load_rank(target, rank, alignment),
            UniversalSource::Memory(m) => m.load_rank(target, rank, alignment),
        }
    }
}

/// One rank's training engine.
pub struct RankEngine<'a> {
    /// Run configuration.
    pub cfg: TrainConfig,
    comm: &'a Comm,
    coord: RankCoord,
    /// This rank's pipeline stage (parameters in compute precision).
    pub stage: Stage,
    /// Flat layout of this (tp, pp) slice at the ZeRO degree.
    pub layout: FlatLayout,
    /// This rank's fp32 master chunk.
    pub master: Vec<f32>,
    /// This rank's Adam state chunk.
    pub adam: AdamState,
    /// Completed iterations.
    pub iteration: u64,
    /// Stats of the most recent iteration.
    pub last_stats: Option<IterStats>,
    /// Per-block dirtiness accumulated since the last snapshot.
    dirty: DirtyTracker,
}

impl<'a> RankEngine<'a> {
    /// This rank's index in the ZeRO (dp × sp) partitioning.
    pub fn zero_index(&self) -> usize {
        self.coord.dp * self.cfg.parallel.sp + self.coord.sp
    }

    /// This rank's grid coordinate.
    pub fn coord(&self) -> RankCoord {
        self.coord
    }

    fn stage_layout(cfg: &TrainConfig, coord: RankCoord) -> StageLayout {
        StageLayout {
            tp_size: cfg.parallel.tp,
            tp_rank: coord.tp,
            sp_size: cfg.parallel.sp,
            sp_rank: coord.sp,
            blocks: cfg.parallel.stage_blocks(coord.pp, cfg.model.num_layers),
            is_first: coord.pp == 0,
            is_last: coord.pp == cfg.parallel.pp - 1,
        }
    }

    fn build_layout(cfg: &TrainConfig, stage: &Stage) -> FlatLayout {
        let entries: Vec<(String, ucp_tensor::Shape)> = stage
            .params
            .iter()
            .map(|(name, t)| (name.clone(), t.shape().clone()))
            .collect();
        FlatLayout::build(&entries, cfg.alignment, cfg.zero_degree())
    }

    /// Fresh start: deterministic initialization from the run seed.
    pub fn fresh(cfg: TrainConfig, comm: &'a Comm) -> Result<RankEngine<'a>, TrainError> {
        cfg.validate().map_err(TrainError::Config)?;
        let coord = cfg.parallel.coord(comm.rank());
        let rng = DetRng::new(cfg.seed);
        let mut stage = Stage::new(cfg.model.clone(), Self::stage_layout(&cfg, coord), &rng);
        let layout = Self::build_layout(&cfg, &stage);
        let full = layout.flatten(|name| stage.params.get(name));
        let zi = coord.dp * cfg.parallel.sp + coord.sp;
        let master = full[layout.rank_range(zi)].to_vec();
        let adam = AdamState::new(layout.chunk);
        stage.params.cast_all(cfg.dtype);
        let dirty = DirtyTracker::new(&layout, &cfg.model);
        Ok(RankEngine {
            cfg,
            comm,
            coord,
            stage,
            layout,
            master,
            adam,
            iteration: 0,
            last_stats: None,
            dirty,
        })
    }

    /// Resume from a *native* distributed checkpoint. Fails unless the
    /// current strategy matches the checkpoint's — the exact limitation
    /// (paper Fig. 1) that Universal Checkpointing removes.
    pub fn resume_native(
        cfg: TrainConfig,
        comm: &'a Comm,
        base: &Path,
        step: u64,
    ) -> Result<RankEngine<'a>, TrainError> {
        cfg.validate().map_err(TrainError::Config)?;
        let coord = cfg.parallel.coord(comm.rank());
        let zi = coord.dp * cfg.parallel.sp + coord.sp;
        let step_dir = disk::step_dir(base, step);
        let (common, shard) =
            load_optim_states(&step_dir, zi, coord.tp, coord.pp).map_err(TrainError::Ucp)?;
        if common.parallel != cfg.parallel {
            return Err(TrainError::StrategyMismatch {
                checkpoint: common.parallel.label(),
                requested: cfg.parallel.label(),
            });
        }
        if common.model != cfg.model {
            return Err(TrainError::Config(
                "model architecture differs from checkpoint".into(),
            ));
        }
        let rng = DetRng::new(common.seed);
        let stage = Stage::new(cfg.model.clone(), Self::stage_layout(&cfg, coord), &rng);
        let layout = shard.layout.clone();
        let adam = AdamState {
            exp_avg: shard.exp_avg,
            exp_avg_sq: shard.exp_avg_sq,
            step: common.adam_step,
        };
        let dirty = DirtyTracker::new(&layout, &cfg.model);
        let mut engine = RankEngine {
            cfg,
            comm,
            coord,
            stage,
            layout,
            master: shard.fp32,
            adam,
            iteration: common.iteration,
            last_stats: None,
            dirty,
        };
        // Rebuild the full fp32 view and refresh the compute copy.
        engine.refresh_model_copy()?;
        engine.stage.params.cast_all(engine.cfg.dtype);
        Ok(engine)
    }

    /// Resume from a *universal* checkpoint under an arbitrary new
    /// strategy (the headline capability), through an open
    /// [`LoadSession`]. Ranks loading through the same session read each
    /// atom byte range from disk once and serve the rest from the shared
    /// cache.
    pub fn resume_universal_session(
        cfg: TrainConfig,
        comm: &'a Comm,
        session: &LoadSession,
    ) -> Result<RankEngine<'a>, TrainError> {
        Self::resume_universal_source(cfg, comm, &UniversalSource::Session(session))
    }

    /// Resume from any universal-checkpoint source — an on-disk load
    /// session or a peer-assembled in-memory checkpoint. Both serve the
    /// same atoms through the same plan, so the reconstructed engine state
    /// is bitwise-identical for the same step.
    pub fn resume_universal_source(
        cfg: TrainConfig,
        comm: &'a Comm,
        source: &UniversalSource<'_>,
    ) -> Result<RankEngine<'a>, TrainError> {
        cfg.validate().map_err(TrainError::Config)?;
        let coord = cfg.parallel.coord(comm.rank());
        // The paper's loader partitions over the combined dp×sp group; map
        // our coordinate onto the plan's dp axis.
        let plan_parallel = ParallelConfig {
            dp: cfg.zero_degree(),
            sp: 1,
            ..cfg.parallel
        };
        let plan_rank = plan_parallel.rank_of(RankCoord {
            dp: coord.dp * cfg.parallel.sp + coord.sp,
            pp: coord.pp,
            sp: 0,
            tp: coord.tp,
        });
        let manifest = source.manifest().clone();
        let state = source
            .load_rank(&plan_parallel, plan_rank, cfg.alignment)
            .map_err(TrainError::Ucp)?;
        if manifest.model != cfg.model {
            return Err(TrainError::Config(
                "model architecture differs from universal checkpoint".into(),
            ));
        }
        let mut cfg = cfg;
        cfg.seed = manifest.seed;
        let rng = DetRng::new(cfg.seed);
        let mut stage = Stage::new(cfg.model.clone(), Self::stage_layout(&cfg, coord), &rng);
        for (name, t) in &state.model_params {
            stage.params.insert(name.as_ref(), t.cast(cfg.dtype));
        }
        let adam = AdamState {
            exp_avg: state.exp_avg,
            exp_avg_sq: state.exp_avg_sq,
            step: manifest.adam_step,
        };
        let layout = Arc::try_unwrap(state.layout).unwrap_or_else(|a| (*a).clone());
        let dirty = DirtyTracker::new(&layout, &cfg.model);
        Ok(RankEngine {
            cfg,
            comm,
            coord,
            stage,
            layout,
            master: state.fp32,
            adam,
            iteration: manifest.iteration,
            last_stats: None,
            dirty,
        })
    }

    fn grad_group(&self) -> Vec<usize> {
        self.cfg.parallel.grad_group(self.comm.rank())
    }

    /// Ranks spanning (tp, pp) at this rank's (dp, sp) — the model-parallel
    /// group used for the global gradient norm.
    fn model_group(&self) -> Vec<usize> {
        let p = &self.cfg.parallel;
        let mut out = Vec::with_capacity(p.tp * p.pp);
        for pp in 0..p.pp {
            for tp in 0..p.tp {
                out.push(p.rank_of(RankCoord {
                    pp,
                    tp,
                    ..self.coord
                }));
            }
        }
        out.sort_unstable();
        out
    }

    /// All-gather master chunks over the ZeRO group and refresh the full
    /// fp32 view into `stage.params` (still fp32 — caller casts).
    fn refresh_model_copy(&mut self) -> Result<(), TrainError> {
        let group = Group::new(self.grad_group()).expect("grad group");
        let chunk_t =
            Tensor::from_vec(self.master.clone(), [self.master.len()]).expect("chunk tensor");
        let full = if group.size() == 1 {
            self.master.clone()
        } else {
            let all = self
                .comm
                .all_gather_tensors(&group, &chunk_t)
                .map_err(TrainError::Comm)?;
            let mut full = Vec::with_capacity(self.layout.total_len);
            for t in all {
                full.extend_from_slice(t.as_slice());
            }
            full
        };
        for slot in &self.layout.slots {
            self.stage
                .params
                .insert(slot.name.clone(), self.layout.unflatten_one(&full, slot));
        }
        Ok(())
    }

    /// Run one training iteration; returns the mean LM loss (identical on
    /// every rank).
    pub fn train_iteration(&mut self) -> Result<f64, TrainError> {
        let _step_span = trace::span(TraceCat::Compute, "step");
        let t_iter = std::time::Instant::now();
        let p = self.cfg.parallel;
        let rank = self.comm.rank();
        let tp_ops = CommGroup::new(self.comm, p.tp_group(rank));
        let sp_ops = CommGroup::new(self.comm, p.sp_group(rank));

        let per_replica = self.cfg.global_batch / p.dp;
        let n_micro = per_replica / self.cfg.micro_batch;
        let seq = self.cfg.model.max_seq_len;
        let is_first = self.coord.pp == 0;
        let is_last = self.coord.pp == p.pp - 1;

        let mut grads = GradStore::zeros_like(&self.stage.params);
        let mut loss_sum_local = 0.0f64;

        let replica =
            data::replica_indices(self.iteration, self.cfg.global_batch, self.coord.dp, p.dp);

        // One microbatch forward: feed tokens (first stage) or upstream
        // activations, ship the output onward, and return the loss
        // contribution with the backward cache.
        let forward_micro =
            |m: usize, loss_acc: &mut f64| -> Result<ucp_model::StageCache, TrainError> {
                let _sp = trace::span(TraceCat::Compute, "forward");
                let start = replica.start + (m * self.cfg.micro_batch) as u64;
                let samples: Vec<data::Sample> = (0..self.cfg.micro_batch)
                    .map(|k| {
                        data::sample(
                            self.cfg.seed,
                            start + k as u64,
                            seq,
                            self.cfg.model.vocab_size,
                        )
                    })
                    .collect();
                let (inputs, targets) = data::sp_chunk(&samples, self.coord.sp, p.sp);
                let (out, cache) = if is_first {
                    self.stage.forward(
                        StageIn::Tokens(&inputs),
                        self.cfg.micro_batch,
                        is_last.then_some(targets.as_slice()),
                        &tp_ops,
                        &sp_ops,
                    )
                } else {
                    let prev = p.pp_prev(rank).expect("non-first stage has prev");
                    let h = self.comm.recv_tensor(prev).map_err(TrainError::Comm)?;
                    self.stage.forward(
                        StageIn::Hidden(h),
                        self.cfg.micro_batch,
                        is_last.then_some(targets.as_slice()),
                        &tp_ops,
                        &sp_ops,
                    )
                };
                match out {
                    StageOut::Hidden(h) => {
                        let next = p.pp_next(rank).expect("hidden output implies next stage");
                        self.comm.send_tensor(next, &h).map_err(TrainError::Comm)?;
                    }
                    StageOut::Loss { sum, .. } => *loss_acc += sum,
                }
                Ok(cache)
            };

        // One microbatch backward: receive the downstream gradient, run the
        // stage backward, and ship the upstream gradient.
        let backward_micro =
            |cache: &ucp_model::StageCache, grads: &mut GradStore| -> Result<(), TrainError> {
                let _sp = trace::span(TraceCat::Compute, "backward");
                let dh_next = if is_last {
                    None
                } else {
                    let next = p.pp_next(rank).expect("non-last stage has next");
                    Some(self.comm.recv_tensor(next).map_err(TrainError::Comm)?)
                };
                let dh_prev = self.stage.backward(cache, dh_next, grads, &tp_ops, &sp_ops);
                if let Some(dh) = dh_prev {
                    let prev = p.pp_prev(rank).expect("gradient flows to prev stage");
                    self.comm.send_tensor(prev, &dh).map_err(TrainError::Comm)?;
                }
                Ok(())
            };

        match self.cfg.schedule {
            PipelineSchedule::Sequential => {
                for m in 0..n_micro {
                    let cache = forward_micro(m, &mut loss_sum_local)?;
                    backward_micro(&cache, &mut grads)?;
                }
            }
            PipelineSchedule::OneFOneB => {
                // Warmup depth: how many forwards this stage runs ahead of
                // its first backward.
                let warmup = (p.pp - 1 - self.coord.pp).min(n_micro);
                let mut in_flight = std::collections::VecDeque::new();
                for m in 0..warmup {
                    in_flight.push_back(forward_micro(m, &mut loss_sum_local)?);
                }
                for m in warmup..n_micro {
                    in_flight.push_back(forward_micro(m, &mut loss_sum_local)?);
                    let oldest = in_flight.pop_front().expect("one in flight");
                    backward_micro(&oldest, &mut grads)?;
                }
                while let Some(oldest) = in_flight.pop_front() {
                    backward_micro(&oldest, &mut grads)?;
                }
            }
        }

        // Mean loss across the run: only (tp=0, last-stage) ranks
        // contribute, everyone receives the sum.
        let world = Group::world(self.comm.world_size());
        let contribution = if is_last && self.coord.tp == 0 {
            loss_sum_local
        } else {
            0.0
        };
        let token_total = (self.cfg.global_batch * seq) as f64;
        let loss_total = self
            .comm
            .all_reduce_scalar(&world, contribution)
            .map_err(TrainError::Comm)?;
        let mean_loss = loss_total / token_total;

        // Flatten gradients and reduce over the dp×sp group.
        let mut flat = vec![0.0f64; self.layout.total_len];
        for slot in &self.layout.slots {
            let g = grads.get(&slot.name);
            flat[slot.offset..slot.offset + slot.len].copy_from_slice(g);
        }
        let grad_group = Group::new(self.grad_group()).expect("grad group");
        let mut flat = if grad_group.size() > 1 {
            self.comm
                .all_reduce_sum_f64(&grad_group, &flat)
                .map_err(TrainError::Comm)?
        } else {
            flat
        };

        // Tied embeddings under PP > 1: the shared weight lives on both the
        // first and last stages with *different* local gradients (embedding
        // lookup vs LM head); sum them across the shared-embedding group so
        // both replicas apply the identical combined update.
        if self.cfg.model.tie_embeddings && p.pp > 1 && (is_first || is_last) {
            const TIED: &str = "embedding.word_embeddings.weight";
            if let Some(slot) = self.layout.slot(TIED).cloned() {
                let peer_pp = if is_first { p.pp - 1 } else { 0 };
                let peer = p.rank_of(RankCoord {
                    pp: peer_pp,
                    ..self.coord
                });
                let pair = Group::new(vec![rank, peer]).expect("embedding pair group");
                let slice = flat[slot.offset..slot.offset + slot.len].to_vec();
                let summed = self
                    .comm
                    .all_reduce_sum_f64(&pair, &slice)
                    .map_err(TrainError::Comm)?;
                flat[slot.offset..slot.offset + slot.len].copy_from_slice(&summed);
            }
        }
        let flat = flat;

        // Record which blocks this iteration touched — scanned before the
        // f64→f32 cast so a gradient that underflows the cast still counts
        // as dirty (lazy Adam skips exact zeros only; see `crate::dirty`).
        self.dirty.observe_grads(&flat);

        // Scale to mean-loss gradients and clip by the global norm.
        let inv = 1.0 / token_total;
        let specs = self.stage.specs().to_vec();
        let mut local_sq = 0.0f64;
        for slot in &self.layout.slots {
            let spec = specs
                .iter()
                .find(|s| s.name == slot.name)
                .expect("slot has a spec");
            let replicated = matches!(spec.partition, Partition::Replicated);
            if replicated && self.coord.tp != 0 {
                continue;
            }
            // The tied embedding appears on both pipeline-end stages with
            // identical (already-summed) gradients: count it once.
            if matches!(spec.role, ucp_model::LayerRole::SharedEmbedding)
                && p.pp > 1
                && is_last
                && !is_first
            {
                continue;
            }
            for v in &flat[slot.offset..slot.offset + slot.len] {
                let g = v * inv;
                local_sq += g * g;
            }
        }
        let model_group = Group::new(self.model_group()).expect("model group");
        let total_sq = self
            .comm
            .all_reduce_scalar(&model_group, local_sq)
            .map_err(TrainError::Comm)?;
        let grad_norm = total_sq.sqrt();
        let scale = inv * clip_scale(total_sq, self.cfg.grad_clip);

        // AdamW on this rank's chunk, then all-gather and refresh.
        {
            let _sp = trace::span(TraceCat::Compute, "optim");
            let range = self.layout.rank_range(self.zero_index());
            let grad_chunk: Vec<f32> = flat[range].iter().map(|v| (v * scale) as f32).collect();
            self.adam.step(
                &self.cfg.adam,
                &mut self.master,
                &grad_chunk,
                self.cfg.lr.lr_at(self.iteration),
            );
            self.refresh_model_copy()?;
            self.stage.params.cast_all(self.cfg.dtype);
        }

        self.iteration += 1;
        let wall_secs = t_iter.elapsed().as_secs_f64();
        self.last_stats = Some(IterStats {
            iteration: self.iteration,
            loss: mean_loss,
            grad_norm,
            lr: self.cfg.lr.lr_at(self.iteration - 1),
            wall_secs,
            tokens_per_sec: token_total / wall_secs.max(1e-12),
        });
        Ok(mean_loss)
    }

    /// The common (non-tensor) state for checkpointing.
    pub fn common_state(&self) -> CommonState {
        CommonState {
            iteration: self.iteration,
            seed: self.cfg.seed,
            data_cursor: self.iteration * self.cfg.global_batch as u64,
            adam_step: self.adam.step,
            model: self.cfg.model.clone(),
            parallel: self.cfg.parallel,
            params_to_average: Vec::new(),
        }
    }

    /// Capture an owned snapshot of everything this rank persists at the
    /// current step (the blocking half of overlapped checkpointing; see
    /// [`crate::snapshot`]).
    ///
    /// Takes `&mut self` because it also *drains* the dirty tracker: the
    /// returned snapshot carries the set of parameter ranges touched since
    /// the previous snapshot, and the tracker resets to clean. Dropping the
    /// snapshot without saving it therefore loses dirtiness — callers must
    /// hand every snapshot to the save path (the driver does).
    pub fn snapshot(&mut self) -> crate::snapshot::CheckpointSnapshot {
        let zi = self.zero_index();
        let dirty = self.dirty.take();
        crate::snapshot::CheckpointSnapshot {
            common: self.common_state(),
            tp: self.coord.tp,
            pp: self.coord.pp,
            model: (zi == 0).then(|| self.stage.params.clone()),
            shard: OptimShard {
                dp: zi,
                layout: self.layout.clone(),
                fp32: self.master.clone(),
                exp_avg: self.adam.exp_avg.clone(),
                exp_avg_sq: self.adam.exp_avg_sq.clone(),
            },
            dirty: Some(dirty),
        }
    }

    /// Capture this rank's state as a hot-tier shard: the peer-replication
    /// payload (common metadata plus a clone of the flat optimizer chunk).
    /// Unlike [`RankEngine::snapshot`] this does not drain the dirty
    /// tracker: the save boundary drains it once — via
    /// [`RankEngine::take_dirty`] after a synchronous save, or as part of
    /// the snapshot an overlapped save captures — and hands the same runs
    /// to the push.
    pub fn hot_shard(&self) -> ucp_core::HotShard {
        ucp_core::HotShard {
            common: self.common_state(),
            tp: self.coord.tp,
            pp: self.coord.pp,
            shard: OptimShard {
                dp: self.zero_index(),
                layout: self.layout.clone(),
                fp32: self.master.clone(),
                exp_avg: self.adam.exp_avg.clone(),
                exp_avg_sq: self.adam.exp_avg_sq.clone(),
            },
        }
    }

    /// Drain the dirty tracker: the parameter ranges touched since the
    /// last drain (by [`RankEngine::snapshot`] or this method). The hot
    /// tier uses the drained map to delta-replicate between full pushes.
    pub fn take_dirty(&mut self) -> crate::dirty::DirtyMap {
        self.dirty.take()
    }

    /// Like [`RankEngine::snapshot`], but fills a reusable buffer drawn
    /// from `pool`, blocking while all pooled buffers are in flight (the
    /// backpressure that bounds snapshot memory at per-iteration cadence).
    /// Filling a recycled buffer is a `clone_from` into existing capacity
    /// — no allocation once the pool is warm.
    pub fn snapshot_pooled(
        &mut self,
        pool: &Arc<crate::snapshot::SnapshotPool>,
    ) -> crate::snapshot::PooledSnapshot {
        let mut pooled = pool.acquire();
        self.snapshot_into(pooled.slot_mut());
        pooled
    }

    fn snapshot_into(&mut self, slot: &mut Option<crate::snapshot::CheckpointSnapshot>) {
        match slot {
            Some(prev) => {
                let zi = self.zero_index();
                prev.common = self.common_state();
                prev.tp = self.coord.tp;
                prev.pp = self.coord.pp;
                if zi == 0 {
                    match &mut prev.model {
                        Some(m) => m.clone_from(&self.stage.params),
                        m => *m = Some(self.stage.params.clone()),
                    }
                } else {
                    prev.model = None;
                }
                prev.shard.dp = zi;
                prev.shard.layout.clone_from(&self.layout);
                prev.shard.fp32.clone_from(&self.master);
                prev.shard.exp_avg.clone_from(&self.adam.exp_avg);
                prev.shard.exp_avg_sq.clone_from(&self.adam.exp_avg_sq);
                prev.dirty = Some(self.dirty.take());
            }
            None => *slot = Some(self.snapshot()),
        }
    }

    /// Publish a drained save: barrier the world, then let rank 0 commit
    /// the native `latest` marker — and, when `universal` is set, the
    /// step's `latest_universal` right after it (see
    /// `ucp_storage::layout::publish_step_markers` for the ordering
    /// invariant). The entry barrier is what upholds the commit ordering:
    /// every rank's files for the step are written and renamed into place
    /// before a marker lands (native files are atomic, not fsynced).
    /// Both save policies pass `universal: false`: a sync save's universal
    /// tree comes from an offline convert, and the born-universal pipeline
    /// publishes `latest_universal` from rank 0's background writer,
    /// keyed off this publish completing.
    pub fn publish_markers(
        &self,
        base: &Path,
        step: u64,
        universal: bool,
    ) -> Result<(), TrainError> {
        let _sp = ucp_telemetry::span("save/publish");
        let world = Group::world(self.comm.world_size());
        self.comm.barrier(&world).map_err(TrainError::Comm)?;
        if self.comm.rank() == 0 {
            disk::publish_step_markers(base, step, universal)
                .map_err(|e| TrainError::Ucp(e.into()))?;
        }
        self.comm.barrier(&world).map_err(TrainError::Comm)?;
        Ok(())
    }

    /// Write this rank's part of a native distributed checkpoint, then
    /// publish the `latest` marker ([`RankEngine::publish_markers`]).
    pub fn save_checkpoint(&self, base: &Path) -> Result<(), TrainError> {
        let zi = self.zero_index();
        // One model-states file per (tp, pp), written by the zi=0 replica.
        crate::snapshot::persist_rank_files(
            base,
            &self.common_state(),
            self.coord.tp,
            self.coord.pp,
            (zi == 0).then_some(&self.stage.params),
            OptimShardRef {
                dp: zi,
                layout: &self.layout,
                fp32: &self.master,
                exp_avg: &self.adam.exp_avg,
                exp_avg_sq: &self.adam.exp_avg_sq,
            },
        )?;
        self.publish_markers(base, self.iteration, false)
    }
}
