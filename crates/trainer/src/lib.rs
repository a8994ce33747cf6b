//! Distributed training simulator: the "DeepSpeed + Megatron-LM" stand-in.
//!
//! Drives an in-process SPMD cluster through real TP/SP/PP/DP training of
//! the transformer family in `ucp-model`, with ZeRO-partitioned AdamW,
//! mixed precision, and periodic distributed checkpointing. Resuming is
//! supported in two modes that mirror the paper's Fig. 1 contrast:
//!
//! - **native**: same strategy only — a strategy change is a hard error
//!   (the status quo UCP fixes);
//! - **universal**: any strategy, by converting the native checkpoint into
//!   atom checkpoints and re-partitioning them for the target.
//!
//! The driver functions in [`driver`] package complete experiment flows
//! (train → checkpoint → reconfigure → resume), used by the figure
//! harness, the integration tests, and the examples.

pub mod comm_group;
pub mod data;
pub mod dirty;
pub mod driver;
pub mod engine;
pub mod hot;
pub mod pipeline;
pub mod snapshot;
pub mod supervisor;

pub use comm_group::CommGroup;
pub use dirty::{DirtyMap, DirtyTracker};
pub use driver::{
    convert_checkpoint, run_elastic, train_run, train_run_overlapped, ElasticPhase, Persist,
    ResumeMode, RunResult, SavePolicy, TrainPlan,
};
pub use engine::{IterStats, PipelineSchedule, RankEngine, TrainConfig, UniversalSource};
pub use hot::HotTier;
pub use pipeline::SavePipelines;
pub use snapshot::{CheckpointSnapshot, PendingSave, PooledSnapshot, SnapshotPool};
pub use supervisor::{
    parse_faults, supervise, FaultKind, RankFault, RestartEvent, SuperviseReport, SupervisorOptions,
};

/// Trainer errors.
#[derive(Debug)]
pub enum TrainError {
    /// Invalid run configuration.
    Config(String),
    /// Communication failure.
    Comm(ucp_collectives::CommError),
    /// A rank's body panicked and took its cluster down: the root-cause
    /// rank, its step, its payload and any watchdog timeout. The one error
    /// the supervisor recovers from.
    Rank(ucp_collectives::RankFailure),
    /// Checkpoint/UCP failure.
    Ucp(ucp_core::UcpError),
    /// A native resume was attempted with a different parallelism strategy
    /// — the limitation Universal Checkpointing removes.
    StrategyMismatch {
        /// Strategy recorded in the checkpoint.
        checkpoint: String,
        /// Strategy requested for the resume.
        requested: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Config(msg) => write!(f, "config: {msg}"),
            TrainError::Comm(e) => write!(f, "communication: {e}"),
            TrainError::Rank(failure) => write!(f, "{failure}"),
            TrainError::Ucp(e) => write!(f, "checkpoint: {e}"),
            TrainError::StrategyMismatch {
                checkpoint,
                requested,
            } => write!(
                f,
                "cannot resume native checkpoint saved with {checkpoint} under {requested}; \
                 convert it to a universal checkpoint first"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Result alias for trainer operations.
pub type Result<T> = std::result::Result<T, TrainError>;
