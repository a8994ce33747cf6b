//! Universal Checkpointing (UCP): the paper's core contribution.
//!
//! UCP decouples distributed checkpoints from the parallelism strategy and
//! hardware configuration that produced them. The key idea (§3.1) is to
//! pick the optimal representation per phase of the checkpoint life cycle:
//! *distributed* for saving (each rank persists only what it owns — zero
//! added training cost) and *consolidated* for loading (per-parameter
//! **atom checkpoints** that any target strategy can slice).
//!
//! The pieces, mapped to the paper:
//!
//! - [`pattern`] — Table 1's parameter patterns (`unique_params`,
//!   `replicated_params`, `fragment_params`, `params_to_average`) plus the
//!   Fig. 5 sub-patterns (QKV-with-GQA variable sections, 3-D MoE shards,
//!   flat ZeRO ranges).
//! - [`language`] — the UCP specification language: declarative name-glob →
//!   pattern rules with a builder API, and automatic derivation of a spec
//!   from a model's parameter inventory.
//! - [`ops`] — Table 2's transformation operations: `Extract`, `Union`,
//!   `StripPadding`, `GenUcpMetadata`, `Load`.
//! - [`checkpoint`] — the native distributed checkpoint schema (what
//!   training writes; DeepSpeed layout conventions).
//! - [`manifest`] — the universal checkpoint manifest (training state +
//!   atom index).
//! - [`convert`] — Algorithm 1: parallel extract → pattern-dispatched union
//!   → strip padding → atom files; the one consolidation, which the RAM
//!   tier ([`memory`]) also runs over shards held in memory.
//! - [`load`] — target-side metadata generation and atom loading for an
//!   arbitrary new parallelism configuration; the one plan executor,
//!   serving disk sessions and [`memory`] alike.
//! - [`adapter`] — cross-framework sources (a PyTorch-Lightning-style
//!   consolidated checkpoint flavor) written through the same atom encoder
//!   and commit tail ([`assemble::commit_universal`]) as a conversion.

pub mod adapter;
pub mod assemble;
pub mod atom_cache;
pub mod checkpoint;
pub mod convert;
pub mod fsck;
pub mod language;
pub mod load;
pub mod manifest;
pub mod memory;
pub mod ops;
pub mod pattern;
pub mod util;

pub use assemble::{
    build_manifest, commit_universal, stage_atom, write_atom_file, StageAssembler, StageAtoms,
};
pub use atom_cache::AtomCache;
pub use checkpoint::{CommonState, OptimShard, OptimShardRef};
pub use convert::{convert_to_memory, convert_to_universal, ConvertOptions, ConvertStats};
pub use fsck::{fsck, FsckOptions, FsckProblem, FsckReport};
pub use language::{UcpSpec, UcpSpecBuilder};
pub use load::{gen_ucp_metadata, LoadOptions, LoadPlan, LoadSession, RankState};
pub use manifest::{AtomMeta, ManifestError, UcpManifest};
pub use memory::{HotShard, MemoryCheckpoint};
pub use pattern::{FragmentSpec, ParamPattern};

/// UCP errors.
#[derive(Debug)]
pub enum UcpError {
    /// Storage layer failure (I/O, corruption).
    Storage(ucp_storage::StorageError),
    /// Tensor-shape failure during reassembly.
    Tensor(ucp_tensor::TensorError),
    /// Metadata inconsistency (missing files, mismatched headers).
    Inconsistent(String),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// A manifest this reader refuses.
    Manifest(manifest::ManifestError),
}

impl From<ucp_storage::StorageError> for UcpError {
    fn from(e: ucp_storage::StorageError) -> UcpError {
        UcpError::Storage(e)
    }
}

impl From<ucp_tensor::TensorError> for UcpError {
    fn from(e: ucp_tensor::TensorError) -> UcpError {
        UcpError::Tensor(e)
    }
}

impl From<serde_json::Error> for UcpError {
    fn from(e: serde_json::Error) -> UcpError {
        UcpError::Json(e)
    }
}

impl From<std::io::Error> for UcpError {
    fn from(e: std::io::Error) -> UcpError {
        UcpError::Storage(ucp_storage::StorageError::Io(e))
    }
}

impl std::fmt::Display for UcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UcpError::Storage(e) => write!(f, "storage: {e}"),
            UcpError::Tensor(e) => write!(f, "tensor: {e}"),
            UcpError::Inconsistent(msg) => write!(f, "inconsistent checkpoint: {msg}"),
            UcpError::Json(e) => write!(f, "metadata json: {e}"),
            UcpError::Manifest(e) => write!(f, "manifest: {e}"),
        }
    }
}

impl std::error::Error for UcpError {}

/// Result alias for UCP operations.
pub type Result<T> = std::result::Result<T, UcpError>;
