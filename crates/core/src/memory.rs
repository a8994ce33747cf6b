//! In-memory universal checkpoints: what every recovery resumes from.
//!
//! A [`MemoryCheckpoint`] is a universal checkpoint served from RAM:
//! per-parameter atom tensors plus a manifest. It has two producers, both
//! [`crate::convert`]'s chunk feed into the one
//! [`crate::assemble::StageAssembler`]: [`MemoryCheckpoint::assemble`]
//! consolidates the optimizer shards peers replicated into RAM
//! ([`HotShard`], the hot tier) and keeps the buffers instead of writing
//! files, and [`crate::convert::convert_to_memory`] keeps the buffers of a
//! disk convert after staging its atom files (the disk tier). Loading is
//! [`crate::load`]'s one plan executor with the atom map as its source —
//! so a rank resumed from memory reconstructs bitwise-identical state to
//! one resumed from the converted disk checkpoint, under *any* target
//! parallelism strategy. Like a disk [`crate::LoadSession`], the checkpoint
//! builds each fp32 shard once and its DP replicas share it.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use ucp_parallel::ParallelConfig;
use ucp_tensor::Tensor;

use crate::checkpoint::{CommonState, OptimShard};
use crate::convert::{assemble_stages, ChunkSource, ConvertOptions};
use crate::load::{execute_plan, gen_ucp_metadata, AtomSource, RankState, ShardTable};
use crate::manifest::UcpManifest;
use crate::{Result, UcpError};

/// One rank's contribution to the hot tier: the training state it would
/// persist at a save step, kept in (peer) memory instead.
#[derive(Debug, Clone, PartialEq)]
pub struct HotShard {
    /// Replicated run metadata (identical on every rank of a step).
    pub common: CommonState,
    /// Source TP coordinate of the shard.
    pub tp: usize,
    /// Source PP coordinate of the shard.
    pub pp: usize,
    /// The rank's flat ZeRO optimizer chunk (`shard.dp` is its index
    /// within the combined dp × sp ZeRO group).
    pub shard: OptimShard,
}

impl HotShard {
    /// Payload size of the three state chunks, in bytes (the dominant
    /// term of a replica's memory footprint).
    pub fn payload_bytes(&self) -> u64 {
        ((self.shard.fp32.len() + self.shard.exp_avg.len() + self.shard.exp_avg_sq.len()) * 4)
            as u64
    }
}

/// A fully consolidated universal checkpoint held in memory.
#[derive(Debug, Clone)]
pub struct MemoryCheckpoint {
    manifest: UcpManifest,
    /// Atom tensors per parameter, indexed `[fp32, exp_avg, exp_avg_sq]`:
    /// whole parameters, also where the manifest lists a split one's
    /// sub-atoms (a load from memory reads whole atoms).
    atoms: BTreeMap<String, [Tensor; 3]>,
    /// The fp32 shards loads from this checkpoint have built, shared by
    /// DP replicas.
    shards: ShardTable,
}

impl MemoryCheckpoint {
    /// A checkpoint serving `manifest` from `atoms`.
    pub(crate) fn new(
        manifest: UcpManifest,
        atoms: BTreeMap<String, [Tensor; 3]>,
    ) -> MemoryCheckpoint {
        MemoryCheckpoint {
            manifest,
            atoms,
            shards: ShardTable::default(),
        }
    }

    /// Consolidate a complete set of hot shards — one per (tp, pp, zero)
    /// coordinate of the source strategy, owned or borrowed — into
    /// per-parameter atoms: the tensors
    /// [`crate::convert::convert_to_universal`] would write for the same
    /// step. The shards are read where they lie, never copied.
    pub fn assemble(
        shards: impl IntoIterator<Item = impl Borrow<HotShard>>,
    ) -> Result<MemoryCheckpoint> {
        let shards: Vec<_> = shards.into_iter().collect();
        let common = &shards
            .first()
            .ok_or_else(|| UcpError::Inconsistent("hot assemble: no shards".into()))?
            .borrow()
            .common;
        let src = common.parallel;
        // ZeRO partitions over the combined dp × sp group, matching the
        // native checkpoint layout.
        let zero = src.dp * src.sp;

        // Index shards by coordinate, rejecting mixed steps, duplicates,
        // and out-of-range coordinates up front; a missing coordinate
        // surfaces from the chunk feed's lookup.
        let mut by_coord: BTreeMap<(usize, usize, usize), &OptimShard> = BTreeMap::new();
        for s in &shards {
            let s = s.borrow();
            if s.common.iteration != common.iteration {
                return Err(UcpError::Inconsistent(format!(
                    "hot assemble: mixed steps {} and {}",
                    s.common.iteration, common.iteration
                )));
            }
            let coord = (s.tp, s.pp, s.shard.dp);
            if s.tp >= src.tp || s.pp >= src.pp || s.shard.dp >= zero {
                return Err(UcpError::Inconsistent(format!(
                    "hot assemble: shard (tp, pp, zero) {coord:?} outside source {}",
                    src.label()
                )));
            }
            if by_coord.insert(coord, &s.shard).is_some() {
                return Err(UcpError::Inconsistent(format!(
                    "hot assemble: duplicate shard (tp, pp, zero) {coord:?}"
                )));
            }
        }

        let mut atoms = BTreeMap::new();
        let (manifest, _) = assemble_stages(
            common,
            &ChunkSource::Memory(&by_coord),
            &ConvertOptions::default(),
            |asm| {
                let mut metas = Vec::new();
                for (meta, atom) in asm.into_tensors()? {
                    atoms.insert(meta.name.clone(), atom);
                    metas.push(meta);
                }
                Ok((metas, 0))
            },
        )?;
        Ok(MemoryCheckpoint::new(manifest, atoms))
    }

    /// The checkpoint's manifest.
    pub fn manifest(&self) -> &UcpManifest {
        &self.manifest
    }

    /// The step the checkpoint captures.
    pub fn step(&self) -> u64 {
        self.manifest.iteration
    }

    /// `GenUcpMetadata` + `Load` for one target rank, served from memory.
    pub fn load_rank(
        &self,
        target: &ParallelConfig,
        rank: usize,
        alignment: usize,
    ) -> Result<RankState> {
        let plan = gen_ucp_metadata(&self.manifest, target, rank, alignment)?;
        execute_plan(&plan, &AtomSource::Memory(&self.atoms), &self.shards)
    }
}
