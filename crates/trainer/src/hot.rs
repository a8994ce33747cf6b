//! The peer-replicated in-memory hot checkpoint tier.
//!
//! Each save step, every rank pushes its (dirty-filtered) optimizer shard
//! to `K` peer ranks over the persistent [`ucp_collectives::exchange`]
//! mesh and installs a copy in its own bank. The placement is a simple
//! ring: rank `r` replicates to ranks `r+1 .. r+K` (mod world), so every
//! rank's state lives on `K + 1` distinct ranks and any single-rank
//! failure leaves a complete copy among the survivors. `K` consecutive
//! failures are still recoverable; `K + 1` are not — that is the disk
//! tier's job.
//!
//! The first push of a segment is a **full** shard; subsequent pushes are
//! **deltas**: the chunk-space runs the dirty tracker marked since the
//! previous save, which lazy Adam guarantees are the only elements that
//! changed. Every push carries CRC-32C checksums of the *full* post-save
//! state, so a holder that patches a delta onto its base verifies the
//! result end-to-end and drops the replica (counting
//! `hot/replica_rejected`) on any mismatch — a corrupt replica is never
//! served.
//!
//! Memory bound: a rank's bank holds replicas for `K + 1` source ranks
//! (itself plus its wards) × [`RETAIN_STEPS`] steps, so bank memory is at
//! most `(K + 1) × RETAIN_STEPS × shard_bytes` regardless of run length.
//!
//! On failure the supervisor marks the dead ranks' banks lost and asks
//! [`HotTier::try_recover`] for the newest step at which *every* source
//! rank still has a CRC-valid replica in a surviving bank. If one exists,
//! the shards are consolidated in memory ([`MemoryCheckpoint::assemble`] —
//! the convert pass's own consolidation over shards in RAM, borrowed from
//! the banks, so the result is bitwise-identical to the disk checkpoint of
//! the same step and the banks are left as they were) and served to the
//! restarted topology; otherwise recovery falls back to the latest
//! committed disk checkpoint.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ucp_collectives::exchange::Mesh;
use ucp_core::checkpoint::{CommonState, OptimShard};
use ucp_core::{HotShard, MemoryCheckpoint};
use ucp_storage::crc::crc32c_f32;

use crate::dirty::{dirty_pieces, DirtyMap};
use crate::TrainError;

/// Replica generations retained per (bank, source) slot. Two steps keep
/// the previous save recoverable while the current one is being
/// replicated, bounding bank memory instead of growing with run length.
pub const RETAIN_STEPS: usize = 2;

/// One replication message: a full shard at segment start, dirty-run
/// deltas afterwards. Both carry CRC-32C checksums of the full post-save
/// `[fp32, exp_avg, exp_avg_sq]` chunks.
#[derive(Clone)]
enum HotMsg {
    Full {
        shard: HotShard,
        crc: [u32; 3],
    },
    Delta {
        common: CommonState,
        /// `(chunk_offset, len)` runs, sorted, in this rank's chunk space.
        runs: Vec<(usize, usize)>,
        /// Run payloads, concatenated in run order, per state key.
        data: [Vec<f32>; 3],
        crc: [u32; 3],
    },
}

/// One installed replica: a source rank's shard at one step, plus the
/// checksums it was verified against. The shard is shared so that a delta
/// install can take its base under the tier lock and copy it outside.
struct Replica {
    step: u64,
    shard: Arc<HotShard>,
    crc: [u32; 3],
}

/// Per-rank replica bank: source rank → replicas, newest last.
type Bank = HashMap<usize, Vec<Replica>>;

struct TierState {
    world: usize,
    mesh: Option<Arc<Mesh<HotMsg>>>,
    /// `banks[r]` models rank r's RAM. Process-level so it survives the
    /// cluster teardown a rank failure causes.
    banks: Vec<Bank>,
    /// Ranks the supervisor declared dead; their banks are unavailable.
    lost: Vec<bool>,
    /// Whether each rank has pushed its full shard this segment (first
    /// push is full, later ones are deltas).
    pushed_full: Vec<bool>,
}

/// The process-level hot-tier store. Owned by the supervisor (shared into
/// each segment's rank closures), so replicas outlive the cluster run
/// that produced them — which is exactly what makes them recoverable
/// after a rank failure unwinds every rank thread.
pub struct HotTier {
    replicas: usize,
    state: Mutex<TierState>,
}

impl HotTier {
    /// A tier replicating each rank's shard to `replicas` peers.
    pub fn new(replicas: usize) -> HotTier {
        assert!(replicas >= 1, "caller validates the replication factor");
        HotTier {
            replicas,
            state: Mutex::new(TierState {
                world: 0,
                mesh: None,
                banks: Vec::new(),
                lost: Vec::new(),
                pushed_full: Vec::new(),
            }),
        }
    }

    /// The replication factor K.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Reset for a new supervised segment of `world` ranks: fresh mesh,
    /// empty banks (the world may have changed across a ladder rung, and
    /// stale replicas from a previous topology must never be served).
    pub fn begin_segment(&self, world: usize) {
        let mut s = self.state.lock().expect("hot tier poisoned");
        s.world = world;
        s.mesh = Some(Arc::new(Mesh::new(world)));
        s.banks = (0..world).map(|_| Bank::new()).collect();
        s.lost = vec![false; world];
        s.pushed_full = vec![false; world];
    }

    /// Holder ranks `rank` replicates to: the next K ranks on the ring.
    pub fn holders_of(&self, rank: usize, world: usize) -> Vec<usize> {
        (1..=self.replicas).map(|k| (rank + k) % world).collect()
    }

    /// Source ranks whose replicas `rank` hosts (besides itself).
    pub fn wards_of(&self, rank: usize, world: usize) -> Vec<usize> {
        (1..=self.replicas)
            .map(|k| (rank + world - k) % world)
            .collect()
    }

    /// One rank's replication round at a save step: push to the K
    /// holders, self-install, and install the K wards' pushes. Returns
    /// the payload bytes this rank pushed. Failures are the caller's to
    /// count — a failed round degrades the tier, never the training run.
    pub fn replicate(
        &self,
        rank: usize,
        step: u64,
        shard: HotShard,
        dirty: &DirtyMap,
        deadline: Duration,
    ) -> Result<u64, TrainError> {
        let (mesh, world, first) = {
            let mut s = self.state.lock().expect("hot tier poisoned");
            let mesh = s
                .mesh
                .clone()
                .ok_or_else(|| TrainError::Config("hot tier: no active segment".into()))?;
            let first = !s.pushed_full[rank];
            s.pushed_full[rank] = true;
            (mesh, s.world, first)
        };
        let crc = shard_crc(&shard);
        let msg = if first {
            HotMsg::Full {
                shard: shard.clone(),
                crc,
            }
        } else {
            let runs = dirty_chunk_runs(&shard, dirty);
            let data = [
                gather_runs(&shard.shard.fp32, &runs),
                gather_runs(&shard.shard.exp_avg, &runs),
                gather_runs(&shard.shard.exp_avg_sq, &runs),
            ];
            HotMsg::Delta {
                common: shard.common.clone(),
                runs,
                data,
                crc,
            }
        };
        let bytes = match &msg {
            HotMsg::Full { shard, .. } => shard.payload_bytes(),
            HotMsg::Delta { data, .. } => (data.iter().map(Vec::len).sum::<usize>() * 4) as u64,
        } * self.replicas as u64;

        // Sends never block (unbounded mesh channels): push everything
        // first, then drain the wards — deadlock-free by construction.
        // Each holder but the last gets a copy; the last takes the message.
        let lease = mesh.lease(rank, step);
        let holders = self.holders_of(rank, world);
        let (last, rest) = holders.split_last().expect("a tier has K >= 1 holders");
        for &to in rest {
            lease.send(to, msg.clone()).map_err(TrainError::Comm)?;
        }
        lease.send(*last, msg).map_err(TrainError::Comm)?;
        // Self-install covers the holders-all-dead direction of the
        // placement guarantee: a surviving rank always serves itself. Its
        // tags were hashed from these very values a moment ago, so there is
        // nothing to verify.
        self.insert(rank, rank, step, shard, crc);
        for from in self.wards_of(rank, world) {
            let incoming = lease.recv_from(from, deadline).map_err(TrainError::Comm)?;
            self.install(rank, from, step, incoming);
        }
        lease.finish();
        Ok(bytes)
    }

    /// Install a received replica into `holder`'s bank, verifying the
    /// CRC end-to-end. A delta is patched onto the newest base replica of
    /// the same source, building each new chunk in one pass ([`patched`]);
    /// any checksum mismatch drops the replica and ticks
    /// `hot/replica_rejected` instead of installing corrupt state. Only
    /// `holder`'s own thread writes its bank, so the tier lock is held
    /// just to take the base and to insert: the patch and checksum run
    /// unlocked, and the ranks' installs of one wave proceed side by side.
    fn install(&self, holder: usize, src: usize, step: u64, msg: HotMsg) {
        let (shard, crc) = match msg {
            HotMsg::Full { shard, crc } => (shard, crc),
            HotMsg::Delta {
                common,
                runs,
                data,
                crc,
            } => {
                let base = {
                    let s = self.state.lock().expect("hot tier poisoned");
                    s.banks[holder]
                        .get(&src)
                        .and_then(|v| v.last())
                        .map(|r| Arc::clone(&r.shard))
                };
                let Some(base) = base else {
                    // No base to patch (e.g. the full push was rejected):
                    // the source's replica chain on this holder is broken
                    // until the next segment.
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    return;
                };
                let shard = HotShard {
                    common,
                    tp: base.tp,
                    pp: base.pp,
                    shard: OptimShard {
                        dp: base.shard.dp,
                        layout: base.shard.layout.clone(),
                        fp32: patched(&base.shard.fp32, &runs, &data[0]),
                        exp_avg: patched(&base.shard.exp_avg, &runs, &data[1]),
                        exp_avg_sq: patched(&base.shard.exp_avg_sq, &runs, &data[2]),
                    },
                };
                (shard, crc)
            }
        };
        if shard_crc(&shard) != crc {
            ucp_telemetry::count("hot/replica_rejected", 1);
            return;
        }
        self.insert(holder, src, step, shard, crc);
    }

    /// Put a verified replica into `holder`'s bank, keeping the newest
    /// [`RETAIN_STEPS`] generations of its source.
    fn insert(&self, holder: usize, src: usize, step: u64, shard: HotShard, crc: [u32; 3]) {
        let replica = Replica {
            step,
            shard: Arc::new(shard),
            crc,
        };
        let mut s = self.state.lock().expect("hot tier poisoned");
        let slot = s.banks[holder].entry(src).or_default();
        slot.retain(|r| r.step != step);
        slot.push(replica);
        slot.sort_by_key(|r| r.step);
        if slot.len() > RETAIN_STEPS {
            let drop = slot.len() - RETAIN_STEPS;
            slot.drain(..drop);
        }
    }

    /// Declare ranks dead: their banks are no longer available to serve
    /// replicas. (Their *state* lives on in surviving banks — that is the
    /// point of the tier.)
    pub fn mark_lost(&self, ranks: &[usize]) {
        let mut s = self.state.lock().expect("hot tier poisoned");
        for &r in ranks {
            if r < s.lost.len() {
                s.lost[r] = true;
            }
        }
    }

    /// Try to recover from peer memory: find the newest step at which
    /// every source rank has a CRC-valid replica in a surviving bank and
    /// consolidate those shards into an in-memory universal checkpoint.
    /// Returns the checkpoint plus the surviving ranks whose banks served
    /// shards, or `None` when the hot copy is incomplete (multi-fault
    /// beyond K, replica chain broken, or CRC rot) — the caller falls
    /// back to disk.
    pub fn try_recover(&self) -> Option<(MemoryCheckpoint, Vec<usize>)> {
        let s = self.state.lock().expect("hot tier poisoned");
        if s.world == 0 {
            return None;
        }
        // Steps available per source, restricted to surviving banks.
        let available = |src: usize, step: u64| -> Option<usize> {
            // Prefer the source's own bank, then the ring order.
            std::iter::once(src)
                .chain((1..=self.replicas).map(|k| (src + k) % s.world))
                .find(|&holder| {
                    !s.lost[holder]
                        && s.banks[holder]
                            .get(&src)
                            .is_some_and(|v| v.iter().any(|r| r.step == step))
                })
        };
        // Candidate steps, newest first: any step any surviving bank holds.
        let mut steps: Vec<u64> = s
            .banks
            .iter()
            .enumerate()
            .filter(|(h, _)| !s.lost[*h])
            .flat_map(|(_, b)| b.values().flatten().map(|r| r.step))
            .collect();
        steps.sort_unstable();
        steps.dedup();
        for &step in steps.iter().rev() {
            let holders: Option<Vec<usize>> =
                (0..s.world).map(|src| available(src, step)).collect();
            let Some(holders) = holders else { continue };
            let mut shards = Vec::with_capacity(s.world);
            let mut served: Vec<usize> = Vec::new();
            let mut valid = true;
            for (src, &holder) in holders.iter().enumerate() {
                let replica = s.banks[holder]
                    .get(&src)
                    .and_then(|v| v.iter().find(|r| r.step == step))
                    .expect("holder chosen because it has the step");
                // Guard against in-memory rot between install and serve.
                if shard_crc(&replica.shard) != replica.crc {
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    valid = false;
                    break;
                }
                shards.push(&*replica.shard);
                served.push(holder);
            }
            if !valid {
                continue;
            }
            match MemoryCheckpoint::assemble(shards) {
                Ok(ckpt) => {
                    served.sort_unstable();
                    served.dedup();
                    return Some((ckpt, served));
                }
                Err(e) => {
                    // An incomplete or inconsistent shard set at this step;
                    // try an older one.
                    eprintln!("hot tier: assemble at step {step} failed: {e}");
                    continue;
                }
            }
        }
        None
    }

    /// Total replica payload bytes currently held across surviving banks
    /// (telemetry/test convenience).
    pub fn resident_bytes(&self) -> u64 {
        let s = self.state.lock().expect("hot tier poisoned");
        s.banks
            .iter()
            .enumerate()
            .filter(|(h, _)| !s.lost[*h])
            .flat_map(|(_, b)| b.values().flatten())
            .map(|r| r.shard.payload_bytes())
            .sum()
    }
}

/// CRC-32C of a shard's `[fp32, exp_avg, exp_avg_sq]` chunks.
fn shard_crc(shard: &HotShard) -> [u32; 3] {
    [
        crc32c_f32(&shard.shard.fp32),
        crc32c_f32(&shard.shard.exp_avg),
        crc32c_f32(&shard.shard.exp_avg_sq),
    ]
}

/// The [`dirty_pieces`] of this rank's chunk as sorted, merged
/// `(chunk_offset, len)` runs.
fn dirty_chunk_runs(shard: &HotShard, dirty: &DirtyMap) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> =
        dirty_pieces(&shard.shard.layout, shard.shard.dp, Some(dirty))
            .iter()
            .map(|piece| (piece.chunk_offset, piece.len))
            .collect();
    runs.sort_unstable();
    // Merge adjacent runs so the payload header stays small.
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
    for (start, len) in runs {
        match merged.last_mut() {
            Some((s, l)) if *s + *l == start => *l += len,
            _ => merged.push((start, len)),
        }
    }
    merged
}

/// Concatenate the runs' values out of a chunk, in run order.
fn gather_runs(chunk: &[f32], runs: &[(usize, usize)]) -> Vec<f32> {
    let total: usize = runs.iter().map(|(_, l)| l).sum();
    let mut out = Vec::with_capacity(total);
    for &(start, len) in runs {
        out.extend_from_slice(&chunk[start..start + len]);
    }
    out
}

/// `base` with the runs' values replaced by `data` (concatenated in run
/// order), built in one pass: each element of the new chunk is written
/// once, from the base outside the runs and from the payload inside them.
fn patched(base: &[f32], runs: &[(usize, usize)], data: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(base.len());
    let mut off = 0;
    for &(start, len) in runs {
        out.extend_from_slice(&base[out.len()..start]);
        out.extend_from_slice(&data[off..off + len]);
        off += len;
    }
    out.extend_from_slice(&base[out.len()..]);
    debug_assert_eq!(off, data.len());
    out
}

/// Write the runs' values back into a chunk, in run order: the in-place
/// reference the tests hold [`patched`] to.
#[cfg(test)]
fn patch_runs(chunk: &mut [f32], runs: &[(usize, usize)], data: &[f32]) {
    let mut off = 0;
    for &(start, len) in runs {
        chunk[start..start + len].copy_from_slice(&data[off..off + len]);
        off += len;
    }
    debug_assert_eq!(off, data.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A replica's tags are the CRC-32C of each chunk's little-endian
    /// bytes. They are now hashed from the values in place; what they
    /// mean must not move, so hold them to the byte vector they used to be
    /// computed from.
    #[test]
    fn replica_tags_are_the_crc_of_the_le_byte_image() {
        let chunk: Vec<f32> = (0..4099u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
            .collect();
        for xs in [&chunk[..], &chunk[..1], &chunk[3..1030], &[]] {
            let mut bytes = Vec::with_capacity(xs.len() * 4);
            for x in xs {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            assert_eq!(crc32c_f32(xs), ucp_storage::crc::crc32c(&bytes));
        }
    }

    /// The ring placement invariants behind the recovery guarantee: K + 1
    /// distinct copies per source, holders/wards are inverse relations,
    /// and for any single dead rank every source still has a survivor.
    #[test]
    fn ring_placement_survives_any_single_failure() {
        for world in [2usize, 3, 4, 8] {
            for k in 1..world {
                let tier = HotTier::new(k);
                for r in 0..world {
                    let holders = tier.holders_of(r, world);
                    assert_eq!(holders.len(), k);
                    assert!(!holders.contains(&r), "ring wrapped onto the source");
                    let mut distinct = holders.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), k, "duplicate holders");
                    for &h in &holders {
                        assert!(
                            tier.wards_of(h, world).contains(&r),
                            "holder {h} does not list {r} as a ward (world {world}, K {k})"
                        );
                    }
                }
                for dead in 0..world {
                    for src in 0..world {
                        let survives =
                            src != dead || tier.holders_of(src, world).iter().any(|&h| h != dead);
                        assert!(survives, "source {src} lost to single death {dead}");
                    }
                }
            }
        }
    }

    /// K consecutive failures stay recoverable; K + 1 wipe every copy of
    /// the first victim's shard — exactly the documented boundary.
    #[test]
    fn consecutive_failures_beyond_k_destroy_a_source() {
        let (world, k) = (6usize, 2usize);
        let tier = HotTier::new(k);
        let survives = |dead: &[usize], src: usize| -> bool {
            std::iter::once(src)
                .chain(tier.holders_of(src, world))
                .any(|h| !dead.contains(&h))
        };
        // K consecutive deaths: every source still has a live copy.
        let dead_k: Vec<usize> = (0..k).collect();
        for src in 0..world {
            assert!(survives(&dead_k, src));
        }
        // K + 1 consecutive deaths starting at src wipe src's copies.
        let dead_k1: Vec<usize> = (0..=k).collect();
        assert!(!survives(&dead_k1, 0));
    }

    /// `steps` save boundaries of a fresh DP`world` gpt3-tiny run, each
    /// rank training one iteration and then pushing into `tier`: a full
    /// wave, then deltas.
    fn replicate_waves(tier: &HotTier, world: usize, steps: u64) {
        use ucp_model::ModelConfig;
        use ucp_parallel::{ParallelConfig, ZeroStage};
        let parallel = ParallelConfig::new(1, 1, world, 1, ZeroStage::Zero1);
        let cfg = crate::TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 11);
        tier.begin_segment(world);
        ucp_collectives::Cluster::run(world, |comm| {
            let mut engine = crate::RankEngine::fresh(cfg.clone(), comm).unwrap();
            for step in 1..=steps {
                engine.train_iteration().unwrap();
                let dirty = engine.take_dirty();
                let shard = engine.hot_shard();
                tier.replicate(comm.rank(), step, shard, &dirty, Duration::from_secs(10))
                    .unwrap();
            }
        });
    }

    /// Every state a checkpoint serves to the ranks of `target`, as bits.
    fn served_bits(ckpt: &MemoryCheckpoint, target: &ucp_parallel::ParallelConfig) -> Vec<u32> {
        let mut bits = Vec::new();
        for rank in 0..target.world_size() {
            let state = ckpt
                .load_rank(target, rank, ucp_core::load::DEFAULT_ALIGNMENT)
                .unwrap();
            let params = state.model_params.iter().map(|(_, t)| t.as_slice());
            for xs in [&state.fp32[..], &state.exp_avg, &state.exp_avg_sq]
                .into_iter()
                .chain(params)
            {
                bits.extend(xs.iter().map(|x| x.to_bits()));
            }
        }
        bits
    }

    /// Recovery reads the replicas where they lie: two recoveries in a row
    /// serve bitwise-identical checkpoints from the same holders, and the
    /// banks hold exactly what they held before.
    #[test]
    fn recovery_leaves_the_banks_as_they_were() {
        let tier = HotTier::new(1);
        replicate_waves(&tier, 2, 2);
        let resident = tier.resident_bytes();
        assert!(resident > 0);
        let (first, served_first) = tier.try_recover().expect("a complete wave");
        let (second, served_second) = tier.try_recover().expect("a complete wave");
        assert_eq!(first.step(), 2, "the delta wave is the newest");
        assert_eq!(served_first, served_second);
        assert_eq!(first.manifest(), second.manifest());
        let target = ucp_parallel::ParallelConfig::single();
        assert_eq!(served_bits(&first, &target), served_bits(&second, &target));
        assert_eq!(tier.resident_bytes(), resident);
    }

    /// A replica that rots after its install is still caught at serve
    /// time: `hot/replica_rejected` ticks once and recovery returns
    /// nothing, so the supervisor falls back to disk.
    #[test]
    fn a_replica_corrupted_after_install_is_rejected() {
        let tier = HotTier::new(1);
        replicate_waves(&tier, 2, 1);
        {
            // Source 1's own bank is the holder recovery prefers for it.
            let mut s = tier.state.lock().unwrap();
            let replica = s.banks[1].get_mut(&1).unwrap().last_mut().unwrap();
            Arc::make_mut(&mut replica.shard).shard.fp32[0] += 1.0;
        }
        let rec = ucp_telemetry::global();
        let rejected = || {
            rec.report("hot")
                .counter("hot/replica_rejected")
                .unwrap_or(0)
        };
        rec.set_enabled(true);
        let before = rejected();
        let recovered = tier.try_recover();
        let after = rejected();
        rec.set_enabled(false);
        assert!(recovered.is_none(), "a corrupt replica was served");
        assert_eq!(after - before, 1);
    }

    #[test]
    fn patched_equals_a_base_copy_patched_in_place() {
        let base: Vec<f32> = (0..16).map(|i| i as f32 * 1.5).collect();
        for runs in [
            vec![],
            vec![(0usize, 16usize)],
            vec![(1, 3), (7, 2), (12, 4)],
            vec![(15, 1)],
        ] {
            let data: Vec<f32> = (0..runs.iter().map(|r| r.1).sum::<usize>())
                .map(|i| -(i as f32))
                .collect();
            let mut want = base.clone();
            patch_runs(&mut want, &runs, &data);
            assert_eq!(patched(&base, &runs, &data), want, "{runs:?}");
        }
    }

    #[test]
    fn gather_then_patch_roundtrips_dirty_runs() {
        let src: Vec<f32> = (0..16).map(|i| i as f32 * 1.5).collect();
        let runs = vec![(1usize, 3usize), (7, 2), (12, 4)];
        let data = gather_runs(&src, &runs);
        assert_eq!(data.len(), 9);
        let mut dst = vec![0.0f32; 16];
        patch_runs(&mut dst, &runs, &data);
        for &(start, len) in &runs {
            assert_eq!(&dst[start..start + len], &src[start..start + len]);
        }
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[11], 0.0);
    }
}
