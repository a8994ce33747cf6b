//! The born-universal save pipeline: save → convert → publish as one
//! overlapped background flow.
//!
//! At every checkpoint boundary of a run whose
//! [`SavePolicy`](crate::driver::SavePolicy) sets `universal` (the
//! [`train_run_overlapped`](crate::driver::train_run_overlapped) preset, or
//! a supervised run asked to) each rank's background writer first persists its native fragments
//! (unchanged), then — instead of leaving consolidation to a later offline
//! `convert` pass — feeds its extracted flat fragments to a per-stage
//! [`StageAssembler`], so the universal atom checkpoints materialize
//! *during* the overlapped persist and `latest_universal` is published
//! together with `latest` at drain time. Resume never needs a convert
//! pass.
//!
//! Roles per save step (all on the background "saver" threads):
//!
//! ```text
//! every rank      persist native files, extract flat fragments,
//!                 send one Contribution to its stage assembler
//!                 (filtered to the snapshot's dirty ranges)
//! stage assembler (tp=0, zero=0 rank of each pp stage) absorb every
//!                 (tp, zero) contribution in order, patch them into the
//!                 stage's carried atom builders, stage dirty atoms'
//!                 rewrites and clean ones' hard links, commit them as one
//!                 group, send StageDone to the publisher
//! publisher       (cluster rank 0) collect StageDone from every stage,
//!                 write the manifest durably
//! ```
//!
//! The foreground training threads never wait on any of this: at the next
//! checkpoint boundary they wait only for the drained step's *native
//! persist* and publish `latest`, then notify rank 0's writer — which
//! publishes `latest_universal` itself once its manifest is durable. Atom
//! assembly therefore never sits on the training critical path; the full
//! writer join happens at run end. Commit ordering — atoms → manifest →
//! `latest` → `latest_universal` — is preserved because the writer only
//! writes the universal marker after both its own manifest write and the
//! native-publish notification, and a monotonic floor guard keeps late
//! writers from moving the marker backwards.
//!
//! Messages move over one *persistent* all-to-all mesh
//! ([`ucp_collectives::exchange::Mesh`]) built once at run start: each
//! save step leases the fabric under its step number as the epoch tag, so
//! the O(world²) channel wiring is paid once instead of per save — the
//! fixed cost that dominates at `checkpoint_every = 1`. Per-pair FIFO
//! within a step and prompt `Disconnected` on a dead writer are preserved
//! by the epoch demultiplexer. Likewise each stage's [`StageAssembler`]
//! is carried across steps in a `StageChain`: consecutive saves patch
//! the consolidated buffers with just the dirty fragments and re-publish
//! untouched atoms as hard links to the previous step's files, so save
//! bytes scale with what training actually touched. Consecutive steps of
//! one stage must finalize in order for that patching to be sound, which
//! the per-rank done-chain enforces (each writer waits for its rank's
//! predecessor before touching the chain).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use ucp_collectives::exchange::{EpochLease, Mesh};
use ucp_core::assemble::{build_manifest, StageAssembler, StageAtoms};
use ucp_core::checkpoint::{CommonState, OptimShard};
use ucp_core::ops::Fragment;
use ucp_parallel::{ParallelConfig, ParamSlot, RankCoord};
use ucp_storage::commit::Group;
use ucp_storage::layout as disk;
use ucp_storage::retention::InFlightGuard;

use crate::dirty::{dirty_pieces, DirtyMap};
use crate::snapshot::CheckpointSnapshot;
use crate::TrainError;

/// How long a writer waits on a peer contribution before declaring the
/// save failed. Generous: the peer is another local background thread, so
/// getting anywhere near this means it hung without dropping its lease.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(60);

/// Worker threads each stage assembler uses to write its atoms.
const ATOM_WRITE_WORKERS: usize = 2;

/// Snapshot buffers per rank: the one being captured plus the in-flight
/// background writes the driver allows before it starts draining.
pub const SNAPSHOT_POOL_CAPACITY: usize = 3;

/// One message of the save exchange.
pub enum PipeMsg {
    /// A rank's extracted flat fragments for its stage's assembler.
    Contribution {
        /// Sender's TP coordinate.
        tp: usize,
        /// Sender's ZeRO index (dp × sp composed).
        zi: usize,
        /// Sender's common state (the assembler derives patterns from it).
        common: Box<CommonState>,
        /// The stage's flat-layout slots (name, shard shape, length): what
        /// the assembler is built from and checks its patterns against.
        params: Vec<ParamSlot>,
        /// `(param, state-key index, fragment)` triples. Filtered to the
        /// snapshot's dirty ranges — possibly empty, but always sent, so
        /// the assembler's receive schedule never depends on dirtiness.
        fragments: Vec<(String, usize, Fragment)>,
    },
    /// A stage assembler's completion notice for the publisher.
    StageDone {
        /// The completed stage.
        pp: usize,
        /// What was written.
        atoms: StageAtoms,
    },
}

/// The cluster rank that assembles a stage's atoms: its (tp=0, zero=0)
/// member.
pub fn assembler_rank(p: &ParallelConfig, pp: usize) -> usize {
    p.rank_of(RankCoord {
        dp: 0,
        sp: 0,
        tp: 0,
        pp,
    })
}

/// Carried assembler state for one pipeline stage, shared by consecutive
/// save steps. The lock is held across a whole step's absorb + finalize,
/// and the done-chain guarantees steps enter in order.
struct StageChain {
    inner: parking_lot::Mutex<ChainState>,
}

impl Default for StageChain {
    fn default() -> StageChain {
        StageChain {
            inner: parking_lot::Mutex::new(ChainState::default()),
        }
    }
}

#[derive(Default)]
struct ChainState {
    /// The stage's assembler, kept warm across steps (consolidated
    /// buffers, run maps, atom builders). `None` until the first save.
    asm: Option<StageAssembler>,
    /// The previous finalized step: hard-link source for clean atoms,
    /// pinned against retention pruning until the next step finalizes.
    prev: Option<PrevStep>,
}

struct PrevStep {
    dir: PathBuf,
    _pin: InFlightGuard,
}

/// Fires its signal on drop — even when the writer panics — so the next
/// writer of the same rank never waits on a dead predecessor.
struct DoneSignal(Option<Sender<()>>);

impl Drop for DoneSignal {
    fn drop(&mut self) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(());
        }
    }
}

/// One background writer's handle on a save step's exchange.
pub struct WriterTask {
    lease: EpochLease<PipeMsg>,
    /// Completion signal of this rank's previous writer; assemblers wait
    /// on it so consecutive steps patch the stage chain in order.
    prev_done: Option<Receiver<()>>,
    /// Signals this writer's completion to its rank's next writer.
    done: DoneSignal,
    /// Per-stage carry-over assemblers, shared with every other step.
    chains: Arc<parking_lot::Mutex<HashMap<usize, Arc<StageChain>>>>,
    /// Rank 0's writer additionally publishes `latest_universal`.
    publish: Option<PublishTask>,
}

/// What rank 0's writer needs to publish the universal marker off the
/// training critical path.
struct PublishTask {
    /// Fired by rank 0's *training* thread right after the step's native
    /// `latest` marker is durable — the marker-ordering gate.
    native_published: std::sync::mpsc::Receiver<()>,
    /// Serializes marker writes across concurrently-finishing steps so a
    /// slow older writer can never move `latest_universal` backwards.
    marker_lock: std::sync::Arc<parking_lot::Mutex<()>>,
}

/// The save exchange fabric, built once per run and leased to every save
/// step. Construction is O(world²) in channels but independent of how
/// many saves the run performs — at `checkpoint_every = 1` that is the
/// difference between wiring the mesh once and wiring it every iteration.
pub struct SavePipelines {
    mesh: Mesh<PipeMsg>,
    /// Highest step each rank has claimed: a (step, rank) lease is handed
    /// out at most once, and claims are monotonic per rank.
    last_taken: parking_lot::Mutex<Vec<Option<u64>>>,
    /// Per-rank completion receiver of the most recently taken writer,
    /// handed to the next one (the done-chain).
    prev_done: parking_lot::Mutex<Vec<Option<Receiver<()>>>>,
    /// Senders for the per-step native-publish notifications, fired by
    /// rank 0's training thread via [`SavePipelines::notify_native_published`].
    notifiers: parking_lot::Mutex<HashMap<u64, std::sync::mpsc::Sender<()>>>,
    marker_lock: std::sync::Arc<parking_lot::Mutex<()>>,
    chains: Arc<parking_lot::Mutex<HashMap<usize, Arc<StageChain>>>>,
}

impl SavePipelines {
    /// Build the persistent fabric for a `world`-rank run. No save steps
    /// need to be declared up front — any step can lease the mesh, so
    /// dynamic cadences (and chaos schedules) need no pre-planning.
    pub fn new(world: usize) -> SavePipelines {
        SavePipelines {
            mesh: Mesh::new(world),
            last_taken: parking_lot::Mutex::new(vec![None; world]),
            prev_done: parking_lot::Mutex::new((0..world).map(|_| None).collect()),
            notifiers: parking_lot::Mutex::new(HashMap::new()),
            marker_lock: std::sync::Arc::new(parking_lot::Mutex::new(())),
            chains: Arc::new(parking_lot::Mutex::new(HashMap::new())),
        }
    }

    /// Claim rank `rank`'s lease for `step` (None if the rank is out of
    /// range or already claimed this or a later step — leases stay
    /// single-use per (step, rank) and monotonic per rank). Rank 0's task
    /// also carries the universal-marker publish duty.
    pub fn take(&self, step: u64, rank: usize) -> Option<WriterTask> {
        {
            let mut last = self.last_taken.lock();
            let slot = last.get_mut(rank)?;
            if slot.is_some_and(|s| s >= step) {
                return None;
            }
            if slot.is_some() {
                // Reusing the fabric rather than wiring a fresh one: the
                // saving the persistent mesh exists to provide.
                ucp_telemetry::count("save/mesh_reuse", 1);
            }
            *slot = Some(step);
        }
        let lease = self.mesh.lease(rank, step);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let prev_done = self.prev_done.lock()[rank].replace(done_rx);
        let publish = (rank == 0).then(|| {
            let (tx, rx) = std::sync::mpsc::channel();
            self.notifiers.lock().insert(step, tx);
            PublishTask {
                native_published: rx,
                marker_lock: self.marker_lock.clone(),
            }
        });
        Some(WriterTask {
            lease,
            prev_done,
            done: DoneSignal(Some(done_tx)),
            chains: Arc::clone(&self.chains),
            publish,
        })
    }

    /// Tell `step`'s writer that the native `latest` marker is durable, so
    /// it may publish `latest_universal` once its manifest is too. Called
    /// by rank 0's training thread; a no-op for unknown steps. Dropping
    /// `SavePipelines` without this call unblocks the writer instead of
    /// hanging it (it then skips the universal publish).
    pub fn notify_native_published(&self, step: u64) {
        if let Some(tx) = self.notifiers.lock().remove(&step) {
            let _ = tx.send(());
        }
    }
}

/// `Extract` restricted to what is dirty: [`dirty_pieces`] of `shard`'s
/// chunk, each copied out once per state key as `(param, state-key index,
/// fragment)`. What [`ucp_core::ops::extract_flat`] would return, sliced
/// to the dirty ranges.
fn extract_dirty(shard: &OptimShard, dirty: Option<&DirtyMap>) -> Vec<(String, usize, Fragment)> {
    let keys = shard.keys();
    let mut out = Vec::new();
    for piece in dirty_pieces(&shard.layout, shard.dp, dirty) {
        let run = piece.chunk_offset..piece.chunk_offset + piece.len;
        for (ki, key) in keys.iter().enumerate() {
            let fragment = Fragment {
                param_offset: piece.param_offset,
                data: key[run.clone()].to_vec(),
            };
            out.push((piece.slot.name.clone(), ki, fragment));
        }
    }
    out
}

/// The universal half of one rank's background save, run on the saver
/// thread right after the native persist succeeds. See the module docs
/// for the role split.
pub(crate) fn run_writer(
    task: WriterTask,
    snapshot: &CheckpointSnapshot,
    base: &Path,
) -> Result<(), TrainError> {
    let p = snapshot.common.parallel;
    let WriterTask {
        lease,
        prev_done,
        done,
        chains,
        publish,
    } = task;
    let rank = lease.rank();
    let step = snapshot.common.iteration;
    let universal = disk::universal_dir(base, step);

    // Every rank: extract the dirty sub-ranges of this chunk's flat
    // fragments and contribute them to the stage's assembler. The
    // contribution is sent even when everything is clean — the assembler
    // counts arrivals, not bytes.
    {
        let _sp = ucp_telemetry::span("save/exchange");
        let shard = &snapshot.shard;
        let fragments = extract_dirty(shard, snapshot.dirty.as_ref());
        let sent_elems: usize = fragments.iter().map(|(_, _, f)| f.data.len()).sum();
        ucp_telemetry::count("save/exchange_bytes", sent_elems as u64 * 4);
        lease
            .send(
                assembler_rank(&p, snapshot.pp),
                PipeMsg::Contribution {
                    tp: snapshot.tp,
                    zi: shard.dp,
                    common: Box::new(snapshot.common.clone()),
                    params: shard.layout.slots.clone(),
                    fragments,
                },
            )
            .map_err(TrainError::Comm)?;
    }

    // Stage assembler: absorb every (tp, zero) contribution of this stage
    // — ascending tp, so replicated copies verify against the tp-0 one —
    // then publish the stage's atoms: dirty ones rewritten from the
    // patched buffers, clean ones hard-linked from the previous step, all
    // of them durable when the stage's group commits.
    if rank == assembler_rank(&p, snapshot.pp) {
        // Consecutive steps patch the same carried buffers, so they must
        // finalize in step order: wait for this rank's previous writer
        // (the signal also fires if it died — its failure is reported on
        // its own save; this step then simply patches on top).
        if let Some(prev) = &prev_done {
            match prev.recv_timeout(EXCHANGE_DEADLINE) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(TrainError::Config(
                        "save pipeline: timed out waiting for the previous step's writer".into(),
                    ));
                }
            }
        }
        let chain = {
            let mut chains = chains.lock();
            Arc::clone(chains.entry(snapshot.pp).or_default())
        };
        let mut state = chain.inner.lock();
        // The carried assembler goes back only once this step's atoms are
        // committed: a failed step leaves its buffers patched but
        // unpublished, and a later step must not hard-link around that.
        let mut asm = state.asm.take();
        {
            let _sp = ucp_telemetry::span("save/assemble");
            if let Some(asm) = asm.as_mut() {
                asm.begin_step();
            }
            let zero = p.dp * p.sp;
            for tp in 0..p.tp {
                for z in 0..zero {
                    let src = p.rank_of(RankCoord {
                        dp: z / p.sp,
                        sp: z % p.sp,
                        tp,
                        pp: snapshot.pp,
                    });
                    let msg = lease
                        .recv_from(src, EXCHANGE_DEADLINE)
                        .map_err(TrainError::Comm)?;
                    let PipeMsg::Contribution {
                        tp: mtp,
                        common,
                        params,
                        fragments,
                        ..
                    } = msg
                    else {
                        return Err(TrainError::Config(
                            "save pipeline: expected a contribution".into(),
                        ));
                    };
                    let a = match &mut asm {
                        Some(a) => a,
                        None => asm.insert(
                            StageAssembler::new(&common, snapshot.pp, &params, true, None)
                                .map_err(TrainError::Ucp)?,
                        ),
                    };
                    a.absorb(mtp, fragments).map_err(TrainError::Ucp)?;
                }
            }
        }
        let atoms = {
            let _sp = ucp_telemetry::span("save/atoms");
            let link_from = state.prev.as_ref().map(|prev| prev.dir.clone());
            let mut asm =
                asm.ok_or_else(|| TrainError::Config("save pipeline: stage has no ranks".into()))?;
            // The stage's writes and hard links become durable together.
            let group = Group::new(true);
            let atoms = asm
                .finalize_step(
                    &universal,
                    &group,
                    ATOM_WRITE_WORKERS,
                    "save/atom_write",
                    link_from.as_deref(),
                )
                .map_err(TrainError::Ucp)?;
            group.commit().map_err(|e| TrainError::Ucp(e.into()))?;
            state.asm = Some(asm);
            // Rotate the hard-link source: this step's atoms must survive
            // retention pruning until the *next* step finalizes against them.
            state.prev = Some(PrevStep {
                dir: universal.clone(),
                _pin: ucp_storage::retention::begin_save(base, step),
            });
            atoms
        };
        drop(state);
        ucp_telemetry::count(
            "save/universal_atoms",
            (atoms.atoms_written + atoms.atoms_skipped) as u64,
        );
        ucp_telemetry::count("save/universal_bytes", atoms.bytes_written);
        ucp_telemetry::count("save/atoms_written", atoms.atoms_written as u64);
        ucp_telemetry::count("save/atoms_skipped", atoms.atoms_skipped as u64);
        lease
            .send(
                0,
                PipeMsg::StageDone {
                    pp: snapshot.pp,
                    atoms,
                },
            )
            .map_err(TrainError::Comm)?;
    }

    // Publisher: merge the per-stage atom indices and commit the manifest,
    // then — once the training thread reports the step's native `latest`
    // is durable — publish `latest_universal`, closing the atoms →
    // manifest → latest → latest_universal ordering. All of it on this
    // writer thread: training never blocks on the universal half.
    if rank == 0 {
        {
            let _sp = ucp_telemetry::span("save/manifest");
            let mut metas = Vec::new();
            for pp in 0..p.pp {
                let src = assembler_rank(&p, pp);
                let msg = lease
                    .recv_from(src, EXCHANGE_DEADLINE)
                    .map_err(TrainError::Comm)?;
                let PipeMsg::StageDone { atoms, .. } = msg else {
                    return Err(TrainError::Config(
                        "save pipeline: expected a stage-done notice".into(),
                    ));
                };
                metas.extend(atoms.metas);
            }
            let manifest = build_manifest(&snapshot.common, metas);
            manifest.save(&universal).map_err(TrainError::Ucp)?;
        }
        let publish = publish.ok_or_else(|| {
            TrainError::Config("save pipeline: rank 0 task missing its publish duty".into())
        })?;
        let _sp = ucp_telemetry::span("save/publish_universal");
        match publish.native_published.recv_timeout(EXCHANGE_DEADLINE) {
            Ok(()) => {
                // Serialize against other steps' writers and never move
                // the marker backwards: a slow step-N writer finishing
                // after step-N+k published must not regress it.
                let _guard = publish.marker_lock.lock();
                if disk::read_latest_universal(base).is_none_or(|cur| step > cur) {
                    disk::write_latest_universal(base, step)
                        .map_err(|e| TrainError::Ucp(e.into()))?;
                    // Journal under the marker lock so records land in
                    // marker-publication order.
                    ucp_storage::journal::append(
                        base,
                        &ucp_storage::journal::JournalEvent::UniversalPublished { step },
                    )
                    .map_err(|e| TrainError::Ucp(e.into()))?;
                }
            }
            // The run was torn down before this step's native marker was
            // published (error or early exit): leave the universal marker
            // alone — whatever failed the run reports the real error.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                return Err(TrainError::Config(
                    "save pipeline: timed out waiting for the native publish".into(),
                ));
            }
        }
    }
    // Clean completion: retire the epoch without broadcasting aborts, and
    // only then wake this rank's next writer.
    lease.finish();
    drop(done);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_parallel::ZeroStage;

    #[test]
    fn assembler_is_stage_leader() {
        let p = ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1);
        for pp in 0..p.pp {
            let r = assembler_rank(&p, pp);
            let c = p.coord(r);
            assert_eq!((c.tp, c.dp, c.sp, c.pp), (0, 0, 0, pp));
        }
    }

    #[test]
    fn leases_are_single_use_and_monotonic_per_rank() {
        let pipes = SavePipelines::new(2);
        assert!(pipes.take(4, 0).is_some());
        assert!(pipes.take(4, 0).is_none(), "lease is single-use");
        assert!(pipes.take(4, 1).is_some());
        assert!(pipes.take(3, 0).is_none(), "claims are monotonic per rank");
        // Any later step can lease the same fabric — no pre-planned
        // schedule — and out-of-range ranks are rejected.
        assert!(pipes.take(6, 0).is_some());
        assert!(pipes.take(7, 2).is_none(), "rank out of range");
    }

    #[test]
    fn writer_done_chain_links_consecutive_takes() {
        let pipes = SavePipelines::new(1);
        let first = pipes.take(1, 0).expect("first lease");
        assert!(
            first.prev_done.is_none(),
            "first writer of a rank has no predecessor"
        );
        let second = pipes.take(2, 0).expect("second lease");
        let prev = second.prev_done.as_ref().expect("chained to first writer");
        assert!(
            matches!(
                prev.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            ),
            "predecessor still alive: no signal yet"
        );
        drop(first);
        prev.recv_timeout(Duration::from_secs(5))
            .expect("dropping the first writer fires its done signal");
    }

    /// `extract_dirty` against the Table-2 operator: for every state key,
    /// `extract_flat`'s fragments sliced to the dirty ranges, nothing else.
    #[test]
    fn extract_dirty_is_extract_flat_sliced_to_the_dirty_ranges() {
        use ucp_core::ops::extract_flat;
        use ucp_parallel::FlatLayout;
        use ucp_tensor::Shape;
        // Three slots over two ZeRO ranks: "p" straddles the chunk
        // boundary, "q" is clean, "w" is dirty whole.
        let layout = FlatLayout::build(
            &[
                ("p".to_string(), Shape::new([10])),
                ("q".to_string(), Shape::new([3])),
                ("w".to_string(), Shape::new([5])),
            ],
            4,
            2,
        );
        let mut map = DirtyMap::new();
        map.insert("p".to_string(), vec![(0, 3), (5, 4)]);
        map.insert("w".to_string(), vec![(0, 5)]);
        for dp in 0..2 {
            let chunk = |scale: f32| -> Vec<f32> {
                layout.rank_range(dp).map(|i| i as f32 * scale).collect()
            };
            let shard = OptimShard {
                dp,
                layout: layout.clone(),
                fp32: chunk(1.0),
                exp_avg: chunk(0.5),
                exp_avg_sq: chunk(0.25),
            };
            for dirty in [None, Some(&map)] {
                let mut want = Vec::new();
                for (ki, key) in shard.keys().into_iter().enumerate() {
                    for (name, frag) in extract_flat(&layout, dp, key) {
                        let whole = vec![(0, usize::MAX / 2)];
                        let ranges = match dirty {
                            None => &whole,
                            Some(map) => match map.get(&name) {
                                Some(ranges) => ranges,
                                None => continue,
                            },
                        };
                        let (f_lo, f_hi) = (frag.param_offset, frag.param_offset + frag.data.len());
                        for &(lo, len) in ranges {
                            let (s, e) = (lo.max(f_lo), (lo + len).min(f_hi));
                            if s < e {
                                let data = frag.data[s - f_lo..e - f_lo].to_vec();
                                want.push((name.clone(), ki, s, data));
                            }
                        }
                    }
                }
                let mut got: Vec<_> = extract_dirty(&shard, dirty)
                    .into_iter()
                    .map(|(name, ki, f)| (name, ki, f.param_offset, f.data))
                    .collect();
                let by_key = |a: &(String, usize, usize, Vec<f32>)| (a.1, a.0.clone(), a.2);
                got.sort_by_key(by_key);
                want.sort_by_key(by_key);
                assert!(!want.is_empty());
                assert_eq!(got, want, "dp {dp} dirty {}", dirty.is_some());
            }
        }
    }
}
