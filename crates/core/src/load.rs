//! Target-side operations: `GenUcpMetadata` and `Load` (paper Table 2).
//!
//! Given a universal checkpoint and an arbitrary *Target* parallelism
//! configuration, [`gen_ucp_metadata`] computes, per rank, the new
//! partition metadata — which slice of which atom lands where in the
//! rank's flat ZeRO chunk, with alignment padding re-introduced — and
//! [`LoadSession`] executes the reads.
//!
//! The default *ranged* load path reads only the bytes a target needs:
//! each entry's shard is translated into element runs of the flattened atom
//! ([`Partition::shard_segments`]) and the runs are copied out of the
//! session's [`AtomCache`], which fetches what it lacks through verified
//! positioned range reads. A session serves a *target*, not a rank: DP
//! replicas of a (tp, pp) slice and the TP peers of a strided shard hit the
//! cache instead of re-reading, so each atom byte is read once per session.
//! `LoadOptions { ranged: false }` (CLI `--no-ranged-load`) falls back to
//! reading whole atom files.
//!
//! An atom is one file holding its three states as sections. A parameter
//! the manifest lists with `parts` is stored as that many sub-atom files;
//! the plan is the same element runs, cut at sub-atom boundaries and
//! fetched from the file each piece lies in, and the whole-file path
//! ([`read_atom`]) reads each file once and concatenates the parts.
//!
//! A load source — a [`LoadSession`], or a
//! [`crate::memory::MemoryCheckpoint`] — also builds each entry's fp32
//! shard once per (TP degree, TP rank) and hands the same allocation to
//! every DP replica after the first ([`RankState::model_params`]); each
//! rank still copies its own chunk windows out of the source.
//!
//! Every destination a load builds — the rank's three flat chunks and each
//! entry's fp32 shard — is a fresh buffer written front to back, each value
//! exactly once, through a `Fill`: no zeroing pass runs before it. Only
//! what no source backs is zeroed, explicitly, in its place: padding
//! segments, the space between an entry's fragments and between entries'
//! windows, and the chunk tail. Coverage is checked, not assumed: a buffer
//! becomes values only after every one of its fills reported full.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::{Cursor, Read};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use ucp_model::{param_specs, ModelConfig, Partition, ShardSegment};
use ucp_parallel::{FlatFragment, FlatLayout, ParallelConfig, RankCoord};
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{container, Container, Device};
use ucp_tensor::{DType, Shape, Tensor};

use crate::atom_cache::{AtomCache, CachedState};
use crate::manifest::UcpManifest;
use crate::util::par_map;
use crate::{Result, UcpError};

/// Default ZeRO alignment quantum (elements), matching the trainer.
pub const DEFAULT_ALIGNMENT: usize = 8;

/// One parameter's load instructions for one rank.
#[derive(Debug, Clone)]
pub struct LoadEntry {
    /// Atom (parameter) name, shared with the rank's `model_params`.
    pub name: Arc<str>,
    /// Consolidated shape of the atom.
    pub full_shape: Shape,
    /// Files the atom is stored as
    /// ([`crate::manifest::AtomMeta::parts`]): equal slices of the leading
    /// dimension; 1 = one file.
    pub parts: usize,
    /// How the target's TP degree slices the atom.
    pub partition: Partition,
    /// Pieces of this parameter that land in this rank's ZeRO chunk
    /// (empty when another ZeRO partition owns all of it).
    pub fragments: Vec<FlatFragment>,
}

/// The complete load plan for one target rank — the output of
/// `GenUcpMetadata`.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Target strategy.
    pub target: ParallelConfig,
    /// This rank's coordinate.
    pub coord: RankCoord,
    /// Flat layout of this rank's (tp, pp) slice at the target's ZeRO
    /// degree (dp × sp), shared (not cloned) into the loaded [`RankState`].
    pub layout: Arc<FlatLayout>,
    /// Per-parameter instructions, in flattening order.
    pub entries: Vec<LoadEntry>,
}

impl LoadPlan {
    /// Number of atoms this rank must read (those with fragments, plus all
    /// owned params for the model copy).
    pub fn atoms_touched(&self) -> usize {
        self.entries.len()
    }
}

/// A target rank's reconstructed training state.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Flat layout of the rank's (tp, pp) slice.
    pub layout: Arc<FlatLayout>,
    /// This rank's fp32 master chunk.
    pub fp32: Vec<f32>,
    /// This rank's Adam first-moment chunk.
    pub exp_avg: Vec<f32>,
    /// This rank's Adam second-moment chunk.
    pub exp_avg_sq: Vec<f32>,
    /// fp32 parameter shards of the whole (tp, pp) slice, in flattening
    /// order (the trainer quantizes these into its bf16/fp16 model copy).
    /// A shard depends only on the atom, the TP degree and the TP rank, so
    /// the source a rank is loaded from builds it once: every DP replica of
    /// the target, and any later load of the same slice from that source,
    /// gets the same allocation.
    pub model_params: Vec<(Arc<str>, Arc<Tensor>)>,
}

/// How a load executes its reads.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Atom reads fan out over this many threads.
    pub workers: usize,
    /// Bandwidth-throttled device the reads go through (unlimited by
    /// default).
    pub device: Device,
    /// `true` (default): fetch only the block-aligned byte ranges the
    /// rank's shard touches. `false`: read whole atom files (the
    /// pre-range-read behavior, kept for comparison and as an escape
    /// hatch).
    pub ranged: bool,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            workers: 1,
            device: Device::unlimited(),
            ranged: true,
        }
    }
}

impl LoadOptions {
    /// Options with a worker count.
    pub fn with_workers(workers: usize) -> LoadOptions {
        LoadOptions {
            workers,
            ..LoadOptions::default()
        }
    }
}

/// One open universal checkpoint plus the atom cache its loads share.
///
/// Load every target rank through the same session and ranks that need
/// the same atoms (DP replicas of a (tp, pp) slice, TP peers of a strided
/// shard) fetch the bytes once.
pub struct LoadSession {
    universal: PathBuf,
    manifest: UcpManifest,
    opts: LoadOptions,
    cache: AtomCache,
    shards: ShardTable,
}

impl LoadSession {
    /// Open the universal checkpoint for `step` under `base`.
    pub fn open(base: &Path, step: u64, opts: LoadOptions) -> Result<LoadSession> {
        let universal = layout::universal_dir(base, step);
        let manifest = UcpManifest::load(&universal)?;
        Ok(LoadSession {
            cache: AtomCache::new(&universal, opts.device),
            universal,
            manifest,
            opts,
            shards: ShardTable::default(),
        })
    }

    /// The checkpoint's manifest.
    pub fn manifest(&self) -> &UcpManifest {
        &self.manifest
    }

    /// `GenUcpMetadata` + `Load` for one rank, against the shared cache.
    pub fn load_rank(
        &self,
        target: &ParallelConfig,
        rank: usize,
        alignment: usize,
    ) -> Result<RankState> {
        self.load_plan(&gen_ucp_metadata(&self.manifest, target, rank, alignment)?)
    }

    /// `Load` alone: execute a precomputed plan (from [`gen_ucp_metadata`]
    /// over this session's manifest) against the shared cache and shards.
    pub fn load_plan(&self, plan: &LoadPlan) -> Result<RankState> {
        execute_plan(
            plan,
            &AtomSource::Disk {
                universal: &self.universal,
                opts: &self.opts,
                cache: &self.cache,
            },
            &self.shards,
        )
    }
}

/// The fp32 shards a load source has built, by (atom, TP degree, TP rank) —
/// all a shard depends on — so each is built once per source. No lock is
/// held while a shard is built: of two ranks that race to build the same
/// one, the first insert wins and the other's tensor (bitwise equal) is
/// dropped, so a rank never waits on another.
#[derive(Debug, Default)]
pub(crate) struct ShardTable(Mutex<HashMap<ShardKey, Arc<Tensor>>>);

/// (atom name, target TP degree, TP rank).
type ShardKey = (Arc<str>, usize, usize);

impl Clone for ShardTable {
    fn clone(&self) -> ShardTable {
        ShardTable(Mutex::new(self.0.lock().clone()))
    }
}

impl ShardTable {
    /// The shard under `key`, built by `build` if no load has built it yet.
    fn get_or_build(
        &self,
        key: ShardKey,
        build: impl FnOnce() -> Result<Tensor>,
    ) -> Result<Arc<Tensor>> {
        if let Some(shard) = self.0.lock().get(&key) {
            return Ok(Arc::clone(shard));
        }
        let built = Arc::new(build()?);
        Ok(Arc::clone(self.0.lock().entry(key).or_insert(built)))
    }
}

/// Where [`execute_plan`] takes its atoms from.
pub(crate) enum AtomSource<'a> {
    /// A universal directory on disk, read as `opts` says through the
    /// session's shared cache.
    Disk {
        universal: &'a Path,
        opts: &'a LoadOptions,
        cache: &'a AtomCache,
    },
    /// Atoms already consolidated in RAM (a
    /// [`crate::memory::MemoryCheckpoint`]'s map), indexed
    /// `[fp32, exp_avg, exp_avg_sq]` — [`AtomFile::ALL`] order.
    Memory(&'a BTreeMap<String, [Tensor; 3]>),
}

impl AtomSource<'_> {
    /// Where `entry`'s states are copied from: the session's cache on the
    /// ranged path, else the whole atom — all three states, decoded from
    /// its file or borrowed from RAM.
    fn states(&self, entry: &LoadEntry) -> Result<States<'_>> {
        let name: &str = &entry.name;
        Ok(match self {
            AtomSource::Disk { opts, cache, .. } if opts.ranged => States::Cache(cache),
            AtomSource::Disk {
                universal, opts, ..
            } => States::Whole(Cow::Owned(read_atom(
                universal,
                name,
                entry.parts,
                &opts.device,
            )?)),
            AtomSource::Memory(atoms) => {
                States::Whole(Cow::Borrowed(atoms.get(name).ok_or_else(|| {
                    UcpError::Inconsistent(format!("hot checkpoint has no atom for {name}"))
                })?))
            }
        })
    }
}

/// One entry's source of values, as [`AtomSource::states`] picks it.
enum States<'a> {
    /// Verified ranges fetched into the session's cache as needed.
    Cache(&'a AtomCache),
    /// The whole atom, `[fp32, exp_avg, exp_avg_sq]`.
    Whole(Cow<'a, [Tensor; 3]>),
}

impl States<'_> {
    /// Write `runs` of `entry`'s `file` state — atom-space runs in
    /// destination order, tiling what `fill` is to receive — onto the end
    /// of `fill`: padding runs as zeros, the rest copied out of the source.
    /// Returns the state's dtype, or `None` when nothing was read to learn
    /// it (every run padding, on the ranged path).
    fn write(
        &self,
        entry: &LoadEntry,
        file: AtomFile,
        runs: &[ShardSegment],
        fill: &mut Fill<'_>,
    ) -> Result<Option<DType>> {
        let atom = match self {
            States::Cache(cache) => return fill_from_cache(cache, entry, file, runs, fill),
            States::Whole(atom) => &atom[file as usize],
        };
        if atom.shape() != &entry.full_shape {
            return Err(UcpError::Inconsistent(format!(
                "atom {} has shape {}, expected {}",
                entry.name,
                atom.shape(),
                entry.full_shape
            )));
        }
        for run in runs {
            match run.src_offset {
                None => fill.zeros(run.len)?,
                Some(src) => fill.values(&atom.as_slice()[src..src + run.len])?,
            }
        }
        Ok(Some(atom.dtype()))
    }
}

/// A fresh destination written front to back, each slot exactly once: the
/// spare capacity of a new buffer, or a window of one handed out by
/// [`Fill::window`]. Every operation writes each slot it advances over, and
/// a window's slots are the window's to write, so once a fill and every
/// window taken from it report [`Fill::finish`] without error, every slot
/// of the buffer holds a value.
pub(crate) struct Fill<'a> {
    /// The slots not yet written or handed to a window, in order.
    rest: &'a mut [MaybeUninit<f32>],
}

impl<'a> Fill<'a> {
    /// A fill over `slots`, none of which need be initialised.
    fn new(slots: &'a mut [MaybeUninit<f32>]) -> Fill<'a> {
        Fill { rest: slots }
    }

    /// Take the next `n` slots off the front.
    fn next(&mut self, n: usize) -> Result<&'a mut [MaybeUninit<f32>]> {
        if n > self.rest.len() {
            return Err(UcpError::Inconsistent(format!(
                "load destination overrun: {n} values into {} slots",
                self.rest.len()
            )));
        }
        let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(n);
        self.rest = tail;
        Ok(head)
    }

    /// Write `values` into the next slots.
    pub(crate) fn values(&mut self, values: &[f32]) -> Result<()> {
        self.next(values.len())?.write_copy_of_slice(values);
        Ok(())
    }

    /// Write `bytes` — little-endian, in `dtype` — decoded into the next
    /// slots.
    pub(crate) fn decode(&mut self, dtype: DType, bytes: &[u8]) -> Result<()> {
        let n = bytes.len() / dtype.size_bytes();
        dtype.decode_into(bytes, self.next(n)?);
        Ok(())
    }

    /// Zero the next `n` slots: padding, which no source backs.
    fn zeros(&mut self, n: usize) -> Result<()> {
        for slot in self.next(n)? {
            slot.write(0.0);
        }
        Ok(())
    }

    /// Hand the next `n` slots to a fill of their own.
    fn window(&mut self, n: usize) -> Result<Fill<'a>> {
        Ok(Fill::new(self.next(n)?))
    }

    /// `Ok` once every slot has been written or handed to a window.
    fn finish(&self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(UcpError::Inconsistent(format!(
                "load destination short: {n} slots left unwritten"
            ))),
        }
    }
}

/// A NaN bit pattern no load writes: in debug builds every fresh
/// destination holds it before the load, so a slot the load skipped
/// survives into the [`RankState`] as this instead of as uninitialised
/// memory, and [`execute_plan`] refuses it.
#[cfg(debug_assertions)]
const SENTINEL: u32 = 0x7fc0_dead;

/// The first `len` slots of the spare capacity of `buf`, an empty buffer
/// (reserving them), for a [`Fill`]. Debug builds write [`SENTINEL`] over
/// them first.
fn fresh_slots(buf: &mut Vec<f32>, len: usize) -> &mut [MaybeUninit<f32>] {
    buf.reserve_exact(len);
    let slots = &mut buf.spare_capacity_mut()[..len];
    #[cfg(debug_assertions)]
    for slot in slots.iter_mut() {
        slot.write(f32::from_bits(SENTINEL));
    }
    slots
}

/// A fresh buffer of `len` values written front to back by `write` through
/// a [`Fill`]: no zeroing pass, and an error — never a value nothing wrote
/// — if `write` leaves a slot unwritten.
pub(crate) fn filled<T>(
    len: usize,
    write: impl FnOnce(&mut Fill<'_>) -> Result<T>,
) -> Result<(Vec<f32>, T)> {
    let mut buf = Vec::new();
    let out = {
        let mut fill = Fill::new(fresh_slots(&mut buf, len));
        let out = write(&mut fill)?;
        fill.finish()?;
        out
    };
    // SAFETY: `finish` found no slot of the fill's `len` left, and no window
    // was taken from it, so every one of the first `len` slots of the spare
    // capacity was written by a `Fill` operation, each of which writes
    // every slot it advances over.
    unsafe { buf.set_len(len) };
    Ok((buf, out))
}

/// Compute the load plan for `rank` under `target` (the `GenUcpMetadata`
/// operation). Pure metadata: no atom data is read.
pub fn gen_ucp_metadata(
    manifest: &UcpManifest,
    target: &ParallelConfig,
    rank: usize,
    alignment: usize,
) -> Result<LoadPlan> {
    validate_target(&manifest.model, target)?;
    let coord = target.coord(rank);
    let specs = param_specs(&manifest.model);
    let blocks = target.stage_blocks(coord.pp, manifest.model.num_layers);

    // Owned parameters of this (tp, pp) slice, in deterministic name order
    // (the trainer's ParamStore order).
    let mut owned: Vec<(&ucp_model::ParamSpec, Shape)> = specs
        .iter()
        .filter(|s| match s.role {
            ucp_model::LayerRole::Embedding => coord.pp == 0,
            ucp_model::LayerRole::Head => coord.pp == target.pp - 1,
            ucp_model::LayerRole::Block(i) => blocks.contains(&i),
            ucp_model::LayerRole::SharedEmbedding => coord.pp == 0 || coord.pp == target.pp - 1,
        })
        .map(|s| {
            let shard_shape = s.partition.shard_shape(&s.shape, target.tp);
            (s, shard_shape)
        })
        .collect();
    owned.sort_by(|a, b| a.0.name.cmp(&b.0.name));

    // ZeRO partitions each (tp, pp) slice over the combined dp × sp group;
    // this rank holds partition `dp · sp + sp`.
    let layout = Arc::new(FlatLayout::build(
        &owned
            .iter()
            .map(|(s, shape)| (s.name.clone(), shape.clone()))
            .collect::<Vec<_>>(),
        alignment,
        target.dp * target.sp,
    ));
    let zero_index = coord.dp * target.sp + coord.sp;

    let mut entries = Vec::with_capacity(owned.len());
    for ((spec, _), slot) in owned.iter().zip(&layout.slots) {
        debug_assert_eq!(spec.name, slot.name);
        let atom = manifest.atom(&spec.name).ok_or_else(|| {
            UcpError::Inconsistent(format!("manifest has no atom for {}", spec.name))
        })?;
        if atom.shape != spec.shape {
            return Err(UcpError::Inconsistent(format!(
                "atom {} shape {} does not match model spec {}",
                spec.name, atom.shape, spec.shape
            )));
        }
        // The tree says how it is split, not the spec: one written by a
        // foreign adapter lists whole atoms. A manifest built in memory
        // has not been through `UcpManifest::load`'s check.
        atom.check()?;
        let parts = atom.parts();
        let fragments = layout
            .fragments_of(slot)
            .into_iter()
            .filter(|f| f.dp_rank == zero_index)
            .collect();
        entries.push(LoadEntry {
            name: Arc::from(spec.name.as_str()),
            full_shape: spec.shape.clone(),
            parts,
            partition: spec.partition.clone(),
            fragments,
        });
    }

    Ok(LoadPlan {
        target: *target,
        coord,
        layout,
        entries,
    })
}

fn validate_target(model: &ModelConfig, target: &ParallelConfig) -> Result<()> {
    model.validate(target.tp).map_err(UcpError::Inconsistent)?;
    target
        .validate(model.num_layers, model.max_seq_len)
        .map_err(UcpError::Inconsistent)?;
    Ok(())
}

/// Read one whole atom — `[fp32, exp_avg, exp_avg_sq]` — from a universal
/// tree: the parameter's one file, decoded once for all three states, or —
/// for a parameter stored as `parts` sub-atoms — every part's, each read
/// once, concatenated along the leading dimension.
pub fn read_atom(
    universal_dir: &Path,
    name: &str,
    parts: usize,
    device: &Device,
) -> Result<[Tensor; 3]> {
    let read = |part: Option<usize>| -> Result<[Tensor; 3]> {
        let path = layout::atom_file(universal_dir, name, part);
        let t = ucp_telemetry::enabled().then(std::time::Instant::now);
        // The file crosses the metered handle once, whole; the index and
        // every verified section read are then served from memory.
        let file = container::open_file(&path)?;
        let mut bytes = Vec::with_capacity(file.metadata().map_or(0, |m| m.len() as usize));
        let mut r = device.reader(file);
        r.read_to_end(&mut bytes)?;
        let mut c = Container::read_from(&mut Cursor::new(&bytes))?;
        if let Some(t) = t {
            ucp_telemetry::observe(
                "load/atom_read_ns",
                t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
            // The whole file is both read and needed: read amplification 1.
            ucp_telemetry::count("load/bytes_read", r.bytes_transferred());
            ucp_telemetry::count("load/bytes_needed", bytes.len() as u64);
        }
        let [w, m, v] = AtomFile::ALL.map(|state| -> Result<Tensor> {
            let key = state.state_key();
            let at = (c.sections.iter())
                .position(|s| s.name == key)
                .ok_or_else(|| UcpError::Inconsistent(format!("atom {name} missing {key}")))?;
            Ok(c.sections.swap_remove(at).tensor)
        });
        Ok([w?, m?, v?])
    };
    if parts == 1 {
        return read(None);
    }
    let by_part = (0..parts)
        .map(|part| read(Some(part)))
        .collect::<Result<Vec<_>>>()?;
    let [w, m, v] = [0, 1, 2].map(|ki| {
        let slices: Vec<&Tensor> = by_part.iter().map(|states| &states[ki]).collect();
        Tensor::concat(&slices, 0)
    });
    Ok([w?, m?, v?])
}

/// One entry's windows of the rank's `[fp32, exp_avg, exp_avg_sq]` chunks
/// ([`AtomFile::ALL`] order): where its fragments land.
type Windows<'a> = [Fill<'a>; 3];

/// Split the rank's three chunk fills into one [`Windows`] per entry,
/// zeroing what lies outside every window — the alignment padding between
/// successive entries' windows and the chunk tail — as it walks each chunk
/// front to back. A parameter's slot is contiguous in the flat space, so
/// an entry's fragments occupy one span of the chunk and the spans ascend
/// with the entries: disjoint windows, which the parallel read phase fills
/// directly instead of returning pieces for a serial scatter.
fn chunk_windows<'a>(
    mut chunks: [Fill<'a>; 3],
    entries: &[LoadEntry],
) -> Result<Vec<Mutex<Windows<'a>>>> {
    let mut taken = 0;
    let mut windows = Vec::with_capacity(entries.len());
    for entry in entries {
        let lo = entry.fragments.first().map_or(taken, |f| f.chunk_offset);
        let hi = (entry.fragments.last()).map_or(lo, |f| f.chunk_offset + f.len);
        if lo < taken || hi < lo || hi - taken > chunks[0].rest.len() {
            return Err(UcpError::Inconsistent(format!(
                "{}: fragments {lo}..{hi} are not an ascending window of the chunk",
                entry.name
            )));
        }
        let window = |chunk: &mut Fill<'a>| -> Result<Fill<'a>> {
            chunk.zeros(lo - taken)?;
            chunk.window(hi - lo)
        };
        let [a, b, c] = &mut chunks;
        windows.push(Mutex::new([window(a)?, window(b)?, window(c)?]));
        taken = hi;
    }
    for chunk in &mut chunks {
        let tail = chunk.rest.len();
        chunk.zeros(tail)?;
        chunk.finish()?;
    }
    Ok(windows)
}

/// `Load`: execute `plan` against `source`, taking each fp32 shard from
/// `shards` — the table the source owns — where a load already built it.
/// The only builder of a [`RankState`], so every tier reconstructs a rank
/// the same way.
pub(crate) fn execute_plan(
    plan: &LoadPlan,
    source: &AtomSource<'_>,
    shards: &ShardTable,
) -> Result<RankState> {
    let _total_span = ucp_telemetry::span("load/total");
    let chunk = plan.layout.chunk;
    let mut chunks: [Vec<f32>; 3] = Default::default();
    let fills = chunks.each_mut().map(|c| Fill::new(fresh_slots(c, chunk)));
    let windows = chunk_windows(fills, &plan.entries)?;

    // Read (parallel over entries): take or build each entry's fp32 shard
    // and fill its chunk windows. Per-entry busy time accumulates into
    // `load/worker_busy_ns`; utilization is busy / (span × workers).
    let workers = match source {
        AtomSource::Disk { opts, .. } => opts.workers,
        AtomSource::Memory(_) => 1,
    };
    let read_span = ucp_telemetry::span("load/read");
    let model_params = par_map(plan.entries.len(), workers, |i| {
        let _read_sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Load, "read_entry");
        let t_busy = ucp_telemetry::enabled().then(std::time::Instant::now);
        let entry = &plan.entries[i];
        let shard_fp32 = read_entry(plan, entry, source, shards, &mut windows[i].lock())?;
        if let Some(t) = t_busy {
            ucp_telemetry::count(
                "load/worker_busy_ns",
                t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        Ok((entry.name.clone(), shard_fp32))
    })?;
    drop(read_span);
    // The audit: every window of every chunk written to its end.
    for window in &windows {
        window.lock().iter().try_for_each(Fill::finish)?;
    }
    drop(windows);
    for c in &mut chunks {
        // SAFETY: `chunk_windows` walked each chunk's `chunk` slots front to
        // back through a `Fill` and finished it, zeroing every slot outside
        // the entries' windows and handing each other slot to exactly one
        // window; the audit above found every window finished. A `Fill`
        // writes each slot it advances over, so all `chunk` slots hold values.
        unsafe { c.set_len(chunk) };
    }

    let [fp32, exp_avg, exp_avg_sq] = chunks;
    let state = RankState {
        layout: Arc::clone(&plan.layout),
        fp32,
        exp_avg,
        exp_avg_sq,
        model_params,
    };
    #[cfg(debug_assertions)]
    for values in [&state.fp32, &state.exp_avg, &state.exp_avg_sq] {
        assert_written(values);
    }
    Ok(state)
}

/// Debug builds: refuse a fresh destination in which a [`SENTINEL`]
/// survived the load.
#[cfg(debug_assertions)]
fn assert_written(values: &[f32]) {
    assert!(
        values.iter().all(|v| v.to_bits() != SENTINEL),
        "load left a destination slot unwritten"
    );
}

/// One entry: its fp32 shard (the model copy needs all of it) — taken from
/// `shards`, or written front to back over the shard's segments and put
/// there — and its three chunk windows, copied out of the source over the
/// exact fragment intersections. On the ranged route a DP replica's fp32
/// window is served from the bytes the shard's builder already fetched.
fn read_entry(
    plan: &LoadPlan,
    entry: &LoadEntry,
    source: &AtomSource<'_>,
    shards: &ShardTable,
    windows: &mut Windows<'_>,
) -> Result<Arc<Tensor>> {
    let states = source.states(entry)?;
    let segments = entry
        .partition
        .shard_segments(&entry.full_shape, plan.target.tp, plan.coord.tp);
    let key = (Arc::clone(&entry.name), plan.target.tp, plan.coord.tp);
    let shard_fp32 = shards.get_or_build(key, || {
        let shard_shape = entry
            .partition
            .shard_shape(&entry.full_shape, plan.target.tp);
        let (shard_flat, dtype) = filled(shard_shape.num_elements(), |fill| {
            states.write(entry, AtomFile::Fp32, &segments, fill)
        })?;
        #[cfg(debug_assertions)]
        assert_written(&shard_flat);
        let dtype = match (dtype, &states) {
            (Some(dtype), _) => dtype,
            // Every segment padding: the atom's header still names the dtype.
            (None, States::Cache(cache)) => fetch_dtype(cache, entry)?,
            (None, States::Whole(atom)) => atom[0].dtype(),
        };
        // An fp32 atom's shard is already the tensor; only a 16-bit atom's
        // needs its dtype tag (a quantizing copy of exactly-representable
        // values).
        let mut shard = Tensor::from_vec(shard_flat, shard_shape)?;
        if dtype != DType::F32 {
            shard = shard.cast(dtype);
        }
        Ok(shard)
    })?;

    let runs = window_runs(&segments, &entry.fragments);
    for file in AtomFile::ALL {
        states.write(entry, file, &runs, &mut windows[file as usize])?;
    }
    Ok(shard_fp32)
}

/// The shape of each of the files a split `entry` is stored as.
fn part_shape(entry: &LoadEntry) -> Shape {
    let dim0 = entry.full_shape.dims().first().copied().unwrap_or(1);
    entry.full_shape.with_dim(0, dim0 / entry.parts)
}

/// The dtype of `entry`'s fp32 state, from the header of its (first)
/// file, for a shard that copied nothing out of it.
fn fetch_dtype(cache: &AtomCache, entry: &LoadEntry) -> Result<DType> {
    let (part, shape) = match entry.parts {
        1 => (None, entry.full_shape.clone()),
        _ => (Some(0), part_shape(entry)),
    };
    let state = cache.fetch(&entry.name, part, AtomFile::Fp32, &shape, &[])?;
    Ok(state.dtype())
}

/// [`States::write`] on the ranged path: fetch what `runs` reach — one
/// fetch per (sub-)atom file, every range that lies in it at once, so the
/// cache plans across them — then copy the runs out of the cache front to
/// back, padding as zeros.
fn fill_from_cache(
    cache: &AtomCache,
    entry: &LoadEntry,
    file: AtomFile,
    runs: &[ShardSegment],
    fill: &mut Fill<'_>,
) -> Result<Option<DType>> {
    let name: &str = &entry.name;
    let (part_len, shape) = match entry.parts {
        1 => (entry.full_shape.num_elements(), entry.full_shape.clone()),
        _ => {
            let shape = part_shape(entry);
            (shape.num_elements(), shape)
        }
    };
    let sources = || {
        runs.iter()
            .filter_map(|r| r.src_offset.map(|o| o..o + r.len))
    };
    let mut by_part: BTreeMap<usize, Vec<Range<usize>>> = BTreeMap::new();
    for (part, r) in sources().flat_map(|r| cut_at_parts(r, part_len)) {
        by_part.entry(part).or_default().push(r);
    }
    let mut states = BTreeMap::new();
    for (part, ranges) in by_part {
        let file_part = (entry.parts > 1).then_some(part);
        states.insert(part, cache.fetch(name, file_part, file, &shape, &ranges)?);
    }
    for run in runs {
        match run.src_offset {
            None => fill.zeros(run.len)?,
            Some(src) => {
                for (part, r) in cut_at_parts(src..src + run.len, part_len) {
                    states[&part].gather(r, fill)?;
                }
            }
        }
    }
    Ok(states.values().next().map(CachedState::dtype))
}

/// Cut an atom-element range at the boundaries of `part_len`-element
/// sub-atoms: per piece, the sub-atom it lies in and its element range of
/// *that sub-atom*, in order. Together the pieces are exactly the range.
fn cut_at_parts(r: Range<usize>, part_len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut lo = r.start;
    std::iter::from_fn(move || {
        if lo >= r.end {
            return None;
        }
        let part = lo / part_len;
        let hi = r.end.min((part + 1) * part_len);
        let base = part * part_len;
        let piece = (part, lo - base..hi - base);
        lo = hi;
        Some(piece)
    })
}

/// The runs that fill an entry's chunk window front to back, in atom space
/// like [`Partition::shard_segments`]: each fragment's overlap with each
/// shard segment (a padding segment stays padding), and any space between
/// fragments as padding. A run's `shard_offset` is its offset in the
/// window.
fn window_runs(segments: &[ShardSegment], fragments: &[FlatFragment]) -> Vec<ShardSegment> {
    let mut runs: Vec<ShardSegment> = Vec::new();
    let mut push = |src_offset, len| {
        let shard_offset = runs.last().map_or(0, |r| r.shard_offset + r.len);
        runs.push(ShardSegment {
            shard_offset,
            src_offset,
            len,
        });
    };
    // The chunk offset the runs so far reach.
    let mut end = fragments.first().map_or(0, |f| f.chunk_offset);
    for f in fragments {
        if f.chunk_offset > end {
            push(None, f.chunk_offset - end);
        }
        let (fstart, fend) = (f.param_offset, f.param_offset + f.len);
        for seg in segments {
            let lo = fstart.max(seg.shard_offset);
            let hi = fend.min(seg.shard_offset + seg.len);
            if lo < hi {
                push(
                    seg.src_offset.map(|src| src + (lo - seg.shard_offset)),
                    hi - lo,
                );
            }
        }
        end = f.chunk_offset + f.len;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// "Cut the runs at sub-atom boundaries, fetch each piece from its
        /// part" copies exactly what the runs copy out of the concatenated
        /// atom — every element of every run once, nothing else — and no
        /// piece reaches outside its part.
        #[test]
        fn prop_runs_cut_at_part_boundaries_equal_slicing_the_whole(
            part_len in 1usize..12,
            parts in 1usize..7,
            picks in prop::collection::vec((0usize..1000, 0usize..1000), 0..10),
        ) {
            let total = part_len * parts;
            let atom: Vec<f32> = (0..total).map(|i| i as f32).collect();
            // Arbitrary runs (overlaps and empties included), packed end
            // to end in the destination as a shard's runs are.
            let mut want = Vec::new();
            let mut got = Vec::new();
            for (a, b) in picks {
                let (lo, hi) = (a % (total + 1), b % (total + 1));
                let r = lo.min(hi)..lo.max(hi);
                want.extend_from_slice(&atom[r.clone()]);
                for (part, piece) in cut_at_parts(r, part_len) {
                    prop_assert!(part < parts);
                    prop_assert!(!piece.is_empty() && piece.end <= part_len);
                    let file = &atom[part * part_len..(part + 1) * part_len];
                    got.extend_from_slice(&file[piece]);
                }
            }
            prop_assert_eq!(got, want);
        }

        /// An entry's window runs tile its window: each fragment's
        /// elements, in order, taken from the segments that cover them,
        /// with the space between fragments as padding.
        #[test]
        fn prop_window_runs_tile_the_window(
            rows in 1usize..9,
            cols in 1usize..9,
            tp in 1usize..4,
            r in 0usize..4,
            cut in prop::collection::vec(0usize..100, 0..4),
        ) {
            let partition = Partition::PaddedShard { dim: 1, multiple: 1 };
            let full = Shape::new([rows, cols]);
            let r = r % tp;
            let segments = partition.shard_segments(&full, tp, r);
            let shard_len = partition.shard_shape(&full, tp).num_elements();
            // The shard as values: an atom element's index, padding -1.
            let mut shard = vec![-1.0f32; shard_len];
            for seg in &segments {
                if let Some(src) = seg.src_offset {
                    for k in 0..seg.len {
                        shard[seg.shard_offset + k] = (src + k) as f32;
                    }
                }
            }
            // Fragments: disjoint ascending pieces of the shard, placed in
            // the chunk with a gap of 3 before each.
            let mut bounds: Vec<usize> = cut.iter().map(|c| c % (shard_len + 1)).collect();
            bounds.extend([0, shard_len]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut fragments = Vec::new();
            let mut chunk_at = 5;
            for w in bounds.windows(2) {
                chunk_at += 3;
                let len = w[1] - w[0];
                fragments.push(FlatFragment { dp_rank: 0, param_offset: w[0], chunk_offset: chunk_at, len });
                chunk_at += len;
            }
            let base = fragments.first().map_or(0, |f| f.chunk_offset);
            let end = fragments.last().map_or(base, |f| f.chunk_offset + f.len);
            let mut want = vec![-1.0f32; end - base];
            for f in &fragments {
                let at = f.chunk_offset - base;
                want[at..at + f.len].copy_from_slice(&shard[f.param_offset..f.param_offset + f.len]);
            }
            let runs = window_runs(&segments, &fragments);
            let mut got = Vec::new();
            for run in &runs {
                prop_assert_eq!(run.shard_offset, got.len());
                match run.src_offset {
                    None => got.extend(std::iter::repeat_n(-1.0f32, run.len)),
                    Some(src) => got.extend((src..src + run.len).map(|i| i as f32)),
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    /// Two builders that race for one key both build, unlocked; the first
    /// insert wins and both get its allocation. A key already built is
    /// served without building.
    #[test]
    fn racing_shard_builders_share_the_first_insert() {
        let table = ShardTable::default();
        let key = || (Arc::<str>::from("w"), 2, 1);
        let both_building = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            [1.0f32, 2.0]
                .map(|v| {
                    let (table, both_building) = (&table, &both_building);
                    s.spawn(move || {
                        table.get_or_build(key(), || {
                            both_building.wait();
                            Ok(Tensor::from_vec(vec![v], Shape::new([1]))?)
                        })
                    })
                })
                .map(|h| h.join().unwrap().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        let again = table.get_or_build(key(), || panic!("built twice")).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        let peer = (Arc::<str>::from("w"), 2, 0);
        let peer = table.get_or_build(peer, || Ok(Tensor::from_vec(vec![3.0], Shape::new([1]))?));
        assert!(!Arc::ptr_eq(&a, &peer.unwrap()));
    }

    /// A fill writes front to back, refuses to run past its end, and
    /// finishes only when every slot was written or handed to a window
    /// that finished in turn.
    #[test]
    fn fill_counts_every_slot_once() {
        let (values, ()) = filled(7, |fill| {
            fill.values(&[1.0, 2.0])?;
            fill.zeros(2)?;
            fill.decode(DType::BF16, &[0x80, 0x3f, 0x00, 0x40])?;
            fill.values(&[5.0])
        })
        .unwrap();
        assert_eq!(values, [1.0, 2.0, 0.0, 0.0, 1.0, 2.0, 5.0]);
        assert!(filled(3, |fill| fill.values(&[1.0, 2.0])).is_err(), "short");
        assert!(
            filled(1, |fill| fill.values(&[1.0, 2.0])).is_err(),
            "overrun"
        );
        let mut buf = Vec::new();
        let mut fill = Fill::new(fresh_slots(&mut buf, 4));
        fill.zeros(1).unwrap();
        let mut window = fill.window(2).unwrap();
        fill.zeros(1).unwrap();
        assert!(fill.finish().is_ok());
        window.values(&[3.0]).unwrap();
        assert!(window.finish().is_err(), "a window is counted on its own");
    }
}
