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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Cursor, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use ucp_model::{param_specs, ModelConfig, Partition, ShardSegment};
use ucp_parallel::{FlatFragment, FlatLayout, ParallelConfig, RankCoord};
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{container, Container, Device};
use ucp_tensor::{DType, Shape, Tensor};

use crate::atom_cache::AtomCache;
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
    /// (empty when another DP rank owns all of it).
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
    /// Flat layout of this rank's (tp, pp) slice at the target DP degree,
    /// shared (not cloned) into the loaded [`RankState`].
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
    pub model_params: Vec<(Arc<str>, Tensor)>,
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
    /// over this session's manifest) against the shared cache.
    pub fn load_plan(&self, plan: &LoadPlan) -> Result<RankState> {
        execute_plan(
            plan,
            &AtomSource::Disk {
                universal: &self.universal,
                opts: &self.opts,
                cache: &self.cache,
            },
        )
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
    /// One whole atom, all three states, for the full-read strategy.
    fn atom(&self, entry: &LoadEntry) -> Result<Cow<'_, [Tensor; 3]>> {
        let name: &str = &entry.name;
        match self {
            AtomSource::Disk {
                universal, opts, ..
            } => read_atom(universal, name, entry.parts, &opts.device).map(Cow::Owned),
            AtomSource::Memory(atoms) => atoms.get(name).map(Cow::Borrowed).ok_or_else(|| {
                UcpError::Inconsistent(format!("hot checkpoint has no atom for {name}"))
            }),
        }
    }
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

    let layout = Arc::new(FlatLayout::build(
        &owned
            .iter()
            .map(|(s, shape)| (s.name.clone(), shape.clone()))
            .collect::<Vec<_>>(),
        alignment,
        target.dp,
    ));

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
            .filter(|f| f.dp_rank == coord.dp)
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
type Windows<'a> = [&'a mut [f32]; 3];

/// Split the rank's three chunks into one [`Windows`] per entry. A
/// parameter's slot is contiguous in the flat space, so an entry's
/// fragments occupy one span of the chunk and the spans ascend with the
/// entries — disjoint windows, which the parallel read phase fills
/// directly instead of returning pieces for a serial scatter.
fn chunk_windows<'a>(
    chunks: &'a mut [Vec<f32>; 3],
    entries: &[LoadEntry],
) -> Result<Vec<Mutex<Windows<'a>>>> {
    let mut rest = chunks.each_mut().map(|c| &mut c[..]);
    let mut taken = 0;
    let mut windows = Vec::with_capacity(entries.len());
    for entry in entries {
        let lo = entry.fragments.first().map_or(taken, |f| f.chunk_offset);
        let hi = (entry.fragments.last()).map_or(lo, |f| f.chunk_offset + f.len);
        if lo < taken || hi < lo || hi - taken > rest[0].len() {
            return Err(UcpError::Inconsistent(format!(
                "{}: fragments {lo}..{hi} are not an ascending window of the chunk",
                entry.name
            )));
        }
        windows.push(Mutex::new(rest.each_mut().map(|r| {
            let (window, tail) = std::mem::take(r)[lo - taken..].split_at_mut(hi - lo);
            *r = tail;
            window
        })));
        taken = hi;
    }
    Ok(windows)
}

/// `Load`: execute `plan` against `source`. The only builder of a
/// [`RankState`], so every tier reconstructs a rank the same way.
pub(crate) fn execute_plan(plan: &LoadPlan, source: &AtomSource<'_>) -> Result<RankState> {
    let _total_span = ucp_telemetry::span("load/total");
    let chunk = plan.layout.chunk;
    let mut chunks = [(); 3].map(|()| vec![0.0f32; chunk]);
    let windows = chunk_windows(&mut chunks, &plan.entries)?;

    // Read (parallel over entries): build each entry's fp32 shard and fill
    // its chunk windows. Per-entry busy time accumulates into
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
        let mut windows = windows[i].lock();
        let shard_fp32 = match source {
            AtomSource::Disk { opts, cache, .. } if opts.ranged => {
                read_entry_ranged(plan, entry, cache, &mut windows)?
            }
            _ => read_entry_full(plan, entry, source, &mut windows)?,
        };
        if let Some(t) = t_busy {
            ucp_telemetry::count(
                "load/worker_busy_ns",
                t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        Ok((entry.name.clone(), shard_fp32))
    })?;
    drop(read_span);
    drop(windows);

    let [fp32, exp_avg, exp_avg_sq] = chunks;
    Ok(RankState {
        layout: Arc::clone(&plan.layout),
        fp32,
        exp_avg,
        exp_avg_sq,
        model_params,
    })
}

/// Full-read strategy: take the whole atom (decoding its file — all three
/// states, whichever this rank's chunk needs — or borrowing it from RAM),
/// then slice out this rank's TP shard in memory.
fn read_entry_full(
    plan: &LoadPlan,
    entry: &LoadEntry,
    source: &AtomSource<'_>,
    windows: &mut Windows<'_>,
) -> Result<Tensor> {
    let atom = source.atom(entry)?;
    let shard = |state: AtomFile| -> Result<Tensor> {
        let whole = &atom[state as usize];
        if whole.shape() != &entry.full_shape {
            return Err(UcpError::Inconsistent(format!(
                "atom {} has shape {}, expected {}",
                entry.name,
                whole.shape(),
                entry.full_shape
            )));
        }
        Ok(entry.partition.shard(whole, plan.target.tp, plan.coord.tp))
    };
    // Model copy always needs the fp32 shard of every owned parameter;
    // the optimizer moments are only sliced when this rank's chunk
    // intersects the parameter.
    let shard_fp32 = shard(AtomFile::Fp32)?;
    if !entry.fragments.is_empty() {
        scatter(windows[0], shard_fp32.as_slice(), &entry.fragments);
        for state in [AtomFile::ExpAvg, AtomFile::ExpAvgSq] {
            scatter(
                windows[state as usize],
                shard(state)?.as_slice(),
                &entry.fragments,
            );
        }
    }
    Ok(shard_fp32)
}

/// Ranged strategy: copy only the element runs the shard and fragments
/// touch out of the session's atom cache, straight into the shard and the
/// chunk windows.
fn read_entry_ranged(
    plan: &LoadPlan,
    entry: &LoadEntry,
    cache: &AtomCache,
    windows: &mut Windows<'_>,
) -> Result<Tensor> {
    let segments = entry
        .partition
        .shard_segments(&entry.full_shape, plan.target.tp, plan.coord.tp);
    let shard_shape = entry
        .partition
        .shard_shape(&entry.full_shape, plan.target.tp);

    // The model copy needs the whole fp32 shard: one run per segment with
    // an on-disk source; padding segments stay zero.
    let shard_runs: Vec<(usize, Range<usize>)> = segments
        .iter()
        .filter_map(|s| s.src_offset.map(|o| (s.shard_offset, o..o + s.len)))
        .collect();
    let mut shard_flat = vec![0.0f32; shard_shape.num_elements()];
    let dtype = fetch_runs(cache, entry, AtomFile::Fp32, &shard_runs, &mut shard_flat)?;
    // An fp32 atom's shard is already the tensor; only a 16-bit atom's
    // needs its dtype tag (a quantizing copy of exactly-representable values).
    let mut shard_fp32 = Tensor::from_vec(shard_flat, shard_shape)?;
    if dtype != DType::F32 {
        shard_fp32 = shard_fp32.cast(dtype);
    }
    scatter(windows[0], shard_fp32.as_slice(), &entry.fragments);

    // Moments: only the exact fragment intersections.
    let runs = fragment_runs(&segments, &entry.fragments);
    if !runs.is_empty() {
        for file in [AtomFile::ExpAvg, AtomFile::ExpAvgSq] {
            fetch_runs(cache, entry, file, &runs, windows[file as usize])?;
        }
    }
    Ok(shard_fp32)
}

/// Copy `runs` — `(offset in dst, element range of the flattened atom)` —
/// of `entry`'s `file` state out of the cache into `dst`: one fetch from the
/// atom's file, or one per sub-atom file the runs reach.
fn fetch_runs(
    cache: &AtomCache,
    entry: &LoadEntry,
    file: AtomFile,
    runs: &[(usize, Range<usize>)],
    dst: &mut [f32],
) -> Result<DType> {
    let name: &str = &entry.name;
    if entry.parts == 1 {
        return cache.fetch(name, None, file, &entry.full_shape, runs, dst);
    }
    let dim0 = entry.full_shape.dims()[0];
    let part_shape = entry.full_shape.with_dim(0, dim0 / entry.parts);
    let mut dtype = None;
    for (part, runs) in runs_by_part(runs, part_shape.num_elements()) {
        dtype = Some(cache.fetch(name, Some(part), file, &part_shape, &runs, dst)?);
    }
    match dtype {
        Some(dtype) => Ok(dtype),
        // Nothing to copy: part 0's header still names the dtype.
        None => cache.fetch(name, Some(0), file, &part_shape, &[], dst),
    }
}

/// Cut atom-element runs at the boundaries of `part_len`-element sub-atoms:
/// per sub-atom reached, the pieces that lie in it as `(offset in dst,
/// element range of *that sub-atom*)`. Together the pieces copy exactly
/// what `runs` would copy out of the concatenated atom.
fn runs_by_part(
    runs: &[(usize, Range<usize>)],
    part_len: usize,
) -> BTreeMap<usize, Vec<(usize, Range<usize>)>> {
    let mut by_part: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for (offset, r) in runs {
        let mut lo = r.start;
        while lo < r.end {
            let part = lo / part_len;
            let hi = r.end.min((part + 1) * part_len);
            let base = part * part_len;
            by_part
                .entry(part)
                .or_default()
                .push((offset + (lo - r.start), lo - base..hi - base));
            lo = hi;
        }
    }
    by_part
}

/// Intersect this rank's ZeRO fragments (shard-space) with the shard's
/// source segments (atom-space): each overlap with an on-disk source
/// becomes a `(window offset, atom element range)` run. Padding overlaps
/// are dropped — the chunk buffers start zeroed, which is exactly what the
/// full-read path scatters there.
fn fragment_runs(
    segments: &[ShardSegment],
    fragments: &[FlatFragment],
) -> Vec<(usize, Range<usize>)> {
    let base = fragments.first().map_or(0, |f| f.chunk_offset);
    let mut runs = Vec::new();
    for f in fragments {
        let fstart = f.param_offset;
        let fend = f.param_offset + f.len;
        for seg in segments {
            let lo = fstart.max(seg.shard_offset);
            let hi = fend.min(seg.shard_offset + seg.len);
            if lo >= hi {
                continue;
            }
            if let Some(src) = seg.src_offset {
                let s = src + (lo - seg.shard_offset);
                runs.push((f.chunk_offset - base + (lo - fstart), s..s + (hi - lo)));
            }
        }
    }
    runs
}

/// Copy `fragments` of the flattened shard into the entry's chunk window
/// (which starts at its first fragment).
fn scatter(window: &mut [f32], shard_flat: &[f32], fragments: &[FlatFragment]) {
    let base = fragments.first().map_or(0, |f| f.chunk_offset);
    for f in fragments {
        let at = f.chunk_offset - base;
        window[at..at + f.len].copy_from_slice(&shard_flat[f.param_offset..f.param_offset + f.len]);
    }
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
            // to end in `dst` as a shard's runs are.
            let mut runs = Vec::new();
            let mut filled = 0;
            for (a, b) in picks {
                let (lo, hi) = (a % (total + 1), b % (total + 1));
                let r = lo.min(hi)..lo.max(hi);
                runs.push((filled, r.clone()));
                filled += r.len();
            }
            let mut want = vec![-1.0f32; filled];
            for (offset, r) in &runs {
                want[*offset..*offset + r.len()].copy_from_slice(&atom[r.clone()]);
            }
            let mut got = vec![-1.0f32; filled];
            for (part, pieces) in runs_by_part(&runs, part_len) {
                prop_assert!(part < parts);
                let file = &atom[part * part_len..(part + 1) * part_len];
                for (offset, r) in pieces {
                    prop_assert!(!r.is_empty() && r.end <= part_len);
                    got[offset..offset + r.len()].copy_from_slice(&file[r]);
                }
            }
            prop_assert_eq!(got, want);
        }
    }
}
