//! Target-side operations: `GenUcpMetadata` and `Load` (paper Table 2).
//!
//! Given a universal checkpoint and an arbitrary *Target* parallelism
//! configuration, [`gen_ucp_metadata`] computes, per rank, the new
//! partition metadata — which slice of which atom lands where in the
//! rank's flat ZeRO chunk, with alignment padding re-introduced — and
//! [`LoadSession`] executes the reads.
//!
//! The default *ranged* load path reads only the bytes a rank needs: each
//! entry's shard is translated into element runs of the flattened atom
//! ([`Partition::shard_segments`]), adjacent runs are coalesced, and the
//! runs are fetched through verified section-range reads
//! ([`ucp_storage::ContainerIndex::read_section_range`]) into a
//! per-session [`AtomCache`] shared across ranks — DP replicas of a
//! (tp, pp) slice hit the cache instead of re-reading the same bytes.
//! `LoadOptions { ranged: false }` (CLI `--no-ranged-load`) falls back to
//! reading whole atom files.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ucp_model::{param_specs, ModelConfig, Partition, ShardSegment};
use ucp_parallel::{FlatFragment, FlatLayout, ParallelConfig, RankCoord};
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{container, Container, Device};
use ucp_tensor::{Shape, Tensor};

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
/// the same atom ranges (all DP replicas of a (tp, pp) slice do) fetch
/// the bytes once.
pub struct LoadSession {
    universal: PathBuf,
    manifest: UcpManifest,
    opts: LoadOptions,
    cache: Arc<AtomCache>,
}

impl LoadSession {
    /// Open the universal checkpoint for `step` under `base`.
    pub fn open(base: &Path, step: u64, opts: LoadOptions) -> Result<LoadSession> {
        let universal = layout::universal_dir(base, step);
        let manifest = UcpManifest::load(&universal)?;
        Ok(LoadSession {
            universal,
            manifest,
            opts,
            cache: Arc::new(AtomCache::new()),
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
    /// One whole atom tensor, for the full-read strategy.
    fn atom(&self, name: &str, file: AtomFile) -> Result<Cow<'_, Tensor>> {
        match self {
            AtomSource::Disk {
                universal, opts, ..
            } => read_atom(universal, name, file, &opts.device).map(Cow::Owned),
            AtomSource::Memory(atoms) => atoms
                .get(name)
                .map(|states| Cow::Borrowed(&states[file as usize]))
                .ok_or_else(|| {
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
        let fragments = layout
            .fragments_of(slot)
            .into_iter()
            .filter(|f| f.dp_rank == coord.dp)
            .collect();
        entries.push(LoadEntry {
            name: Arc::from(spec.name.as_str()),
            full_shape: spec.shape.clone(),
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

fn read_atom(universal_dir: &Path, name: &str, file: AtomFile, device: &Device) -> Result<Tensor> {
    let path = layout::atom_path(universal_dir, name, file);
    let t = ucp_telemetry::enabled().then(std::time::Instant::now);
    let mut r = device.reader(container::open(&path)?);
    let c = Container::read_from(&mut r)?;
    if let Some(t) = t {
        ucp_telemetry::observe(
            "load/atom_read_ns",
            t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        if let Ok(meta) = std::fs::metadata(&path) {
            ucp_telemetry::count("load/bytes_read", meta.len());
            ucp_telemetry::count("load/bytes_needed", meta.len());
        }
    }
    c.get(file.state_key())
        .cloned()
        .ok_or_else(|| UcpError::Inconsistent(format!("atom {name} missing {}", file.state_key())))
}

/// Per-entry phase-1 output: the fp32 shard of the whole parameter plus
/// whatever optimizer-moment data this rank's fragments need.
enum MomentData {
    /// Full-read path: sharded moment tensors, scattered by fragment.
    Full(Tensor, Tensor),
    /// Ranged path: `(chunk_offset, values)` runs, copied directly.
    Runs(Vec<(usize, Vec<f32>)>, Vec<(usize, Vec<f32>)>),
}

/// `Load`: execute `plan` against `source`. The only builder of a
/// [`RankState`], so every tier reconstructs a rank the same way.
pub(crate) fn execute_plan(plan: &LoadPlan, source: &AtomSource<'_>) -> Result<RankState> {
    let _total_span = ucp_telemetry::span("load/total");
    let chunk = plan.layout.chunk;
    let mut fp32 = vec![0.0f32; chunk];
    let mut exp_avg = vec![0.0f32; chunk];
    let mut exp_avg_sq = vec![0.0f32; chunk];

    // Phase 1 (parallel): read and slice the atoms each entry needs.
    // Per-entry busy time accumulates into `load/worker_busy_ns`;
    // utilization over the read phase is busy / (span × workers).
    let workers = match source {
        AtomSource::Disk { opts, .. } => opts.workers,
        AtomSource::Memory(_) => 1,
    };
    let read_span = ucp_telemetry::span("load/read");
    let pieces = par_map(plan.entries.len(), workers, |i| {
        let _read_sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Load, "read_entry");
        let t_busy = ucp_telemetry::enabled().then(std::time::Instant::now);
        let entry = &plan.entries[i];
        let piece = match source {
            AtomSource::Disk {
                universal,
                opts,
                cache,
            } if opts.ranged => read_entry_ranged(universal, plan, entry, opts, cache)?,
            _ => read_entry_full(plan, entry, source)?,
        };
        if let Some(t) = t_busy {
            ucp_telemetry::count(
                "load/worker_busy_ns",
                t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        Ok(piece)
    })?;
    drop(read_span);

    // Phase 2 (serial): scatter fragments into the flat chunks.
    let _scatter_span = ucp_telemetry::span("load/scatter");
    let mut model_params = Vec::with_capacity(plan.entries.len());
    for (entry, (shard_fp32, moments)) in plan.entries.iter().zip(pieces) {
        match moments {
            Some(MomentData::Full(m, v)) => {
                scatter(&mut fp32, shard_fp32.as_slice(), &entry.fragments);
                scatter(&mut exp_avg, m.flatten().as_slice(), &entry.fragments);
                scatter(&mut exp_avg_sq, v.flatten().as_slice(), &entry.fragments);
            }
            Some(MomentData::Runs(m_runs, v_runs)) => {
                scatter(&mut fp32, shard_fp32.as_slice(), &entry.fragments);
                for (off, vals) in m_runs {
                    exp_avg[off..off + vals.len()].copy_from_slice(&vals);
                }
                for (off, vals) in v_runs {
                    exp_avg_sq[off..off + vals.len()].copy_from_slice(&vals);
                }
            }
            None => {}
        }
        model_params.push((entry.name.clone(), shard_fp32));
    }

    Ok(RankState {
        layout: Arc::clone(&plan.layout),
        fp32,
        exp_avg,
        exp_avg_sq,
        model_params,
    })
}

/// Full-read strategy: take each whole atom (decoding its container, or
/// borrowing it from RAM), then slice out this rank's TP shard in memory.
fn read_entry_full(
    plan: &LoadPlan,
    entry: &LoadEntry,
    source: &AtomSource<'_>,
) -> Result<(Tensor, Option<MomentData>)> {
    // Model copy always needs the fp32 shard of every owned parameter.
    let atom_fp32 = source.atom(&entry.name, AtomFile::Fp32)?;
    if atom_fp32.shape() != &entry.full_shape {
        return Err(UcpError::Inconsistent(format!(
            "atom {} has shape {}, expected {}",
            entry.name,
            atom_fp32.shape(),
            entry.full_shape
        )));
    }
    let shard_fp32 = entry
        .partition
        .shard(&atom_fp32, plan.target.tp, plan.coord.tp);
    // Optimizer moments are only read when this rank's chunk intersects
    // the parameter.
    let moments = if entry.fragments.is_empty() {
        None
    } else {
        let shard = |file| -> Result<Tensor> {
            let atom = source.atom(&entry.name, file)?;
            Ok(entry.partition.shard(&atom, plan.target.tp, plan.coord.tp))
        };
        Some(MomentData::Full(
            shard(AtomFile::ExpAvg)?,
            shard(AtomFile::ExpAvgSq)?,
        ))
    };
    Ok((shard_fp32, moments))
}

/// Ranged strategy: fetch only the element runs the shard and fragments
/// touch, through the shared atom cache.
fn read_entry_ranged(
    universal_dir: &Path,
    plan: &LoadPlan,
    entry: &LoadEntry,
    opts: &LoadOptions,
    cache: &AtomCache,
) -> Result<(Tensor, Option<MomentData>)> {
    let segments = entry
        .partition
        .shard_segments(&entry.full_shape, plan.target.tp, plan.coord.tp);
    let shard_shape = entry
        .partition
        .shard_shape(&entry.full_shape, plan.target.tp);

    // The model copy needs the whole fp32 shard: one range per segment
    // with an on-disk source; padding segments stay zero.
    let fp32_ranges: Vec<Range<usize>> = segments
        .iter()
        .filter_map(|s| s.src_offset.map(|o| o..o + s.len))
        .collect();
    let (dtype, parts) = cache.fetch(
        universal_dir,
        &entry.name,
        AtomFile::Fp32,
        &entry.full_shape,
        &fp32_ranges,
        &opts.device,
    )?;
    let mut shard_flat = vec![0.0f32; shard_shape.num_elements()];
    let mut part = parts.into_iter();
    for seg in &segments {
        if seg.src_offset.is_some() {
            let vals = part.next().expect("one part per sourced segment");
            shard_flat[seg.shard_offset..seg.shard_offset + seg.len].copy_from_slice(&vals);
        }
    }
    let shard_fp32 = Tensor::from_vec(shard_flat, shard_shape)?.cast(dtype);

    // Moments: only the exact fragment intersections, as sparse runs.
    let moments = if entry.fragments.is_empty() {
        None
    } else {
        let runs = fragment_runs(&segments, &entry.fragments);
        let src: Vec<Range<usize>> = runs.iter().map(|(_, r)| r.clone()).collect();
        let offs: Vec<usize> = runs.iter().map(|(o, _)| *o).collect();
        let (_, m) = cache.fetch(
            universal_dir,
            &entry.name,
            AtomFile::ExpAvg,
            &entry.full_shape,
            &src,
            &opts.device,
        )?;
        let (_, v) = cache.fetch(
            universal_dir,
            &entry.name,
            AtomFile::ExpAvgSq,
            &entry.full_shape,
            &src,
            &opts.device,
        )?;
        Some(MomentData::Runs(
            offs.iter().copied().zip(m).collect(),
            offs.into_iter().zip(v).collect(),
        ))
    };
    Ok((shard_fp32, moments))
}

/// Intersect this rank's ZeRO fragments (shard-space) with the shard's
/// source segments (atom-space): each overlap with an on-disk source
/// becomes a `(chunk_offset, atom element range)` run. Padding overlaps
/// are dropped — the chunk buffers start zeroed, which is exactly what the
/// full-read path scatters there.
fn fragment_runs(
    segments: &[ShardSegment],
    fragments: &[FlatFragment],
) -> Vec<(usize, Range<usize>)> {
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
                runs.push((f.chunk_offset + (lo - fstart), s..s + (hi - lo)));
            }
        }
    }
    runs
}

/// Copy `fragments` of the flattened shard into the chunk buffer.
fn scatter(chunk: &mut [f32], shard_flat: &[f32], fragments: &[FlatFragment]) {
    for f in fragments {
        chunk[f.chunk_offset..f.chunk_offset + f.len]
            .copy_from_slice(&shard_flat[f.param_offset..f.param_offset + f.len]);
    }
}
