//! Conversion of native distributed checkpoints into the universal format —
//! the paper's Algorithm 1.
//!
//! The workflow, per pipeline stage of the source configuration:
//!
//! 1. **Extract** (parallel over checkpoint files): read each (dp, tp, pp)
//!    optimizer-states file and slice its ZeRO chunk into per-parameter
//!    flat fragments (alignment padding dropped — `StripPadding`).
//! 2. **Union, phase 1** (flat): stitch each parameter's fragments across
//!    DP ranks back into the (tp, pp)-shard tensor.
//! 3. **Union, phase 2** (parallel over parameters): consolidate the TP
//!    shards according to each parameter's pattern — first copy for
//!    `replicated_params`, mean for `params_to_average`, sub-pattern-aware
//!    concatenation for `fragment_params`.
//! 4. Write one atom checkpoint per parameter (`fp32` / `exp_avg` /
//!    `exp_avg_sq` files, §3.1) plus the manifest.
//!
//! Steps 1–3 are [`consolidate`], written once over a [`ChunkSource`] (the
//! step's optimizer files, or hot-tier shards already in RAM) and an
//! [`AtomSink`] (atom files, or [`crate::memory::MemoryCheckpoint`]'s map).
//!
//! `ConvertOptions::spill_fragments` reproduces the paper's
//! memory-bounded variant where Extract persists fragment files to disk and
//! Union reads them back (Table 2 notes the memory/parallelism trade-off;
//! the ablation bench measures it).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use parking_lot::Mutex;
use ucp_model::{param_specs, ParamSpec};
use ucp_storage::commit::Group;
use ucp_storage::layout::AtomFile;
use ucp_storage::{layout, Container};
use ucp_tensor::Tensor;

use crate::assemble::{commit_universal, stage_atom};
use crate::checkpoint::{load_optim_states, CommonState, OptimShard};
use crate::language::UcpSpec;
use crate::manifest::{AtomMeta, UcpManifest};
use crate::ops::{extract_flat, strip_padding, union_flat, union_tp, Fragment};
use crate::pattern::{FragmentSpec, ParamPattern};
use crate::util::par_map;
use crate::{Result, UcpError};

/// Options controlling the conversion.
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    /// Worker threads for the parallel Extract and Union phases.
    pub workers: usize,
    /// Persist extracted fragments to disk between phases (memory-bounded
    /// mode) instead of holding them in memory.
    pub spill_fragments: bool,
    /// Verify that replicated-parameter copies are bitwise identical.
    pub verify_replicas: bool,
    /// Replace the automatically-derived pattern spec with a user-written
    /// one — the UCP-language extension point for new parallelism patterns
    /// (its rules must cover every parameter; unmatched names still fall
    /// back to the derived spec).
    pub spec_override: Option<crate::language::UcpSpec>,
}

impl Default for ConvertOptions {
    fn default() -> ConvertOptions {
        ConvertOptions {
            workers: 4,
            spill_fragments: false,
            verify_replicas: true,
            spec_override: None,
        }
    }
}

/// Timing and volume accounting of one conversion.
#[derive(Debug, Clone, Default)]
pub struct ConvertStats {
    /// Atom checkpoints written (one per parameter).
    pub atoms_written: usize,
    /// Total bytes of atom payloads written.
    pub bytes_written: u64,
    /// Wall time of the Extract phase (seconds).
    pub extract_secs: f64,
    /// Wall time of the Union + write phase (seconds).
    pub union_secs: f64,
}

/// Per-parameter consolidated state for one (tp, pp) slice: the three state
/// tensors, indexed `[fp32, exp_avg, exp_avg_sq]`.
type SliceStates = BTreeMap<String, [Tensor; 3]>;

/// Where a (tp, pp) slice's ZeRO chunks come from.
pub(crate) enum ChunkSource<'a> {
    /// Native optimizer-states files under a step directory.
    Files {
        step_dir: &'a Path,
        /// Memory-bounded mode: extracted fragments are parked under this
        /// directory between Extract and Union.
        spill: Option<&'a Path>,
        /// The (0, 0, 0) shard the caller already read for its
        /// `CommonState`, handed to whoever extracts that coordinate so no
        /// file is opened twice.
        first: Mutex<Option<OptimShard>>,
    },
    /// Shards already in RAM (the hot tier), keyed `(tp, pp, zero index)`.
    Memory(&'a BTreeMap<(usize, usize, usize), OptimShard>),
}

impl ChunkSource<'_> {
    fn chunk(&self, zi: usize, tp: usize, pp: usize) -> Result<Cow<'_, OptimShard>> {
        match self {
            ChunkSource::Files {
                step_dir, first, ..
            } => {
                if (zi, tp, pp) == (0, 0, 0) {
                    if let Some(shard) = first.lock().take() {
                        return Ok(Cow::Owned(shard));
                    }
                }
                Ok(Cow::Owned(load_optim_states(step_dir, zi, tp, pp)?.1))
            }
            ChunkSource::Memory(shards) => {
                shards.get(&(tp, pp, zi)).map(Cow::Borrowed).ok_or_else(|| {
                    UcpError::Inconsistent(format!("no shard for (tp {tp}, pp {pp}, zero {zi})"))
                })
            }
        }
    }

    /// Where the spilling file source parks one extracted fragment.
    fn spill_path(
        &self,
        name: &str,
        tp: usize,
        pp: usize,
        ki: usize,
        zi: usize,
    ) -> Option<PathBuf> {
        match self {
            ChunkSource::Files {
                spill: Some(dir), ..
            } => Some(dir.join(format!("{name}.tp{tp}.pp{pp}.k{ki}.dp{zi}.frag"))),
            _ => None,
        }
    }
}

/// Persist a fragment's payload at `path`, keeping only its identity.
fn park(path: &Path, frag: Fragment) -> Result<Fragment> {
    let mut c = Container::new(format!(r#"{{"param_offset": {}}}"#, frag.param_offset));
    let len = frag.data.len();
    c.push("frag", Tensor::from_vec(frag.data, [len])?);
    ucp_telemetry::count("convert/spill_bytes", c.encoded_len() as u64);
    c.write_file(path)?;
    Ok(Fragment {
        param_offset: frag.param_offset,
        data: Vec::new(),
    })
}

/// Read a parked fragment's payload back.
fn unpark(path: &Path, frag: Fragment) -> Result<Fragment> {
    let c = Container::read_file(path)?;
    let data = c
        .get("frag")
        .ok_or_else(|| UcpError::Inconsistent("missing frag section".into()))?
        .as_slice()
        .to_vec();
    Ok(Fragment {
        param_offset: frag.param_offset,
        data,
    })
}

/// Reassemble one (tp, pp) slice's per-parameter state tensors from its
/// ZeRO chunks (Extract + flat Union).
fn assemble_slice(
    source: &ChunkSource<'_>,
    zero: usize,
    tp: usize,
    pp: usize,
    workers: usize,
) -> Result<SliceStates> {
    // Extract phase: parallel over the slice's ZeRO chunks.
    let extract_span = ucp_telemetry::span("convert/extract");
    let extracted = par_map(zero, workers, |zi| {
        let _sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Convert, "extract");
        let shard = source.chunk(zi, tp, pp)?;
        let keys: [&[f32]; 3] = [&shard.fp32, &shard.exp_avg, &shard.exp_avg_sq];
        let mut out: Vec<(String, usize, Fragment)> = Vec::new();
        for (ki, chunk) in keys.iter().enumerate() {
            if chunk.len() != shard.layout.chunk {
                return Err(UcpError::Inconsistent(format!(
                    "(tp {tp}, pp {pp}, zero {zi}) key {ki} has {} elements, layout chunk is {}",
                    chunk.len(),
                    shard.layout.chunk
                )));
            }
            for (name, frag) in extract_flat(&shard.layout, zi, chunk) {
                let frag = match source.spill_path(&name, tp, pp, ki, zi) {
                    Some(path) => park(&path, frag)?,
                    None => frag,
                };
                out.push((name, ki, frag));
            }
        }
        // Every chunk of a slice carries the slice's flat layout; the
        // union below takes it from the first.
        Ok(((zi == 0).then(|| shard.layout.clone()), out))
    })?;
    drop(extract_span);
    if ucp_telemetry::enabled() {
        let fragments: usize = extracted.iter().map(|(_, frags)| frags.len()).sum();
        ucp_telemetry::count("convert/fragments", fragments as u64);
    }

    let _union_span = ucp_telemetry::span("convert/union_flat");
    let mut flat_layout = None;
    let mut grouped: BTreeMap<(String, usize), Vec<Fragment>> = BTreeMap::new();
    for (zi, (layout, per_chunk)) in extracted.into_iter().enumerate() {
        flat_layout = flat_layout.or(layout);
        for (name, ki, frag) in per_chunk {
            let frag = match source.spill_path(&name, tp, pp, ki, zi) {
                Some(path) => unpark(&path, frag)?,
                None => frag,
            };
            grouped.entry((name, ki)).or_default().push(frag);
        }
    }
    let flat_layout = flat_layout
        .ok_or_else(|| UcpError::Inconsistent(format!("(tp {tp}, pp {pp}) has no ZeRO chunks")))?;

    // Flat union per (param, key).
    let mut states: SliceStates = BTreeMap::new();
    for slot in &flat_layout.slots {
        let mut flat = |ki: usize| -> Result<Tensor> {
            let frags = grouped.remove(&(slot.name.clone(), ki)).ok_or_else(|| {
                UcpError::Inconsistent(format!("no fragments for {} key {ki}", slot.name))
            })?;
            Ok(Tensor::from_vec(
                union_flat(slot.len, &frags)?,
                slot.shape.clone(),
            )?)
        };
        states.insert(slot.name.clone(), [flat(0)?, flat(1)?, flat(2)?]);
    }
    Ok(states)
}

/// Where a finished `[fp32, exp_avg, exp_avg_sq]` atom goes; returns the
/// bytes it wrote.
pub(crate) type AtomSink<'a> = dyn Fn(&AtomMeta, [Tensor; 3]) -> Result<u64> + Sync + 'a;

/// Algorithm 1's body, the only consolidation in the crate: Extract → flat
/// Union → pattern-dispatched TP Union → StripPadding for every parameter
/// of the checkpoint `common` describes, chunks taken from `source`, atoms
/// handed to `sink`. The offline converter and the RAM hot tier differ
/// only in those two ends, which is what makes their atoms bitwise-equal.
pub(crate) fn consolidate(
    common: &CommonState,
    source: &ChunkSource<'_>,
    opts: &ConvertOptions,
    sink: &AtomSink<'_>,
) -> Result<(UcpManifest, ConvertStats)> {
    let src = common.parallel;
    let derived = UcpSpec::from_model(&common.model, src.tp, &common.params_to_average);
    let all_specs = param_specs(&common.model);

    let mut stats = ConvertStats::default();
    let mut atoms: Vec<AtomMeta> = Vec::new();

    for pp in 0..src.pp {
        // Extract + flat union for every TP shard of this stage.
        let t0 = Instant::now();
        let slices = par_map(src.tp, opts.workers, |tp| {
            // ZeRO partitions over the combined dp × sp group (Ulysses
            // composes sequence parallelism into the ZeRO axis), so one
            // optimizer chunk exists per (dp, sp) replica.
            assemble_slice(source, src.dp * src.sp, tp, pp, opts.workers)
        })?;
        stats.extract_secs += t0.elapsed().as_secs_f64();

        // TP union + atom sink, parallel at individual-parameter level.
        let t1 = Instant::now();
        let names: Vec<&String> = slices.first().into_iter().flat_map(|s| s.keys()).collect();
        let written = par_map(names.len(), opts.workers, |i| {
            let name = names[i];
            // User rules take precedence; the derived spec is the fallback.
            let pattern = opts
                .spec_override
                .as_ref()
                .and_then(|s| s.pattern_of(name))
                .or_else(|| derived.pattern_of(name))
                .cloned()
                .ok_or_else(|| UcpError::Inconsistent(format!("no pattern rule matches {name}")))?;
            let spec_entry = find_param(&all_specs, name)?;
            // Per-pattern union work item (the format! only runs when
            // tracing is on).
            let _union_sp = ucp_telemetry::trace::enabled().then(|| {
                ucp_telemetry::trace::span(
                    ucp_telemetry::TraceCat::Convert,
                    &format!("union:{}", pattern.paper_name()),
                )
            });
            let union_key = |ki: usize| -> Result<Tensor> {
                let _tp_span = ucp_telemetry::span("convert/union_tp");
                let shards: Vec<Tensor> = slices
                    .iter()
                    .map(|s| {
                        s.get(name).map(|t| t[ki].clone()).ok_or_else(|| {
                            UcpError::Inconsistent(format!("{name} missing in a TP slice"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let mut atom = union_tp(&pattern, &shards, opts.verify_replicas)?;
                // Algorithm 1, lines 19-20: hasPadding → StripPadding. The
                // padded-dim sub-pattern carries alignment padding past the
                // union; strip it against the logical shape.
                if matches!(
                    pattern,
                    ParamPattern::Fragment(FragmentSpec::PaddedDim { .. })
                ) {
                    let _strip_sp = ucp_telemetry::trace::span(
                        ucp_telemetry::TraceCat::Convert,
                        "strip_padding",
                    );
                    atom = strip_padding(&atom, &spec_entry.shape)?;
                }
                if atom.shape() != &spec_entry.shape {
                    return Err(UcpError::Inconsistent(format!(
                        "atom {name}: consolidated shape {} != spec shape {}",
                        atom.shape(),
                        spec_entry.shape
                    )));
                }
                Ok(atom)
            };
            let atom = [union_key(0)?, union_key(1)?, union_key(2)?];
            let meta = AtomMeta {
                name: name.clone(),
                shape: spec_entry.shape.clone(),
                pattern,
            };
            let bytes = sink(&meta, atom)?;
            Ok((meta, bytes))
        })?;
        stats.union_secs += t1.elapsed().as_secs_f64();
        for (meta, bytes) in written {
            stats.atoms_written += 1;
            stats.bytes_written += bytes;
            atoms.push(meta);
        }
    }
    Ok((crate::assemble::build_manifest(common, atoms), stats))
}

/// Convert the native distributed checkpoint at `base/global_step<step>`
/// into a universal checkpoint at `base/global_step<step>_universal`.
///
/// Returns the manifest and conversion statistics.
pub fn convert_to_universal(
    base: &Path,
    step: u64,
    opts: &ConvertOptions,
) -> Result<(UcpManifest, ConvertStats)> {
    let _total_span = ucp_telemetry::span("convert/total");
    let step_dir = layout::step_dir(base, step);
    let universal = layout::universal_dir(base, step);
    std::fs::create_dir_all(&universal)?;
    let spill_dir = opts.spill_fragments.then(|| universal.join("_extract_tmp"));
    if let Some(d) = &spill_dir {
        std::fs::create_dir_all(d)?;
    }

    // Every optimizer header carries the run's common state; the shard
    // read for it is handed on to the extract phase.
    let (common, first) = load_optim_states(&step_dir, 0, 0, 0)?;
    let source = ChunkSource::Files {
        step_dir: &step_dir,
        spill: spill_dir.as_deref(),
        first: Mutex::new(Some(first)),
    };
    // Shared with the born-universal save pipeline: both paths stage
    // atoms through the same encoder and commit them as one group, which
    // is what keeps their on-disk trees byte-identical.
    let atoms = Group::new(true);
    let (manifest, stats) = consolidate(&common, &source, opts, &|meta, atom| {
        let mut bytes = 0u64;
        for (file, tensor) in AtomFile::ALL.into_iter().zip(&atom) {
            bytes += stage_atom(
                &atoms,
                &universal,
                meta,
                file,
                tensor.dtype(),
                tensor.as_slice(),
                "convert/atom_write",
            )?;
        }
        Ok(bytes)
    })?;

    if let Some(spill) = &spill_dir {
        std::fs::remove_dir_all(spill).ok();
    }
    commit_universal(base, step, atoms, &manifest)?;
    ucp_telemetry::count("convert/atoms_written", stats.atoms_written as u64);
    ucp_telemetry::count("convert/bytes_written", stats.bytes_written);
    Ok((manifest, stats))
}

fn find_param<'a>(specs: &'a [ParamSpec], name: &str) -> Result<&'a ParamSpec> {
    specs
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| UcpError::Inconsistent(format!("unknown parameter {name}")))
}
