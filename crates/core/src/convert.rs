//! Conversion of native distributed checkpoints into the universal format —
//! the paper's Algorithm 1.
//!
//! The workflow, per pipeline stage of the source configuration:
//!
//! 1. **Extract** (parallel over checkpoint files): read each (dp, tp, pp)
//!    optimizer-states file; its flat layout says which runs of its ZeRO
//!    chunk belong to which parameter.
//! 2. **Union** (parallel over parameters): every run is scattered from
//!    the chunk buffer into its parameter's consolidated buffer according
//!    to the parameter's pattern — first copy for `replicated_params`,
//!    mean for `params_to_average`, sub-pattern-aware placement for
//!    `fragment_params` — with alignment padding dropped on the way
//!    (`StripPadding`).
//! 3. Write one atom checkpoint per parameter (one file holding the
//!    `fp32` / `exp_avg` / `exp_avg_sq` records, §3.1) plus the manifest.
//!
//! Step 2's body is [`StageAssembler`], the same one the born-universal
//! save pipeline streams into. `assemble_stages` is its feed from whole
//! chunks, written once over a `ChunkSource` (the step's optimizer files,
//! or hot-tier shards already in RAM); the offline converter and
//! [`crate::memory::MemoryCheckpoint`] differ only in the sink they finish
//! each stage's assembler with.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ucp_storage::commit::Group;
use ucp_storage::layout;

use crate::assemble::{build_manifest, commit_universal, StageAssembler};
use crate::checkpoint::{load_optim_states, read_common_state, CommonState, OptimShard};
use crate::manifest::{AtomMeta, UcpManifest};
use crate::util::par_map;
use crate::{Result, UcpError};

/// Options controlling the conversion.
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    /// Worker threads for the parallel Extract and Union phases.
    pub workers: usize,
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
    /// Wall time of the Extract phase: loading the chunks (seconds).
    pub extract_secs: f64,
    /// Wall time of the Union + write phase: absorbing the chunks and
    /// finishing each stage's atoms (seconds).
    pub union_secs: f64,
}

/// Where a stage's ZeRO chunks come from.
pub(crate) enum ChunkSource<'a> {
    /// Native optimizer-states files under a step directory.
    Files(&'a Path),
    /// Shards already in RAM (the hot tier), keyed `(tp, pp, zero index)`.
    Memory(&'a BTreeMap<(usize, usize, usize), OptimShard>),
}

impl ChunkSource<'_> {
    /// The chunk at `(zi, tp, pp)`; both sources guarantee its `dp` is
    /// `zi` (the file header is checked on load, the map is keyed by it).
    fn chunk(&self, zi: usize, tp: usize, pp: usize) -> Result<Cow<'_, OptimShard>> {
        match self {
            ChunkSource::Files(step_dir) => {
                Ok(Cow::Owned(load_optim_states(step_dir, zi, tp, pp)?.1))
            }
            ChunkSource::Memory(shards) => {
                shards.get(&(tp, pp, zi)).map(Cow::Borrowed).ok_or_else(|| {
                    UcpError::Inconsistent(format!("no shard for (tp {tp}, pp {pp}, zero {zi})"))
                })
            }
        }
    }
}

/// Algorithm 1 fed from whole chunks: for every pipeline stage of the
/// checkpoint `common` describes, load the stage's (tp, zero) chunks from
/// `source`, absorb them into a [`StageAssembler`] in ascending-TP order
/// and hand the covered assembler to `finish`, which returns the stage's
/// manifest entries and the bytes it wrote.
pub(crate) fn assemble_stages(
    common: &CommonState,
    source: &ChunkSource<'_>,
    opts: &ConvertOptions,
    mut finish: impl FnMut(StageAssembler) -> Result<(Vec<AtomMeta>, u64)>,
) -> Result<(UcpManifest, ConvertStats)> {
    let src = common.parallel;
    // ZeRO partitions over the combined dp × sp group (Ulysses composes
    // sequence parallelism into the ZeRO axis), so one optimizer chunk
    // exists per (dp, sp) replica.
    let zero = src.dp * src.sp;
    let mut stats = ConvertStats::default();
    let mut atoms: Vec<AtomMeta> = Vec::new();

    for pp in 0..src.pp {
        let t0 = Instant::now();
        let chunks = {
            let _extract_span = ucp_telemetry::span("convert/extract");
            par_map(src.tp * zero, opts.workers, |i| {
                let _sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Convert, "extract");
                source.chunk(i % zero, i / zero, pp)
            })?
        };
        stats.extract_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let first = chunks
            .first()
            .ok_or_else(|| UcpError::Inconsistent(format!("stage {pp} has no ZeRO chunks")))?;
        let mut asm = StageAssembler::new(
            common,
            pp,
            &first.layout.slots,
            opts.verify_replicas,
            opts.spec_override.as_ref(),
        )?;
        {
            let _union_span = ucp_telemetry::span("convert/union");
            let by_tp: Vec<(usize, &OptimShard)> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| (i / zero, &**c))
                .collect();
            asm.absorb_chunks(&by_tp, opts.workers)?;
        }
        let (metas, bytes) = finish(asm)?;
        stats.union_secs += t1.elapsed().as_secs_f64();
        stats.atoms_written += metas.len();
        stats.bytes_written += bytes;
        atoms.extend(metas);
    }
    Ok((build_manifest(common, atoms), stats))
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

    // Only a header is read here: every chunk, the first included, is
    // read by the extract phase's workers, side by side.
    let common = read_common_state(&step_dir)?;
    let source = ChunkSource::Files(&step_dir);
    // One group across the stages: the whole tree becomes durable in one
    // commit, staged through the same encoder as a born-universal save's.
    let atoms = Group::new(true);
    let (manifest, stats) = assemble_stages(&common, &source, opts, |mut asm| {
        let staged =
            asm.finalize_step(&universal, &atoms, opts.workers, "convert/atom_write", None)?;
        Ok((staged.metas, staged.bytes_written))
    })?;

    commit_universal(base, step, atoms, &manifest)?;
    ucp_telemetry::count("convert/atoms_written", stats.atoms_written as u64);
    ucp_telemetry::count("convert/bytes_written", stats.bytes_written);
    Ok((manifest, stats))
}
