//! Algorithm 1 (Extract → Union → StripPadding) as a streaming library: the
//! one consolidation body in the workspace.
//!
//! A [`StageAssembler`] holds one [`ParamBuilder`] per parameter of a
//! pipeline stage and scatters every flat fragment it is fed straight into
//! the consolidated true-shape buffer through the
//! [`Partition::shard_segments`] run map. Alignment padding runs have no
//! destination (`src_offset == None`) and are dropped on the way in, so no
//! separate `StripPadding` pass is needed. `params_to_average` keeps one
//! buffer per TP rank and finishes with the same f64-accumulate-in-rank-
//! order mean as [`crate::ops::union_tp`].
//!
//! It has three feeds — the save pipeline's mesh fragments, filtered by
//! dirtiness ([`StageAssembler::absorb`]); a step's optimizer files and the
//! hot tier's shards, whole chunks borrowed where they lie
//! ([`StageAssembler::absorb_chunks`], driven by
//! [`crate::convert::assemble_stages`]) — and two sinks: atom files staged
//! into the caller's [`Group`] ([`StageAssembler::finalize_step`]) or the
//! buffers themselves ([`StageAssembler::into_tensors`]). Every producer
//! moves the same f32 values through [`ParamBuilder::apply`] and encodes
//! them through [`stage_atom`], which is what makes their trees
//! byte-identical. [`crate::ops`] keeps Table 2's operators by name;
//! composed naively they are the oracle the tests hold this module to.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

use parking_lot::Mutex;
use ucp_model::{param_specs, LayerRole, Partition, ShardSegment};
use ucp_parallel::{FlatFragment, ParamSlot};
use ucp_storage::commit::Group;
use ucp_storage::container::{self, SectionRef};
use ucp_storage::layout::{self, AtomFile};
use ucp_tensor::{DType, Shape, Tensor};

use crate::checkpoint::{CommonState, OptimShard};
use crate::language::UcpSpec;
use crate::manifest::{AtomMeta, UcpManifest};
use crate::ops::Fragment;
use crate::pattern::{FragmentSpec, ParamPattern};
use crate::util::par_map;
use crate::{Result, UcpError};

/// Serialize one atom file at `path` — a header and one section per state
/// in `states` — into `atoms`, the group its step commits as one. This is
/// the only encoder of atom files: the offline converter, the adapters and
/// the save pipeline all stage through it, which is what makes their
/// on-disk trees byte-identical. `meta` describes what the file holds: a
/// whole parameter, or one sub-atom of a split one (the parameter's name
/// and pattern, the part's shape). Each state's values are borrowed from
/// wherever the consolidated ones live. Returns the encoded size; the
/// staging latency is recorded under `span_path`.
pub fn stage_atom(
    atoms: &Group,
    path: &Path,
    meta: &AtomMeta,
    states: &[(AtomFile, DType, &[f32])],
    span_path: &str,
) -> Result<u64> {
    let header = serde_json::to_string(meta)?;
    let sections: Vec<SectionRef<'_>> = states
        .iter()
        .map(|&(state, dtype, data)| SectionRef {
            name: state.state_key(),
            dtype,
            dims: meta.shape.dims(),
            data,
        })
        .collect();
    let _sp = ucp_telemetry::span(span_path);
    container::stage_file(atoms, path, &header, &sections)?;
    Ok(container::encoded_len(&header, &sections) as u64)
}

/// [`stage_atom`] and commit of a lone atom file holding the one state
/// `file`, durable when this returns: the smallest atom write there is,
/// which is what a write probe times. A tree's atoms hold all three
/// states and commit as their step's group
/// ([`StageAssembler::finalize_step`]).
pub fn write_atom_file(
    universal_dir: &Path,
    name: &str,
    pattern: &ParamPattern,
    file: AtomFile,
    atom: Tensor,
    span_path: &str,
) -> Result<u64> {
    let meta = AtomMeta {
        name: name.to_string(),
        shape: atom.shape().clone(),
        pattern: pattern.clone(),
        parts: None,
    };
    let group = Group::new(true);
    let bytes = stage_atom(
        &group,
        &layout::atom_path(universal_dir, name, file),
        &meta,
        &[(file, atom.dtype(), atom.as_slice())],
        span_path,
    )?;
    group.commit()?;
    Ok(bytes)
}

/// Assemble the universal manifest from per-stage atom metadata, sorted
/// by name (a pipeline-shared parameter is listed by its one owning
/// stage; a duplicate name keeps one entry).
pub fn build_manifest(common: &CommonState, mut atoms: Vec<AtomMeta>) -> UcpManifest {
    atoms.sort_by(|a, b| a.name.cmp(&b.name));
    atoms.dedup_by(|a, b| a.name == b.name);
    UcpManifest {
        version: UcpManifest::VERSION,
        iteration: common.iteration,
        seed: common.seed,
        data_cursor: common.data_cursor,
        adam_step: common.adam_step,
        model: common.model.clone(),
        source_label: common.parallel.label(),
        params: atoms,
    }
}

/// Publish the universal checkpoint whose atom files are staged in
/// `atoms` under `base/global_step<step>_universal`: commit the atoms,
/// then the manifest, then the `latest_universal` marker, then the
/// `UniversalPublished` journal record. The one commit tail of every
/// offline producer (the converter and the cross-framework adapters); a
/// crash anywhere in it leaves at worst an unreferenced universal dir,
/// never a manifest naming an atom that is not durable or a marker naming
/// a half-written tree.
pub fn commit_universal(
    base: &Path,
    step: u64,
    atoms: Group,
    manifest: &UcpManifest,
) -> Result<()> {
    atoms.commit()?;
    manifest.save(&layout::universal_dir(base, step))?;
    layout::write_latest_universal(base, step)?;
    ucp_storage::journal::append(
        base,
        &ucp_storage::JournalEvent::UniversalPublished { step },
    )?;
    Ok(())
}

/// The atoms one pipeline stage produced: manifest entries plus volume
/// accounting (the publisher merges these across stages). Manifest entries
/// cover *every* parameter the stage owns — skipped (clean) atoms are
/// published as hard links to the prior universal step's files and appear
/// in the manifest exactly like rewritten ones. The counts are of atoms as
/// stored: a split parameter is one manifest entry and `parts` atoms.
#[derive(Debug, Clone)]
pub struct StageAtoms {
    /// Manifest entries for the parameters this stage published.
    pub metas: Vec<AtomMeta>,
    /// Atoms written, one file each: one per rewritten unsplit parameter,
    /// one per rewritten sub-atom of a split one.
    pub atoms_written: usize,
    /// Clean atoms reused from the prior step via hard links.
    pub atoms_skipped: usize,
    /// Total bytes of atom payloads written.
    pub bytes_written: u64,
    /// Bytes of atom payloads reused via hard links (not rewritten).
    pub bytes_linked: u64,
}

/// Per-state-key accumulation strategy, chosen by the parameter pattern.
enum KeyAcc {
    /// `fragment_params`: scatter fragments into the consolidated buffer
    /// through the shard-segment run map (padding runs dropped).
    Scatter(Vec<f32>),
    /// `unique_params` / `replicated_params`: the tp-0 copy is the value;
    /// later TP ranks are verified against it.
    Replicate(Vec<f32>),
    /// `params_to_average`: one full buffer per TP rank, averaged at
    /// finalize with the exact `union_tp` arithmetic.
    Average(Vec<Vec<f32>>),
}

impl KeyAcc {
    /// The consolidated buffer, borrowed from the accumulator the
    /// assembler keeps across save steps. Only `Average` has to
    /// materialize anything: its mean reproduces `union_tp` exactly — f64
    /// accumulation in TP-rank order, divide, cast.
    fn state(&self) -> Cow<'_, [f32]> {
        match self {
            KeyAcc::Scatter(buf) | KeyAcc::Replicate(buf) => Cow::Borrowed(buf),
            KeyAcc::Average(bufs) => {
                let n = bufs.len() as f64;
                let mut acc = vec![0.0f64; bufs[0].len()];
                for buf in bufs {
                    for (a, v) in acc.iter_mut().zip(buf) {
                        *a += f64::from(*v);
                    }
                }
                Cow::Owned(acc.into_iter().map(|v| (v / n) as f32).collect())
            }
        }
    }

    /// The consolidated buffer, moved out.
    fn into_state(self) -> Vec<f32> {
        match self {
            KeyAcc::Scatter(buf) | KeyAcc::Replicate(buf) => buf,
            average => average.state().into_owned(),
        }
    }
}

struct ParamBuilder {
    /// True consolidated shape (padding already absent).
    shape: Shape,
    pattern: ParamPattern,
    /// Sub-atoms the parameter is stored as
    /// ([`ucp_model::ParamSpec::blocks`]): equal slices of the leading
    /// dimension, each `part_len` consecutive elements of a consolidated
    /// buffer. 1 = one atom.
    parts: usize,
    part_len: usize,
    /// Owned by a different pipeline stage (a tied embedding belongs to the
    /// last stage): absorbed for completeness accounting, never published.
    skip: bool,
    /// Per-TP-rank shard shape the pattern implies (alignment padding
    /// included) and its element count.
    shard_shape: Shape,
    shard_len: usize,
    /// Per-TP-rank run maps into the consolidated buffer (`Scatter` only).
    segments: Vec<Vec<ShardSegment>>,
    keys: [KeyAcc; 3],
    /// Elements received per `[key][tp]` *this step*; a not-yet-complete
    /// builder is complete at `shard_len` each.
    got: [Vec<usize>; 3],
    /// Per sub-atom: a fragment landed in it since the last `begin_step`.
    touched: Vec<bool>,
    /// The consolidated buffers held a full image at some finalize — from
    /// then on, steps may patch partially (dirty fragments only) and an
    /// untouched sub-atom can reuse its previously published file.
    complete: bool,
    /// Encoded size of one (sub-)atom's file, known once one has been
    /// staged: every part has the same header and dimensions. What a hard
    /// link is accounted as, without a `stat` per linked file.
    atom_bytes: OnceLock<u64>,
}

impl ParamBuilder {
    fn new(
        shape: Shape,
        pattern: ParamPattern,
        skip: bool,
        tp: usize,
        parts: usize,
    ) -> Result<ParamBuilder> {
        let numel = shape.num_elements();
        if parts == 0 || shape.dims().first().is_none_or(|d| d % parts != 0) {
            return Err(UcpError::Inconsistent(format!(
                "shape {shape} does not split into {parts} leading-dimension blocks"
            )));
        }
        type MkAcc = fn(usize, usize) -> KeyAcc;
        let replicate: MkAcc = |n, _| KeyAcc::Replicate(vec![0.0; n]);
        let (shard_shape, segments, mk): (Shape, Vec<Vec<ShardSegment>>, MkAcc) = match &pattern {
            ParamPattern::Unique => {
                if tp != 1 {
                    return Err(UcpError::Inconsistent(format!(
                        "unique_params with {tp} shards"
                    )));
                }
                (shape.clone(), Vec::new(), replicate)
            }
            ParamPattern::Replicated => (shape.clone(), Vec::new(), replicate),
            ParamPattern::ToAverage => (shape.clone(), Vec::new(), |n, tp| {
                KeyAcc::Average((0..tp).map(|_| vec![0.0; n]).collect())
            }),
            ParamPattern::Fragment(spec) => {
                let partition = match spec {
                    FragmentSpec::Dim { dim } => Partition::Shard { dim: *dim },
                    FragmentSpec::PaddedDim { dim, multiple } => Partition::PaddedShard {
                        dim: *dim,
                        multiple: *multiple,
                    },
                    FragmentSpec::Grouped { dim, sections } => Partition::Grouped {
                        dim: *dim,
                        sections: sections.clone(),
                    },
                    FragmentSpec::Flat1D => {
                        return Err(UcpError::Inconsistent(
                            "flat fragments must go through union_flat".into(),
                        ))
                    }
                };
                let segments = (0..tp)
                    .map(|r| partition.shard_segments(&shape, tp, r))
                    .collect();
                (partition.shard_shape(&shape, tp), segments, |n, _| {
                    KeyAcc::Scatter(vec![0.0; n])
                })
            }
        };
        Ok(ParamBuilder {
            shape,
            pattern,
            parts,
            part_len: numel / parts,
            skip,
            shard_len: shard_shape.num_elements(),
            shard_shape,
            segments,
            keys: [mk(numel, tp), mk(numel, tp), mk(numel, tp)],
            got: [vec![0; tp], vec![0; tp], vec![0; tp]],
            touched: vec![false; parts],
            complete: false,
            atom_bytes: OnceLock::new(),
        })
    }

    /// The parameter's manifest entry.
    fn meta(&self, name: &str) -> AtomMeta {
        AtomMeta {
            name: name.to_string(),
            shape: self.shape.clone(),
            pattern: self.pattern.clone(),
            parts: (self.parts > 1).then_some(self.parts),
        }
    }

    /// Mark the sub-atoms the consolidated elements `dst` lie in.
    fn touch(touched: &mut [bool], part_len: usize, dst: Range<usize>) {
        if !dst.is_empty() {
            touched[dst.start / part_len..=(dst.end - 1) / part_len].fill(true);
        }
    }

    /// A flat-layout slot comes from a file header or a peer, and the
    /// builder sees only flat data: a slot that disagrees with the shard
    /// the pattern implies (a rule naming the wrong dim, a doctored
    /// length) would scatter through the wrong run map without a trace.
    fn check_slot(&self, slot: &ParamSlot) -> Result<()> {
        if slot.shape != self.shard_shape || slot.len != self.shard_len {
            return Err(UcpError::Inconsistent(format!(
                "atom {}: layout slot has shape {} and {} elements, {} implies shard shape {} \
                 ({} elements)",
                slot.name,
                slot.shape,
                slot.len,
                self.pattern.paper_name(),
                self.shard_shape,
                self.shard_len
            )));
        }
        Ok(())
    }

    /// The single place a fragment — `data`, at `param_offset` of TP rank
    /// `tp`'s flattened shard — meets a consolidated buffer.
    fn apply(
        &mut self,
        ki: usize,
        tp: usize,
        param_offset: usize,
        data: &[f32],
        verify: bool,
    ) -> Result<()> {
        let end = param_offset + data.len();
        if end > self.shard_len {
            return Err(UcpError::Inconsistent(format!(
                "fragment ends at {end}, shard has {} elements",
                self.shard_len
            )));
        }
        let mut touch = |dst| Self::touch(&mut self.touched, self.part_len, dst);
        match &mut self.keys[ki] {
            KeyAcc::Scatter(buf) => {
                scatter_segments(&self.segments[tp], param_offset, data, buf, touch)
            }
            KeyAcc::Replicate(buf) => {
                if tp == 0 {
                    buf[param_offset..end].copy_from_slice(data);
                    touch(param_offset..end);
                } else if verify {
                    for (i, (a, b)) in buf[param_offset..end].iter().zip(data).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            return Err(UcpError::Inconsistent(format!(
                                "replicated_params copies diverge (rank 0 vs rank {tp}) \
                                 at element {}",
                                param_offset + i
                            )));
                        }
                    }
                }
            }
            KeyAcc::Average(bufs) => {
                bufs[tp][param_offset..end].copy_from_slice(data);
                touch(param_offset..end);
            }
        }
        self.got[ki][tp] += data.len();
        Ok(())
    }
}

/// Copy a flat shard fragment into the consolidated buffer through the
/// shard's run map, reporting each destination range to `landed`. Runs are
/// ascending in shard offset; padding runs (`src_offset == None`) have no
/// bytes in the consolidated tensor.
fn scatter_segments(
    segments: &[ShardSegment],
    fs: usize,
    data: &[f32],
    buf: &mut [f32],
    mut landed: impl FnMut(Range<usize>),
) {
    let fe = fs + data.len();
    for seg in segments {
        let ss = seg.shard_offset;
        let se = ss + seg.len;
        if se <= fs {
            continue;
        }
        if ss >= fe {
            break;
        }
        let lo = fs.max(ss);
        let hi = fe.min(se);
        if let Some(src) = seg.src_offset {
            let dst = src + (lo - ss);
            buf[dst..dst + (hi - lo)].copy_from_slice(&data[lo - fs..hi - fs]);
            landed(dst..dst + (hi - lo));
        }
    }
}

/// Incremental consolidation of one pipeline stage's parameters into
/// universal atoms, reusable across consecutive save steps.
///
/// Feed it every `(tp, zero-index)` contribution of the stage — in
/// ascending TP order, because replicated parameters verify later copies
/// against the tp-0 one — then finish with
/// [`StageAssembler::finalize_step`] or [`StageAssembler::into_tensors`].
///
/// For per-iteration cadence the assembler persists across saves: call
/// [`StageAssembler::begin_step`], absorb only the *dirty* fragments (the
/// consolidated buffers retain last step's image, so partial contributions
/// patch it), then [`StageAssembler::finalize_step`]. An atom that
/// received no fragments at all is clean; its file is published as a hard
/// link to the previous universal step's instead of being rewritten, so
/// save bytes scale with what actually changed. A parameter whose spec has
/// [`ucp_model::ParamSpec::blocks`] > 1 (a MoE expert weight) is stored as
/// that many sub-atoms — one file each, like any atom — each clean or
/// rewritten on its own: a step that routed tokens to three experts
/// rewrites three files.
pub struct StageAssembler {
    tp_degree: usize,
    verify_replicas: bool,
    last_tp: usize,
    params: BTreeMap<String, ParamBuilder>,
}

impl StageAssembler {
    /// Set up builders for every parameter of stage `pp` from `slots`, the
    /// stage's flat layout. Each pattern is the user rule in
    /// `spec_override` if one matches, else the one derived from the
    /// model; each slot must be the shard that pattern implies.
    pub fn new(
        common: &CommonState,
        pp: usize,
        slots: &[ParamSlot],
        verify_replicas: bool,
        spec_override: Option<&UcpSpec>,
    ) -> Result<StageAssembler> {
        let parallel = common.parallel;
        let derived = UcpSpec::from_model(&common.model, parallel.tp, &common.params_to_average);
        let all_specs = param_specs(&common.model);
        let mut builders = BTreeMap::new();
        for slot in slots {
            let name = &slot.name;
            let pattern = spec_override
                .and_then(|s| s.pattern_of(name))
                .or_else(|| derived.pattern_of(name))
                .cloned()
                .ok_or_else(|| UcpError::Inconsistent(format!("no pattern rule matches {name}")))?;
            let spec = all_specs
                .iter()
                .find(|s| &s.name == name)
                .ok_or_else(|| UcpError::Inconsistent(format!("unknown parameter {name}")))?;
            // A tied embedding is assembled on both pipeline-end stages;
            // only the last one publishes it, so its atom is written once
            // and two stages' assemblers never race on one atom path.
            let skip = matches!(spec.role, LayerRole::SharedEmbedding)
                && parallel.pp > 1
                && pp + 1 != parallel.pp;
            let builder =
                ParamBuilder::new(spec.shape.clone(), pattern, skip, parallel.tp, spec.blocks)?;
            builder.check_slot(slot)?;
            builders.insert(name.clone(), builder);
        }
        Ok(StageAssembler {
            tp_degree: parallel.tp,
            verify_replicas,
            last_tp: 0,
            params: builders,
        })
    }

    /// Start assembling the next save step: resets the per-step coverage
    /// accounting and the ascending-TP cursor while keeping the
    /// consolidated buffers (last step's image) so dirty fragments can
    /// patch them in place.
    pub fn begin_step(&mut self) {
        self.last_tp = 0;
        for b in self.params.values_mut() {
            b.touched.fill(false);
            for per_tp in &mut b.got {
                per_tp.iter_mut().for_each(|g| *g = 0);
            }
        }
    }

    /// Advance the ascending-TP cursor to a contribution from `tp`.
    fn admit(&mut self, tp: usize) -> Result<()> {
        if tp >= self.tp_degree {
            return Err(UcpError::Inconsistent(format!(
                "contribution from tp {tp}, stage has {} TP ranks",
                self.tp_degree
            )));
        }
        if tp < self.last_tp {
            return Err(UcpError::Inconsistent(format!(
                "contribution from tp {tp} after tp {}: replicated verification \
                 requires ascending TP order",
                self.last_tp
            )));
        }
        self.last_tp = tp;
        Ok(())
    }

    /// Absorb one rank's extracted flat fragments: `fragments` are
    /// `(param name, state key index, fragment)` from that rank's ZeRO
    /// chunk of TP slice `tp`. Contributions must arrive in ascending
    /// `tp` order.
    pub fn absorb(&mut self, tp: usize, fragments: Vec<(String, usize, Fragment)>) -> Result<()> {
        self.admit(tp)?;
        for (name, ki, frag) in fragments {
            let b = self
                .params
                .get_mut(&name)
                .ok_or_else(|| UcpError::Inconsistent(format!("fragment for unknown {name}")))?;
            b.apply(ki, tp, frag.param_offset, &frag.data, self.verify_replicas)?;
        }
        Ok(())
    }

    /// Absorb whole ZeRO chunks — `(tp, chunk)` pairs in ascending TP
    /// order, each contributing the fragments its `dp` index owns —
    /// straight from the chunk buffers. The builders are independent, so
    /// the work fans out over parameters on up to `workers` threads, each
    /// parameter walking the chunks in the order given.
    pub fn absorb_chunks(&mut self, chunks: &[(usize, &OptimShard)], workers: usize) -> Result<()> {
        // Plan: which runs of which chunk belong to which parameter. Every
        // chunk's header is checked here, before any value moves.
        let mut work: BTreeMap<&str, Vec<(usize, FlatFragment)>> = BTreeMap::new();
        for (ci, &(tp, shard)) in chunks.iter().enumerate() {
            self.admit(tp)?;
            let flat = &shard.layout;
            let keys = shard.keys();
            if flat.chunk == 0 || keys.iter().any(|k| k.len() != flat.chunk) {
                return Err(UcpError::Inconsistent(format!(
                    "(tp {tp}, zero {}) chunk keys have {:?} elements, layout chunk is {}",
                    shard.dp,
                    keys.map(<[f32]>::len),
                    flat.chunk
                )));
            }
            for slot in &flat.slots {
                self.params
                    .get(&slot.name)
                    .ok_or_else(|| {
                        UcpError::Inconsistent(format!("fragment for unknown {}", slot.name))
                    })?
                    .check_slot(slot)?;
                let mine = flat.fragments_of(slot);
                work.entry(&slot.name).or_default().extend(
                    mine.into_iter()
                        .filter(|f| f.dp_rank == shard.dp)
                        .map(|f| (ci, f)),
                );
            }
        }
        if ucp_telemetry::enabled() {
            let fragments: usize = work.values().map(Vec::len).sum();
            ucp_telemetry::count("convert/fragments", 3 * fragments as u64);
        }
        let verify = self.verify_replicas;
        // One uncontended lock per job: each index is taken by one worker.
        let jobs: Vec<_> = self
            .params
            .iter_mut()
            .filter_map(|(name, b)| Some(Mutex::new((b, work.remove(name.as_str())?))))
            .collect();
        par_map(jobs.len(), workers, |i| {
            let mut job = jobs[i].lock();
            let (b, runs) = &mut *job;
            for &(ci, f) in runs.iter() {
                let (tp, shard) = chunks[ci];
                let run = f.chunk_offset..f.chunk_offset + f.len;
                for (ki, key) in shard.keys().into_iter().enumerate() {
                    b.apply(ki, tp, f.param_offset, &key[run.clone()], verify)?;
                }
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Coverage rules: a parameter that has never been complete must be
    /// fully covered this step (first save sends everything); once
    /// complete, any partial patch keeps it complete.
    fn check_coverage(&self) -> Result<()> {
        for (name, b) in &self.params {
            if b.complete {
                continue;
            }
            for (ki, per_tp) in b.got.iter().enumerate() {
                for (tp, &got) in per_tp.iter().enumerate() {
                    if got != b.shard_len {
                        return Err(UcpError::Inconsistent(format!(
                            "atom {name} key {ki}: tp {tp} contributed {got} of {} elements",
                            b.shard_len
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Verify coverage, then stage this step's atoms under
    /// `universal_dir` into `atoms`: touched (sub-)atoms are rewritten from
    /// the patched consolidated buffers; clean ones (complete from an
    /// earlier step, no fragments this step) are hard linked from
    /// `link_from` — the previous universal step's directory — instead of
    /// being rewritten. Skipped (other-stage-owned) parameters are
    /// accounted but never published. The workers (parallel over
    /// parameters, staging latency under `span_path`) only stage; nothing
    /// is visible or durable until the caller commits `atoms`, and a
    /// caller whose commit fails must drop the assembler rather than
    /// patch it further (its `link_from` image would be missing this step).
    pub fn finalize_step(
        &mut self,
        universal_dir: &Path,
        atoms: &Group,
        workers: usize,
        span_path: &str,
        link_from: Option<&Path>,
    ) -> Result<StageAtoms> {
        self.check_coverage()?;
        let entries: Vec<(&String, &ParamBuilder)> =
            self.params.iter().filter(|(_, b)| !b.skip).collect();
        let published = par_map(entries.len(), workers, |i| {
            let (name, b) = entries[i];
            let mut out = StageAtoms {
                metas: vec![b.meta(name)],
                atoms_written: 0,
                atoms_skipped: 0,
                bytes_written: 0,
                bytes_linked: 0,
            };
            // Clean atom with a prior image on disk: reuse it. (Defensive:
            // if no prior directory was supplied, fall back to rewriting —
            // the retained buffers hold the same bits.)
            let prev = link_from.filter(|_| b.complete);
            let clean = |part: usize| prev.filter(|_| !b.touched[part]);
            // What a part's file holds: the parameter itself, or its slice
            // of the leading dimension.
            let split = b.parts > 1;
            let part_meta = AtomMeta {
                shape: b.shape.with_dim(0, b.shape.dims()[0] / b.parts),
                parts: None,
                ..out.metas[0].clone()
            };
            let states = (0..b.parts)
                .any(|part| clean(part).is_none())
                .then(|| b.keys.each_ref().map(KeyAcc::state));
            for part in 0..b.parts {
                // One file whatever the state, in a tree written today.
                let id = split.then_some(part);
                let file =
                    |dir| layout::atom_file(dir, layout::TREE_VERSION, name, id, AtomFile::Fp32);
                if let Some(prev) = clean(part) {
                    let _sp = ucp_telemetry::span("save/atom_link");
                    atoms.link(&file(prev), &file(universal_dir))?;
                    out.atoms_skipped += 1;
                    out.bytes_linked += b.atom_bytes.get().copied().unwrap_or(0);
                    continue;
                }
                let states = states.as_ref().expect("a rewritten part has its states");
                let sections = AtomFile::ALL.map(|state| {
                    let values = &states[state as usize][part * b.part_len..][..b.part_len];
                    (state, DType::F32, values)
                });
                let bytes = stage_atom(
                    atoms,
                    &file(universal_dir),
                    &part_meta,
                    &sections,
                    span_path,
                )?;
                b.atom_bytes.get_or_init(|| bytes);
                out.atoms_written += 1;
                out.bytes_written += bytes;
            }
            Ok(out)
        })?;
        // Every parameter now has a full image in the buffers: later
        // steps may patch partially.
        for b in self.params.values_mut() {
            b.complete = true;
        }
        let mut out = StageAtoms {
            metas: Vec::with_capacity(published.len()),
            atoms_written: 0,
            atoms_skipped: 0,
            bytes_written: 0,
            bytes_linked: 0,
        };
        for param in published {
            out.metas.extend(param.metas);
            out.atoms_written += param.atoms_written;
            out.atoms_skipped += param.atoms_skipped;
            out.bytes_written += param.bytes_written;
            out.bytes_linked += param.bytes_linked;
        }
        Ok(out)
    }

    /// Verify coverage, then hand the consolidated buffers over as
    /// in-memory atoms `[fp32, exp_avg, exp_avg_sq]` — moved, not cloned —
    /// for every parameter this stage owns. Whole tensors: the sub-atom
    /// split is a property of the on-disk tree.
    pub fn into_tensors(self) -> Result<Vec<(AtomMeta, [Tensor; 3])>> {
        self.check_coverage()?;
        let mut out = Vec::new();
        for (name, b) in self.params {
            if b.skip {
                continue;
            }
            let [w, m, v] = b
                .keys
                .map(|key| Tensor::from_vec(key.into_state(), b.shape.clone()));
            let meta = AtomMeta {
                name,
                shape: b.shape,
                pattern: b.pattern,
                parts: None,
            };
            out.push((meta, [w?, m?, v?]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{extract_flat, strip_padding, union_tp};
    use std::path::PathBuf;
    use ucp_model::ModelConfig;
    use ucp_parallel::{FlatLayout, ParallelConfig, ZeroStage};
    use ucp_storage::Container;
    use ucp_tensor::DetRng;

    fn common(parallel: ParallelConfig) -> CommonState {
        CommonState {
            iteration: 6,
            seed: 17,
            data_cursor: 48,
            adam_step: 6,
            model: ModelConfig::gpt3_tiny(),
            parallel,
            params_to_average: vec![],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ucp_assemble_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The flat-layout slots a rank of `c` holds for `names`.
    fn slots_of(c: &CommonState, names: &[&str]) -> Vec<ParamSlot> {
        let specs = param_specs(&c.model);
        let shapes: Vec<(String, Shape)> = names
            .iter()
            .map(|n| {
                let s = specs.iter().find(|s| s.name == *n).unwrap();
                let shard = s.partition.shard_shape(&s.shape, c.parallel.tp);
                (s.name.clone(), shard)
            })
            .collect();
        FlatLayout::build(&shapes, 1, 1).slots
    }

    /// Each parameter's TP shards, by name.
    type TpShards = BTreeMap<String, Vec<Tensor>>;

    /// One stage's `(tp, chunk)` pairs as training ranks would snapshot
    /// them — every gpt3-tiny parameter drawn at random, sharded `tp`
    /// ways, flattened ZeRO-style over `zero` ranks, the Adam moments 0.5×
    /// and 0.25× the master — plus each parameter's TP shards.
    fn stage_chunks(c: &CommonState, zero: usize) -> (Vec<(usize, OptimShard)>, TpShards) {
        let rng = DetRng::new(5);
        let mut chunks = Vec::new();
        let mut shards_by_name = TpShards::new();
        for r in 0..c.parallel.tp {
            let sharded: Vec<(String, Tensor)> = param_specs(&c.model)
                .iter()
                .map(|s| {
                    let full = Tensor::randn(s.shape.clone(), 1.0, &rng.derive(&s.name));
                    (s.name.clone(), s.partition.shard(&full, c.parallel.tp, r))
                })
                .collect();
            let shapes: Vec<(String, Shape)> = sharded
                .iter()
                .map(|(n, t)| (n.clone(), t.shape().clone()))
                .collect();
            let layout = FlatLayout::build(&shapes, 8, zero);
            let flat = layout.flatten(|name| {
                sharded
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, t)| t)
                    .expect("all stage params sharded")
            });
            for (n, t) in sharded {
                shards_by_name.entry(n).or_default().push(t);
            }
            for zi in 0..zero {
                let fp32 = flat[layout.rank_range(zi)].to_vec();
                let shard = OptimShard {
                    dp: zi,
                    layout: layout.clone(),
                    exp_avg: fp32.iter().map(|v| v * 0.5).collect(),
                    exp_avg_sq: fp32.iter().map(|v| v * 0.25).collect(),
                    fp32,
                };
                chunks.push((r, shard));
            }
        }
        (chunks, shards_by_name)
    }

    fn by_ref(chunks: &[(usize, OptimShard)]) -> Vec<(usize, &OptimShard)> {
        chunks.iter().map(|(tp, s)| (*tp, s)).collect()
    }

    /// `extract_flat` every key of `shard`: the owned-fragments feed.
    fn fragments_of(shard: &OptimShard) -> Vec<(String, usize, Fragment)> {
        let mut out = Vec::new();
        for (ki, key) in shard.keys().into_iter().enumerate() {
            for (name, frag) in extract_flat(&shard.layout, shard.dp, key) {
                out.push((name, ki, frag));
            }
        }
        out
    }

    /// Feed a full TP×ZeRO fan-out of gpt3-tiny through both feeds and
    /// both sinks and check every atom bitwise against the offline union.
    #[test]
    fn assembled_atoms_match_offline_union_bitwise() {
        let tp = 2;
        let c = common(ParallelConfig::new(tp, 1, 2, 1, ZeroStage::Zero1));
        let (chunks, shards_by_name) = stage_chunks(&c, 2);
        let slots = &chunks[0].1.layout.slots;

        // Owned fragments in, atom files out.
        let dir = tmp("bitwise");
        let mut asm = StageAssembler::new(&c, 0, slots, true, None).unwrap();
        for (r, shard) in &chunks {
            asm.absorb(*r, fragments_of(shard)).unwrap();
        }
        let group = Group::new(true);
        let stage = asm
            .finalize_step(&dir, &group, 2, "save/atom_write", None)
            .unwrap();
        group.commit().unwrap();
        assert_eq!(stage.atoms_written, slots.len());
        assert!(stage.bytes_written > 0);

        // Borrowed chunks in, tensors out.
        let mut asm = StageAssembler::new(&c, 0, slots, true, None).unwrap();
        asm.absorb_chunks(&by_ref(&chunks), 2).unwrap();
        let in_memory: BTreeMap<String, [Tensor; 3]> = asm
            .into_tensors()
            .unwrap()
            .into_iter()
            .map(|(meta, atom)| (meta.name, atom))
            .collect();
        assert_eq!(in_memory.len(), slots.len());

        let derived = UcpSpec::from_model(&c.model, tp, &[]);
        for spec in &param_specs(&c.model) {
            let pattern = derived.pattern_of(&spec.name).unwrap();
            for (ki, (file, scale)) in AtomFile::ALL
                .into_iter()
                .zip([1.0f32, 0.5, 0.25])
                .enumerate()
            {
                let shards: Vec<Tensor> = shards_by_name[&spec.name]
                    .iter()
                    .map(|t| {
                        let data = t.as_slice().iter().map(|v| v * scale).collect();
                        Tensor::from_vec(data, t.shape().clone()).unwrap()
                    })
                    .collect();
                let mut expect = union_tp(pattern, &shards, true).unwrap();
                if matches!(
                    pattern,
                    ParamPattern::Fragment(FragmentSpec::PaddedDim { .. })
                ) {
                    expect = strip_padding(&expect, &spec.shape).unwrap();
                }
                let atom =
                    Container::read_file(&layout::atom_path(&dir, &spec.name, file)).unwrap();
                assert_eq!(atom.sections.len(), 3, "an atom holds all three states");
                assert!(
                    atom.get(file.state_key()).unwrap().bitwise_eq(&expect),
                    "{} key {ki}: files diverge from offline union",
                    spec.name
                );
                assert!(
                    in_memory[&spec.name][ki].bitwise_eq(&expect),
                    "{} key {ki}: tensors diverge from offline union",
                    spec.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rule naming the wrong fragment dim describes a shard with the
    /// same element count, so only the slot's shape can expose it: when
    /// the assembler is built from a contribution's slots (the fragment
    /// feed) and for every later chunk's own header (the chunk feed).
    #[test]
    fn wrong_dim_rule_is_a_shape_error_through_both_feeds() {
        let c = common(ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1));
        let (mut chunks, _) = stage_chunks(&c, 1);
        let slots = chunks[0].1.layout.slots.clone();
        // Truly sharded along dim 1; claim dim 0.
        let bad_rule = crate::language::UcpSpecBuilder::new()
            .rule(
                "layers.*.attention.dense.weight",
                ParamPattern::Fragment(FragmentSpec::Dim { dim: 0 }),
            )
            .build();
        let err = StageAssembler::new(&c, 0, &slots, true, Some(&bad_rule))
            .err()
            .expect("misdescribed sharding must be refused");
        assert!(matches!(err, UcpError::Inconsistent(_)), "{err}");
        assert!(err.to_string().contains("shape"), "{err}");

        // The derived rules, but tp 1's header claims the dim-0 shard.
        let slot = chunks[1]
            .1
            .layout
            .slots
            .iter_mut()
            .find(|s| s.name.ends_with("attention.dense.weight"))
            .unwrap();
        let dims = slot.shape.dims().to_vec();
        slot.shape = Shape::new([dims[0] / 2, dims[1] * 2]);
        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        let err = asm.absorb_chunks(&by_ref(&chunks), 2).unwrap_err();
        assert!(matches!(err, UcpError::Inconsistent(_)), "{err}");
        assert!(err.to_string().contains("shape"), "{err}");
    }

    #[test]
    fn doctored_slot_len_and_wrong_length_chunk_are_refused() {
        let c = common(ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1));
        let (mut chunks, _) = stage_chunks(&c, 2);
        let mut slots = chunks[0].1.layout.slots.clone();
        slots[0].len -= 1;
        let err = StageAssembler::new(&c, 0, &slots, true, None)
            .err()
            .expect("slot length must match its shape");
        assert!(matches!(err, UcpError::Inconsistent(_)), "{err}");

        let mut asm = StageAssembler::new(&c, 0, &chunks[0].1.layout.slots, true, None).unwrap();
        chunks[1].1.exp_avg.pop();
        let err = asm.absorb_chunks(&by_ref(&chunks), 1).unwrap_err();
        assert!(matches!(err, UcpError::Inconsistent(_)), "{err}");
        assert!(err.to_string().contains("layout chunk"), "{err}");
    }

    #[test]
    fn chunk_fed_twice_or_missing_fails_coverage() {
        let c = common(ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1));
        let (chunks, _) = stage_chunks(&c, 2);
        let slots = &chunks[0].1.layout.slots;
        let all = by_ref(&chunks);
        for (what, feed) in [
            ("missing", [&all[..3], &[]]),
            ("fed twice", [&all[..], &all[3..]]),
        ] {
            let mut asm = StageAssembler::new(&c, 0, slots, true, None).unwrap();
            for part in feed {
                asm.absorb_chunks(part, 2).unwrap();
            }
            let err = asm.into_tensors().expect_err(what);
            assert!(matches!(err, UcpError::Inconsistent(_)), "{what}: {err}");
            assert!(err.to_string().contains("contributed"), "{what}: {err}");
        }
    }

    #[test]
    fn incomplete_stage_fails_finalize() {
        let parallel = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let slots = slots_of(&c, &["final_layernorm.weight"]);
        let dir = tmp("incomplete");
        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        // No contributions at all: finalize must refuse.
        let err = asm
            .finalize_step(&dir, &Group::new(true), 1, "save/atom_write", None)
            .unwrap_err();
        assert!(err.to_string().contains("contributed 0"), "{err}");
    }

    #[test]
    fn replicated_divergence_detected() {
        let tp = 2;
        let parallel = ParallelConfig::new(tp, 1, 1, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let name = "final_layernorm.weight".to_string();
        let slots = slots_of(&c, &[&name]);
        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        let frag = |v: f32| Fragment {
            param_offset: 0,
            data: vec![v; slots[0].len],
        };
        asm.absorb(0, vec![(name.clone(), 0, frag(1.0))]).unwrap();
        let err = asm
            .absorb(1, vec![(name.clone(), 0, frag(2.0))])
            .unwrap_err();
        assert!(err.to_string().contains("diverge"), "{err}");
    }

    #[test]
    fn absorb_rejects_descending_tp_order() {
        let parallel = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let mut asm = StageAssembler::new(&c, 0, &[], true, None).unwrap();
        asm.absorb(1, Vec::new()).unwrap();
        let err = asm.absorb(0, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("ascending TP order"), "{err}");
    }

    #[test]
    fn to_average_matches_union_tp_arithmetic() {
        // Drive the Average accumulator directly: three "TP" copies whose
        // mean is not exactly representable; must bitwise-match union_tp.
        let shape = Shape::new([4]);
        let mut b = ParamBuilder::new(shape.clone(), ParamPattern::ToAverage, false, 3, 1).unwrap();
        let copies = [
            vec![0.1f32, 1.7, -2.3, 0.0],
            vec![0.3, -0.9, 5.5, 1.0],
            vec![0.7, 2.2, 0.1, -1.0],
        ];
        for (tp, data) in copies.iter().enumerate() {
            for ki in 0..3 {
                b.apply(ki, tp, 0, data, true).unwrap();
            }
        }
        let shards: Vec<Tensor> = copies
            .iter()
            .map(|d| Tensor::from_vec(d.clone(), shape.clone()).unwrap())
            .collect();
        let expect = union_tp(&ParamPattern::ToAverage, &shards, false).unwrap();
        for key in b.keys {
            let t = Tensor::from_vec(key.into_state(), shape.clone()).unwrap();
            assert!(t.bitwise_eq(&expect));
        }
    }

    #[test]
    fn incremental_step_links_clean_atoms_and_patches_dirty_ones() {
        use std::os::unix::fs::MetadataExt;
        // Two single-TP params; step 2 touches only one of them. The clean
        // one must come back as a hard link to step 1's file; the dirty one
        // must be rewritten with the patch applied.
        let parallel = ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero0);
        let c = common(parallel);
        let dirty_name = "final_layernorm.weight".to_string();
        let clean_name = "final_layernorm.bias".to_string();
        let slots = slots_of(&c, &[&dirty_name, &clean_name]);
        let n = slots[0].len;
        let base = tmp("incr_link");
        let step1 = base.join("global_step1_universal");
        let step2 = base.join("global_step2_universal");
        let full = |v: f32| Fragment {
            param_offset: 0,
            data: vec![v; n],
        };
        let finalize = |asm: &mut StageAssembler, dir: &Path, prev: Option<&Path>| {
            let group = Group::new(true);
            let stage = asm
                .finalize_step(dir, &group, 2, "save/atom_write", prev)
                .unwrap();
            group.commit().unwrap();
            stage
        };

        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        let mut frags = Vec::new();
        for ki in 0..3 {
            frags.push((dirty_name.clone(), ki, full(1.0)));
            frags.push((clean_name.clone(), ki, full(2.0)));
        }
        asm.absorb(0, frags).unwrap();
        let s1 = finalize(&mut asm, &step1, None);
        assert_eq!((s1.atoms_written, s1.atoms_skipped), (2, 0));

        // Step 2: patch a sub-range of the dirty param only.
        asm.begin_step();
        let patch = Fragment {
            param_offset: 1,
            data: vec![9.0; 2],
        };
        asm.absorb(
            0,
            (0..3)
                .map(|ki| (dirty_name.clone(), ki, patch.clone()))
                .collect(),
        )
        .unwrap();
        let s2 = finalize(&mut asm, &step2, Some(&step1));
        assert_eq!((s2.atoms_written, s2.atoms_skipped), (1, 1));
        assert!(s2.bytes_linked > 0);
        assert_eq!(s2.metas.len(), 2, "manifest lists linked atoms too");

        // Clean atom: same inode as step 1, two names.
        let src = layout::atom_path(&step1, &clean_name, AtomFile::Fp32);
        let dst = layout::atom_path(&step2, &clean_name, AtomFile::Fp32);
        assert_eq!(
            std::fs::metadata(&src).unwrap().ino(),
            std::fs::metadata(&dst).unwrap().ino(),
            "clean atom must be hard linked"
        );
        // Dirty atom: fresh file with the patch applied on the retained
        // image, in every state.
        let dirty =
            Container::read_file(&layout::atom_path(&step2, &dirty_name, AtomFile::Fp32)).unwrap();
        for file in AtomFile::ALL {
            let got = dirty.get(file.state_key()).unwrap().as_slice().to_vec();
            assert_eq!(got[0], 1.0);
            assert_eq!(&got[1..3], &[9.0, 9.0]);
            assert!(got[3..].iter().all(|&v| v == 1.0));
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// A parameter with `blocks` > 1 is published as that many sub-atoms,
    /// and a later step rewrites only those a fragment landed in — here half
    /// of one expert, from one of two TP ranks — and links the rest.
    #[test]
    fn split_param_rewrites_only_the_sub_atoms_a_fragment_landed_in() {
        use std::os::unix::fs::MetadataExt;
        let mut c = common(ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1));
        c.model = ModelConfig::moe_tiny();
        let experts = c.model.num_experts;
        let name = "layers.0.moe.experts.dense_4h_to_h.weight";
        let spec = param_specs(&c.model)
            .into_iter()
            .find(|s| s.name == name)
            .unwrap();
        assert_eq!(spec.blocks, experts);
        let slots = slots_of(&c, &[name]);
        let shard_len = slots[0].len;
        let base = tmp("split");
        let (step1, step2) = (base.join("s1_universal"), base.join("s2_universal"));

        // Step 1: both TP shards of a random tensor, moments scaled.
        let full = Tensor::randn(spec.shape.clone(), 1.0, &DetRng::new(3));
        let mut shards: Vec<Vec<f32>> = (0..2)
            .map(|r| spec.partition.shard(&full, 2, r).into_vec())
            .collect();
        let feed = |asm: &mut StageAssembler, tp: usize, at: usize, data: &[f32]| {
            let frags = [1.0f32, 0.5, 0.25].iter().enumerate().map(|(ki, scale)| {
                let data = data.iter().map(|v| v * scale).collect();
                let frag = Fragment {
                    param_offset: at,
                    data,
                };
                (name.to_string(), ki, frag)
            });
            asm.absorb(tp, frags.collect()).unwrap();
        };
        let finalize = |asm: &mut StageAssembler, dir: &Path, prev: Option<&Path>| {
            let group = Group::new(true);
            let stage = asm
                .finalize_step(dir, &group, 2, "save/atom_write", prev)
                .unwrap();
            group.commit().unwrap();
            stage
        };
        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        for (tp, shard) in shards.iter().enumerate() {
            feed(&mut asm, tp, 0, shard);
        }
        let s1 = finalize(&mut asm, &step1, None);
        assert_eq!((s1.atoms_written, s1.atoms_skipped), (experts, 0));
        assert_eq!(s1.metas.len(), 1, "one manifest entry for the parameter");
        assert_eq!(s1.metas[0].parts, Some(experts));
        assert_eq!(s1.metas[0].shape, spec.shape);

        // Step 2: TP rank 1's half of expert 5 changes.
        let (dirty, per_expert) = (5, shard_len / experts);
        let patch = vec![9.0f32; per_expert];
        shards[1][dirty * per_expert..][..per_expert].copy_from_slice(&patch);
        asm.begin_step();
        feed(&mut asm, 1, dirty * per_expert, &patch);
        let s2 = finalize(&mut asm, &step2, Some(&step1));
        assert_eq!((s2.atoms_written, s2.atoms_skipped), (1, experts - 1));
        assert_eq!(s2.bytes_linked, (experts as u64 - 1) * s2.bytes_written);
        assert_eq!(s2.metas, s1.metas);

        let tensors: Vec<Tensor> = shards
            .iter()
            .map(|s| Tensor::from_vec(s.clone(), slots[0].shape.clone()).unwrap())
            .collect();
        let want = spec.partition.unshard(&tensors);
        let part_len = want.num_elements() / experts;
        for part in 0..experts {
            let at = |dir: &Path| {
                layout::atom_file(dir, layout::TREE_VERSION, name, Some(part), AtomFile::Fp32)
            };
            let (old, new) = (
                std::fs::metadata(at(&step1)).unwrap(),
                std::fs::metadata(at(&step2)).unwrap(),
            );
            if part == dirty {
                assert_eq!(new.nlink(), 1, "part {part}: a rewrite is a fresh file");
            } else {
                assert_eq!(new.ino(), old.ino(), "part {part}: clean, hard linked");
            }
            let c = Container::read_file(&at(&step2)).unwrap();
            let header: AtomMeta = serde_json::from_str(&c.header).unwrap();
            assert_eq!(header.shape, spec.shape.with_dim(0, 1));
            assert_eq!((header.name.as_str(), header.parts), (name, None));
            assert_eq!(c.sections.len(), 3, "a sub-atom holds all three states");
            for (file, scale) in AtomFile::ALL.into_iter().zip([1.0f32, 0.5, 0.25]) {
                let got = c.get(file.state_key()).unwrap().as_slice().to_vec();
                let slice = &want.as_slice()[part * part_len..][..part_len];
                let expect: Vec<f32> = slice.iter().map(|v| v * scale).collect();
                assert_eq!(got, expect, "part {part} {}", file.state_key());
            }
        }
        assert!(!layout::atom_path(&step2, name, AtomFile::Fp32).exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn first_step_must_be_fully_covered_even_if_touched() {
        // Partial coverage on a never-complete builder is an error — the
        // incremental path only tolerates partial absorbs after a full
        // image exists.
        let parallel = ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero0);
        let c = common(parallel);
        let name = "final_layernorm.weight".to_string();
        let slots = slots_of(&c, &[&name]);
        let dir = tmp("incr_partial");
        let mut asm = StageAssembler::new(&c, 0, &slots, true, None).unwrap();
        let patch = Fragment {
            param_offset: 0,
            data: vec![1.0; 2],
        };
        asm.absorb(
            0,
            (0..3).map(|ki| (name.clone(), ki, patch.clone())).collect(),
        )
        .unwrap();
        let err = asm
            .finalize_step(&dir, &Group::new(true), 1, "save/atom_write", None)
            .unwrap_err();
        assert!(err.to_string().contains("contributed"), "{err}");
    }

    /// A small atom is a single-write file (write 0, fsync 1, rename 2,
    /// dirsync 3): a survivable failure at the write or the rename unlinks
    /// the staging file and leaves the published atom alone; an injected
    /// crash at the same index leaves the remnant for fsck.
    #[test]
    fn failed_atom_write_cleans_tmp_crash_leaves_it() {
        use ucp_storage::io::fault::{self, FaultPlan};
        let dir = tmp("atom_enospc");
        let write = |v: f32| {
            write_atom_file(
                &dir,
                "p",
                &ParamPattern::Unique,
                AtomFile::Fp32,
                Tensor::full([5], v),
                "t",
            )
        };
        let path = layout::atom_path(&dir, "p", AtomFile::Fp32);
        let staged = ucp_storage::commit::tmp_path(&path);
        write(1.0).unwrap();
        let old = std::fs::read(&path).unwrap();
        for k in [0, 2] {
            let armed = fault::arm(FaultPlan {
                full_disk: true,
                ..FaultPlan::kill_at(k, &dir)
            });
            let err = write(2.0).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("no space left"), "{k}: {err}");
            assert!(!staged.exists(), "{k}: failed atom write leaked its .tmp");

            let armed = fault::arm(FaultPlan::kill_at(k, &dir));
            let err = write(2.0).unwrap_err();
            drop(armed);
            assert!(err.to_string().contains("injected crash"), "{k}: {err}");
            assert!(staged.exists(), "{k}: a crash cannot clean up");
            assert_eq!(std::fs::read(&path).unwrap(), old, "{k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_build_sorts_and_dedups() {
        let parallel = ParallelConfig::new(1, 2, 1, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let meta = |n: &str| AtomMeta {
            name: n.into(),
            shape: Shape::new([2]),
            pattern: ParamPattern::Unique,
            parts: None,
        };
        let m = build_manifest(&c, vec![meta("b"), meta("a"), meta("b")]);
        assert_eq!(m.iteration, 6);
        assert_eq!(m.source_label, parallel.label());
        let names: Vec<&str> = m.params.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
