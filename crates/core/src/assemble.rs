//! Incremental per-parameter atom builders — Algorithm 1 as a streaming
//! library, shared by the offline [`crate::convert`] pass and the
//! born-universal save pipeline in the trainer.
//!
//! The offline converter materializes every (tp, pp) slice before the TP
//! union. A [`StageAssembler`] inverts that: it accepts one rank's
//! extracted flat fragments at a time (in ascending `(tp, zero-index)`
//! order, the order the save pipeline delivers them) and scatters each
//! fragment straight into the consolidated true-shape buffer through the
//! [`Partition::shard_segments`] run map. Alignment padding runs have no
//! destination (`src_offset == None`) and are dropped on the way in, so no
//! separate `StripPadding` pass is needed. `params_to_average` keeps one
//! buffer per TP rank and finalizes with the same f64-accumulate-in-rank-
//! order mean as [`crate::ops::union_tp`], so the written atoms are
//! bitwise identical to the offline result by construction: both paths
//! move the same f32 values, encode them through [`stage_atom`] and commit
//! a step's files as one [`Group`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ucp_model::{param_specs, LayerRole, Partition, ShardSegment};
use ucp_storage::commit::Group;
use ucp_storage::container::{self, SectionRef};
use ucp_storage::layout::{self, AtomFile};
use ucp_tensor::{DType, Shape, Tensor};

use crate::checkpoint::CommonState;
use crate::language::UcpSpec;
use crate::manifest::{AtomMeta, UcpManifest};
use crate::ops::Fragment;
use crate::pattern::{FragmentSpec, ParamPattern};
use crate::util::par_map;
use crate::{Result, UcpError};

/// Serialize one atom checkpoint (header + single state section) into
/// `atoms`, the group its step commits as one. This is the only encoder
/// of atom files: the offline converter, the adapters and the save
/// pipeline all stage through it, which is what makes their on-disk trees
/// byte-identical. `data` is borrowed from wherever the consolidated
/// values live. Returns the encoded size; the staging latency is recorded
/// under `span_path`.
pub fn stage_atom(
    atoms: &Group,
    universal_dir: &Path,
    meta: &AtomMeta,
    file: AtomFile,
    dtype: DType,
    data: &[f32],
    span_path: &str,
) -> Result<u64> {
    let header = serde_json::to_string(meta)?;
    let sections = [SectionRef {
        name: file.state_key(),
        dtype,
        dims: meta.shape.dims(),
        data,
    }];
    let path = layout::atom_path(universal_dir, &meta.name, file);
    let _sp = ucp_telemetry::span(span_path);
    container::stage_file(atoms, &path, &header, &sections)?;
    Ok(container::encoded_len(&header, &sections) as u64)
}

/// [`stage_atom`] and commit of a single atom file on its own: durable
/// when this returns.
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
    };
    let group = Group::new(true);
    let bytes = stage_atom(
        &group,
        universal_dir,
        &meta,
        file,
        atom.dtype(),
        atom.as_slice(),
        span_path,
    )?;
    group.commit()?;
    Ok(bytes)
}

/// Assemble the universal manifest from per-stage atom metadata. A
/// pipeline-shared parameter (tied embeddings) is consolidated once per
/// owning stage; sorting then deduplicating by name keeps one entry.
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
/// cover *every* parameter of the stage — skipped (clean) atoms are
/// published as hard links to the prior universal step's files and appear
/// in the manifest exactly like rewritten ones.
#[derive(Debug, Clone)]
pub struct StageAtoms {
    /// Manifest entries for the atoms this stage published.
    pub metas: Vec<AtomMeta>,
    /// Atom checkpoints written (one per rewritten parameter).
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

struct ParamBuilder {
    /// True consolidated shape (padding already absent).
    shape: Shape,
    pattern: ParamPattern,
    /// Owned by a different pipeline stage (tied embedding on the first
    /// stage): absorbed for completeness accounting but never written.
    skip: bool,
    /// Flattened per-TP-rank shard length (including alignment padding).
    shard_len: usize,
    /// Per-TP-rank run maps into the consolidated buffer (`Scatter` only).
    segments: Vec<Vec<ShardSegment>>,
    keys: [KeyAcc; 3],
    /// Elements received per `[key][tp]` *this step*; a not-yet-complete
    /// builder is complete at `shard_len` each.
    got: [Vec<usize>; 3],
    /// Received at least one fragment since the last `begin_step`.
    touched: bool,
    /// The consolidated buffers held a full image at some finalize — from
    /// then on, steps may patch partially (dirty fragments only) and an
    /// untouched step can reuse the previously published atom files.
    complete: bool,
}

impl ParamBuilder {
    fn new(shape: Shape, pattern: ParamPattern, skip: bool, tp: usize) -> Result<ParamBuilder> {
        let numel = shape.num_elements();
        type MkAcc = fn(usize, usize) -> KeyAcc;
        let (shard_len, segments, mk): (usize, Vec<Vec<ShardSegment>>, MkAcc) = match &pattern {
            ParamPattern::Unique => {
                if tp != 1 {
                    return Err(UcpError::Inconsistent(format!(
                        "unique_params with {tp} shards"
                    )));
                }
                (numel, Vec::new(), |n, _| KeyAcc::Replicate(vec![0.0; n]))
            }
            ParamPattern::Replicated => (numel, Vec::new(), |n, _| KeyAcc::Replicate(vec![0.0; n])),
            ParamPattern::ToAverage => (numel, Vec::new(), |n, tp| {
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
                let shard_len = partition.shard_shape(&shape, tp).num_elements();
                let segments = (0..tp)
                    .map(|r| partition.shard_segments(&shape, tp, r))
                    .collect();
                (shard_len, segments, |n, _| KeyAcc::Scatter(vec![0.0; n]))
            }
        };
        Ok(ParamBuilder {
            shape,
            pattern,
            skip,
            shard_len,
            segments,
            keys: [mk(numel, tp), mk(numel, tp), mk(numel, tp)],
            got: [vec![0; tp], vec![0; tp], vec![0; tp]],
            touched: false,
            complete: false,
        })
    }

    fn apply(&mut self, ki: usize, tp: usize, frag: &Fragment, verify: bool) -> Result<()> {
        let end = frag.param_offset + frag.data.len();
        if end > self.shard_len {
            return Err(UcpError::Inconsistent(format!(
                "fragment ends at {end}, shard has {} elements",
                self.shard_len
            )));
        }
        match &mut self.keys[ki] {
            KeyAcc::Scatter(buf) => scatter_segments(&self.segments[tp], frag, buf),
            KeyAcc::Replicate(buf) => {
                if tp == 0 {
                    buf[frag.param_offset..end].copy_from_slice(&frag.data);
                } else if verify {
                    for (i, (a, b)) in buf[frag.param_offset..end]
                        .iter()
                        .zip(&frag.data)
                        .enumerate()
                    {
                        if a.to_bits() != b.to_bits() {
                            return Err(UcpError::Inconsistent(format!(
                                "replicated_params copies diverge (rank 0 vs rank {tp}) \
                                 at element {}",
                                frag.param_offset + i
                            )));
                        }
                    }
                }
            }
            KeyAcc::Average(bufs) => bufs[tp][frag.param_offset..end].copy_from_slice(&frag.data),
        }
        self.got[ki][tp] += frag.data.len();
        Ok(())
    }

    /// The consolidated buffer of state key `ki`, borrowed from the
    /// accumulator the assembler keeps across save steps. Only `Average`
    /// has to materialize anything: its mean reproduces `union_tp` exactly
    /// — f64 accumulation in TP-rank order, divide, cast.
    fn state(&self, ki: usize) -> Cow<'_, [f32]> {
        match &self.keys[ki] {
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
}

/// Copy a flat shard fragment into the consolidated buffer through the
/// shard's run map. Runs are ascending in shard offset; padding runs
/// (`src_offset == None`) have no bytes in the consolidated tensor.
fn scatter_segments(segments: &[ShardSegment], frag: &Fragment, buf: &mut [f32]) {
    let fs = frag.param_offset;
    let fe = fs + frag.data.len();
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
            buf[dst..dst + (hi - lo)].copy_from_slice(&frag.data[lo - fs..hi - fs]);
        }
    }
}

/// Incremental consolidation of one pipeline stage's parameters into
/// universal atom checkpoints, reusable across consecutive save steps.
///
/// Feed it every `(tp, zero-index)` contribution of the stage via
/// [`StageAssembler::absorb`] — in ascending TP order, because replicated
/// parameters verify later copies against the tp-0 one — then call
/// [`StageAssembler::finalize`] to write the atoms durably.
///
/// For per-iteration cadence the assembler persists across saves: call
/// [`StageAssembler::begin_step`] with the next step's universal
/// directory, absorb only the *dirty* fragments (the consolidated buffers
/// retain last step's image, so partial contributions patch it), then
/// [`StageAssembler::finalize_step`]. A parameter that received no
/// fragments at all is clean; its three atom files are published as hard
/// links to the previous universal step's files instead of being
/// rewritten, so save bytes scale with what actually changed.
pub struct StageAssembler {
    universal_dir: PathBuf,
    tp_degree: usize,
    verify_replicas: bool,
    last_tp: usize,
    params: BTreeMap<String, ParamBuilder>,
}

impl StageAssembler {
    /// Set up builders for every parameter of stage `pp` (named by
    /// `params`, the stage's flat-layout slot order), deriving each
    /// pattern from the model exactly as the offline converter does.
    pub fn new(
        universal_dir: &Path,
        common: &CommonState,
        pp: usize,
        params: &[String],
        verify_replicas: bool,
    ) -> Result<StageAssembler> {
        let parallel = common.parallel;
        let derived = UcpSpec::from_model(&common.model, parallel.tp, &common.params_to_average);
        let all_specs = param_specs(&common.model);
        std::fs::create_dir_all(universal_dir)?;
        let mut builders = BTreeMap::new();
        for name in params {
            let pattern = derived
                .pattern_of(name)
                .cloned()
                .ok_or_else(|| UcpError::Inconsistent(format!("no pattern rule matches {name}")))?;
            let spec = all_specs
                .iter()
                .find(|s| &s.name == name)
                .ok_or_else(|| UcpError::Inconsistent(format!("unknown parameter {name}")))?;
            // A tied embedding is assembled on both pipeline-end stages;
            // only the last one writes it (matching the offline
            // converter, where the ascending-pp loop makes the last
            // stage's copy win), so the two assemblers never race on the
            // same atom path.
            let skip = matches!(spec.role, LayerRole::SharedEmbedding)
                && parallel.pp > 1
                && pp + 1 != parallel.pp;
            builders.insert(
                name.clone(),
                ParamBuilder::new(spec.shape.clone(), pattern, skip, parallel.tp)?,
            );
        }
        Ok(StageAssembler {
            universal_dir: universal_dir.to_path_buf(),
            tp_degree: parallel.tp,
            verify_replicas,
            last_tp: 0,
            params: builders,
        })
    }

    /// Start assembling the next save step into `universal_dir`: resets
    /// the per-step coverage accounting and the ascending-TP cursor while
    /// keeping the consolidated buffers (last step's image) so dirty
    /// fragments can patch them in place.
    pub fn begin_step(&mut self, universal_dir: &Path) -> Result<()> {
        std::fs::create_dir_all(universal_dir)?;
        self.universal_dir = universal_dir.to_path_buf();
        self.last_tp = 0;
        for b in self.params.values_mut() {
            b.touched = false;
            for per_tp in &mut b.got {
                per_tp.iter_mut().for_each(|g| *g = 0);
            }
        }
        Ok(())
    }

    /// Absorb one rank's extracted flat fragments: `fragments` are
    /// `(param name, state key index, fragment)` from that rank's ZeRO
    /// chunk of TP slice `tp`. Contributions must arrive in ascending
    /// `tp` order.
    pub fn absorb(&mut self, tp: usize, fragments: Vec<(String, usize, Fragment)>) -> Result<()> {
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
        for (name, ki, frag) in fragments {
            let b = self
                .params
                .get_mut(&name)
                .ok_or_else(|| UcpError::Inconsistent(format!("fragment for unknown {name}")))?;
            b.touched = true;
            b.apply(ki, tp, &frag, self.verify_replicas)?;
        }
        Ok(())
    }

    /// Verify every parameter is fully covered, then write this stage's
    /// atoms durably. One-shot variant of [`StageAssembler::finalize_step`]
    /// for callers that use a fresh assembler per save.
    pub fn finalize(mut self, workers: usize, span_path: &str) -> Result<StageAtoms> {
        self.finalize_step(workers, span_path, None)
    }

    /// Verify coverage, then publish this step's atoms: touched
    /// parameters are rewritten from the patched consolidated buffers;
    /// clean ones (complete from an earlier step, no fragments this step)
    /// are hard linked from `link_from` — the previous universal step's
    /// directory — instead of being rewritten. Skipped (other-stage-owned)
    /// parameters are accounted but never published. The workers
    /// (parallel over parameters, staging latency under `span_path`) only
    /// stage; writes and links alike are committed as one group before
    /// this returns, so the caller may write the manifest next.
    ///
    /// Coverage rules: a parameter that has never been complete must be
    /// fully covered this step (first save sends everything); once
    /// complete, any partial patch keeps it complete.
    pub fn finalize_step(
        &mut self,
        workers: usize,
        span_path: &str,
        link_from: Option<&Path>,
    ) -> Result<StageAtoms> {
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
        let universal = self.universal_dir.clone();
        let entries: Vec<(&String, &ParamBuilder)> =
            self.params.iter().filter(|(_, b)| !b.skip).collect();
        // The workers only stage; the step's writes and hard links become
        // durable together below.
        let atoms = Group::new(true);
        let published = par_map(entries.len(), workers, |i| {
            let (name, b) = entries[i];
            let meta = AtomMeta {
                name: (*name).clone(),
                shape: b.shape.clone(),
                pattern: b.pattern.clone(),
            };
            // Clean atom with a prior image on disk: reuse it. (Defensive:
            // if no prior directory was supplied, fall back to rewriting —
            // the retained buffers hold the same bits.)
            if b.complete && !b.touched {
                if let Some(prev) = link_from {
                    let _sp = ucp_telemetry::span("save/atom_link");
                    let mut linked = 0u64;
                    for file in AtomFile::ALL {
                        let src = layout::atom_path(prev, name, file);
                        let dst = layout::atom_path(&universal, name, file);
                        linked += std::fs::metadata(&src)?.len();
                        atoms.link(&src, &dst)?;
                    }
                    return Ok((meta, 0u64, linked));
                }
            }
            let mut bytes = 0u64;
            for (ki, file) in AtomFile::ALL.into_iter().enumerate() {
                let data = b.state(ki);
                bytes += stage_atom(
                    &atoms,
                    &universal,
                    &meta,
                    file,
                    DType::F32,
                    &data,
                    span_path,
                )?;
            }
            Ok((meta, bytes, 0u64))
        })?;
        atoms.commit()?;
        // Every parameter now has a full image (in the buffers and, for
        // non-skip ones, on disk): later steps may patch partially.
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
        for (meta, bytes, linked) in published {
            if bytes > 0 || linked == 0 {
                out.atoms_written += 1;
                out.bytes_written += bytes;
            } else {
                out.atoms_skipped += 1;
                out.bytes_linked += linked;
            }
            out.metas.push(meta);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{extract_flat, strip_padding, union_tp};
    use ucp_model::{ModelConfig, ParamSpec};
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

    /// Feed a full TP×ZeRO fan-out of gpt3-tiny through the assembler and
    /// check every written atom bitwise against the offline union path.
    #[test]
    fn assembled_atoms_match_offline_union_bitwise() {
        let tp = 2;
        let zero = 2;
        let parallel = ParallelConfig::new(tp, 1, zero, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let specs = param_specs(&c.model);
        let rng = DetRng::new(5);
        let full: Vec<(&ParamSpec, Tensor)> = specs
            .iter()
            .map(|s| {
                let t = Tensor::randn(s.shape.clone(), 1.0, &rng.derive(&s.name));
                (s, t)
            })
            .collect();
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();

        let dir = tmp("bitwise");
        let mut asm = StageAssembler::new(&dir, &c, 0, &names, true).unwrap();
        // Per TP rank: shard every param, flatten ZeRO-style, extract per
        // zero index — the exact data flow of a training rank's snapshot.
        let mut shards_by_name: BTreeMap<String, Vec<Tensor>> = BTreeMap::new();
        for r in 0..tp {
            let sharded: Vec<(String, Tensor)> = full
                .iter()
                .map(|(s, t)| (s.name.clone(), s.partition.shard(t, tp, r)))
                .collect();
            for (n, t) in &sharded {
                shards_by_name.entry(n.clone()).or_default().push(t.clone());
            }
            let shapes: Vec<(String, ucp_tensor::Shape)> = sharded
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
            for zi in 0..zero {
                let chunk = &flat[layout.rank_range(zi)];
                let mut frags = Vec::new();
                for (ki, scale) in [1.0f32, 0.5, 0.25].into_iter().enumerate() {
                    for (name, mut frag) in extract_flat(&layout, zi, chunk) {
                        for v in &mut frag.data {
                            *v *= scale;
                        }
                        frags.push((name, ki, frag));
                    }
                }
                asm.absorb(r, frags).unwrap();
            }
        }
        let stage = asm.finalize(2, "save/atom_write").unwrap();
        assert_eq!(stage.atoms_written, specs.len());
        assert!(stage.bytes_written > 0);

        let derived = UcpSpec::from_model(&c.model, tp, &[]);
        for spec in &specs {
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
                let written = Container::read_file(&layout::atom_path(&dir, &spec.name, file))
                    .unwrap()
                    .get(file.state_key())
                    .unwrap()
                    .clone();
                assert!(
                    written.bitwise_eq(&expect),
                    "{} key {ki} diverges from offline union",
                    spec.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_stage_fails_finalize() {
        let parallel = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let names = vec!["final_layernorm.weight".to_string()];
        let dir = tmp("incomplete");
        let asm = StageAssembler::new(&dir, &c, 0, &names, true).unwrap();
        // No contributions at all: finalize must refuse.
        let err = asm.finalize(1, "save/atom_write").unwrap_err();
        assert!(err.to_string().contains("contributed 0"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_divergence_detected() {
        let tp = 2;
        let parallel = ParallelConfig::new(tp, 1, 1, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let name = "final_layernorm.weight".to_string();
        let spec_shape = param_specs(&c.model)
            .iter()
            .find(|s| s.name == name)
            .unwrap()
            .shape
            .clone();
        let n = spec_shape.num_elements();
        let dir = tmp("diverge");
        let mut asm = StageAssembler::new(&dir, &c, 0, std::slice::from_ref(&name), true).unwrap();
        let frag = |v: f32| Fragment {
            param_offset: 0,
            data: vec![v; n],
        };
        asm.absorb(0, vec![(name.clone(), 0, frag(1.0))]).unwrap();
        let err = asm
            .absorb(1, vec![(name.clone(), 0, frag(2.0))])
            .unwrap_err();
        assert!(err.to_string().contains("diverge"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorb_rejects_descending_tp_order() {
        let parallel = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
        let c = common(parallel);
        let dir = tmp("order");
        let mut asm = StageAssembler::new(&dir, &c, 0, &[], true).unwrap();
        asm.absorb(1, Vec::new()).unwrap();
        let err = asm.absorb(0, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("ascending TP order"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn to_average_matches_union_tp_arithmetic() {
        // Drive the Average accumulator directly: three "TP" copies whose
        // mean is not exactly representable; must bitwise-match union_tp.
        let shape = Shape::new([4]);
        let mut b = ParamBuilder::new(shape.clone(), ParamPattern::ToAverage, false, 3).unwrap();
        let copies = [
            vec![0.1f32, 1.7, -2.3, 0.0],
            vec![0.3, -0.9, 5.5, 1.0],
            vec![0.7, 2.2, 0.1, -1.0],
        ];
        for (tp, data) in copies.iter().enumerate() {
            for ki in 0..3 {
                b.apply(
                    ki,
                    tp,
                    &Fragment {
                        param_offset: 0,
                        data: data.clone(),
                    },
                    true,
                )
                .unwrap();
            }
        }
        let shards: Vec<Tensor> = copies
            .iter()
            .map(|d| Tensor::from_vec(d.clone(), shape.clone()).unwrap())
            .collect();
        let expect = union_tp(&ParamPattern::ToAverage, &shards, false).unwrap();
        for ki in 0..3 {
            let t = Tensor::from_vec(b.state(ki).into_owned(), shape.clone()).unwrap();
            assert!(t.bitwise_eq(&expect));
        }
    }

    #[test]
    fn incremental_step_links_clean_atoms_and_patches_dirty_ones() {
        use std::os::unix::fs::MetadataExt;
        // Two single-TP params; step 2 touches only one of them. The clean
        // one must come back as hard links to step 1's files; the dirty one
        // must be rewritten with the patch applied.
        let parallel = ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero0);
        let c = common(parallel);
        let dirty_name = "final_layernorm.weight".to_string();
        let clean_name = "final_layernorm.bias".to_string();
        let names = vec![dirty_name.clone(), clean_name.clone()];
        let n = param_specs(&c.model)
            .iter()
            .find(|s| s.name == dirty_name)
            .unwrap()
            .shape
            .num_elements();
        let base = tmp("incr_link");
        let step1 = base.join("global_step1_universal");
        let step2 = base.join("global_step2_universal");
        let full = |v: f32| Fragment {
            param_offset: 0,
            data: vec![v; n],
        };

        let mut asm = StageAssembler::new(&step1, &c, 0, &names, true).unwrap();
        let mut frags = Vec::new();
        for ki in 0..3 {
            frags.push((dirty_name.clone(), ki, full(1.0)));
            frags.push((clean_name.clone(), ki, full(2.0)));
        }
        asm.absorb(0, frags).unwrap();
        let s1 = asm.finalize_step(2, "save/atom_write", None).unwrap();
        assert_eq!((s1.atoms_written, s1.atoms_skipped), (2, 0));

        // Step 2: patch a sub-range of the dirty param only.
        asm.begin_step(&step2).unwrap();
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
        let s2 = asm
            .finalize_step(2, "save/atom_write", Some(&step1))
            .unwrap();
        assert_eq!((s2.atoms_written, s2.atoms_skipped), (1, 1));
        assert!(s2.bytes_linked > 0);
        assert_eq!(s2.metas.len(), 2, "manifest lists linked atoms too");

        for file in AtomFile::ALL {
            // Clean atom: same inode as step 1, two names.
            let src = layout::atom_path(&step1, &clean_name, file);
            let dst = layout::atom_path(&step2, &clean_name, file);
            assert_eq!(
                std::fs::metadata(&src).unwrap().ino(),
                std::fs::metadata(&dst).unwrap().ino(),
                "clean atom must be hard linked"
            );
            // Dirty atom: fresh file with the patch applied on the
            // retained image.
            let t = Container::read_file(&layout::atom_path(&step2, &dirty_name, file))
                .unwrap()
                .get(file.state_key())
                .unwrap()
                .clone();
            let got = t.as_slice().to_vec();
            assert_eq!(got[0], 1.0);
            assert_eq!(&got[1..3], &[9.0, 9.0]);
            assert!(got[3..].iter().all(|&v| v == 1.0));
        }
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
        let dir = tmp("incr_partial");
        let mut asm = StageAssembler::new(&dir, &c, 0, std::slice::from_ref(&name), true).unwrap();
        let patch = Fragment {
            param_offset: 0,
            data: vec![1.0; 2],
        };
        asm.absorb(
            0,
            (0..3).map(|ki| (name.clone(), ki, patch.clone())).collect(),
        )
        .unwrap();
        let err = asm.finalize_step(1, "save/atom_write", None).unwrap_err();
        assert!(err.to_string().contains("contributed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
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
        };
        let m = build_manifest(&c, vec![meta("b"), meta("a"), meta("b")]);
        assert_eq!(m.iteration, 6);
        assert_eq!(m.source_label, parallel.label());
        let names: Vec<&str> = m.params.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
