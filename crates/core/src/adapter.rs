//! Cross-framework checkpoint adapters.
//!
//! The paper's UCP implementation can ingest checkpoints written by other
//! training frameworks (HuggingFace accelerate, PyTorch Lightning with a
//! DeepSpeed backend). The mechanism is an adapter: anything that can map
//! its source format onto the atom representation plugs into the same
//! target-side `GenUcpMetadata`/`Load` machinery unchanged.
//!
//! [`LitSimAdapter`] implements the mechanism for a deliberately different
//! checkpoint flavor — "litsim", a Lightning-style *consolidated*
//! single-file checkpoint (`model.<name>` / `optim.<name>.exp_avg` /
//! `optim.<name>.exp_avg_sq` keys, no sharding) — proving that a foreign
//! layout converts into UCP and resumes under any parallelism.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};
use ucp_model::{param_specs, ModelConfig};
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_storage::commit::Group;
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::Container;
use ucp_tensor::Tensor;

use crate::assemble::{build_manifest, commit_universal, stage_atom};
use crate::checkpoint::CommonState;
use crate::manifest::{AtomMeta, UcpManifest};
use crate::pattern::ParamPattern;
use crate::{Result, UcpError};

/// An adapter that converts a foreign checkpoint into the universal format.
pub trait SourceAdapter {
    /// Framework name (reports, manifests).
    fn framework(&self) -> &'static str;

    /// Convert the checkpoint at `src` into a universal checkpoint under
    /// `base/global_step<step>_universal`, returning the manifest.
    fn convert(&self, src: &Path, base: &Path, step: u64) -> Result<UcpManifest>;
}

/// Algorithm 1's tail for a consolidated foreign source, shared by every
/// adapter: `tensor_of(param, state)` is already that state of the atom
/// (each parameter is uniquely owned — the `unique_params` pattern), so
/// each parameter's three are staged as one atom file by the one atom
/// encoder and the tree is published by the one commit tail, exactly like
/// a native conversion.
fn publish_atoms<'t>(
    base: &Path,
    step: u64,
    common: &CommonState,
    source_label: String,
    tensor_of: impl Fn(&str, AtomFile) -> Result<&'t Tensor>,
) -> Result<UcpManifest> {
    let universal = layout::universal_dir(base, step);
    std::fs::create_dir_all(&universal)?;
    let group = Group::new(true);
    let mut atoms = Vec::new();
    for spec in param_specs(&common.model) {
        let meta = AtomMeta {
            name: spec.name,
            shape: spec.shape,
            pattern: ParamPattern::Unique,
            parts: None,
        };
        let mut states = Vec::with_capacity(AtomFile::ALL.len());
        for file in AtomFile::ALL {
            let t = tensor_of(&meta.name, file)?;
            if t.shape() != &meta.shape {
                return Err(UcpError::Inconsistent(format!(
                    "{source_label} {} {}: shape {} != spec {}",
                    meta.name,
                    file.state_key(),
                    t.shape(),
                    meta.shape
                )));
            }
            states.push((file, t.dtype(), t.as_slice()));
        }
        stage_atom(
            &group,
            &layout::atom_path(&universal, &meta.name, AtomFile::Fp32),
            &meta,
            &states,
            "convert/atom_write",
        )?;
        atoms.push(meta);
    }
    let mut manifest = build_manifest(common, atoms);
    manifest.source_label = source_label;
    commit_universal(base, step, group, &manifest)?;
    Ok(manifest)
}

/// A consolidated checkpoint's run state: one unsharded copy of everything.
fn consolidated(
    iteration: u64,
    seed: u64,
    data_cursor: u64,
    adam_step: u64,
    model: ModelConfig,
) -> CommonState {
    CommonState {
        iteration,
        seed,
        data_cursor,
        adam_step,
        model,
        parallel: ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero0),
        params_to_average: Vec::new(),
    }
}

#[derive(Serialize, Deserialize)]
struct LitSimHeader {
    framework: String,
    iteration: u64,
    seed: u64,
    data_cursor: u64,
    adam_step: u64,
    model: ModelConfig,
}

/// Write a litsim-flavor consolidated checkpoint (testing/demo producer —
/// plays the role of "another framework" emitting its own format).
///
/// `states` maps parameter name → `(fp32, exp_avg, exp_avg_sq)` full
/// tensors.
#[allow(clippy::too_many_arguments)]
pub fn save_litsim_checkpoint(
    path: &Path,
    model: &ModelConfig,
    iteration: u64,
    seed: u64,
    data_cursor: u64,
    adam_step: u64,
    states: &[(String, Tensor, Tensor, Tensor)],
) -> Result<()> {
    let header = serde_json::to_string(&LitSimHeader {
        framework: "litsim".into(),
        iteration,
        seed,
        data_cursor,
        adam_step,
        model: model.clone(),
    })?;
    let mut c = Container::new(header);
    for (name, fp32, m, v) in states {
        c.push(format!("model.{name}"), fp32.clone());
        c.push(format!("optim.{name}.exp_avg"), m.clone());
        c.push(format!("optim.{name}.exp_avg_sq"), v.clone());
    }
    c.write_file(path)?;
    Ok(())
}

/// Adapter for litsim consolidated checkpoints.
#[derive(Debug, Default)]
pub struct LitSimAdapter;

impl SourceAdapter for LitSimAdapter {
    fn framework(&self) -> &'static str {
        "litsim"
    }

    fn convert(&self, src: &Path, base: &Path, step: u64) -> Result<UcpManifest> {
        let c = Container::read_file(src)?;
        let header: LitSimHeader = serde_json::from_str(&c.header)?;
        if header.framework != "litsim" {
            return Err(UcpError::Inconsistent(format!(
                "not a litsim checkpoint (framework = {})",
                header.framework
            )));
        }
        let common = consolidated(
            header.iteration,
            header.seed,
            header.data_cursor,
            header.adam_step,
            header.model,
        );
        let label = format!("{}(consolidated)", self.framework());
        publish_atoms(base, step, &common, label, |name, file| {
            let key = match file {
                AtomFile::Fp32 => format!("model.{name}"),
                AtomFile::ExpAvg | AtomFile::ExpAvgSq => {
                    format!("optim.{name}.{}", file.state_key())
                }
            };
            c.get(&key).ok_or_else(|| {
                UcpError::Inconsistent(format!("litsim checkpoint missing key {key}"))
            })
        })
    }
}

#[derive(Serialize, Deserialize)]
struct HfSimIndex {
    framework: String,
    iteration: u64,
    seed: u64,
    data_cursor: u64,
    adam_step: u64,
    model: ModelConfig,
    /// Parameter name → model shard file holding its fp32 weights.
    weight_map: BTreeMap<String, String>,
}

/// Write an hfsim-flavor checkpoint: HuggingFace-accelerate style, with
/// model weights sharded across several files by a size budget plus a JSON
/// index (`model.index.json` analogue), and optimizer moments in one
/// separate file. A deliberately different structure from both our native
/// layout and litsim, to exercise the adapter mechanism a second way.
#[allow(clippy::too_many_arguments)]
pub fn save_hfsim_checkpoint(
    dir: &Path,
    model: &ModelConfig,
    iteration: u64,
    seed: u64,
    data_cursor: u64,
    adam_step: u64,
    states: &[(String, Tensor, Tensor, Tensor)],
    shard_budget_bytes: usize,
) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut weight_map = BTreeMap::new();
    let mut shards: Vec<Container> = Vec::new();
    let mut current = Container::new("{}");
    let mut current_bytes = 0usize;
    for (name, fp32, _, _) in states {
        let bytes = fp32.num_elements() * 4;
        if current_bytes > 0 && current_bytes + bytes > shard_budget_bytes {
            shards.push(std::mem::replace(&mut current, Container::new("{}")));
            current_bytes = 0;
        }
        current.push(name.clone(), fp32.clone());
        current_bytes += bytes;
        weight_map.insert(name.clone(), String::new());
    }
    shards.push(current);
    let total = shards.len();
    for (i, shard) in shards.iter().enumerate() {
        let file = format!("model-{:05}-of-{total:05}.ucpt", i + 1);
        for section in &shard.sections {
            weight_map.insert(section.name.clone(), file.clone());
        }
        shard.write_file(&dir.join(&file))?;
    }
    let mut optim = Container::new("{}");
    for (name, _, m, v) in states {
        optim.push(format!("{name}.exp_avg"), m.clone());
        optim.push(format!("{name}.exp_avg_sq"), v.clone());
    }
    optim.write_file(&dir.join("optimizer.ucpt"))?;
    let index = HfSimIndex {
        framework: "hfsim".into(),
        iteration,
        seed,
        data_cursor,
        adam_step,
        model: model.clone(),
        weight_map,
    };
    std::fs::write(
        dir.join("model.index.json"),
        serde_json::to_string_pretty(&index)?,
    )?;
    Ok(())
}

/// Adapter for hfsim sharded-with-index checkpoints.
#[derive(Debug, Default)]
pub struct HfSimAdapter;

impl SourceAdapter for HfSimAdapter {
    fn framework(&self) -> &'static str {
        "hfsim"
    }

    fn convert(&self, src: &Path, base: &Path, step: u64) -> Result<UcpManifest> {
        let index: HfSimIndex =
            serde_json::from_str(&std::fs::read_to_string(src.join("model.index.json"))?)?;
        if index.framework != "hfsim" {
            return Err(UcpError::Inconsistent(format!(
                "not an hfsim checkpoint (framework = {})",
                index.framework
            )));
        }
        // Open each model shard file once.
        let mut shards: BTreeMap<&str, Container> = BTreeMap::new();
        for file in index.weight_map.values() {
            if !shards.contains_key(file.as_str()) {
                shards.insert(file, Container::read_file(&src.join(file))?);
            }
        }
        let optim = Container::read_file(&src.join("optimizer.ucpt"))?;

        let common = consolidated(
            index.iteration,
            index.seed,
            index.data_cursor,
            index.adam_step,
            index.model.clone(),
        );
        let label = format!("{}(sharded+index)", self.framework());
        publish_atoms(base, step, &common, label, |name, file| match file {
            AtomFile::Fp32 => {
                let shard = index
                    .weight_map
                    .get(name)
                    .ok_or_else(|| UcpError::Inconsistent(format!("hfsim index missing {name}")))?;
                shards[shard.as_str()]
                    .get(name)
                    .ok_or_else(|| UcpError::Inconsistent(format!("{shard} lacks {name}")))
            }
            AtomFile::ExpAvg | AtomFile::ExpAvgSq => optim
                .get(&format!("{name}.{}", file.state_key()))
                .ok_or_else(|| UcpError::Inconsistent(format!("optimizer lacks {name}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{gen_ucp_metadata, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
    use ucp_parallel::{ParallelConfig, ZeroStage};
    use ucp_tensor::DetRng;

    fn fabricate_states(model: &ModelConfig, seed: u64) -> Vec<(String, Tensor, Tensor, Tensor)> {
        let rng = DetRng::new(seed);
        param_specs(model)
            .into_iter()
            .map(|s| {
                let fp32 = s.materialize_full(&rng);
                let m = Tensor::randn(s.shape.clone(), 0.01, &rng.derive(&format!("m:{}", s.name)));
                let v = Tensor::randn(
                    s.shape.clone(),
                    0.001,
                    &rng.derive(&format!("v:{}", s.name)),
                );
                (s.name, fp32, m, v)
            })
            .collect()
    }

    #[test]
    fn litsim_converts_and_loads_under_tp2() {
        let base = std::env::temp_dir().join("ucp_litsim_test");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let model = ModelConfig::gpt3_tiny();
        let states = fabricate_states(&model, 9);
        let ckpt = base.join("litsim.ckpt");
        save_litsim_checkpoint(&ckpt, &model, 500, 9, 128_000, 500, &states).unwrap();

        let manifest = LitSimAdapter.convert(&ckpt, &base, 500).unwrap();
        assert_eq!(manifest.iteration, 500);
        assert_eq!(manifest.params.len(), states.len());
        assert!(manifest.source_label.contains("litsim"));

        // Load as a TP=2, DP=2 target and verify a sharded parameter.
        let target = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
        let session = LoadSession::open(&base, 500, LoadOptions::default()).unwrap();
        for rank in 0..target.world_size() {
            let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
            let state = session.load_plan(&plan).unwrap();
            assert_eq!(state.fp32.len(), plan.layout.chunk);
            // The lm_head shard must equal the top/bottom half of the
            // original.
            let coord = target.coord(rank);
            let (name, orig, _, _) = states.iter().find(|(n, ..)| n == "lm_head.weight").unwrap();
            let shard = state
                .model_params
                .iter()
                .find(|(n, _)| n.as_ref() == name.as_str())
                .map(|(_, t)| t)
                .unwrap();
            let expected = orig.chunk(0, 2).unwrap()[coord.tp].clone();
            assert!(shard.bitwise_eq(&expected));
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn wrong_framework_rejected() {
        let base = std::env::temp_dir().join("ucp_litsim_bad");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("bad.ckpt");
        let c = Container::new(
            r#"{"framework": "other", "iteration": 0, "seed": 0, "data_cursor": 0, "adam_step": 0, "model": null}"#,
        );
        c.write_file(&path).unwrap();
        assert!(LitSimAdapter.convert(&path, &base, 1).is_err());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn hfsim_shards_by_budget_and_converts() {
        let base = std::env::temp_dir().join("ucp_hfsim_test");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let model = ModelConfig::gpt3_tiny();
        let states = fabricate_states(&model, 10);
        let src = base.join("hf");
        // Small budget → several model shard files.
        save_hfsim_checkpoint(&src, &model, 77, 10, 616, 77, &states, 64 * 1024).unwrap();
        let shard_files = std::fs::read_dir(&src)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("model-"))
            .count();
        assert!(shard_files > 1, "budget should split the model");

        let manifest = HfSimAdapter.convert(&src, &base, 77).unwrap();
        assert_eq!(manifest.iteration, 77);
        assert!(manifest.source_label.contains("hfsim"));
        assert_eq!(manifest.params.len(), states.len());

        // Atoms hold the exact original tensors.
        let universal = layout::universal_dir(&base, 77);
        let (name, orig, m, _) = &states[3];
        let atom =
            Container::read_file(&layout::atom_path(&universal, name, AtomFile::Fp32)).unwrap();
        assert!(atom.get("fp32").unwrap().bitwise_eq(orig));
        assert!(atom.get("exp_avg").unwrap().bitwise_eq(m));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn hfsim_missing_index_entry_detected() {
        let base = std::env::temp_dir().join("ucp_hfsim_bad");
        std::fs::remove_dir_all(&base).ok();
        let model = ModelConfig::gpt3_tiny();
        let states = fabricate_states(&model, 11);
        let src = base.join("hf");
        save_hfsim_checkpoint(&src, &model, 1, 11, 8, 1, &states, usize::MAX).unwrap();
        // Drop a key from the index.
        let index_path = src.join("model.index.json");
        let text = std::fs::read_to_string(&index_path).unwrap();
        let broken = text.replacen("lm_head.weight", "lm_head.weightX", 1);
        std::fs::write(&index_path, broken).unwrap();
        let err = HfSimAdapter.convert(&src, &base, 1).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::remove_dir_all(&base).ok();
    }
}
