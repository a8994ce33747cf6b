//! Integration test for the paper's Algorithm 1: the complete Extract →
//! PatternMatch → Union → StripPadding workflow over a real distributed
//! checkpoint, asserted bitwise.
//!
//! The consolidation path is pure data movement, so the reconstructed
//! atoms must equal the mathematically-expected tensors exactly — no
//! tolerance.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{saving, scratch};
use ucp_repro::core::checkpoint::load_optim_states;
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::language::UcpSpec;
use ucp_repro::core::load::{gen_ucp_metadata, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_repro::core::manifest::UcpManifest;
use ucp_repro::core::ops::{extract_flat, union_flat, union_tp};
use ucp_repro::core::pattern::ParamPattern;
use ucp_repro::model::{param_specs, ModelConfig, Partition};
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::storage::Container;
use ucp_repro::tensor::Tensor;
use ucp_repro::trainer::{train_run, TrainConfig};

/// Train briefly and checkpoint, returning the checkpoint dir and step.
fn make_checkpoint(parallel: ParallelConfig, name: &str) -> (std::path::PathBuf, u64) {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 99);
    train_run(&saving(cfg, 3, 3, &dir)).unwrap();
    (dir, 3)
}

#[test]
fn manual_algorithm1_equals_convert_to_universal() {
    // Run the Extract/Union/Strip workflow by hand for one parameter and
    // compare against what convert_to_universal wrote.
    let parallel = ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1);
    let (dir, step) = make_checkpoint(parallel, "manual");
    convert_to_universal(&dir, step, &ConvertOptions::default()).unwrap();

    let model = ModelConfig::gpt3_tiny();
    let spec = UcpSpec::from_model(&model, parallel.tp, &[]);
    let step_dir = layout::step_dir(&dir, step);
    let universal = layout::universal_dir(&dir, step);

    // The fused QKV of layer 0 lives on pipeline stage 0 and is
    // TP-sharded with the grouped sub-pattern.
    let target_param = "layers.0.attention.query_key_value.weight";
    let pattern = spec.pattern_of(target_param).unwrap();
    assert_eq!(pattern.paper_name(), "fragment_params");

    // Extract per (tp, dp), flat-union per tp, then tp-union.
    let mut tp_shards = Vec::new();
    for tp in 0..parallel.tp {
        let mut fragments = Vec::new();
        let mut slot_info = None;
        for dp in 0..parallel.dp {
            let (_, shard) = load_optim_states(&step_dir, dp, tp, 0).unwrap();
            for (name, frag) in extract_flat(&shard.layout, dp, &shard.fp32) {
                if name == target_param {
                    fragments.push(frag);
                }
            }
            slot_info = shard.layout.slot(target_param).cloned();
        }
        let slot = slot_info.expect("qkv lives on stage 0");
        let flat = union_flat(slot.len, &fragments).unwrap();
        tp_shards.push(Tensor::from_vec(flat, slot.shape.clone()).unwrap());
    }
    let manual_atom = union_tp(pattern, &tp_shards, true).unwrap();

    // Compare with the machine-written atom file.
    let atom_file = layout::atom_path(&universal, target_param, layout::AtomFile::Fp32);
    let c = Container::read_file(&atom_file).unwrap();
    let written = c.get("fp32").unwrap();
    assert!(
        manual_atom.bitwise_eq(written),
        "manual Algorithm 1 result differs from convert_to_universal"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atoms_cover_every_parameter_with_correct_shapes() {
    let parallel = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let (dir, step) = make_checkpoint(parallel, "coverage");
    let (manifest, stats) = convert_to_universal(&dir, step, &ConvertOptions::default()).unwrap();

    let model = ModelConfig::gpt3_tiny();
    let specs = param_specs(&model);
    assert_eq!(manifest.params.len(), specs.len());
    assert_eq!(stats.atoms_written, specs.len(), "one atom per parameter");
    let universal = layout::universal_dir(&dir, step);
    for s in &specs {
        let atom = manifest.atom(&s.name).expect("atom for every param");
        assert_eq!(atom.shape, s.shape, "{}", s.name);
        let path = layout::atom_path(&universal, &s.name, layout::AtomFile::Fp32);
        assert!(path.is_file(), "missing {}", path.display());
        let c = Container::read_file(&path).unwrap();
        assert_eq!(c.sections.len(), 3, "{}", s.name);
        for file in layout::AtomFile::ALL {
            let t = c.get(file.state_key()).unwrap();
            assert_eq!(t.shape(), &s.shape, "{} {}", s.name, file.state_key());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reshard_roundtrip_is_bitwise_exact() {
    // Pure data movement invariant: convert source → load target ranks →
    // reassemble the full fp32 state from the target shards → must equal
    // the atoms bitwise.
    let source_parallel = ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1);
    let (dir, step) = make_checkpoint(source_parallel, "roundtrip");
    let (manifest, _) = convert_to_universal(&dir, step, &ConvertOptions::default()).unwrap();
    let universal = layout::universal_dir(&dir, step);
    let session = LoadSession::open(&dir, step, LoadOptions::default()).unwrap();
    let model = manifest.model.clone();
    let specs = param_specs(&model);

    for target in [
        ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero2),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        ParallelConfig::new(1, 4, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(4, 1, 1, 1, ZeroStage::Zero3),
    ] {
        // Load every rank's state and regroup the model_params per (pp) by
        // tp-rank order, then unshard.
        for pp in 0..target.pp {
            let mut per_param_shards: std::collections::BTreeMap<String, Vec<Tensor>> =
                Default::default();
            for tp in 0..target.tp {
                let rank = target.rank_of(ucp_repro::parallel::RankCoord {
                    dp: 0,
                    pp,
                    sp: 0,
                    tp,
                });
                let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
                let state = session.load_plan(&plan).unwrap();
                for (name, t) in state.model_params {
                    per_param_shards
                        .entry(name.to_string())
                        .or_default()
                        .push(std::sync::Arc::unwrap_or_clone(t));
                }
            }
            for (name, shards) in per_param_shards {
                let spec = specs.iter().find(|s| s.name == name).unwrap();
                let rebuilt = if target.tp == 1 {
                    shards[0].clone()
                } else {
                    match &spec.partition {
                        Partition::Replicated => shards[0].clone(),
                        p => p.unshard(&shards),
                    }
                };
                let atom_file = layout::atom_path(&universal, &name, layout::AtomFile::Fp32);
                let atom = Container::read_file(&atom_file).unwrap();
                assert!(
                    rebuilt.bitwise_eq(atom.get("fp32").unwrap()),
                    "{name} under target {} differs from its atom",
                    target.label()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_records_training_state() {
    let parallel = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2);
    let (dir, step) = make_checkpoint(parallel, "manifest");
    let (manifest, _) = convert_to_universal(&dir, step, &ConvertOptions::default()).unwrap();
    assert_eq!(manifest.iteration, step);
    assert_eq!(manifest.seed, 99);
    assert_eq!(manifest.adam_step, step);
    assert_eq!(manifest.source_label, parallel.label());
    // Manifest reloads identically from disk.
    let reloaded = UcpManifest::load(&layout::universal_dir(&dir, step)).unwrap();
    assert_eq!(reloaded, manifest);
    // ToAverage never appears without trainer opt-in.
    assert!(reloaded
        .params
        .iter()
        .all(|a| a.pattern != ParamPattern::ToAverage));
    std::fs::remove_dir_all(&dir).ok();
}
