//! Tied embeddings (GPT-2/BLOOM style) under pipeline parallelism: the
//! word-embedding weight doubles as the LM head, lives on *both* the first
//! and last pipeline stages, and its gradients are summed across the
//! shared-embedding group — a parameter that belongs to two stages at
//! once, which the checkpoint machinery must treat as one logical atom.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use ucp_repro::core::checkpoint::load_optim_states;
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{train_run, TrainConfig, TrainPlan};

#[test]
fn tied_model_has_no_lm_head_parameter() {
    let model = ModelConfig::gpt3_tiny_tied();
    let specs = ucp_repro::model::param_specs(&model);
    assert!(!specs.iter().any(|s| s.name == "lm_head.weight"));
    assert!(specs
        .iter()
        .any(|s| s.name == "embedding.word_embeddings.weight"
            && s.role == ucp_repro::model::LayerRole::SharedEmbedding));
    // The tied model has fewer parameters than the untied one.
    assert!(model.num_parameters() < ModelConfig::gpt3_tiny().num_parameters());
}

#[test]
fn tied_losses_match_across_pipeline_depths() {
    // pp=1 accumulates embedding+head grads in one buffer; pp>1 sums them
    // across the shared-embedding group. Same math, same losses.
    let losses = |pp: usize, dp: usize| -> Vec<f64> {
        let cfg = TrainConfig::quick(
            ModelConfig::gpt3_tiny_tied(),
            ParallelConfig::new(1, pp, dp, 1, ZeroStage::Zero1),
            111,
        );
        train_run(&TrainPlan::simple(cfg, 4))
            .unwrap()
            .losses
            .into_iter()
            .map(|(_, l)| l)
            .collect()
    };
    let base = losses(1, 1);
    for (pp, dp) in [(2usize, 1usize), (4, 1), (2, 2)] {
        let other = losses(pp, dp);
        for (i, (a, b)) in base.iter().zip(&other).enumerate() {
            assert!(
                (a - b).abs() < 2e-3,
                "pp={pp} dp={dp} diverges at iteration {}: {a} vs {b}",
                i + 1
            );
        }
    }
}

#[test]
fn tied_replicas_stay_in_sync_across_stages() {
    // After training with pp=2, the checkpoint's stage-0 and stage-1 copies
    // of the tied weight must be bitwise identical (the grad sync works).
    let dir = scratch("sync");
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny_tied(),
        ParallelConfig::new(1, 2, 1, 1, ZeroStage::Zero1),
        112,
    );
    train_run(&saving(cfg, 3, 3, &dir)).unwrap();
    let step_dir = layout::step_dir(&dir, 3);
    let extract_tied = |pp: usize| -> Vec<f32> {
        let (_, shard) = load_optim_states(&step_dir, 0, 0, pp).unwrap();
        let slot = shard
            .layout
            .slot("embedding.word_embeddings.weight")
            .expect("tied weight on both stages")
            .clone();
        shard.fp32[slot.offset..slot.offset + slot.len].to_vec()
    };
    let first = extract_tied(0);
    let last = extract_tied(1);
    assert_eq!(first, last, "tied replicas drifted apart");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tied_checkpoint_converts_once_and_reshards() {
    let dir = scratch("reshard");
    let model = ModelConfig::gpt3_tiny_tied();
    let src = TrainConfig::quick(
        model.clone(),
        ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        113,
    );
    let baseline = train_run(&TrainPlan::simple(src.clone(), 6)).unwrap();
    train_run(&saving(src, 3, 3, &dir)).unwrap();
    let (manifest, _) = convert_to_universal(&dir, 3, &ConvertOptions::default()).unwrap();
    // One logical atom despite living on two stages; no lm_head atom.
    assert_eq!(
        manifest
            .params
            .iter()
            .filter(|a| a.name == "embedding.word_embeddings.weight")
            .count(),
        1
    );
    assert!(manifest.atom("lm_head.weight").is_none());

    // Resume under different pipeline depths, including pp=1 (single copy)
    // and pp=4 (two copies again).
    for target in [
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
        ParallelConfig::new(1, 4, 1, 1, ZeroStage::Zero1),
    ] {
        let tgt = TrainConfig::quick(model.clone(), target, 113);
        let resumed = train_run(&resuming(tgt, 6, &dir, 3)).unwrap();
        for ((ia, la), (ib, lb)) in baseline.losses[3..].iter().zip(&resumed.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 2e-3,
                "{}: iteration {ia}, baseline {la} vs resumed {lb}",
                target.label()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
