//! MoE resharding: the Fig. 5 sub-patterns in action.
//!
//! A Mixtral-style mixture-of-experts model (8 experts, top-2 routing,
//! grouped-query attention) trains with expert weights *unsharded*
//! (TP=1, DP=4), then resumes with the 3-D expert tensors split across
//! TP=2 — exercising the `fragment_params` sub-patterns for 3-D MoE
//! weights and variable-size fused QKV (GQA) that §3.2 describes.
//!
//! ```sh
//! cargo run --release --example moe_resharding
//! ```

use ucp_repro::core::convert::ConvertOptions;
use ucp_repro::core::language::UcpSpec;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::trainer::{convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainPlan};

fn main() {
    let dir = std::env::temp_dir().join("ucp_moe_reshard");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let model = ModelConfig::moe_tiny();
    println!(
        "model: {} ({} params, {} experts, top-{} routing, {} q-heads / {} kv-heads)",
        model.family,
        model.num_parameters(),
        model.num_experts,
        model.top_k,
        model.num_heads,
        model.num_kv_heads
    );

    // Show what the UCP language derives for the interesting parameters.
    let spec = UcpSpec::from_model(&model, 2, &[]);
    for name in [
        "layers.0.moe.experts.dense_h_to_4h.weight",
        "layers.0.moe.experts.dense_4h_to_h.weight",
        "layers.0.moe.router.weight",
        "layers.0.attention.query_key_value.weight",
    ] {
        println!("  pattern[{name}] = {}", spec.pattern_of(name).unwrap());
    }

    // Source: experts unsharded, pure DP.
    let source = TrainConfig::quick(
        model.clone(),
        ParallelConfig::new(1, 2, 4, 1, ZeroStage::Zero1),
        31,
    );
    println!("\ntraining source {} (8 ranks)...", source.parallel.label());
    let run = train_run(&TrainPlan {
        config: source,
        until_iteration: 12,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(12),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    println!("  loss @12: {:.4}", run.losses.last().unwrap().1);

    let (manifest, _) = convert_checkpoint(&dir, 12, &ConvertOptions::default()).unwrap();
    let moe_atom = manifest
        .atom("layers.0.moe.experts.dense_h_to_4h.weight")
        .unwrap();
    println!(
        "  atom {} shape {} pattern {}, stored as {} sub-atoms (one per expert)",
        moe_atom.name,
        moe_atom.shape,
        moe_atom.pattern,
        moe_atom.parts()
    );

    // Target: expert FFN dimension split across TP=2.
    let target = TrainConfig::quick(model, ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1), 31);
    println!(
        "resuming target {} (8 ranks, experts TP-sharded)...",
        target.parallel.label()
    );
    let resumed = train_run(&TrainPlan {
        config: target,
        until_iteration: 24,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 12,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    println!("  loss @24: {:.4}", resumed.losses.last().unwrap().1);
    println!("MoE expert tensors were split along their 3-D FFN dimension and training continued");
    std::fs::remove_dir_all(&dir).ok();
}
