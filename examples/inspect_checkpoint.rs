//! Checkpoint inspector: prints the structure of a native distributed
//! checkpoint and its universal counterpart — file layout, flat ZeRO
//! layout with alignment padding, per-parameter patterns, and atom index.
//!
//! ```sh
//! cargo run --release --example inspect_checkpoint
//! ```

use ucp_repro::core::checkpoint::{load_model_states, load_optim_states};
use ucp_repro::core::convert::ConvertOptions;
use ucp_repro::core::manifest::UcpManifest;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainPlan};

fn main() {
    let dir = std::env::temp_dir().join("ucp_inspect");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Produce a checkpoint to inspect: TP2 × DP2 ZeRO-2 GPT.
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero2),
        5,
    );
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 4,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(4),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();

    let step_dir = layout::step_dir(&dir, 4);
    println!(
        "=== native distributed checkpoint: {} ===",
        step_dir.display()
    );
    println!(
        "total size: {} bytes; latest marker: step {:?}",
        layout::dir_size_bytes(&step_dir),
        layout::read_latest(&dir)
    );

    let (common, params) = load_model_states(&step_dir, 0, 0).unwrap();
    println!(
        "\nmodel_states (tp=0, pp=0): iteration {}, strategy {}, {} bf16 shards",
        common.iteration,
        common.parallel.label(),
        params.len()
    );
    for (name, t) in params.iter().take(5) {
        println!("  {:<50} {} {}", name, t.shape(), t.dtype());
    }
    println!("  ... ({} more)", params.len().saturating_sub(5));

    let (_, shard) = load_optim_states(&step_dir, 1, 0, 0).unwrap();
    println!(
        "\noptim_states (dp=1, tp=0, pp=0): flat chunk of {} elements (alignment {}, {} slots)",
        shard.fp32.len(),
        shard.layout.alignment,
        shard.layout.slots.len()
    );
    println!("  flat layout (first 5 slots):");
    for slot in shard.layout.slots.iter().take(5) {
        println!(
            "    [{:>7}..{:>7}) {:<50} {} ({} pad)",
            slot.offset,
            slot.offset + slot.padded_len,
            slot.name,
            slot.shape,
            slot.padded_len - slot.len
        );
    }
    let straddlers = shard
        .layout
        .slots
        .iter()
        .filter(|s| shard.layout.fragments_of(s).len() > 1)
        .count();
    println!(
        "  {} of {} parameters straddle DP-chunk boundaries (flat fragment_params)",
        straddlers,
        shard.layout.slots.len()
    );

    convert_checkpoint(&dir, 4, &ConvertOptions::default()).unwrap();
    let universal = layout::universal_dir(&dir, 4);
    println!("\n=== universal checkpoint: {} ===", universal.display());
    println!("total size: {} bytes", layout::dir_size_bytes(&universal));
    let manifest = UcpManifest::load(&universal).unwrap();
    println!(
        "manifest: iteration {}, source {}, {} atoms",
        manifest.iteration,
        manifest.source_label,
        manifest.params.len()
    );
    println!("  atom index (first 8):");
    for atom in manifest.params.iter().take(8) {
        // A split parameter (a MoE expert weight) is still one atom: its
        // entry says how many sub-atom files it is stored as.
        let parts = atom
            .parts
            .map_or(String::new(), |n| format!(" in {n} parts"));
        println!(
            "    {:<50} {} {}{parts}",
            atom.name, atom.shape, atom.pattern
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
