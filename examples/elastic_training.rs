//! Elastic training under hardware failure — the paper's headline
//! motivation (Fig. 1).
//!
//! A job trains on 8 "GPUs" (TP2 × DP4). Half the hardware fails. With
//! native checkpoints the job is stuck waiting for repairs; with UCP it
//! resumes immediately on the 4 healthy GPUs (TP2 × DP2), and later scales
//! back out to 8 when capacity returns — without any loss-curve
//! discontinuity.
//!
//! ```sh
//! cargo run --release --example elastic_training
//! ```

use ucp_repro::core::convert::ConvertOptions;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::trainer::{
    convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainError, TrainPlan,
};

fn phase(cfg: TrainConfig, until: u64, resume: ResumeMode, dir: &std::path::Path, ckpt: u64) {
    let label = cfg.parallel.label();
    let world = cfg.parallel.world_size();
    let run = train_run(&TrainPlan {
        config: cfg,
        until_iteration: until,
        resume,
        checkpoint_every: Some(ckpt),
        checkpoint_dir: Some(dir.to_path_buf()),
    })
    .expect("phase");
    let (it, loss) = run.losses.last().unwrap();
    println!("  [{label} | {world} GPUs] trained to iteration {it}, loss {loss:.4}");
}

fn main() {
    let dir = std::env::temp_dir().join("ucp_elastic");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let model = ModelConfig::gpt3_tiny();
    let seed = 7;

    let full = ParallelConfig::new(2, 1, 4, 1, ZeroStage::Zero1); // 8 GPUs
    let degraded = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1); // 4 GPUs

    println!("phase 1: healthy cluster, 8 GPUs");
    phase(
        TrainConfig::quick(model.clone(), full, seed),
        10,
        ResumeMode::Fresh,
        &dir,
        10,
    );

    println!("!! simulated hardware failure: 4 of 8 GPUs lost");

    // Native resume on the shrunken cluster fails — this is the status quo
    // UCP replaces.
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(model.clone(), degraded, seed),
        until_iteration: 20,
        resume: ResumeMode::Native {
            dir: dir.clone(),
            step: 10,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .map(|_| ())
    .unwrap_err();
    println!("  native resume on 4 GPUs: REFUSED ({err})");
    assert!(matches!(err, TrainError::StrategyMismatch { .. }));

    // UCP path: convert once, resume on the healthy half.
    convert_checkpoint(&dir, 10, &ConvertOptions::default()).expect("conversion");
    println!("phase 2: continue on the 4 healthy GPUs via UCP");
    phase(
        TrainConfig::quick(model.clone(), degraded, seed),
        20,
        ResumeMode::Universal {
            dir: dir.clone(),
            step: 10,
        },
        &dir,
        20,
    );

    println!("++ capacity restored: scale back out to 8 GPUs");
    convert_checkpoint(&dir, 20, &ConvertOptions::default()).expect("conversion");
    phase(
        TrainConfig::quick(model, full, seed),
        30,
        ResumeMode::Universal {
            dir: dir.clone(),
            step: 20,
        },
        &dir,
        30,
    );
    println!("done: the job rode through failure and recovery with zero lost progress");
    std::fs::remove_dir_all(&dir).ok();
}
