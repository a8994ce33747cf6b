//! §3.1's mixed-precision rationale: "By keeping the fp32 weight/optimizer
//! values, the training can resume either with fp16 or bfloat16 MPT."
//!
//! The atoms store fp32 masters, so a run trained under bf16 mixed
//! precision can resume under fp16 (or full fp32) — the low-precision copy
//! is re-derived from the master at load time.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::tensor::DType;
use ucp_repro::trainer::{train_run, TrainConfig, TrainPlan};

#[test]
fn bf16_checkpoint_resumes_under_fp16_and_fp32() {
    let dir = scratch("switch");
    let model = ModelConfig::gpt3_tiny();
    let mut src = TrainConfig::quick(
        model.clone(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        91,
    );
    src.dtype = DType::BF16;
    let baseline = train_run(&TrainPlan::simple(src.clone(), 8)).unwrap();
    train_run(&saving(src.clone(), 4, 4, &dir)).unwrap();
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();

    for (dtype, tol) in [
        // Same precision: continuation is tight.
        (DType::BF16, 2e-3),
        // Different low precision: quantization of the model copy differs,
        // so curves drift slightly but must stay in the same regime.
        (DType::F16, 0.15),
        (DType::F32, 0.15),
    ] {
        let mut tgt = TrainConfig::quick(
            model.clone(),
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            91,
        );
        tgt.dtype = dtype;
        let resumed = train_run(&resuming(tgt, 8, &dir, 4)).unwrap();
        for ((ia, la), (ib, lb)) in baseline.losses[4..].iter().zip(&resumed.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < tol,
                "{dtype}: iteration {ia}, baseline {la} vs resumed {lb}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fp16_training_round_trips() {
    // A full fp16 run checkpoints and resumes natively and universally.
    let dir = scratch("fp16");
    let mut cfg = TrainConfig::quick(ModelConfig::llama_tiny(), ParallelConfig::single(), 92);
    cfg.dtype = DType::F16;
    let full = train_run(&TrainPlan::simple(cfg.clone(), 6)).unwrap();
    train_run(&saving(cfg.clone(), 3, 3, &dir)).unwrap();
    convert_to_universal(&dir, 3, &ConvertOptions::default()).unwrap();
    let resumed = train_run(&resuming(cfg, 6, &dir, 3)).unwrap();
    for ((ia, la), (ib, lb)) in full.losses[3..].iter().zip(&resumed.losses) {
        assert_eq!(ia, ib);
        assert!((la - lb).abs() < 2e-3, "iteration {ia}: {la} vs {lb}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
