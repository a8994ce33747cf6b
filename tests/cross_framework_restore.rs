//! Cross-framework restore: a foreign (litsim/Lightning-style)
//! consolidated checkpoint converts through the adapter and resumes under
//! distributed strategies, preserving the model state bitwise.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, scratch};
use ucp_repro::core::adapter::{save_litsim_checkpoint, LitSimAdapter, SourceAdapter};
use ucp_repro::core::pattern::ParamPattern;
use ucp_repro::model::{param_specs, ModelConfig};
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::tensor::{DetRng, Tensor};
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

fn fabricate(model: &ModelConfig, seed: u64) -> Vec<(String, Tensor, Tensor, Tensor)> {
    let rng = DetRng::new(seed);
    param_specs(model)
        .into_iter()
        .map(|s| {
            let w = s.materialize_full(&rng);
            let m = Tensor::randn(s.shape.clone(), 0.01, &rng.derive(&format!("m{}", s.name)));
            let v = Tensor::randn(s.shape.clone(), 0.001, &rng.derive(&format!("v{}", s.name)))
                .cast(ucp_repro::tensor::DType::F32);
            // Second moments must be non-negative for Adam.
            let v = Tensor::from_vec(
                v.as_slice().iter().map(|x| x.abs()).collect(),
                s.shape.clone(),
            )
            .unwrap();
            (s.name, w, m, v)
        })
        .collect()
}

#[test]
fn foreign_checkpoint_trains_under_every_axis() {
    let base = scratch("axes");
    let model = ModelConfig::gpt3_tiny();
    let states = fabricate(&model, 41);
    let ckpt = base.join("litsim.ckpt");
    save_litsim_checkpoint(&ckpt, &model, 50, 41, 400, 50, &states).unwrap();
    let manifest = LitSimAdapter.convert(&ckpt, &base, 50).unwrap();
    assert_eq!(manifest.iteration, 50);
    assert!(manifest
        .params
        .iter()
        .all(|a| a.pattern == ParamPattern::Unique));

    for target in [
        ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(1, 2, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
    ] {
        let run = train_run(&resuming(
            TrainConfig::quick(model.clone(), target, 41),
            52,
            &base,
            50,
        ))
        .unwrap();
        assert_eq!(run.start_iteration, 50);
        assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn adapter_preserves_adam_step_and_data_cursor() {
    let base = scratch("state");
    let model = ModelConfig::llama_tiny();
    let states = fabricate(&model, 42);
    let ckpt = base.join("litsim.ckpt");
    save_litsim_checkpoint(&ckpt, &model, 123, 42, 984, 123, &states).unwrap();
    let manifest = LitSimAdapter.convert(&ckpt, &base, 123).unwrap();
    assert_eq!(manifest.adam_step, 123);
    assert_eq!(manifest.data_cursor, 984);
    assert_eq!(manifest.seed, 42);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn round_trip_foreign_to_native_to_universal() {
    // litsim → UCP → train+save native → convert → UCP again: the full
    // interoperability cycle.
    let base = scratch("cycle");
    let model = ModelConfig::gpt3_tiny();
    let states = fabricate(&model, 43);
    let ckpt = base.join("litsim.ckpt");
    save_litsim_checkpoint(&ckpt, &model, 0, 43, 0, 0, &states).unwrap();
    LitSimAdapter.convert(&ckpt, &base, 0).unwrap();

    let native_dir = scratch("cycle_native");
    train_run(&TrainPlan {
        config: TrainConfig::quick(
            model.clone(),
            ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
            43,
        ),
        until_iteration: 3,
        resume: ResumeMode::Universal {
            dir: base.clone(),
            step: 0,
        },
        checkpoint_every: Some(3),
        checkpoint_dir: Some(native_dir.clone()),
    })
    .unwrap();
    let (manifest, _) = ucp_repro::core::convert_to_universal(
        &native_dir,
        3,
        &ucp_repro::core::ConvertOptions::default(),
    )
    .unwrap();
    assert_eq!(manifest.iteration, 3);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&native_dir).ok();
}
