//! Configuration-validation edge cases: every invalid combination must be
//! rejected with an actionable message before any rank spawns.

use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::trainer::{
    supervise, train_run, Persist, SavePolicy, SupervisorOptions, TrainConfig, TrainError,
    TrainPlan,
};

fn expect_plan_error(mut mutate: impl FnMut(&mut TrainPlan), needle: &str) {
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        1,
    );
    let mut plan = TrainPlan::simple(cfg, 1);
    mutate(&mut plan);
    let err = train_run(&plan).unwrap_err();
    assert!(
        matches!(err, TrainError::Config(_)),
        "not a config error: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains(needle), "expected '{needle}' in: {msg}");
}

fn expect_config_error(mut mutate: impl FnMut(&mut TrainConfig), needle: &str) {
    expect_plan_error(|plan| mutate(&mut plan.config), needle);
}

/// A zero cadence used to reach `iteration % every` on a rank thread.
#[test]
fn zero_checkpoint_cadence_rejected() {
    expect_plan_error(
        |p| {
            p.checkpoint_every = Some(0);
            p.checkpoint_dir = Some(std::env::temp_dir().join("ucp_cfg_zero_cadence"));
        },
        "checkpoint_every must be >= 1",
    );
}

/// A cadence with nowhere to save used to train silently without saving.
#[test]
fn cadence_without_a_directory_rejected() {
    expect_plan_error(|p| p.checkpoint_every = Some(1), "checkpoint_dir is None");
}

/// The born-universal pipeline runs on the background writers only an
/// overlapped persist spawns; asking for it with synchronous saves is
/// rejected, naming both fields.
#[test]
fn universal_saves_require_overlapped_persist() {
    let policy = SavePolicy {
        persist: Persist::Sync,
        universal: true,
    };
    let msg = policy.validate(None, 2).unwrap_err();
    assert!(
        msg.contains("persist") && msg.contains("universal"),
        "{msg}"
    );
    // ...and the supervisor refuses the run up front.
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 1);
    let opts = SupervisorOptions {
        save: policy,
        ..SupervisorOptions::default()
    };
    let err = supervise(&TrainPlan::simple(cfg, 1), &opts).unwrap_err();
    assert!(err.to_string().contains("persist: Sync"), "{err}");
}

#[test]
fn batch_must_divide_by_dp() {
    expect_config_error(|c| c.global_batch = 7, "not divisible by DP");
}

#[test]
fn replica_batch_must_divide_by_microbatch() {
    expect_config_error(
        |c| {
            c.global_batch = 12;
            c.micro_batch = 4;
        },
        "not divisible by microbatch",
    );
}

#[test]
fn layers_must_divide_by_pp() {
    expect_config_error(
        |c| c.parallel = ParallelConfig::new(1, 3, 1, 1, ZeroStage::Zero1),
        "not divisible by PP",
    );
}

#[test]
fn seq_must_divide_by_sp() {
    expect_config_error(
        |c| c.parallel = ParallelConfig::new(1, 1, 1, 3, ZeroStage::Zero1),
        "not divisible by SP",
    );
}

#[test]
fn heads_must_divide_by_tp() {
    expect_config_error(
        |c| c.parallel = ParallelConfig::new(8, 1, 1, 1, ZeroStage::Zero1),
        "num_heads",
    );
}

#[test]
fn unpadded_vocab_must_divide_by_tp() {
    expect_config_error(
        |c| {
            c.model.vocab_size = 255;
            c.parallel = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
        },
        "vocab",
    );
}

#[test]
fn zero_degrees_rejected() {
    expect_config_error(
        |c| c.parallel = ParallelConfig::new(0, 1, 1, 1, ZeroStage::Zero1),
        "degrees",
    );
}

#[test]
fn gqa_head_ratio_must_divide() {
    expect_config_error(|c| c.model.num_kv_heads = 3, "num_kv_heads");
}
