//! The `params_to_average` pattern (Table 1): replicated parameters whose
//! copies were updated *independently* across ranks (as happens to norm
//! parameters under Megatron-style sequence parallelism) consolidate to
//! their elementwise mean.
//!
//! Our deterministic trainer never desynchronizes replicas on its own, so
//! this test reproduces the divergence the way it occurs in the wild:
//! after training, the saved TP replicas of a norm parameter are perturbed
//! apart, the checkpoint marks the parameter `params_to_average`, and the
//! conversion must (a) average it, (b) not trip the replica-equality
//! verifier, and (c) resume training with the averaged value.

use ucp_repro::core::checkpoint::{
    load_model_states, load_optim_states, save_model_states, save_optim_states,
};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::pattern::ParamPattern;
use ucp_repro::model::{ModelConfig, ParamStore};
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::storage::Container;
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

const NORM_PARAM: &str = "layers.0.input_layernorm.weight";

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_it_avg_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Desynchronize `NORM_PARAM` across the two TP replicas of a saved
/// checkpoint by ±`delta`, and mark it `params_to_average` in every header.
fn desync_checkpoint(dir: &std::path::Path, step: u64, parallel: ParallelConfig, delta: f32) {
    let step_dir = layout::step_dir(dir, step);
    for tp in 0..parallel.tp {
        let sign = if tp == 0 { 1.0 } else { -1.0 };
        for dp in 0..parallel.dp {
            let (mut common, mut shard) = load_optim_states(&step_dir, dp, tp, 0).unwrap();
            let slot = shard.layout.slot(NORM_PARAM).unwrap().clone();
            for frag in shard.layout.fragments_of(&slot) {
                if frag.dp_rank == dp {
                    for v in &mut shard.fp32[frag.chunk_offset..frag.chunk_offset + frag.len] {
                        *v += sign * delta;
                    }
                }
            }
            common.params_to_average = vec![NORM_PARAM.to_string()];
            save_optim_states(&step_dir, &common, tp, 0, &shard).unwrap();
        }
        // Keep the model-states header in sync (it is the metadata source
        // for conversion).
        let (mut common, params) = load_model_states(&step_dir, tp, 0).unwrap();
        common.params_to_average = vec![NORM_PARAM.to_string()];
        let mut store = ParamStore::new();
        for (name, t) in params {
            store.insert(name, t);
        }
        save_model_states(&step_dir, &common, tp, 0, &store).unwrap();
    }
}

#[test]
fn independently_updated_replicas_consolidate_to_mean() {
    let parallel = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
    let dir = scratch("mean");
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 13);
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();

    // Record the pre-desync value, then push replicas ±0.25 apart.
    let step_dir = layout::step_dir(&dir, 2);
    let (_, shard0) = load_optim_states(&step_dir, 0, 0, 0).unwrap();
    let slot = shard0.layout.slot(NORM_PARAM).unwrap().clone();
    let before = shard0.layout.unflatten_one(
        &{
            let mut full = Vec::new();
            for dp in 0..parallel.dp {
                full.extend_from_slice(&load_optim_states(&step_dir, dp, 0, 0).unwrap().1.fp32);
            }
            full
        },
        &slot,
    );
    desync_checkpoint(&dir, 2, parallel, 0.25);

    // Conversion with replica verification ON must not trip: the
    // parameter is declared params_to_average, not replicated.
    let (manifest, _) = convert_to_universal(
        &dir,
        2,
        &ConvertOptions {
            verify_replicas: true,
            ..ConvertOptions::default()
        },
    )
    .unwrap();
    let atom_meta = manifest.atom(NORM_PARAM).unwrap();
    assert_eq!(atom_meta.pattern, ParamPattern::ToAverage);

    // (+0.25) and (−0.25) average back to the original value.
    let universal = layout::universal_dir(&dir, 2);
    let atom = Container::read_file(&layout::atom_path(
        &universal,
        NORM_PARAM,
        layout::AtomFile::Fp32,
    ))
    .unwrap();
    let averaged = atom.get("fp32").unwrap();
    let diff = averaged.max_abs_diff(&before).unwrap();
    assert!(diff < 1e-6, "average deviates from midpoint by {diff}");

    // Other replicated parameters stay replicated and verified.
    let other = manifest.atom("layers.1.input_layernorm.weight").unwrap();
    assert_eq!(other.pattern, ParamPattern::Replicated);

    // The averaged checkpoint resumes under a new strategy.
    let resumed = train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            13,
        ),
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    assert!(resumed.losses.iter().all(|(_, l)| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn desynced_replicas_without_declaration_are_caught() {
    // Same divergence, but the checkpoint does NOT declare the parameter
    // params_to_average: the verifier must flag the inconsistency instead
    // of silently picking one replica.
    let parallel = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = scratch("caught");
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 14);
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    // Perturb only tp rank 1's replica, leaving params_to_average empty.
    let step_dir = layout::step_dir(&dir, 2);
    let (common, mut shard) = load_optim_states(&step_dir, 0, 1, 0).unwrap();
    let slot = shard.layout.slot(NORM_PARAM).unwrap().clone();
    for frag in shard.layout.fragments_of(&slot) {
        for v in &mut shard.fp32[frag.chunk_offset..frag.chunk_offset + frag.len] {
            *v += 0.5;
        }
    }
    save_optim_states(&step_dir, &common, 1, 0, &shard).unwrap();

    let err = convert_to_universal(
        &dir,
        2,
        &ConvertOptions {
            verify_replicas: true,
            ..ConvertOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("diverge"),
        "expected replica-divergence error, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
