//! Failure injection: corruption, missing files, and truncation must be
//! detected loudly, never silently absorbed into training state.

use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_it_fail_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        21,
    );
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    dir
}

/// Flip one bit deep inside a file's payload.
fn corrupt(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let idx = bytes.len() * 3 / 4;
    bytes[idx] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn corrupted_optim_chunk_fails_conversion() {
    let dir = make_checkpoint("corrupt_optim");
    let victim = layout::optim_states_path(&layout::step_dir(&dir, 2), 1, 0, 0);
    corrupt(&victim);
    let err = convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("malformed") || msg.contains("corrupt"),
        "unexpected error: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_atom_fails_load() {
    let dir = make_checkpoint("corrupt_atom");
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let victim = layout::atom_path(
        &layout::universal_dir(&dir, 2),
        "lm_head.weight",
        layout::AtomFile::ExpAvg,
    );
    corrupt(&victim);
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            21,
        ),
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_atom_fails_load_with_clear_error() {
    let dir = make_checkpoint("missing_atom");
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let victim = layout::atom_path(
        &layout::universal_dir(&dir, 2),
        "layers.3.mlp.dense_h_to_4h.weight",
        layout::AtomFile::Fp32,
    );
    std::fs::remove_file(&victim).unwrap();
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            21,
        ),
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("io error"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_manifest_detected() {
    let dir = make_checkpoint("trunc_manifest");
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let manifest_path = layout::manifest_path(&layout::universal_dir(&dir, 2));
    let bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &bytes[..bytes.len() / 2]).unwrap();
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            21,
        ),
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(!err.to_string().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_checkpoint_step_is_a_clean_error() {
    let dir = scratch("missing_step");
    let err = convert_to_universal(&dir, 7, &ConvertOptions::default()).unwrap_err();
    assert!(err.to_string().contains("io error"), "{err}");
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 1),
        until_iteration: 1,
        resume: ResumeMode::Native {
            dir: dir.clone(),
            step: 7,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_wrong_architecture_is_rejected() {
    let dir = make_checkpoint("wrong_arch");
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    // Llama-tiny has different parameters entirely.
    let err = train_run(&TrainPlan {
        config: TrainConfig::quick(ModelConfig::llama_tiny(), ParallelConfig::single(), 21),
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("architecture differs"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_indivisible_target_is_rejected() {
    let dir = make_checkpoint("bad_target");
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    // PP=3 does not divide 8 layers.
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 3, 1, 1, ZeroStage::Zero1),
        21,
    );
    let err = train_run(&TrainPlan {
        config: cfg,
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("divisible"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
