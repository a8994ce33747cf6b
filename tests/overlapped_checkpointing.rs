//! Overlapped (snapshot + background persist) checkpointing must produce
//! checkpoints byte-identical to the synchronous path while blocking
//! training for less time, and the results must convert/resume normally.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::scratch;
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{train_run, train_run_overlapped, ResumeMode, TrainConfig, TrainPlan};

fn plan(dir: &std::path::Path, seed: u64) -> TrainPlan {
    TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            seed,
        ),
        until_iteration: 6,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.to_path_buf()),
    }
}

fn tree_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&p).unwrap()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn overlapped_checkpoints_are_byte_identical_to_sync() {
    let sync_dir = scratch("sync");
    let async_dir = scratch("async");
    let sync_run = train_run(&plan(&sync_dir, 61)).unwrap();
    let async_run = train_run_overlapped(&plan(&async_dir, 61)).unwrap();

    // Identical losses (checkpointing never perturbs training).
    assert_eq!(sync_run.losses, async_run.losses);

    // Identical checkpoint trees for every saved step.
    for step in [2u64, 4, 6] {
        let a = tree_bytes(&layout::step_dir(&sync_dir, step));
        let b = tree_bytes(&layout::step_dir(&async_dir, step));
        assert!(!a.is_empty());
        assert_eq!(a, b, "step {step} differs between sync and overlapped");
    }
    // The marker points at the last step.
    assert_eq!(layout::read_latest(&async_dir), Some(6));
    std::fs::remove_dir_all(&sync_dir).ok();
    std::fs::remove_dir_all(&async_dir).ok();
}

#[test]
fn overlapped_checkpoint_converts_and_resumes() {
    let dir = scratch("resume");
    train_run_overlapped(&plan(&dir, 62)).unwrap();
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    let resumed = train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
            62,
        ),
        until_iteration: 6,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 4,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    assert_eq!(resumed.start_iteration, 4);
    assert!(resumed.losses.iter().all(|(_, l)| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}
