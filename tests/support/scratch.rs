//! Scratch trees for integration tests: fresh directories, and the runs
//! that save into them and resume from them.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use std::path::Path;

use ucp_repro::trainer::{ResumeMode, TrainConfig, TrainPlan};

/// A fresh, empty directory under the system temp dir. Its name carries
/// this process's id, so two test processes on one host never share — or
/// remove — each other's trees.
pub fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_it_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Train `config` from scratch to `until`, saving every `every` steps under
/// `dir`.
pub fn saving(config: TrainConfig, until: u64, every: u64, dir: &Path) -> TrainPlan {
    TrainPlan {
        config,
        until_iteration: until,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.to_path_buf()),
    }
}

/// Resume `config` from the universal checkpoint of `step` under `dir` and
/// train to `until`, saving nothing.
pub fn resuming(config: TrainConfig, until: u64, dir: &Path, step: u64) -> TrainPlan {
    TrainPlan {
        config,
        until_iteration: until,
        resume: ResumeMode::Universal {
            dir: dir.to_path_buf(),
            step,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    }
}
