//! On-disk directory layouts for native distributed checkpoints and for
//! universal (atom) checkpoints, mirroring DeepSpeed's conventions.
//!
//! Native distributed checkpoint (what training writes every interval):
//!
//! ```text
//! <base>/global_step<N>/
//!   mp_rank_<tp>_<pp>/model_states.ucpt          one per (tp, pp)
//!   zero/dp<dp>_mp<tp>_<pp>/optim_states.ucpt    one per (dp, tp, pp)
//! <base>/latest                                  text file: "global_step<N>"
//! ```
//!
//! Universal checkpoint (what UCP conversion produces):
//!
//! ```text
//! <base>/global_step<N>_universal/
//!   manifest.ucpt                                training state + param index
//!   zero/<param_name>/fp32.ucpt
//!   zero/<param_name>/exp_avg.ucpt
//!   zero/<param_name>/exp_avg_sq.ucpt
//!   zero/<split_param>/<part>.ucpt               a parameter the manifest lists
//!                                                with `parts: E` has E sub-atoms
//!                                                instead (000.ucpt, 001.ucpt, ...)
//! <base>/latest_universal                        text file
//! ```
//!
//! A sub-atom is one atom-format container holding slice `<part>` of the
//! parameter's leading dimension (one MoE expert) for all three states —
//! sections `fp32`, `exp_avg`, `exp_avg_sq` — so a save rewrites only the
//! parts a step touched, one new file each, and hard-links the rest.

use std::path::{Path, PathBuf};

use crate::Result;

/// Native checkpoint directory for a step.
pub fn step_dir(base: &Path, step: u64) -> PathBuf {
    base.join(format!("global_step{step}"))
}

/// Universal checkpoint directory for a step.
pub fn universal_dir(base: &Path, step: u64) -> PathBuf {
    base.join(format!("global_step{step}_universal"))
}

/// Model-states file for a (tp, pp) model slice.
pub fn model_states_path(step_dir: &Path, tp: usize, pp: usize) -> PathBuf {
    step_dir.join(format!("mp_rank_{tp:02}_{pp:03}/model_states.ucpt"))
}

/// Optimizer-states file for a (dp, tp, pp) rank.
pub fn optim_states_path(step_dir: &Path, dp: usize, tp: usize, pp: usize) -> PathBuf {
    step_dir.join(format!(
        "zero/dp{dp:02}_mp{tp:02}_{pp:03}/optim_states.ucpt"
    ))
}

/// Directory holding one parameter's atom checkpoint.
pub fn atom_dir(universal_dir: &Path, param: &str) -> PathBuf {
    universal_dir.join("zero").join(param)
}

/// The three files of an atom checkpoint (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomFile {
    /// fp32 master weights.
    Fp32,
    /// Adam first moment.
    ExpAvg,
    /// Adam second moment.
    ExpAvgSq,
}

impl AtomFile {
    /// All three atom files.
    pub const ALL: [AtomFile; 3] = [AtomFile::Fp32, AtomFile::ExpAvg, AtomFile::ExpAvgSq];

    /// File name inside the atom directory.
    pub fn file_name(self) -> &'static str {
        match self {
            AtomFile::Fp32 => "fp32.ucpt",
            AtomFile::ExpAvg => "exp_avg.ucpt",
            AtomFile::ExpAvgSq => "exp_avg_sq.ucpt",
        }
    }

    /// DeepSpeed state key this file corresponds to.
    pub fn state_key(self) -> &'static str {
        match self {
            AtomFile::Fp32 => "fp32",
            AtomFile::ExpAvg => "exp_avg",
            AtomFile::ExpAvgSq => "exp_avg_sq",
        }
    }
}

/// Path of one atom file.
pub fn atom_path(universal_dir: &Path, param: &str, file: AtomFile) -> PathBuf {
    atom_part_path(universal_dir, param, file, None)
}

/// Path of the file holding state `file` of a parameter that may be
/// split: the whole parameter's `file` for `None`, or sub-atom `part`'s one
/// file, which holds all three states as sections. Both live in the
/// parameter's one atom directory.
pub fn atom_part_path(
    universal_dir: &Path,
    param: &str,
    file: AtomFile,
    part: Option<usize>,
) -> PathBuf {
    let dir = atom_dir(universal_dir, param);
    match part {
        None => dir.join(file.file_name()),
        Some(part) => dir.join(format!("{part:03}.ucpt")),
    }
}

/// The files one atom is stored in, each with the states it holds: a whole
/// parameter's (`part: None`) three files of one state each, or sub-atom
/// `part`'s single file of all three.
pub fn atom_files(
    universal_dir: &Path,
    param: &str,
    part: Option<usize>,
) -> Vec<(PathBuf, &'static [AtomFile])> {
    let states_per_file = if part.is_some() {
        AtomFile::ALL.len()
    } else {
        1
    };
    AtomFile::ALL
        .chunks(states_per_file)
        .map(|states| {
            let path = atom_part_path(universal_dir, param, states[0], part);
            (path, states)
        })
        .collect()
}

/// Manifest path of a universal checkpoint.
pub fn manifest_path(universal_dir: &Path) -> PathBuf {
    universal_dir.join("manifest.ucpt")
}

/// Record the latest native checkpoint step. The marker is the commit
/// point of a save: it is staged, fsynced, and renamed into place
/// atomically so a crash can never leave a torn marker referencing a
/// half-written checkpoint.
pub fn write_latest(base: &Path, step: u64) -> Result<()> {
    std::fs::create_dir_all(base)?;
    crate::commit::atomic_write(
        &base.join("latest"),
        format!("global_step{step}").as_bytes(),
    )
}

/// Read the latest native checkpoint step, if any.
pub fn read_latest(base: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(base.join("latest")).ok()?;
    text.trim().strip_prefix("global_step")?.parse().ok()
}

/// Record the latest universal checkpoint step (atomic, like
/// [`write_latest`]).
pub fn write_latest_universal(base: &Path, step: u64) -> Result<()> {
    std::fs::create_dir_all(base)?;
    crate::commit::atomic_write(
        &base.join("latest_universal"),
        format!("global_step{step}_universal").as_bytes(),
    )
}

/// Publish both commit markers of one save: the native `latest` first,
/// then (when `universal` is set) `latest_universal`.
///
/// The ordering is a crash-safety invariant, not a convenience: retention
/// pins and prunes the native step and its universal sibling *together*,
/// keyed on the two markers, and resume trusts `latest_universal` without
/// re-validating the tree it names. Publishing native-first guarantees
/// `read_latest_universal(base) <= read_latest(base)` after a crash at any
/// byte of either write — the universal marker can lag one save behind the
/// native one, but can never point at a step whose native fragments were
/// pruned or never drained. (Each marker write is individually atomic; the
/// universal tree it names was made durable — atoms, then manifest —
/// before this is called.)
pub fn publish_step_markers(base: &Path, step: u64, universal: bool) -> Result<()> {
    write_latest(base, step)?;
    if universal {
        write_latest_universal(base, step)?;
    }
    Ok(())
}

/// Read the latest universal checkpoint step, if any.
pub fn read_latest_universal(base: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(base.join("latest_universal")).ok()?;
    text.trim()
        .strip_prefix("global_step")?
        .strip_suffix("_universal")?
        .parse()
        .ok()
}

/// Total size in bytes of all regular files under `dir` (recursive).
pub fn dir_size_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_size_bytes(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shapes_match_deepspeed_conventions() {
        let base = Path::new("/ckpt");
        let sd = step_dir(base, 100);
        assert_eq!(sd, Path::new("/ckpt/global_step100"));
        assert_eq!(
            model_states_path(&sd, 1, 2),
            Path::new("/ckpt/global_step100/mp_rank_01_002/model_states.ucpt")
        );
        assert_eq!(
            optim_states_path(&sd, 3, 1, 0),
            Path::new("/ckpt/global_step100/zero/dp03_mp01_000/optim_states.ucpt")
        );
        let ud = universal_dir(base, 100);
        assert_eq!(
            atom_path(&ud, "layers.0.mlp.weight", AtomFile::ExpAvg),
            Path::new("/ckpt/global_step100_universal/zero/layers.0.mlp.weight/exp_avg.ucpt")
        );
        let part = Path::new("/ckpt/global_step100_universal/zero/layers.0.moe.experts.w/007.ucpt");
        for file in AtomFile::ALL {
            assert_eq!(
                atom_part_path(&ud, "layers.0.moe.experts.w", file, Some(7)),
                part
            );
        }
        assert_eq!(
            atom_files(&ud, "layers.0.moe.experts.w", Some(7)),
            vec![(part.to_path_buf(), &AtomFile::ALL[..])]
        );
        let whole = atom_files(&ud, "layers.0.mlp.weight", None);
        assert_eq!(whole.len(), 3);
        assert_eq!(
            whole[1].0,
            atom_path(&ud, "layers.0.mlp.weight", AtomFile::ExpAvg)
        );
        assert_eq!(whole[1].1, [AtomFile::ExpAvg]);
    }

    #[test]
    fn latest_roundtrip() {
        let dir = std::env::temp_dir().join("ucpt_layout_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_latest(&dir, 123).unwrap();
        assert_eq!(read_latest(&dir), Some(123));
        write_latest_universal(&dir, 456).unwrap();
        assert_eq!(read_latest_universal(&dir), Some(456));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_marker_write_preserves_previous_marker() {
        use crate::io::fault::{self, FaultPlan};
        let dir = std::env::temp_dir().join(format!("ucpt_layout_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_latest(&dir, 10).unwrap();
        // Tear the very first write of the new marker after 6 bytes: the
        // published marker must still read as step 10, with the torn
        // bytes confined to the staging file.
        let armed = fault::arm(FaultPlan {
            truncate_to: Some(6),
            ..FaultPlan::kill_at(0, &dir)
        });
        assert!(write_latest(&dir, 20).is_err());
        drop(armed);
        assert_eq!(read_latest(&dir), Some(10));
        assert_eq!(std::fs::read(dir.join("latest.tmp")).unwrap(), b"global");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dual_publish_orders_native_before_universal() {
        use crate::io::fault::{self, FaultPlan};
        let dir = std::env::temp_dir().join(format!("ucpt_layout_dual_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        publish_step_markers(&dir, 10, true).unwrap();
        assert_eq!(read_latest(&dir), Some(10));
        assert_eq!(read_latest_universal(&dir), Some(10));
        // Crash the dual publish at every write it performs (the marker
        // write plus the staging/fsync ops inside each atomic_write): at
        // no kill point may the universal marker run ahead of the native
        // one.
        let mut k = 0;
        loop {
            let armed = fault::arm(FaultPlan::kill_at(k, &dir));
            let r = publish_step_markers(&dir, 20 + k, true);
            let fired = armed.hits() > k;
            drop(armed);
            let native = read_latest(&dir).unwrap();
            let universal = read_latest_universal(&dir).unwrap();
            assert!(
                universal <= native,
                "kill point {k}: latest_universal {universal} ran ahead of latest {native}"
            );
            if r.is_ok() {
                assert!(!fired, "publish succeeded but the fault fired");
                assert_eq!(universal, native);
                break;
            }
            k += 1;
        }
        assert!(k > 0, "fault plan never intercepted the publish");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_latest_is_none() {
        let dir = std::env::temp_dir().join("ucpt_layout_missing");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(read_latest(&dir), None);
        assert_eq!(read_latest_universal(&dir), None);
    }

    #[test]
    fn atom_files_enumerate() {
        assert_eq!(AtomFile::ALL.len(), 3);
        assert_eq!(AtomFile::Fp32.file_name(), "fp32.ucpt");
        assert_eq!(AtomFile::ExpAvgSq.state_key(), "exp_avg_sq");
    }

    #[test]
    fn dir_size_counts_recursively() {
        let dir = std::env::temp_dir().join("ucpt_layout_size");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("sub/b"), [0u8; 20]).unwrap();
        assert_eq!(dir_size_bytes(&dir), 30);
        std::fs::remove_dir_all(&dir).ok();
    }
}
