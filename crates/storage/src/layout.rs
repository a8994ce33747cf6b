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
//!   zero/<param_name>.ucpt                       one atom: sections fp32,
//!                                                exp_avg, exp_avg_sq
//!   zero/<split_param>.ucpt.<part>               a parameter the manifest lists
//!                                                with `parts: E` has E sub-atoms
//!                                                instead (.000, .001, ...)
//! <base>/latest_universal                        text file
//! ```
//!
//! Every (sub-)atom is one atom-format container holding all three states
//! of a parameter — or of slice `<part>` of its leading dimension (one MoE
//! expert) — as the sections `fp32`, `exp_avg`, `exp_avg_sq`, and all of a
//! step's atoms share the one flat `zero/` directory: a save creates one
//! inode per atom it rewrites and hard-links the rest ([`atom_file`]).
//!
//! Trees written before manifest version [`TREE_VERSION`] keep a directory
//! per parameter — `zero/<param>/{fp32,exp_avg,exp_avg_sq}.ucpt`, one
//! section each, and `zero/<split_param>/<part>.ucpt` — and are still read
//! (never written) through the same [`atom_file`].

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

/// The three states of an atom checkpoint (paper §3.1) — the paper's three
/// object files per parameter, stored as three sections of the atom's file.
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
    /// All three states, in section order.
    pub const ALL: [AtomFile; 3] = [AtomFile::Fp32, AtomFile::ExpAvg, AtomFile::ExpAvgSq];

    /// DeepSpeed state key — and section name — of this state.
    pub fn state_key(self) -> &'static str {
        match self {
            AtomFile::Fp32 => "fp32",
            AtomFile::ExpAvg => "exp_avg",
            AtomFile::ExpAvgSq => "exp_avg_sq",
        }
    }
}

/// Universal-tree format version this crate writes, recorded in the
/// manifest: one three-section file per (sub-)atom in a flat `zero/`.
pub const TREE_VERSION: u32 = 2;

/// The file of a tree of format `version` that holds `state` of parameter
/// `param` — of its sub-atom `part` when the parameter is split.
///
/// From [`TREE_VERSION`] on that is one file per `(param, part)`, whatever
/// the state. The names are injective without escaping: a whole
/// parameter's file ends in `.ucpt` and a sub-atom's in its part number,
/// which follows the last `.`, so no two `(param, part)` share a name and
/// none is a staging name (`.tmp`). Older trees keep a directory per
/// parameter with one single-section file per state, or one file per
/// sub-atom; nothing writes them any more.
pub fn atom_file(
    universal_dir: &Path,
    version: u32,
    param: &str,
    part: Option<usize>,
    state: AtomFile,
) -> PathBuf {
    universal_dir.join(match (version >= TREE_VERSION, part) {
        (true, None) => format!("zero/{param}.ucpt"),
        (true, Some(part)) => format!("zero/{param}.ucpt.{part:03}"),
        (false, None) => format!("zero/{param}/{}.ucpt", state.state_key()),
        (false, Some(part)) => format!("zero/{param}/{part:03}.ucpt"),
    })
}

/// [`atom_file`] of an unsplit parameter in a tree this crate writes.
pub fn atom_path(universal_dir: &Path, param: &str, file: AtomFile) -> PathBuf {
    atom_file(universal_dir, TREE_VERSION, param, None, file)
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
        let whole = Path::new("/ckpt/global_step100_universal/zero/layers.0.mlp.weight.ucpt");
        let part = Path::new("/ckpt/global_step100_universal/zero/layers.0.moe.experts.w.ucpt.007");
        for state in AtomFile::ALL {
            assert_eq!(atom_path(&ud, "layers.0.mlp.weight", state), whole);
            assert_eq!(
                atom_file(&ud, TREE_VERSION, "layers.0.moe.experts.w", Some(7), state),
                part
            );
        }
        // A version-1 tree: a directory per parameter.
        assert_eq!(
            atom_file(&ud, 1, "layers.0.mlp.weight", None, AtomFile::ExpAvg),
            Path::new("/ckpt/global_step100_universal/zero/layers.0.mlp.weight/exp_avg.ucpt")
        );
        for state in AtomFile::ALL {
            assert_eq!(
                atom_file(&ud, 1, "layers.0.moe.experts.w", Some(7), state),
                Path::new("/ckpt/global_step100_universal/zero/layers.0.moe.experts.w/007.ucpt")
            );
        }
    }

    /// No two `(param, part)` share a file, however adversarial the names:
    /// ones that embed another's suffix, part numbers past three digits,
    /// names that look like staging files.
    #[test]
    fn atom_file_names_are_injective_and_never_staging_names() {
        let ud = Path::new("/u");
        let names = [
            "w",
            "w.ucpt",
            "w.ucpt.007",
            "w.ucpt.7",
            "w.007",
            "w.tmp",
            "w.ucpt.tmp",
            "w.ucpt.ucpt",
            "w.ucpt.1000",
        ];
        let parts = [None, Some(0), Some(7), Some(1000), Some(10007)];
        let mut seen = std::collections::BTreeMap::new();
        for name in names {
            for part in parts {
                let path = atom_file(ud, TREE_VERSION, name, part, AtomFile::Fp32);
                assert_eq!(path.parent(), Some(Path::new("/u/zero")), "{path:?}");
                assert!(!crate::commit::is_tmp(&path), "{path:?}");
                if let Some(other) = seen.insert(path.clone(), (name, part)) {
                    panic!("{:?} and {other:?} share {path:?}", (name, part));
                }
            }
        }
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
    fn atom_states_enumerate() {
        assert_eq!(AtomFile::ALL.len(), 3);
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
