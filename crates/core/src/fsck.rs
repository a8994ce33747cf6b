//! `ucp fsck`: offline verification and repair of a checkpoint tree.
//!
//! Walks a checkpoint base directory and checks what the crash-consistent
//! commit protocol promises: every step the markers can reach is complete
//! and checksum-clean. Concretely, per native step it verifies that every
//! `model_states` / `optim_states` file the checkpoint's own parallel
//! configuration implies exists and reads back with valid CRCs; per
//! universal step it verifies the manifest and the atom file of every
//! indexed parameter — of every sub-atom, for a parameter the manifest
//! lists as split.
//! Incomplete or corrupt step trees are quarantined (renamed to
//! `<name>.corrupt`) so loaders and retention never touch them, leftover
//! `.tmp` staging files from interrupted commits are swept, and a dangling
//! `latest` marker is repointed at the newest surviving complete step.

use std::path::Path;

use serde::Serialize;
use ucp_storage::{layout, Container};

use crate::checkpoint::load_model_states;
use crate::manifest::UcpManifest;
use crate::Result;

/// What fsck is allowed to change on disk.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Rename bad step trees to `<name>.corrupt` and repair dangling
    /// markers. When false, fsck only reports.
    pub repair: bool,
}

impl Default for FsckOptions {
    fn default() -> FsckOptions {
        FsckOptions { repair: true }
    }
}

/// One defect found in the tree.
#[derive(Debug, Clone, Serialize)]
pub struct FsckProblem {
    /// Path of the offending file or directory (relative to the base).
    pub path: String,
    /// What is wrong with it.
    pub detail: String,
}

/// Outcome of an fsck pass.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FsckReport {
    /// Native steps examined.
    pub steps_checked: Vec<u64>,
    /// Universal steps examined.
    pub universal_checked: Vec<u64>,
    /// Container files that read back checksum-clean.
    pub files_verified: usize,
    /// Leftover `.tmp` staging files removed.
    pub tmp_removed: usize,
    /// Defects found (empty ⇒ the tree is clean).
    pub problems: Vec<FsckProblem>,
    /// Step trees renamed to `*.corrupt`.
    pub quarantined: Vec<String>,
    /// Markers rewritten to the newest surviving complete step.
    pub markers_repaired: Vec<String>,
    /// Complete records read from the run journal (0 when absent).
    pub journal_records: usize,
}

impl FsckReport {
    /// Whether the tree passed verification.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a derived Serialize cannot fail")
    }
}

fn rel(base: &Path, path: &Path) -> String {
    path.strip_prefix(base)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Verify one container file, recording the outcome.
fn verify_container(base: &Path, path: &Path, report: &mut FsckReport) -> bool {
    match Container::read_file(path) {
        Ok(_) => {
            report.files_verified += 1;
            true
        }
        Err(e) => {
            report.problems.push(FsckProblem {
                path: rel(base, path),
                detail: e.to_string(),
            });
            false
        }
    }
}

/// Verify a native step tree against the parallel configuration recorded
/// in its own first model-states file. Returns whether the step is sound.
fn check_native_step(base: &Path, step: u64, report: &mut FsckReport) -> bool {
    let dir = layout::step_dir(base, step);
    let parallel = match load_model_states(&dir, 0, 0) {
        Ok((common, _)) => common.parallel,
        Err(e) => {
            report.problems.push(FsckProblem {
                path: rel(base, &dir),
                detail: format!("cannot read model_states (0, 0): {e}"),
            });
            return false;
        }
    };
    report.files_verified += 1; // the (0, 0) model states just read clean
    let mut sound = true;
    for pp in 0..parallel.pp {
        for tp in 0..parallel.tp {
            // (0, 0) was already verified by the header read above.
            if (tp, pp) != (0, 0) {
                sound &= verify_container(base, &layout::model_states_path(&dir, tp, pp), report);
            }
            for dp in 0..parallel.dp * parallel.sp {
                sound &=
                    verify_container(base, &layout::optim_states_path(&dir, dp, tp, pp), report);
            }
        }
    }
    sound
}

/// Verify a universal step tree against its manifest. Returns whether the
/// step is sound.
fn check_universal_step(base: &Path, step: u64, report: &mut FsckReport) -> bool {
    let dir = layout::universal_dir(base, step);
    let manifest = match UcpManifest::load(&dir) {
        Ok(m) => {
            report.files_verified += 1;
            m
        }
        Err(e) => {
            report.problems.push(FsckProblem {
                path: rel(base, &dir),
                detail: format!("cannot read manifest: {e}"),
            });
            return false;
        }
    };
    let mut sound = true;
    for atom in &manifest.params {
        // One file per (sub-)atom: a missing or damaged sub-atom is
        // reported under its own file name.
        for part in atom.part_ids() {
            sound &= verify_container(base, &layout::atom_file(&dir, &atom.name, part), report);
        }
    }
    sound
}

/// Rename a bad step tree to `<name>.corrupt` (adding `.N` if a previous
/// quarantine already claimed the name).
fn quarantine(base: &Path, dir: &Path, report: &mut FsckReport) -> Result<()> {
    let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("step");
    let mut target = dir.with_file_name(format!("{name}.corrupt"));
    let mut n = 0;
    while target.exists() {
        n += 1;
        target = dir.with_file_name(format!("{name}.corrupt.{n}"));
    }
    std::fs::rename(dir, &target)?;
    report.quarantined.push(rel(base, &target));
    Ok(())
}

/// Universal steps present under `base` (`global_step<N>_universal`).
fn list_universal_steps(base: &Path) -> Vec<u64> {
    let mut steps = Vec::new();
    let Ok(entries) = std::fs::read_dir(base) else {
        return steps;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("global_step")
            .and_then(|r| r.strip_suffix("_universal"))
        {
            if let Ok(step) = num.parse() {
                steps.push(step);
            }
        }
    }
    steps.sort_unstable();
    steps
}

/// Remove leftover `.tmp` staging files anywhere under `dir`.
fn sweep_tmp(dir: &Path, report: &mut FsckReport) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            sweep_tmp(&path, report);
        } else if ucp_storage::commit::is_tmp(&path) && std::fs::remove_file(&path).is_ok() {
            report.tmp_removed += 1;
        }
    }
}

/// Check (and with `opts.repair` fix) the `latest` markers after any
/// quarantines: a marker must reference a surviving complete step.
fn check_markers(
    base: &Path,
    good_native: &[u64],
    good_universal: &[u64],
    opts: &FsckOptions,
    report: &mut FsckReport,
) -> Result<()> {
    if let Some(step) = layout::read_latest(base) {
        if !good_native.contains(&step) {
            report.problems.push(FsckProblem {
                path: "latest".into(),
                detail: format!(
                    "marker references global_step{step}, which is not a complete step"
                ),
            });
            if opts.repair {
                if let Some(&newest) = good_native.last() {
                    layout::write_latest(base, newest)?;
                    report
                        .markers_repaired
                        .push(format!("latest -> global_step{newest}"));
                } else {
                    std::fs::remove_file(base.join("latest"))?;
                    report
                        .markers_repaired
                        .push("latest removed (no complete step)".into());
                }
            }
        }
    }
    if let Some(step) = layout::read_latest_universal(base) {
        if !good_universal.contains(&step) {
            report.problems.push(FsckProblem {
                path: "latest_universal".into(),
                detail: format!(
                    "marker references global_step{step}_universal, which is not complete"
                ),
            });
            if opts.repair {
                if let Some(&newest) = good_universal.last() {
                    layout::write_latest_universal(base, newest)?;
                    report
                        .markers_repaired
                        .push(format!("latest_universal -> global_step{newest}_universal"));
                } else {
                    std::fs::remove_file(base.join("latest_universal"))?;
                    report
                        .markers_repaired
                        .push("latest_universal removed (no complete step)".into());
                }
            }
        }
    }
    Ok(())
}

/// Validate the run journal. Complete-but-unparseable lines are
/// corruption and reported as problems; a torn tail (no final newline)
/// is expected crash debris — the append protocol self-heals it on the
/// next write — so fsck only trims it under repair, keeping the
/// newline-terminated prefix the reader already accepts.
fn check_journal(base: &Path, opts: &FsckOptions, report: &mut FsckReport) -> Result<()> {
    let path = ucp_storage::journal::journal_path(base);
    let journal = ucp_storage::journal::read_path(&path)?;
    report.journal_records = journal.records.len();
    if journal.malformed > 0 {
        report.problems.push(FsckProblem {
            path: rel(base, &path),
            detail: format!(
                "{} malformed journal record(s) (complete lines that do not parse)",
                journal.malformed
            ),
        });
    }
    if journal.torn_tail && opts.repair {
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(journal.valid_bytes)?;
        file.sync_all()?;
        report.markers_repaired.push(format!(
            "journal.jsonl truncated to {} bytes (torn tail trimmed)",
            journal.valid_bytes
        ));
    }
    Ok(())
}

/// Verify one step — its native tree, its universal tree, or both,
/// whichever exist — for checksums and completeness. Reports only: no
/// quarantine, no `.tmp` sweep, no marker or journal pass.
pub fn check_step(base: &Path, step: u64) -> FsckReport {
    let mut report = FsckReport::default();
    if layout::step_dir(base, step).is_dir() {
        report.steps_checked.push(step);
        check_native_step(base, step, &mut report);
    }
    if layout::universal_dir(base, step).is_dir() {
        report.universal_checked.push(step);
        check_universal_step(base, step, &mut report);
    }
    report
}

/// Run fsck over the checkpoint tree at `base`.
pub fn fsck(base: &Path, opts: &FsckOptions) -> Result<FsckReport> {
    let _sp = ucp_telemetry::span("fsck/total");
    let mut report = FsckReport::default();
    sweep_tmp(base, &mut report);

    let mut good_native = Vec::new();
    for step in ucp_storage::retention::list_steps(base) {
        report.steps_checked.push(step);
        if check_native_step(base, step, &mut report) {
            good_native.push(step);
        } else if opts.repair {
            quarantine(base, &layout::step_dir(base, step), &mut report)?;
        }
    }

    let mut good_universal = Vec::new();
    for step in list_universal_steps(base) {
        report.universal_checked.push(step);
        if check_universal_step(base, step, &mut report) {
            good_universal.push(step);
        } else if opts.repair {
            quarantine(base, &layout::universal_dir(base, step), &mut report)?;
        }
    }

    check_markers(base, &good_native, &good_universal, opts, &mut report)?;
    check_journal(base, opts, &mut report)?;

    // Journal the verdict so `ucp status` can report when the tree was
    // last checked. Gated on repair mode: a report-only fsck must not
    // write to the tree it is inspecting.
    if opts.repair {
        ucp_storage::journal::append(
            base,
            &ucp_storage::JournalEvent::Fsck {
                problems: report.problems.len() as u64,
                quarantined: report.quarantined.len() as u64,
                repair: opts.repair,
            },
        )?;
    }

    if ucp_telemetry::enabled() {
        ucp_telemetry::count("fsck/steps_scanned", report.steps_checked.len() as u64);
        ucp_telemetry::count(
            "fsck/universal_scanned",
            report.universal_checked.len() as u64,
        );
        ucp_telemetry::count(
            "fsck/markers_repaired",
            report.markers_repaired.len() as u64,
        );
        ucp_telemetry::count("fsck/files_verified", report.files_verified as u64);
        ucp_telemetry::count("fsck/problems", report.problems.len() as u64);
        ucp_telemetry::count("fsck/quarantined", report.quarantined.len() as u64);
        ucp_telemetry::count("fsck/tmp_removed", report.tmp_removed as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_base(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucp_fsck_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fsck_journals_its_own_verdict() {
        let base = temp_base("verdict");
        let report = fsck(&base, &FsckOptions::default()).unwrap();
        assert!(report.clean());
        assert_eq!(report.journal_records, 0, "verdict written after reading");
        let journal = ucp_storage::journal::read(&base).unwrap();
        let fscks: Vec<_> = journal.of_kind("fsck").collect();
        assert_eq!(fscks.len(), 1);
        assert!(matches!(
            fscks[0].event,
            ucp_storage::JournalEvent::Fsck {
                problems: 0,
                quarantined: 0,
                repair: true,
            }
        ));
        // Report-only mode must not write to the tree.
        let before = std::fs::read(ucp_storage::journal::journal_path(&base)).unwrap();
        let report = fsck(&base, &FsckOptions { repair: false }).unwrap();
        assert!(report.clean());
        assert_eq!(report.journal_records, 1);
        let after = std::fs::read(ucp_storage::journal::journal_path(&base)).unwrap();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn malformed_journal_line_is_a_problem() {
        let base = temp_base("malformed");
        std::fs::write(
            ucp_storage::journal::journal_path(&base),
            "{\"kind\":\"save_started\",\"step\":2,\"t_ms\":1}\nnot json at all\n",
        )
        .unwrap();
        let report = fsck(&base, &FsckOptions { repair: false }).unwrap();
        assert!(!report.clean());
        assert_eq!(report.journal_records, 1);
        assert!(report.problems[0].detail.contains("malformed journal"));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn torn_journal_tail_is_trimmed_under_repair() {
        let base = temp_base("torn");
        let path = ucp_storage::journal::journal_path(&base);
        let good = "{\"kind\":\"save_started\",\"step\":2,\"t_ms\":1}\n";
        std::fs::write(&path, format!("{good}{{\"kind\":\"nat")).unwrap();
        // Report-only: the torn tail is tolerated and left in place.
        let report = fsck(&base, &FsckOptions { repair: false }).unwrap();
        assert!(report.clean(), "torn tail is crash debris, not corruption");
        assert_eq!(std::fs::read(&path).unwrap().len(), good.len() + 12);
        // Repair trims the debris back to the parseable prefix.
        let report = fsck(&base, &FsckOptions::default()).unwrap();
        assert!(report.clean());
        assert!(report
            .markers_repaired
            .iter()
            .any(|m| m.contains("torn tail trimmed")));
        let journal = ucp_storage::journal::read(&base).unwrap();
        assert!(!journal.torn_tail);
        // Prefix record + the fsck verdict appended after the trim.
        assert_eq!(journal.records.len(), 2);
        let _ = std::fs::remove_dir_all(&base);
    }
}
