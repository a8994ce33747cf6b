//! `fsck` verification and repair: corrupt or incomplete step trees are
//! quarantined to `*.corrupt`, stale `.tmp` staging files are swept, and
//! dangling `latest` markers are repointed at the newest surviving step.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{saving, scratch};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::{fsck, FsckOptions};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::{layout, ContainerIndex};
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

/// Two complete native steps (2 and 4); `latest` points at 4.
fn make_tree(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        55,
    );
    train_run(&saving(cfg, 4, 2, &dir)).unwrap();
    dir
}

fn corrupt(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let idx = bytes.len() * 3 / 4;
    bytes[idx] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

/// Flip one checksum byte of the first section of `path`, its payload
/// untouched: the first block-table entry, or with `trailing` the
/// whole-payload CRC after the table.
fn damage_checksum(path: &std::path::Path, trailing: bool) {
    let index = ContainerIndex::read_file(path).unwrap();
    let s = &index.sections[0];
    let table = s.payload_offset + s.payload_len;
    let at = if trailing {
        table + s.payload_len.div_ceil(s.crc_block as u64) * 4
    } else {
        table
    };
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at as usize] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn clean_tree_passes() {
    let dir = make_tree("clean");
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(report.clean(), "{:?}", report.problems);
    assert_eq!(report.steps_checked, vec![2, 4]);
    assert_eq!(report.universal_checked, vec![4]);
    assert!(report.files_verified > 0);
    assert!(report.quarantined.is_empty());
    assert!(report.markers_repaired.is_empty());
    assert_eq!(report.tmp_removed, 0);
    // JSON form is well-formed and carries the counters.
    let json = report.to_json();
    assert!(json.contains("\"files_verified\""), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_step_is_quarantined_and_marker_repointed() {
    let dir = make_tree("corrupt_native");
    corrupt(&layout::optim_states_path(
        &layout::step_dir(&dir, 4),
        1,
        0,
        0,
    ));
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(!report.clean());
    assert_eq!(report.quarantined, vec!["global_step4.corrupt".to_string()]);
    assert!(dir.join("global_step4.corrupt").is_dir());
    assert!(!layout::step_dir(&dir, 4).exists());
    // `latest` pointed at the now-quarantined step; fsck repoints it at
    // the newest surviving complete step.
    assert_eq!(
        report.markers_repaired,
        vec!["latest -> global_step2".to_string()]
    );
    assert_eq!(layout::read_latest(&dir), Some(2));
    // The repaired tree resumes, and a second pass is clean.
    train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::gpt3_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            55,
        ),
        until_iteration: 4,
        resume: ResumeMode::Native {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    let second = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(second.clean(), "{:?}", second.problems);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_counts_as_incomplete_step() {
    let dir = make_tree("missing_file");
    std::fs::remove_file(layout::optim_states_path(
        &layout::step_dir(&dir, 2),
        0,
        0,
        0,
    ))
    .unwrap();
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(!report.clean());
    assert_eq!(report.quarantined, vec!["global_step2.corrupt".to_string()]);
    // Step 4 survives and `latest` still points at it: nothing to repair.
    assert!(report.markers_repaired.is_empty());
    assert_eq!(layout::read_latest(&dir), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_repair_reports_without_touching_disk() {
    let dir = make_tree("no_repair");
    corrupt(&layout::model_states_path(&layout::step_dir(&dir, 4), 0, 0));
    let report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    assert!(!report.clean());
    assert!(report.quarantined.is_empty());
    assert!(report.markers_repaired.is_empty());
    assert!(layout::step_dir(&dir, 4).is_dir());
    assert_eq!(layout::read_latest(&dir), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_tmp_files_are_swept() {
    let dir = make_tree("tmp_sweep");
    // Simulate crash debris from interrupted commits at several levels.
    let step_dir = layout::step_dir(&dir, 4);
    std::fs::write(step_dir.join("model_states.ucpt.tmp"), b"partial").unwrap();
    std::fs::write(dir.join("latest.tmp"), b"glo").unwrap();
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert_eq!(report.tmp_removed, 2);
    // Debris alone is not corruption: the committed files are intact.
    assert!(report.clean(), "{:?}", report.problems);
    assert!(!step_dir.join("model_states.ucpt.tmp").exists());
    assert!(!dir.join("latest.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_universal_step_is_quarantined() {
    let dir = make_tree("corrupt_universal");
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    corrupt(&layout::atom_path(
        &layout::universal_dir(&dir, 4),
        "final_layernorm.weight",
        layout::AtomFile::Fp32,
    ));
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(!report.clean());
    assert_eq!(
        report.quarantined,
        vec!["global_step4_universal.corrupt".to_string()]
    );
    // No complete universal step remains, so the marker is removed
    // rather than left dangling.
    assert!(report
        .markers_repaired
        .iter()
        .any(|m| m.contains("latest_universal removed")));
    assert_eq!(layout::read_latest_universal(&dir), None);
    // The native tree is untouched; re-converting just works.
    assert_eq!(layout::read_latest(&dir), Some(4));
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    assert!(fsck(&dir, &FsckOptions::default()).unwrap().clean());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_or_missing_sub_atom_is_reported_by_name() {
    // A MoE tree stores each expert weight as one sub-atom file per
    // expert; fsck walks every one of them, not only `<param>.ucpt`.
    let dir = scratch("sub_atom");
    train_run(&TrainPlan {
        config: TrainConfig::quick(
            ModelConfig::moe_tiny(),
            ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
            55,
        ),
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let clean = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    assert!(clean.clean(), "{:?}", clean.problems);

    let universal = layout::universal_dir(&dir, 2);
    let sub_atom = |param: &str, part: usize| layout::atom_file(&universal, param, Some(part));
    let flipped = sub_atom("layers.1.moe.experts.dense_h_to_4h.weight", 5);
    let missing = sub_atom("layers.3.moe.experts.dense_4h_to_h.weight", 2);
    corrupt(&flipped);
    std::fs::remove_file(&missing).unwrap();
    let report = fsck(&dir, &FsckOptions { repair: false }).unwrap();
    let named: Vec<&str> = report.problems.iter().map(|p| p.path.as_str()).collect();
    assert_eq!(
        named,
        [
            "global_step2_universal/zero/layers.1.moe.experts.dense_h_to_4h.weight.ucpt.005",
            "global_step2_universal/zero/layers.3.moe.experts.dense_4h_to_h.weight.ucpt.002",
            // ... and the marker that names the now-incomplete tree.
            "latest_universal",
        ],
        "{:?}",
        report.problems
    );
    assert!(
        report.problems[0].detail.contains("checksum"),
        "{}",
        report.problems[0].detail
    );
    // Every other file of the tree still verified: one bad sub-atom does
    // not hide the rest.
    assert_eq!(report.files_verified, clean.files_verified - 2);

    let repaired = fsck(&dir, &FsckOptions::default()).unwrap();
    assert_eq!(
        repaired.quarantined,
        vec!["global_step2_universal.corrupt".to_string()]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_checksum_with_intact_payload_fails_its_step() {
    // A loader serves a section whose data matches one of its two
    // checksums; fsck judges a file by every checksum it carries. One
    // damaged checksum per file: a block-table entry of a native optimizer
    // file and of a universal atom file, and the trailing whole-payload
    // CRC of an optimizer file of the other step.
    let dir = make_tree("damaged_checksum");
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    let native_table = layout::optim_states_path(&layout::step_dir(&dir, 4), 0, 0, 0);
    let atom_table = layout::atom_path(
        &layout::universal_dir(&dir, 4),
        "final_layernorm.weight",
        layout::AtomFile::Fp32,
    );
    let native_whole = layout::optim_states_path(&layout::step_dir(&dir, 2), 1, 0, 0);
    damage_checksum(&native_table, false);
    damage_checksum(&atom_table, false);
    damage_checksum(&native_whole, true);
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    for path in [&native_table, &atom_table, &native_whole] {
        let rel = path.strip_prefix(&dir).unwrap().display().to_string();
        let problem = report.problems.iter().find(|p| p.path == rel);
        let problem = problem.unwrap_or_else(|| panic!("{rel} not reported: {report:?}"));
        assert!(problem.detail.contains("checksum"), "{}", problem.detail);
    }
    let mut quarantined = report.quarantined.clone();
    quarantined.sort();
    assert_eq!(
        quarantined,
        [
            "global_step2.corrupt",
            "global_step4.corrupt",
            "global_step4_universal.corrupt"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_trees_are_never_deleted_by_prune() {
    let dir = make_tree("prune_interop");
    corrupt(&layout::optim_states_path(
        &layout::step_dir(&dir, 2),
        0,
        0,
        0,
    ));
    fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(dir.join("global_step2.corrupt").is_dir());
    let report = ucp_repro::storage::retention::prune(
        &dir,
        &ucp_repro::storage::RetentionPolicy {
            keep_last: 1,
            keep_every: None,
        },
    )
    .unwrap();
    assert!(dir.join("global_step2.corrupt").is_dir());
    assert!(report.bytes_quarantined > 0);
    std::fs::remove_dir_all(&dir).ok();
}
