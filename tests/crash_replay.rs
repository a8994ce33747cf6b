//! Crash-replay harness for the commit protocol: kill the writer at a
//! sweep of points through save and convert (native and cross-framework),
//! then assert the tree always resumes.
//!
//! The fault layer (`storage::io::fault`) counts every write that reaches a
//! file and every commit gate (pre-publish fsync, rename, parent-dir sync)
//! under a scoped directory. Each sweep first runs a calibration pass to
//! count the kill points of the operation, then replays the operation with
//! an injected crash at every index (or, for a long operation, at indices
//! spread across the range) and records which kind of kill point each crash
//! hit, so a sweep that never reaches the commit gates fails. After every
//! crash the invariants the protocol promises are checked:
//!
//! - `latest` / `latest_universal` never reference an incomplete step —
//!   `fsck` finds no dangling marker to repair;
//! - resume from the newest marker always succeeds;
//! - after `fsck` quarantines partial trees, simply retrying the
//!   interrupted operation converges.

#[path = "support/tree.rs"]
mod tree;

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use std::collections::BTreeSet;

use tree::tree_bytes;
use ucp_repro::core::adapter::{save_litsim_checkpoint, LitSimAdapter, SourceAdapter};
use ucp_repro::core::assemble::{commit_universal, stage_atom, StageAssembler};
use ucp_repro::core::checkpoint::{CommonState, OptimShard};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::ops::Fragment;
use ucp_repro::core::{fsck, FsckOptions, ParamPattern, UcpManifest};
use ucp_repro::model::{param_specs, ModelConfig};
use ucp_repro::parallel::{FlatLayout, ParallelConfig, ZeroStage};
use ucp_repro::storage::commit::{self, Group};
use ucp_repro::storage::io::fault;
use ucp_repro::storage::layout::{self, AtomFile};
use ucp_repro::storage::Container;
use ucp_repro::tensor::{DetRng, Tensor};
use ucp_repro::trainer::{train_run, train_run_overlapped, ResumeMode, TrainConfig, TrainPlan};

fn config() -> TrainConfig {
    TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        91,
    )
}

/// Fresh run that commits a complete checkpoint at step 2.
fn baseline(dir: &std::path::Path) {
    train_run(&saving(config(), 2, 2, dir)).unwrap();
}

/// The segment under fault: resume from step 2 and save step 4.
fn save_segment(dir: &std::path::Path) -> Result<ucp_repro::trainer::RunResult, String> {
    train_run(&TrainPlan {
        config: config(),
        until_iteration: 4,
        resume: ResumeMode::Native {
            dir: dir.to_path_buf(),
            step: 2,
        },
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.to_path_buf()),
    })
    .map_err(|e| e.to_string())
}

/// The kill indices to sweep over `[0, total)`: every one when the
/// operation is short, else `want` of them spread evenly plus every index
/// of the last ten. An operation's tail is its commit sequence (manifest,
/// marker, journal record), which runs after all worker threads have
/// joined: unlike the parallel middle, index `k` there names the same
/// write or gate in every run, so the tail is swept exhaustively.
fn kill_indices(total: u64, want: u64) -> Vec<u64> {
    assert!(total > 1, "operation exposed too few kill points: {total}");
    if total < 200 {
        return (0..total).collect();
    }
    let mut ks: Vec<u64> = (0..want)
        .map(|i| i * (total - 1) / (want - 1).max(1))
        .chain(total - 10..total)
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// The kill-point kind an injected-crash error names: `data write`,
/// `commit.fsync`, `commit.rename`, `commit.dirsync`, `commit.link`, ...
fn kill_kind(err: &str) -> String {
    let (_, kind) = err
        .split_once("injected crash at kill point: ")
        .unwrap_or_else(|| panic!("not an injected crash: {err}"));
    kind.to_string()
}

/// Assert a sweep's crashes covered every kind in `want`.
fn assert_kinds_hit(tag: &str, hit: &BTreeSet<String>, want: &[&str]) {
    for kind in want {
        assert!(
            hit.contains(*kind),
            "{tag}: sweep never crashed at a `{kind}` kill point (hit {hit:?})"
        );
    }
}

fn copy_tree(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap().flatten() {
        let to = dst.join(e.file_name());
        if e.path().is_dir() {
            copy_tree(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).unwrap();
        }
    }
}

#[test]
fn save_crash_replay_sweeps_kill_points() {
    // Calibration: count the kill points of one save segment.
    let cal = scratch("save_cal");
    baseline(&cal);
    let total = {
        let armed = fault::arm(fault::FaultPlan::count_only(&cal));
        save_segment(&cal).unwrap();
        armed.hits()
    };
    std::fs::remove_dir_all(&cal).ok();

    let kill_points = kill_indices(total, 12);
    assert!(
        kill_points.len() >= 10,
        "save exposed only {total} kill points"
    );
    let mut kinds = BTreeSet::new();
    for &k in &kill_points {
        let dir = scratch(&format!("save_k{k}"));
        baseline(&dir);
        let err = {
            let _armed = fault::arm(fault::FaultPlan::kill_at(k, &dir));
            save_segment(&dir).unwrap_err()
        };
        kinds.insert(kill_kind(&err));

        // fsck may quarantine the partial step-4 tree, but must find the
        // markers sound: a marker is only ever published after its step
        // is complete.
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(
            report.markers_repaired.is_empty(),
            "kill {k}: marker referenced an incomplete step: {:?}",
            report.markers_repaired
        );

        // Resume from the marker always works: old step or new step,
        // never a torn in-between.
        let latest = layout::read_latest(&dir).expect("baseline marker must survive");
        assert!(latest == 2 || latest == 4, "kill {k}: latest = {latest}");
        let resumed = train_run(&TrainPlan {
            config: config(),
            until_iteration: latest + 2,
            resume: ResumeMode::Native {
                dir: dir.clone(),
                step: latest,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap_or_else(|e| panic!("kill {k}: resume from step {latest} failed: {e}"));
        assert_eq!(resumed.start_iteration, latest);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_kinds_hit("save", &kinds, &["data write", "commit.rename"]);
}

/// Kill points of `commit_universal` once its atoms are committed: the
/// manifest, the `latest_universal` marker and the journal record.
fn commit_tail_points(manifest: &UcpManifest) -> u64 {
    let dir = scratch("tail_cal");
    let armed = fault::arm(fault::FaultPlan::count_only(&dir));
    commit_universal(&dir, 2, Group::new(true), manifest).unwrap();
    let hits = armed.hits();
    drop(armed);
    std::fs::remove_dir_all(&dir).ok();
    hits
}

/// Sweep kill points through one offline producer of the step-2 universal
/// checkpoint (`produce(dir)`, run on fresh copies of the `seed` tree) and
/// check the commit protocol's promises after every crash. Returns the
/// producer's kill-point count.
///
/// A producer stages every atom, then commits them as one group: after the
/// (parallel, so unordered) data writes its gates lie in three contiguous
/// blocks — one `commit.fsync` per atom file, one `commit.rename` per atom
/// file, one `commit.dirsync` for the one flat directory they share —
/// followed by the commit tail. An even spread can step over a block, so
/// the sweep adds the middle of each and checks it crashed where the
/// layout says.
fn sweep_universal_producer(
    tag: &str,
    seed: &std::path::Path,
    produce: &dyn Fn(&std::path::Path) -> Result<(), String>,
) -> u64 {
    let (total, manifest) = {
        let cal = scratch(&format!("{tag}_cal"));
        copy_tree(seed, &cal);
        let armed = fault::arm(fault::FaultPlan::count_only(&cal));
        produce(&cal).unwrap();
        let hits = armed.hits();
        drop(armed);
        let manifest = UcpManifest::load(&layout::universal_dir(&cal, 2)).unwrap();
        std::fs::remove_dir_all(&cal).ok();
        (hits, manifest)
    };
    // One file per atom (no parameter of these models is split).
    let files = manifest.params.len() as u64;
    let dirsync = total - commit_tail_points(&manifest) - 1;
    let blocks = [
        ("commit.fsync", dirsync - 2 * files + files / 2),
        ("commit.rename", dirsync - files + files / 2),
        ("commit.dirsync", dirsync),
    ];

    let mut kill_points = kill_indices(total, 12);
    assert!(
        kill_points.len() >= 10,
        "{tag} exposed only {total} kill points"
    );
    kill_points.extend(blocks.iter().map(|&(_, k)| k));
    kill_points.sort_unstable();
    kill_points.dedup();
    let mut kinds = BTreeSet::new();
    for &k in &kill_points {
        let dir = scratch(&format!("{tag}_k{k}"));
        copy_tree(seed, &dir);
        let err = {
            let _armed = fault::arm(fault::FaultPlan::kill_at(k, &dir));
            produce(&dir).unwrap_err()
        };
        let kind = kill_kind(&err);
        if let Some((want, _)) = blocks.iter().find(|&&(_, at)| at == k) {
            assert_eq!(&kind, want, "{tag} kill {k}: the group's gates moved");
        }
        kinds.insert(kind);

        // `latest_universal` is absent or names a tree fsck accepts.
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(
            report.markers_repaired.is_empty(),
            "{tag} kill {k}: marker referenced an incomplete universal step: {:?}",
            report.markers_repaired
        );
        // Whatever native state the seed tree had is untouched by the crash.
        assert_eq!(
            layout::read_latest(&dir),
            layout::read_latest(seed),
            "{tag} kill {k}"
        );

        // Either the conversion committed (marker present ⇒ complete) or
        // it can simply be retried after fsck swept the debris.
        if layout::read_latest_universal(&dir).is_none() {
            produce(&dir)
                .unwrap_or_else(|e| panic!("{tag} kill {k}: retry after fsck failed: {e}"));
        }
        assert_eq!(
            layout::read_latest_universal(&dir),
            Some(2),
            "{tag} kill {k}"
        );
        let resumed = train_run(&resuming(config(), 4, &dir, 2))
            .unwrap_or_else(|e| panic!("{tag} kill {k}: universal resume failed: {e}"));
        assert_eq!(resumed.start_iteration, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_kinds_hit(
        tag,
        &kinds,
        &[
            "data write",
            "commit.fsync",
            "commit.rename",
            "commit.dirsync",
        ],
    );
    total
}

#[test]
fn convert_crash_replay_sweeps_kill_points() {
    // One native checkpoint; each scenario converts a fresh copy of it.
    let base = scratch("conv_base");
    baseline(&base);
    sweep_universal_producer("conv", &base, &|dir| {
        convert_to_universal(dir, 2, &ConvertOptions::default())
            .map(drop)
            .map_err(|e| e.to_string())
    });
    std::fs::remove_dir_all(&base).ok();

    // A foreign consolidated checkpoint through the cross-framework
    // adapter: same protocol, same promises. The source file sits outside
    // the fault scope; the destination tree starts empty.
    let model = ModelConfig::gpt3_tiny();
    let rng = DetRng::new(91);
    let states: Vec<(String, Tensor, Tensor, Tensor)> = param_specs(&model)
        .into_iter()
        .map(|s| {
            let zeros = Tensor::zeros(s.shape.clone());
            (
                s.name.clone(),
                s.materialize_full(&rng),
                zeros.clone(),
                zeros,
            )
        })
        .collect();
    let src = scratch("lit_src");
    let ckpt = src.join("litsim.ckpt");
    save_litsim_checkpoint(&ckpt, &model, 2, 91, 16, 2, &states).unwrap();
    let empty = scratch("lit_base");
    let total = sweep_universal_producer("lit", &empty, &|dir| {
        LitSimAdapter
            .convert(&ckpt, dir, 2)
            .map(drop)
            .map_err(|e| e.to_string())
    });

    // As members of one group the adapter's atoms pass every gate the
    // same atom staged and committed on its own does — its data writes,
    // its fsync, its rename — except that the directory they all share is
    // synced once, not once an atom; the tail is the shared commit tail.
    // The counts add up exactly.
    let reference = scratch("lit_ref");
    let manifest = LitSimAdapter.convert(&ckpt, &empty, 2).unwrap();
    let armed = fault::arm(fault::FaultPlan::count_only(&reference));
    let universal = layout::universal_dir(&reference, 2);
    for (name, w, m, v) in &states {
        let meta = manifest.atom(name).unwrap();
        assert_eq!(meta.pattern, ParamPattern::Unique);
        let sections: Vec<_> = AtomFile::ALL
            .into_iter()
            .zip([w, m, v])
            .map(|(state, t)| (state, t.dtype(), t.as_slice()))
            .collect();
        let alone = Group::new(true);
        let path = layout::atom_path(&universal, &meta.name, AtomFile::Fp32);
        stage_atom(&alone, &path, meta, &sections, "t").unwrap();
        alone.commit().unwrap();
    }
    commit_universal(&reference, 2, Group::new(true), &manifest).unwrap();
    let atoms = states.len() as u64;
    assert_eq!(
        total,
        armed.hits() - atoms + 1,
        "adapter atoms skipped commit gates a lone atom write passes"
    );
    assert_eq!(
        tree_bytes(&universal),
        tree_bytes(&layout::universal_dir(&empty, 2)),
        "the adapter's tree is its atoms written one by one"
    );
    drop(armed);
    for dir in [src, empty, reference] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn overlapped_mid_run_kill_resumes_from_published_marker() {
    let plan = |dir: &std::path::Path| saving(config(), 6, 2, dir);
    let total = {
        let cal = scratch("ovl_cal");
        let armed = fault::arm(fault::FaultPlan::count_only(&cal));
        train_run_overlapped(&plan(&cal)).unwrap();
        let hits = armed.hits();
        drop(armed);
        std::fs::remove_dir_all(&cal).ok();
        hits
    };

    let mut kinds = BTreeSet::new();
    for &k in &kill_indices(total, 6) {
        let dir = scratch(&format!("ovl_k{k}"));
        let result = {
            let _armed = fault::arm(fault::FaultPlan::kill_at(k, &dir));
            train_run_overlapped(&plan(&dir)).map_err(|e| e.to_string())
        };
        let err = result.expect_err(&format!("kill {k}: run should have crashed"));
        // Whichever rank or writer reports first names the kill point,
        // unless a survivor's poisoned collective beats it to the report.
        if let Some((_, kind)) = err.split_once("injected crash at kill point: ") {
            kinds.insert(kind.to_string());
        }

        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(
            report.markers_repaired.is_empty(),
            "kill {k}: overlapped run published a marker for an incomplete step: {:?}",
            report.markers_repaired
        );
        // Born-universal publish ordering: `latest` is committed before
        // `latest_universal`, so across every kill point the universal
        // marker may lag the native one but never run ahead — it can
        // never name a step whose native fragments weren't fully drained.
        let latest = layout::read_latest(&dir);
        let latest_universal = layout::read_latest_universal(&dir);
        if let Some(u) = latest_universal {
            let native = latest.unwrap_or_else(|| {
                panic!("kill {k}: latest_universal {u} published without a native latest")
            });
            assert!(
                u <= native,
                "kill {k}: latest_universal {u} ran ahead of latest {native}"
            );
        }
        match latest {
            // The marker is published per drained interval, so a mid-run
            // crash loses at most one interval — and resume works.
            Some(latest) => {
                assert!([2, 4, 6].contains(&latest), "kill {k}: latest = {latest}");
                let resumed = train_run(&TrainPlan {
                    config: config(),
                    until_iteration: latest + 2,
                    resume: ResumeMode::Native {
                        dir: dir.clone(),
                        step: latest,
                    },
                    checkpoint_every: None,
                    checkpoint_dir: None,
                })
                .unwrap_or_else(|e| panic!("kill {k}: resume from {latest} failed: {e}"));
                assert_eq!(resumed.start_iteration, latest);
            }
            // Crashed before the first drain: nothing was committed and
            // nothing claims otherwise.
            None => assert!(!dir.join("latest").exists(), "kill {k}"),
        }
        // Whatever the universal marker names was pipeline-published at
        // save time and must resume directly — reconfigured, with no
        // convert pass.
        if let Some(u) = latest_universal {
            let mut target = config();
            target.parallel = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
            let resumed = train_run(&resuming(target, u + 1, &dir, u))
                .unwrap_or_else(|e| panic!("kill {k}: universal resume from {u} failed: {e}"));
            assert_eq!(resumed.start_iteration, u);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_kinds_hit(
        "overlapped",
        &kinds,
        &[
            "data write",
            "commit.fsync",
            "commit.rename",
            "commit.dirsync",
        ],
    );
}

#[test]
fn link_heavy_save_crash_replay_sweeps_commit_link() {
    // One stage of a one-layer MoE — two expert weights of eight sub-atoms
    // each, eight small parameters — saved twice by a carried assembler.
    // The second save touches a single expert, so it is almost all hard
    // links: 23 linked atoms, one rewritten. Every kill point of that save
    // is swept, on one worker so index `k` names the same operation in
    // every run.
    let mut model = ModelConfig::moe_tiny();
    model.num_layers = 1;
    let common = CommonState {
        iteration: 1,
        seed: 91,
        data_cursor: 8,
        adam_step: 1,
        model: model.clone(),
        parallel: ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero1),
        params_to_average: vec![],
    };
    let rng = DetRng::new(91);
    let mut params: Vec<(String, Tensor)> = param_specs(&model)
        .into_iter()
        .map(|s| {
            (
                s.name.clone(),
                Tensor::randn(s.shape, 1.0, &rng.derive(&s.name)),
            )
        })
        .collect();
    params.sort_by(|a, b| a.0.cmp(&b.0));
    let shapes: Vec<_> = params
        .iter()
        .map(|(n, t)| (n.clone(), t.shape().clone()))
        .collect();
    let layout = FlatLayout::build(&shapes, 8, 1);
    let fp32 = layout.flatten(|name| &params.iter().find(|(n, _)| n == name).unwrap().1);
    let shard = OptimShard {
        dp: 0,
        exp_avg: fp32.iter().map(|v| v * 0.5).collect(),
        exp_avg_sq: fp32.iter().map(|v| v * 0.25).collect(),
        fp32,
        layout,
    };
    let touched = "layers.0.moe.experts.dense_4h_to_h.weight";
    let per_expert = shard.layout.slot(touched).unwrap().len / model.num_experts;

    // Save 2's state: expert 3 of one weight patched, in all three keys.
    let patch_at = 3 * per_expert;
    let patch_value = |ki: usize| 7.0 + ki as f32;
    let mut patched = shard.clone();
    let at = patched.layout.slot(touched).unwrap().offset + patch_at;
    let OptimShard {
        fp32,
        exp_avg,
        exp_avg_sq,
        ..
    } = &mut patched;
    for (ki, key) in [fp32, exp_avg, exp_avg_sq].into_iter().enumerate() {
        key[at..at + per_expert].fill(patch_value(ki));
    }

    // A save by a new assembler: the whole chunk in, every atom rewritten.
    let full_save = |chunk: &OptimShard, base: &std::path::Path, step: u64| {
        let mut asm = StageAssembler::new(&common, 0, &chunk.layout.slots, true, None).unwrap();
        asm.absorb_chunks(&[(0, chunk)], 1).unwrap();
        let group = Group::new(true);
        let staged = asm
            .finalize_step(&layout::universal_dir(base, step), &group, 1, "t", None)
            .unwrap();
        assert_eq!((staged.atoms_written, staged.atoms_skipped), (24, 0));
        group.commit().unwrap();
        asm
    };
    // Save 2 by save 1's carried assembler: the patch in, one sub-atom
    // rewritten, the rest hard-linked from save 1.
    let linked_save = |asm: &mut StageAssembler, base: &std::path::Path| -> Result<(), String> {
        asm.begin_step();
        let patch = (0..3)
            .map(|ki| {
                let frag = Fragment {
                    param_offset: patch_at,
                    data: vec![patch_value(ki); per_expert],
                };
                (touched.to_string(), ki, frag)
            })
            .collect();
        asm.absorb(0, patch).map_err(|e| e.to_string())?;
        let group = Group::new(true);
        let prev = layout::universal_dir(base, 1);
        let staged = asm
            .finalize_step(&layout::universal_dir(base, 2), &group, 1, "t", Some(&prev))
            .map_err(|e| e.to_string())?;
        assert_eq!((staged.atoms_written, staged.atoms_skipped), (1, 23));
        group.commit().map_err(|e| e.to_string())
    };

    // Calibration: the kill points of save 2, and both trees as they
    // must end up.
    let cal = scratch("links_cal");
    let mut asm = full_save(&shard, &cal, 1);
    let armed = fault::arm(fault::FaultPlan::count_only(&cal));
    linked_save(&mut asm, &cal).unwrap();
    let total = armed.hits();
    drop(armed);
    let want1 = tree_bytes(&layout::universal_dir(&cal, 1));
    let want2 = tree_bytes(&layout::universal_dir(&cal, 2));
    assert_eq!(want1.len(), want2.len());
    std::fs::remove_dir_all(&cal).ok();
    assert!(
        total < 200,
        "sweep is exhaustive below 200 points, save 2 has {total}"
    );

    let mut kinds = BTreeSet::new();
    for k in 0..total {
        let dir = scratch(&format!("links_k{k}"));
        let mut asm = full_save(&shard, &dir, 1);
        let err = {
            let _armed = fault::arm(fault::FaultPlan::kill_at(k, &dir));
            linked_save(&mut asm, &dir).unwrap_err()
        };
        kinds.insert(kill_kind(&err));
        // A failed step's assembler is dropped, never patched further.
        drop(asm);

        // The crash reached nothing already published: save 1 is intact,
        // and whatever save 2 made visible is a complete file.
        let (step1, step2) = (
            layout::universal_dir(&dir, 1),
            layout::universal_dir(&dir, 2),
        );
        assert_eq!(tree_bytes(&step1), want1, "kill {k}: save 1 damaged");
        for (rel, _) in tree_bytes(&step2) {
            let path = step2.join(&rel);
            if !commit::is_tmp(&path) {
                Container::read_file(&path)
                    .unwrap_or_else(|e| panic!("kill {k}: {rel} visible but unreadable: {e}"));
            }
        }

        // The restarted process saves step 2 again, in full (its assembler
        // is new), over the debris. Staging files the crash left are hard
        // links to save 1's inodes: the retry must replace them, not write
        // through them.
        full_save(&patched, &dir, 2);
        assert_eq!(
            tree_bytes(&step1),
            want1,
            "kill {k}: retry wrote through a link"
        );
        assert_eq!(
            tree_bytes(&step2),
            want2,
            "kill {k}: retry did not converge"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_kinds_hit(
        "link-heavy save",
        &kinds,
        &[
            "data write",
            "commit.link",
            "commit.fsync",
            "commit.rename",
            "commit.dirsync",
        ],
    );
}
