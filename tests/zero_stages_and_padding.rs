//! ZeRO-stage coverage and padding behaviour: the flat `fragment_params`
//! path (parameters straddling DP chunk boundaries) and `StripPadding`.

use ucp_repro::core::checkpoint::load_optim_states;
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{gen_ucp_metadata, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, RankCoord, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ucp_it_zero_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn checkpoint_with(parallel: ParallelConfig, name: &str, seed: u64) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, seed);
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

#[test]
fn all_zero_stages_convert_identically() {
    // Stages 1, 2, 3 differ in runtime communication, not in checkpoint
    // math — the consolidated atoms must agree across stages (same seed).
    let mut atom_hashes = Vec::new();
    for (i, zero) in [ZeroStage::Zero1, ZeroStage::Zero2, ZeroStage::Zero3]
        .into_iter()
        .enumerate()
    {
        let parallel = ParallelConfig::new(1, 1, 2, 1, zero);
        let dir = checkpoint_with(parallel, &format!("stage{i}"), 55);
        let (manifest, _) = convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
        let universal = layout::universal_dir(&dir, 2);
        // Hash the atom (all three states) of a sharded parameter.
        let path = layout::atom_path(
            &universal,
            "embedding.word_embeddings.weight",
            layout::AtomFile::Fp32,
        );
        let bytes = std::fs::read(&path).unwrap();
        atom_hashes.push(ucp_repro::storage::crc::crc32c(&bytes));
        assert_eq!(manifest.params.len(), 101);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        atom_hashes.windows(2).all(|w| w[0] == w[1]),
        "ZeRO stage changed the consolidated state: {atom_hashes:?}"
    );
}

#[test]
fn parameters_straddle_chunks_at_high_dp() {
    // dp=4 on the tiny model forces parameters across chunk boundaries —
    // the hardest fragment case. Verify the checkpoint actually contains
    // straddlers, then that conversion and reload survive them.
    let parallel = ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero2);
    let dir = checkpoint_with(parallel, "straddle", 56);
    let step_dir = layout::step_dir(&dir, 2);
    let (_, shard) = load_optim_states(&step_dir, 0, 0, 0).unwrap();
    let straddlers = shard
        .layout
        .slots
        .iter()
        .filter(|s| shard.layout.fragments_of(s).len() > 1)
        .count();
    assert!(straddlers > 0, "test premise: some parameter must straddle");

    let (manifest, _) = convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    // Reload under dp=1 and check the straddled params match the
    // all-gathered flat source.
    let target = ParallelConfig::single();
    let plan = gen_ucp_metadata(&manifest, &target, 0, DEFAULT_ALIGNMENT).unwrap();
    let session = LoadSession::open(&dir, 2, LoadOptions::default()).unwrap();
    let state = session.load_plan(&plan).unwrap();

    // Reassemble source flat from the four chunks.
    let mut source_flat = Vec::new();
    for dp in 0..4 {
        let (_, s) = load_optim_states(&step_dir, dp, 0, 0).unwrap();
        source_flat.extend_from_slice(&s.fp32);
    }
    for slot in &shard.layout.slots {
        let original = &source_flat[slot.offset..slot.offset + slot.len];
        let loaded = state
            .model_params
            .iter()
            .find(|(n, _)| n.as_ref() == slot.name)
            .map(|(_, t)| t)
            .unwrap();
        assert_eq!(
            loaded.as_slice(),
            original,
            "straddled parameter {} corrupted in flight",
            slot.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alignment_padding_never_reaches_atoms() {
    // With a large alignment quantum, padding dominates the flat buffer;
    // atoms must still have exactly the spec shapes (StripPadding).
    let parallel = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let dir = scratch("padding");
    let mut cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 57);
    cfg.alignment = 64;
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    let step_dir = layout::step_dir(&dir, 2);
    let (_, shard) = load_optim_states(&step_dir, 0, 0, 0).unwrap();
    assert_eq!(shard.layout.alignment, 64);
    assert!(shard.layout.total_len > shard.layout.real_len());

    let (manifest, _) = convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    for atom in &manifest.params {
        assert_eq!(
            atom.shape.num_elements(),
            ucp_repro::model::find_spec(
                &ucp_repro::model::param_specs(&manifest.model),
                &atom.name
            )
            .unwrap()
            .shape
            .num_elements(),
            "padding leaked into atom {}",
            atom.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alignment_can_differ_between_source_and_target() {
    // Source saved with alignment 8; target loads with alignment 32.
    // The atoms are alignment-free, so this must work and keep training.
    let parallel = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let dir = checkpoint_with(parallel, "realign", 58);
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let mut target_cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
        58,
    );
    target_cfg.alignment = 32;
    let run = train_run(&TrainPlan {
        config: target_cfg,
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    })
    .unwrap();
    assert_eq!(run.losses.len(), 2);
    assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_worker_conversion_matches_parallel() {
    let parallel = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let dir_a = checkpoint_with(parallel, "workers_a", 60);
    let dir_b = checkpoint_with(parallel, "workers_b", 60);
    let convert = |dir: &std::path::Path, workers: usize| {
        let opts = ConvertOptions {
            workers,
            ..ConvertOptions::default()
        };
        convert_to_universal(dir, 2, &opts).unwrap().0
    };
    let manifest = convert(&dir_a, 1);
    assert_eq!(convert(&dir_b, 8), manifest);
    let ua = layout::universal_dir(&dir_a, 2);
    let ub = layout::universal_dir(&dir_b, 2);
    assert_eq!(layout::dir_size_bytes(&ua), layout::dir_size_bytes(&ub));
    for atom in &manifest.params {
        let at = |dir| layout::atom_path(dir, &atom.name, layout::AtomFile::Fp32);
        let (a, b) = (
            std::fs::read(at(&ua)).unwrap(),
            std::fs::read(at(&ub)).unwrap(),
        );
        assert_eq!(a, b, "{} differs", atom.name);
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn universal_resume_into_zero3_and_back() {
    let dir = checkpoint_with(
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero3),
        "z3_cycle",
        61,
    );
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let target = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero3),
        61,
    );
    let run = train_run(&TrainPlan {
        config: target,
        until_iteration: 4,
        resume: ResumeMode::Universal {
            dir: dir.clone(),
            step: 2,
        },
        checkpoint_every: Some(4),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
    // Re-convert the re-saved checkpoint: the cycle closes.
    convert_to_universal(&dir, 4, &ConvertOptions::default()).unwrap();
    assert!(layout::read_latest_universal(&dir) == Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coord_mapping_marker() {
    // Keep RankCoord in the public API exercised from the facade.
    let p = ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1);
    let c = RankCoord {
        dp: 1,
        pp: 1,
        sp: 0,
        tp: 1,
    };
    assert_eq!(p.coord(p.rank_of(c)), c);
}
