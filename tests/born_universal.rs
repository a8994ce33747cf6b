//! Born-universal checkpoints: the overlapped save pipeline publishes
//! `latest_universal` at save time, and the tree it writes must be
//! bitwise-identical to what the offline `convert_to_universal` pass would
//! have produced — same atoms, same manifest, same bytes. Resuming from a
//! pipeline-published tree therefore needs no convert pass and lands on
//! exactly the state the offline path would load.
//!
//! The pipeline, the offline converter and the RAM hot tier are three
//! feeds of one assembler, so agreeing with each other proves little; the
//! first two are also held to [`naive`], Algorithm 1 composed from the
//! Table 2 operators with no code in common, here, and the hot tier is held
//! to it by `tests/any_to_any.rs`.

#[path = "support/naive.rs"]
mod naive;
#[path = "support/tree.rs"]
mod tree;

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use tree::tree_bytes;
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::fsck::{fsck, FsckOptions};
use ucp_repro::core::load::{LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_repro::core::manifest::UcpManifest;
use ucp_repro::core::{
    HotShard, MemoryCheckpoint, ParamPattern, UcpError, UcpSpec, UcpSpecBuilder,
};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::tensor::DType;
use ucp_repro::trainer::{train_run, train_run_overlapped, TrainConfig, TrainPlan};

fn plan(
    dir: &std::path::Path,
    model: &ModelConfig,
    parallel: ParallelConfig,
    dtype: DType,
    seed: u64,
    every: u64,
) -> TrainPlan {
    let mut cfg = TrainConfig::quick(model.clone(), parallel, seed);
    cfg.dtype = dtype;
    saving(cfg, 4, every, dir)
}

/// The inode budget of a universal tree: `manifest.ucpt` and one flat
/// `zero/` holding one regular file per (sub-)atom the manifest lists —
/// no directory per parameter, no file per state.
fn assert_one_inode_per_atom(ctx: &str, universal: &std::path::Path) {
    let names = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(universal), ["manifest.ucpt", "zero"], "{ctx}");
    let zero = universal.join("zero");
    let atoms: usize = (UcpManifest::load(universal).unwrap().params.iter())
        .map(|a| a.parts())
        .sum();
    let files = names(&zero);
    assert_eq!(files.len(), atoms, "{ctx}: one file per (sub-)atom");
    for file in files {
        let meta = std::fs::symlink_metadata(zero.join(&file)).unwrap();
        assert!(meta.is_file(), "{ctx}: zero/{file} is not a regular file");
    }
}

/// The third producer of a universal checkpoint, the RAM hot tier, refuses
/// malformed shard sets — here `off`'s native shards of `step`, edited —
/// with a typed error. (That well-formed sets assemble to the naive
/// reference's atoms, `tests/any_to_any.rs` holds for every case it draws.)
fn assert_memory_rejects_malformed_shards(
    name: &str,
    off: &std::path::Path,
    step: u64,
    source: ParallelConfig,
) {
    let shards = naive::hot_shards(&layout::step_dir(off, step));
    let reject = |what: &str, edit: &dyn Fn(&mut Vec<HotShard>)| {
        let mut bad = shards.clone();
        edit(&mut bad);
        match MemoryCheckpoint::assemble(bad).map(|c| c.step()) {
            Err(UcpError::Inconsistent(_)) => {}
            other => panic!("{name}: {what} must be Inconsistent, got {other:?}"),
        }
    };
    reject("no shards", &|s| s.clear());
    reject("mixed steps", &|s| s[0].common.iteration += 1);
    reject("duplicate coordinate", &|s| s.push(s[0].clone()));
    reject("missing coordinate", &|s| drop(s.pop()));
    reject("out-of-range coordinate", &|s| s[0].tp = source.tp);
    reject("truncated chunk", &|s| s[0].shard.exp_avg.truncate(1));
}

/// The whole contract for one source configuration:
///
/// 1. an overlapped run publishes `latest_universal` at save time;
/// 2. its universal trees are bitwise-equal to offline conversion of an
///    identical synchronous run, at every saved step, and each is one flat
///    directory of one file per atom ([`assert_one_inode_per_atom`]);
/// 3. the pipeline-written repository is fsck-clean;
/// 4. hence a reconfigured resume straight off the pipeline tree — no convert
///    pass anywhere — lands on the state the offline path loads
///    (`tests/any_to_any.rs` resumes born-universal trees under drawn
///    layouts);
/// 5. the offline-converted trees hold the naive reference's atoms, and
///    the same native shards, edited, are refused by the RAM tier
///    ([`assert_memory_rejects_malformed_shards`]).
fn assert_born_universal(name: &str, model: ModelConfig, source: ParallelConfig, dtype: DType) {
    assert_born_universal_every(name, model, source, dtype, 2);
}

fn assert_born_universal_every(
    name: &str,
    model: ModelConfig,
    source: ParallelConfig,
    dtype: DType,
    every: u64,
) {
    let seed = 83;
    let pipe = scratch(&format!("{name}_pipe"));
    let off = scratch(&format!("{name}_off"));
    let steps: Vec<u64> = (every..=4).step_by(every as usize).collect();

    let pipe_run = train_run_overlapped(&plan(&pipe, &model, source, dtype, seed, every)).unwrap();
    // Published at save time: no convert call has touched `pipe`.
    assert_eq!(
        layout::read_latest_universal(&pipe),
        Some(4),
        "{name}: pipeline did not publish latest_universal at save time"
    );
    assert_eq!(layout::read_latest(&pipe), Some(4), "{name}");

    let off_run = train_run(&plan(&off, &model, source, dtype, seed, every)).unwrap();
    assert_eq!(pipe_run.losses, off_run.losses, "{name}: training diverged");
    for &step in &steps {
        convert_to_universal(&off, step, &ConvertOptions::default()).unwrap();
        let reference = naive::naive_atoms(&naive::hot_shards(&layout::step_dir(&off, step)), None);
        naive::assert_atoms_eq(
            &format!("{name} step {step}: offline convert vs naive"),
            &naive::tree_atoms(&layout::universal_dir(&off, step)),
            &reference,
        );
        assert_memory_rejects_malformed_shards(name, &off, step, source);
    }

    // At per-iteration cadence the pipeline patches dirty atoms in carried
    // buffers and hard-links clean ones from the previous step; the
    // offline path rebuilds each step from its native files alone. Byte
    // equality at every step is the incremental path's soundness proof.
    for &step in &steps {
        for dir in [&pipe, &off] {
            let ctx = format!("{name} step {step} under {dir:?}");
            assert_one_inode_per_atom(&ctx, &layout::universal_dir(dir, step));
        }
        let a = tree_bytes(&layout::universal_dir(&pipe, step));
        let b = tree_bytes(&layout::universal_dir(&off, step));
        assert!(!a.is_empty(), "{name} step {step}: empty universal tree");
        assert_eq!(
            a, b,
            "{name} step {step}: pipeline universal tree differs from offline convert"
        );
    }

    let report = fsck(&pipe, &FsckOptions::default()).unwrap();
    assert!(
        report.clean(),
        "{name}: pipeline tree dirty: {:?}",
        report.problems
    );
    assert!(
        report.markers_repaired.is_empty(),
        "{name}: marker named an incomplete step: {:?}",
        report.markers_repaired
    );

    std::fs::remove_dir_all(&pipe).ok();
    std::fs::remove_dir_all(&off).ok();
}

#[test]
fn born_universal_tp2_dp2() {
    assert_born_universal(
        "tp2_dp2",
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        DType::F32,
    );
}

#[test]
fn born_universal_tp2_pp2_tied() {
    // Tied embeddings under PP>1: only the last stage writes the shared
    // atom, in the pipeline and offline alike.
    assert_born_universal(
        "tp2_pp2_tied",
        ModelConfig::gpt3_tiny_tied(),
        ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        DType::F32,
    );
}

#[test]
fn born_universal_zero2() {
    assert_born_universal(
        "zero2",
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
        DType::F32,
    );
}

#[test]
fn born_universal_bf16_source() {
    assert_born_universal(
        "bf16",
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        DType::BF16,
    );
}

#[test]
fn born_universal_every_iteration_tp2_dp2() {
    // checkpoint_every = 1: four consecutive saves share one persistent
    // mesh and patch one carried assembler per stage.
    assert_born_universal_every(
        "every1_tp2_dp2",
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        DType::F32,
        1,
    );
}

#[test]
fn born_universal_every_iteration_pp2() {
    assert_born_universal_every(
        "every1_pp2",
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 2, 2, 1, ZeroStage::Zero1),
        DType::F32,
        1,
    );
}

#[test]
fn born_universal_every_iteration_moe() {
    // MoE at per-iteration cadence: the top-k router leaves unrouted
    // experts' gradients exactly zero, so their state is bitwise frozen
    // and the dirty filter drops their fragments — the equality check
    // proves skipping them loses nothing.
    assert_born_universal_every(
        "every1_moe",
        ModelConfig::moe_tiny(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        DType::F32,
        1,
    );
}

/// One cell of the Fig. 6–10 property in its small form: a source saved
/// under `tp`·`pp`·`zero` with the given ZeRO `alignment`, every save of a
/// two-step run consolidated by the pipeline (the second save patches the
/// first's buffers) and the offline converter, and each result compared
/// bitwise with the naive reference. With `rules` the offline converter and
/// the reference both take the user spec; the pipeline has no such input
/// and sits out.
fn assert_feeds_match_naive(
    name: &str,
    model: &ModelConfig,
    (tp, pp, zero, alignment): (usize, usize, usize, usize),
    rules: Option<&UcpSpec>,
) {
    let ctx = format!("{name} tp{tp} pp{pp} zero{zero} align{alignment}");
    let source = ParallelConfig::new(tp, pp, zero, 1, ZeroStage::Zero1);
    let pipe = scratch(&format!("mx_{name}_{tp}_{zero}_{alignment}_pipe"));
    let off = scratch(&format!("mx_{name}_{tp}_{zero}_{alignment}_off"));
    let cell_plan = |dir: &std::path::Path| {
        let mut plan = plan(dir, model, source, DType::F32, 29, 1);
        plan.until_iteration = 2;
        plan.config.alignment = alignment;
        plan.config.global_batch = 2 * zero;
        plan.config.micro_batch = 2;
        plan
    };
    train_run(&cell_plan(&off)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    if rules.is_none() {
        train_run_overlapped(&cell_plan(&pipe)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
    let opts = ConvertOptions {
        spec_override: rules.cloned(),
        ..ConvertOptions::default()
    };
    for step in [1, 2] {
        let reference =
            naive::naive_atoms(&naive::hot_shards(&layout::step_dir(&off, step)), rules);
        convert_to_universal(&off, step, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let offline = layout::universal_dir(&off, step);
        naive::assert_atoms_eq(
            &format!("{ctx} step {step}: offline"),
            &naive::tree_atoms(&offline),
            &reference,
        );
        if rules.is_some() {
            continue;
        }
        assert_eq!(
            tree_bytes(&layout::universal_dir(&pipe, step)),
            tree_bytes(&offline),
            "{ctx} step {step}: pipeline tree differs from offline convert"
        );
    }
    std::fs::remove_dir_all(&pipe).ok();
    std::fs::remove_dir_all(&off).ok();
}

/// tp ∈ {1, 2, 4} × zero ∈ {1, 2, 3} × alignment ∈ {1, 8} for one model
/// (two layers keep a cell cheap; every parameter kind is still present).
fn assert_matrix(name: &str, mut model: ModelConfig, pp: usize, rules: Option<&UcpSpec>) {
    model.num_layers = 2;
    for tp in [1, 2, 4] {
        for zero in [1, 2, 3] {
            for alignment in [1, 8] {
                assert_feeds_match_naive(name, &model, (tp, pp, zero, alignment), rules);
            }
        }
    }
}

#[test]
fn matrix_gpt3_tiny() {
    assert_matrix("gpt", ModelConfig::gpt3_tiny(), 1, None);
}

#[test]
fn matrix_llama_tiny_grouped_gqa() {
    // Eight query heads over four KV heads: grouped QKV that still splits
    // four ways.
    let mut model = ModelConfig::llama_tiny();
    model.num_heads = 8;
    model.num_kv_heads = 4;
    assert_matrix("llama", model, 1, None);
}

#[test]
fn matrix_padded_vocab() {
    assert_matrix("padded", ModelConfig::gpt3_tiny_padded_vocab(), 1, None);
}

#[test]
fn matrix_tied_embeddings_pp2() {
    assert_matrix("tied", ModelConfig::gpt3_tiny_tied(), 2, None);
}

#[test]
fn matrix_moe_tiny() {
    let mut model = ModelConfig::moe_tiny();
    model.num_heads = 8;
    model.num_kv_heads = 4;
    assert_matrix("moe", model, 1, None);
}

#[test]
fn matrix_params_to_average_rule() {
    // A user rule turns the replicated layernorms into `params_to_average`:
    // the mean of in-sync copies, through the f64 accumulator.
    let rules = UcpSpecBuilder::new()
        .rule("layers.*.input_layernorm.weight", ParamPattern::ToAverage)
        .rule(
            "layers.*.post_attention_layernorm.weight",
            ParamPattern::ToAverage,
        )
        .build();
    assert_matrix("avg", ModelConfig::gpt3_tiny(), 1, Some(&rules));
}

/// The cadence sweep's sparse MoE — 32 experts routed top-1 over four
/// tokens, so a step reaches a few experts per layer — with heads that
/// still split four ways and two layers for a PP2 target.
fn moe_sparse() -> ModelConfig {
    let mut model = ModelConfig::moe_tiny();
    model.num_heads = 8;
    model.num_kv_heads = 4;
    model.num_layers = 2;
    model.num_experts = 32;
    model.top_k = 1;
    model.max_seq_len = 4;
    model
}

/// Two saves of a sparse MoE, pipeline and sync-plus-offline-convert, both
/// with `global_batch` 2: the trees of steps 1 and 2 under `pipe` and
/// `off`.
fn moe_two_steps(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let source = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
    let (pipe, off) = (
        scratch(&format!("{tag}_pipe")),
        scratch(&format!("{tag}_off")),
    );
    let two_steps = |dir: &std::path::Path| {
        let mut plan = plan(dir, &moe_sparse(), source, DType::F32, 29, 1);
        plan.until_iteration = 2;
        plan.config.global_batch = 2;
        plan.config.micro_batch = 1;
        plan
    };
    train_run_overlapped(&two_steps(&pipe)).unwrap();
    train_run(&two_steps(&off)).unwrap();
    for step in [1, 2] {
        convert_to_universal(&off, step, &ConvertOptions::default()).unwrap();
    }
    (pipe, off)
}

#[test]
fn moe_save_rewrites_exactly_the_experts_its_step_touched() {
    use std::os::unix::fs::MetadataExt;
    let (pipe, off) = moe_two_steps("moe_parts");
    // Which experts step 2 changed, from the naive reference alone: slice
    // `e` of any of the three states differs between the two steps.
    let atoms = |step| naive::naive_atoms(&naive::hot_shards(&layout::step_dir(&off, step)), None);
    let (before, after) = (atoms(1), atoms(2));
    let (step1, step2) = (
        layout::universal_dir(&pipe, 1),
        layout::universal_dir(&pipe, 2),
    );
    let manifest = UcpManifest::load(&step2).unwrap();
    let split: Vec<_> = manifest.params.iter().filter(|a| a.parts() > 1).collect();
    assert_eq!(split.len(), 4, "two expert weights in each of two layers");
    let (mut rewritten, mut linked) = (0, 0);
    for atom in split {
        assert_eq!(atom.parts, Some(32), "{}", atom.name);
        let part_len = atom.shape.num_elements() / 32;
        for part in 0..32 {
            let slice = |atoms: &naive::Atoms, ki: usize| {
                let flat = atoms[&atom.name][ki].as_slice()[part * part_len..][..part_len].to_vec();
                flat.into_iter().map(f32::to_bits).collect::<Vec<u32>>()
            };
            let dirty = (0..3).any(|ki| slice(&before, ki) != slice(&after, ki));
            let at = |dir: &std::path::Path| {
                let (name, part) = (&atom.name, Some(part));
                std::fs::metadata(layout::atom_file(dir, name, part)).unwrap()
            };
            let ctx = format!("{} part {part}", atom.name);
            if dirty {
                assert_eq!(at(&step2).nlink(), 1, "{ctx}: changed, so rewritten");
            } else {
                assert_eq!(
                    at(&step2).ino(),
                    at(&step1).ino(),
                    "{ctx}: clean, so linked"
                );
            }
            *(if dirty { &mut rewritten } else { &mut linked }) += 1;
        }
    }
    assert!(
        rewritten > 0 && linked > rewritten,
        "sparse routing: {rewritten} sub-atoms rewritten, {linked} linked"
    );

    // The split tree loads bitwise-equal through the ranged and the
    // whole-file path, and equal to the RAM tier's whole tensors, under
    // every fan-out target.
    let ram = MemoryCheckpoint::assemble(naive::hot_shards(&layout::step_dir(&off, 2))).unwrap();
    let whole_file = LoadOptions {
        ranged: false,
        ..LoadOptions::default()
    };
    let ranged = LoadSession::open(&pipe, 2, LoadOptions::default()).unwrap();
    let whole = LoadSession::open(&pipe, 2, whole_file).unwrap();
    for target in [
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1),
        ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(4, 1, 2, 1, ZeroStage::Zero1),
        ParallelConfig::new(1, 1, 8, 1, ZeroStage::Zero3),
    ] {
        for rank in 0..target.world_size() {
            let ctx = format!("target {} rank {rank}", target.label());
            let a = ranged.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
            let b = whole.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
            let c = ram.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
            naive::assert_states_eq(&format!("{ctx}: ranged vs whole-file"), &a, &b);
            naive::assert_states_eq(&format!("{ctx}: disk vs RAM"), &a, &c);
        }
    }
    std::fs::remove_dir_all(&pipe).ok();
    std::fs::remove_dir_all(&off).ok();
}

#[test]
fn pruned_link_sources_leave_linked_atoms_readable() {
    // Per-iteration saves hard-link clean atoms from the previous step's
    // files. Pruning that previous step unlinks the *names*; the shared
    // inodes must survive, leaving the newer tree complete, fsck-clean,
    // and resumable.
    use ucp_repro::storage::retention::{prune, RetentionPolicy};

    let model = ModelConfig::gpt3_tiny();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = scratch("every1_prune");
    let seed = 83;
    train_run_overlapped(&plan(&dir, &model, source, DType::F32, seed, 1)).unwrap();
    assert_eq!(layout::read_latest_universal(&dir), Some(4));

    let report = prune(&dir, &RetentionPolicy::last(1)).unwrap();
    assert_eq!(report.removed, vec![1, 2, 3], "steps 1-3 pruned away");
    assert!(!layout::universal_dir(&dir, 3).exists());

    let fsck_report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(
        fsck_report.clean(),
        "tree with back-referenced atoms dirty after pruning link sources: {:?}",
        fsck_report.problems
    );

    // Resume from the surviving step: its linked atoms must read back.
    let target = ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero1);
    let run = train_run(&resuming(
        TrainConfig::quick(model, target, seed),
        5,
        &dir,
        4,
    ))
    .unwrap();
    assert_eq!(run.start_iteration, 4);
    std::fs::remove_dir_all(&dir).ok();
}
