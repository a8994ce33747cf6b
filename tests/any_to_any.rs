//! Any → any resharding, held bitwise: the paper's central claim (Figs.
//! 6–10, Table 3) that a checkpoint saved under any TP × PP × DP × SP × ZeRO
//! layout resumes under any other.
//!
//! The cases are drawn, not listed. A case is a model family, a source and
//! a target layout (world ≤ 8, each accepted by `TrainConfig::validate`),
//! their ZeRO alignments and dtypes, and a route from the source's saved
//! step to the target ranks' loaded state. For every case:
//!
//! - the chunks every target rank is loaded with through the public API
//!   consolidate, under [`naive`], to exactly the atoms [`naive`]
//!   consolidates from the source's native files: the fp32 master and both
//!   Adam moments, bit for bit, padding stripped;
//! - each target (tp, pp) slice's fp32 model shards, unsharded over TP with
//!   `Partition::unshard`, are the source atoms' fp32 values, and every DP
//!   and SP replica holds the same shards;
//! - every value that no atom element backs is `+0.0`;
//! - every route to the target yields bitwise-identical rank states;
//! - on every 8th case, a resume under the target layout continues the
//!   uninterrupted baseline within [`TOL`] (and a resume under another
//!   model-copy dtype stays within [`DTYPE_SWITCH_TOL`]).
//!
//! The harness does not shrink. A failing case panics with its label and
//! values, and a rerun draws the same case. The hand-picked cells the
//! property grew from run too, each as a test of its own
//! ([`regressions!`]).

#[path = "support/naive.rs"]
mod naive;
#[path = "support/scratch.rs"]
mod scratch;

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use proptest::TestRng;
use scratch::{saving, scratch};
use ucp_repro::core::convert::{convert_to_memory, convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{gen_ucp_metadata, LoadOptions, LoadSession, RankState};
use ucp_repro::core::ops::strip_padding;
use ucp_repro::core::{MemoryCheckpoint, UcpManifest};
use ucp_repro::model::{param_specs, ModelConfig, Partition};
use ucp_repro::parallel::{ParallelConfig, RankCoord, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::tensor::{DType, Tensor};
use ucp_repro::trainer::{train_run, train_run_overlapped, ResumeMode, TrainConfig, TrainPlan};

/// Generated cases per run; the regression cells come on top.
const CASES: u64 = 64;
/// How far a same-dtype resume may stray from its baseline's losses.
const TOL: f64 = 2e-3;
/// The same under another model-copy dtype: the quantized copy differs, so
/// the curve drifts, but it must stay in its regime.
const DTYPE_SWITCH_TOL: f64 = 0.15;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Gpt,
    PaddedVocab,
    Tied,
    Llama,
    Bloom,
    Moe,
}

const FAMILIES: [Family; 6] = [
    Family::Gpt,
    Family::PaddedVocab,
    Family::Tied,
    Family::Llama,
    Family::Bloom,
    Family::Moe,
];

impl Family {
    fn preset(self) -> ModelConfig {
        match self {
            Family::Gpt => ModelConfig::gpt3_tiny(),
            Family::PaddedVocab => ModelConfig::gpt3_tiny_padded_vocab(),
            Family::Tied => ModelConfig::gpt3_tiny_tied(),
            Family::Llama => ModelConfig::llama_tiny(),
            Family::Bloom => ModelConfig::bloom_tiny(),
            Family::Moe => ModelConfig::moe_tiny(),
        }
    }
}

/// How the target ranks' state is reached from the source's saved step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// A sync-native save, `convert_to_universal`, then a `LoadSession`,
    /// ranged and whole-file.
    Convert,
    /// A sync-native save, then `convert_to_memory`.
    Memory,
    /// A sync-native save, then `MemoryCheckpoint::assemble` over its shards
    /// as the hot tier holds them.
    Assemble,
    /// The born-universal tree `train_run_overlapped` publishes, through a
    /// `LoadSession`.
    BornUniversal,
}

const ROUTES: [Route; 4] = [
    Route::Convert,
    Route::Memory,
    Route::Assemble,
    Route::BornUniversal,
];

/// One side of a reshard.
#[derive(Debug, Clone, Copy)]
struct Side {
    parallel: ParallelConfig,
    /// ZeRO alignment quantum.
    alignment: usize,
    /// Model-copy dtype.
    dtype: DType,
}

#[derive(Debug, Clone)]
struct Case {
    family: Family,
    layers: usize,
    /// (query, KV) attention heads, where they differ from the preset's.
    heads: Option<(usize, usize)>,
    source: Side,
    target: Side,
    route: Route,
    seed: u64,
    /// The step the source saves; a loss check runs to twice it.
    step: u64,
    micro_batch: usize,
    loss_check: bool,
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

impl Case {
    /// Case `index` of the property: every choice drawn from its own RNG.
    fn drawn(index: u64) -> Case {
        let mut rng = TestRng::for_case("any_to_any", index);
        let family = pick(&mut rng, &FAMILIES);
        let single = Side {
            parallel: ParallelConfig::single(),
            alignment: 1,
            dtype: DType::F32,
        };
        let mut case = Case {
            family,
            layers: family.preset().num_layers.min(4),
            // GQA that still splits four ways.
            heads: matches!(family, Family::Llama | Family::Moe).then_some((8, 4)),
            source: single,
            target: single,
            route: pick(&mut rng, &ROUTES),
            seed: rng.below(1000),
            step: 2,
            micro_batch: 1,
            loss_check: index.is_multiple_of(8),
        };
        case.source = case.draw_side(&mut rng);
        case.target = case.draw_side(&mut rng);
        case
    }

    /// A layout with world ≤ 8 that the product accepts for this model,
    /// with its alignment and dtype.
    fn draw_side(&self, rng: &mut TestRng) -> Side {
        let degree = |rng: &mut TestRng| pick(rng, &[1, 2, 4, 8]);
        loop {
            let (tp, pp, dp, sp) = (degree(rng), degree(rng), degree(rng), degree(rng));
            let zero = pick(rng, &[ZeroStage::Zero1, ZeroStage::Zero2, ZeroStage::Zero3]);
            let side = Side {
                parallel: ParallelConfig::new(tp, pp, dp, sp, zero),
                alignment: pick(rng, &[1, 8, 32]),
                dtype: pick(rng, &[DType::BF16, DType::F16, DType::F32]),
            };
            if side.parallel.world_size() <= 8 && self.config(&side, side.dtype).validate().is_ok()
            {
                return side;
            }
        }
    }

    /// A cell of the hand-picked matrix: the family's preset under
    /// `TrainConfig::quick`, a sync save at step 4 converted offline, and a
    /// loss check to step 8. Layouts are `(tp, pp, dp, sp, ZeRO stage)`.
    fn cell(family: Family, source: Layout, target: Layout, seed: u64) -> Case {
        let quick = TrainConfig::quick(family.preset(), ParallelConfig::single(), seed);
        let side = |(tp, pp, dp, sp, zero): Layout| Side {
            parallel: ParallelConfig::new(tp, pp, dp, sp, ZeroStage::from_u8(zero).unwrap()),
            alignment: quick.alignment,
            dtype: quick.dtype,
        };
        Case {
            family,
            layers: quick.model.num_layers,
            heads: None,
            source: side(source),
            target: side(target),
            route: Route::Convert,
            seed,
            step: 4,
            micro_batch: quick.micro_batch,
            loss_check: true,
        }
    }

    fn model(&self) -> ModelConfig {
        let mut model = self.family.preset();
        model.num_layers = self.layers;
        if let Some((heads, kv_heads)) = self.heads {
            model.num_heads = heads;
            model.num_kv_heads = kv_heads;
        }
        model
    }

    fn config(&self, side: &Side, dtype: DType) -> TrainConfig {
        let mut cfg = TrainConfig::quick(self.model(), side.parallel, self.seed);
        cfg.micro_batch = self.micro_batch;
        cfg.alignment = side.alignment;
        cfg.dtype = dtype;
        cfg
    }

    /// What the case exercises, as `(fact, holds)`: the drawn cases must
    /// make every fact hold between them.
    fn facts(&self) -> Vec<(String, bool)> {
        let (s, t) = (self.source.parallel, self.target.parallel);
        let mut facts = Vec::new();
        facts.extend(FAMILIES.map(|f| (format!("{f:?}"), self.family == f)));
        facts.extend(ROUTES.map(|r| (format!("the {r:?} route"), self.route == r)));
        facts.extend([1, 2, 3].map(|z| {
            let held = [s, t].iter().any(|p| p.zero.as_u8() == z);
            (format!("ZeRO-{z}"), held)
        }));
        let tied_pp = self.model().tie_embeddings && s.pp.max(t.pp) > 1;
        let tp_change = self.family == Family::PaddedVocab && s.tp != t.tp;
        let switched = self.source.dtype != self.target.dtype;
        let resumed_switched = switched && self.loss_check;
        let more = [
            ("SP > 1 at the source", s.sp > 1),
            ("SP > 1 at the target", t.sp > 1),
            ("tied embeddings under PP > 1", tied_pp),
            ("a padded vocabulary across a TP change", tp_change),
            ("a model-copy dtype switch", switched),
            ("a resume under a switched dtype", resumed_switched),
        ];
        facts.extend(more.map(|(fact, held)| (fact.to_string(), held)));
        facts
    }
}

/// `(tp, pp, dp, sp, ZeRO stage)`.
type Layout = (usize, usize, usize, usize, u8);

/// Where a route's target ranks load from.
enum Source {
    Disk(Box<LoadSession>),
    Memory(Arc<MemoryCheckpoint>),
}

impl Source {
    fn manifest(&self) -> &UcpManifest {
        match self {
            Source::Disk(s) => s.manifest(),
            Source::Memory(m) => m.manifest(),
        }
    }

    fn load_all(&self, target: &Side) -> Vec<RankState> {
        (0..target.parallel.world_size())
            .map(|rank| match self {
                Source::Disk(s) => s.load_rank(&target.parallel, rank, target.alignment),
                Source::Memory(m) => m.load_rank(&target.parallel, rank, target.alignment),
            })
            .collect::<Result<_, _>>()
            .unwrap()
    }

    /// The resume mode that trains from this source.
    fn resume(&self, dir: &Path, step: u64) -> ResumeMode {
        match self {
            Source::Disk(_) => ResumeMode::Universal {
                dir: dir.to_path_buf(),
                step,
            },
            Source::Memory(m) => ResumeMode::Hot {
                checkpoint: Arc::clone(m),
            },
        }
    }
}

/// Run one case; a failure panics with the case's label and values.
fn run(label: &str, case: &Case) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(label, case)));
    if let Err(panic) = outcome {
        let message = (panic.downcast_ref::<String>().cloned())
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        panic!("{label} failed: {message}\n  replay: {case:?}");
    }
}

fn check(label: &str, case: &Case) {
    let dir = scratch(&label.replace(' ', "_"));
    let step = case.step;
    let save = saving(
        case.config(&case.source, case.source.dtype),
        step,
        step,
        &dir,
    );
    match case.route {
        Route::BornUniversal => train_run_overlapped(&save),
        _ => train_run(&save),
    }
    .unwrap();
    let native = naive::hot_shards(&layout::step_dir(&dir, step));
    let want = naive::naive_atoms(&native, None);

    // Every source the route reaches the target through, and the native
    // shards assembled in RAM.
    let assembled = Source::Memory(Arc::new(MemoryCheckpoint::assemble(&native).unwrap()));
    let session = |ranged| {
        let opts = LoadOptions {
            ranged,
            ..LoadOptions::default()
        };
        Source::Disk(Box::new(LoadSession::open(&dir, step, opts).unwrap()))
    };
    let convert = ConvertOptions::default();
    let sources = match case.route {
        Route::Convert => {
            convert_to_universal(&dir, step, &convert).unwrap();
            vec![session(true), session(false), assembled]
        }
        Route::Memory => {
            let (memory, _) = convert_to_memory(&dir, step, &convert).unwrap();
            vec![Source::Memory(Arc::new(memory)), assembled]
        }
        Route::Assemble => vec![assembled],
        Route::BornUniversal => vec![session(true), assembled],
    };
    let loads: Vec<Vec<RankState>> = sources.iter().map(|s| s.load_all(&case.target)).collect();
    let states = &loads[0];
    for (route, other) in loads.iter().enumerate().skip(1) {
        for (rank, (a, b)) in states.iter().zip(other).enumerate() {
            naive::assert_states_eq(&format!("source {route} rank {rank}"), a, b);
        }
    }

    let target = case.target.parallel;
    let loaded = naive::naive_atoms(
        &naive::loaded_shards(&native[0].common, target, states),
        None,
    );
    naive::assert_atoms_eq("target vs source", &loaded, &want);
    assert_shards_unshard_to_atoms(&case.model(), target, states, &want);
    let mut padding = 0;
    for (rank, state) in states.iter().enumerate() {
        let plan = gen_ucp_metadata(sources[0].manifest(), &target, rank, case.target.alignment);
        padding +=
            naive::assert_padding_is_positive_zero(&plan.unwrap(), state, &format!("rank {rank}"));
    }
    let padded = case.family == Family::PaddedVocab;
    assert_eq!(padding > 0, padded, "{padding} shard padding values");

    if case.loss_check {
        assert_resume_continues(case, &sources[0], &dir);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each (tp, pp) slice's fp32 model shards, unsharded over TP, are the
/// source atoms' fp32 values (a replicated shard is the whole atom on
/// every TP rank), and every DP and SP replica holds its slice's shards.
fn assert_shards_unshard_to_atoms(
    model: &ModelConfig,
    target: ParallelConfig,
    states: &[RankState],
    want: &naive::Atoms,
) {
    let specs = param_specs(model);
    for pp in 0..target.pp {
        let first = |tp| {
            target.rank_of(RankCoord {
                dp: 0,
                pp,
                sp: 0,
                tp,
            })
        };
        let slice: Vec<&RankState> = (0..target.tp).map(|tp| &states[first(tp)]).collect();
        for (i, (name, _)) in slice[0].model_params.iter().enumerate() {
            let partition = &specs.iter().find(|s| *s.name == **name).unwrap().partition;
            let shards: Vec<Tensor> = (slice.iter())
                .map(|s| {
                    assert_eq!(&s.model_params[i].0, name, "pp {pp}: param order");
                    (*s.model_params[i].1).clone()
                })
                .collect();
            let atom = &want[name.as_ref()][0];
            let whole = strip_padding(&partition.unshard(&shards), atom.shape()).unwrap();
            assert!(whole.bitwise_eq(atom), "pp {pp}: {name} unshards wrong");
            if matches!(partition, Partition::Replicated) {
                assert!(shards.iter().all(|s| s.bitwise_eq(atom)), "pp {pp}: {name}");
            }
        }
    }
    for (r, replica) in states.iter().enumerate() {
        let c = target.coord(r);
        let first = &states[target.rank_of(RankCoord { dp: 0, sp: 0, ..c })];
        for ((name, a), (_, b)) in replica.model_params.iter().zip(&first.model_params) {
            assert!(a.bitwise_eq(b), "rank {r} ({c:?}): {name}");
        }
    }
}

/// The source run, resumed under the target layout from `source`,
/// continues its uninterrupted baseline: within [`TOL`] in the source's
/// dtype, within [`DTYPE_SWITCH_TOL`] in the target's where that differs.
fn assert_resume_continues(case: &Case, source: &Source, dir: &Path) {
    let (step, until) = (case.step, 2 * case.step);
    let config = case.config(&case.source, case.source.dtype);
    let baseline = train_run(&TrainPlan::simple(config, until)).unwrap();
    let mut dtypes = vec![(case.source.dtype, TOL)];
    if case.target.dtype != case.source.dtype {
        dtypes.push((case.target.dtype, DTYPE_SWITCH_TOL));
    }
    for (dtype, tol) in dtypes {
        let resumed = train_run(&TrainPlan {
            config: case.config(&case.target, dtype),
            until_iteration: until,
            resume: source.resume(dir, step),
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        assert_eq!(resumed.start_iteration, step);
        assert_eq!(resumed.losses.len() as u64, until - step);
        for ((ia, la), (ib, lb)) in baseline.losses[step as usize..].iter().zip(&resumed.losses) {
            assert_eq!(ia, ib);
            let ctx = format!("{dtype}: iteration {ia}, baseline {la} vs resumed {lb}");
            assert!((la - lb).abs() < tol, "{ctx}");
        }
    }
}

#[test]
fn drawn_layouts_reshard_bitwise() {
    let (mut facts, mut held) = (BTreeSet::new(), BTreeSet::new());
    for index in 0..CASES {
        let case = Case::drawn(index);
        run(&format!("case {index}"), &case);
        for (fact, holds) in case.facts() {
            if holds {
                held.insert(fact.clone());
            }
            facts.insert(fact);
        }
    }
    let unseen: Vec<_> = facts.difference(&held).collect();
    assert!(
        unseen.is_empty(),
        "{CASES} drawn cases never covered {unseen:?}: raise CASES"
    );
}

/// The hand-picked cells the property grew from, each a test of its own
/// that runs every time: `name: family, source => target, seed`.
macro_rules! regressions {
    ($($name:ident: $family:ident, $source:expr => $target:expr, seed $seed:literal;)*) => {$(
        #[test]
        fn $name() {
            let case = Case::cell(Family::$family, $source, $target, $seed);
            run(stringify!($name), &case);
        }
    )*};
}

regressions! {
    gpt_3d_to_pure_dp: Gpt, (2, 2, 2, 1, 1) => (1, 1, 4, 1, 2), seed 1;
    gpt_pure_dp_to_3d: Gpt, (1, 1, 4, 1, 2) => (2, 2, 1, 1, 1), seed 2;
    gpt_single_gpu_to_eight: Gpt, (1, 1, 1, 1, 1) => (2, 2, 2, 1, 1), seed 3;
    gpt_eight_to_single_gpu: Gpt, (2, 2, 2, 1, 1) => (1, 1, 1, 1, 1), seed 4;
    gpt_zero3_to_zero1_tp: Gpt, (1, 1, 4, 1, 3) => (2, 1, 2, 1, 1), seed 5;
    gpt_into_sequence_parallel: Gpt, (2, 1, 2, 1, 1) => (1, 1, 2, 2, 1), seed 6;
    gpt_out_of_sequence_parallel: Gpt, (1, 1, 2, 2, 1) => (2, 2, 1, 1, 1), seed 7;
    llama_tp_pp_swap: Llama, (2, 2, 1, 1, 1) => (1, 2, 2, 1, 1), seed 8;
    moe_expands_tensor_parallelism: Moe, (1, 2, 2, 1, 1) => (2, 2, 1, 1, 1), seed 9;
    bloom_pipeline_depth_change: Bloom, (1, 4, 1, 1, 1) => (1, 2, 2, 1, 1), seed 10;
}
