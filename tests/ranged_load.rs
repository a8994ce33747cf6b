//! The fragment-ranged load path: byte-range reads must be
//! indistinguishable from whole-file reads (bitwise), fall back to a
//! verified whole-section read when only a block table is damaged, and
//! share bytes across DP replicas through the session atom cache.

#[path = "support/naive.rs"]
mod naive;
#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use std::sync::{Arc, Mutex};

use ucp_repro::core::convert::{convert_to_memory, convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{
    gen_ucp_metadata, LoadOptions, LoadPlan, LoadSession, RankState, DEFAULT_ALIGNMENT,
};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, RankCoord, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::tensor::DType;
use ucp_repro::trainer::{train_run, TrainConfig};

/// The convert-open and cache-accounting assertions read the global
/// telemetry recorder, so the tests in this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Train, checkpoint at step 2, and convert; returns the base dir.
fn universal_checkpoint(parallel: ParallelConfig, name: &str, dtype: DType) -> std::path::PathBuf {
    universal_checkpoint_of(ModelConfig::gpt3_tiny(), parallel, name, dtype)
}

/// A model whose row-split shards are strided at CRC-block granularity
/// (gpt3_tiny's 16-element runs all share one 256-byte block): hidden 256,
/// so a TP4 run of a `[256, 256]` weight is exactly one block.
fn wide_model() -> ModelConfig {
    ModelConfig {
        hidden_size: 256,
        ffn_size: 512,
        num_layers: 2,
        max_seq_len: 8,
        ..ModelConfig::gpt3_tiny()
    }
}

fn universal_checkpoint_of(
    model: ModelConfig,
    parallel: ParallelConfig,
    name: &str,
    dtype: DType,
) -> std::path::PathBuf {
    let dir = scratch(name);
    let mut cfg = TrainConfig::quick(model, parallel, 71);
    cfg.dtype = dtype;
    train_run(&saving(cfg, 2, 2, &dir)).unwrap();
    // Convert takes the run metadata from the head of the first
    // optimizer-states file and each slice's flat layout from the shards
    // it extracts: one open per optimizer-states file plus that head
    // read, and no model-states file.
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let opens = rec.report("convert_opens").counter("storage/open");
    rec.set_enabled(false);
    assert_eq!(
        opens,
        Some(parallel.world_size() as u64 + 1),
        "{name}: convert must read each optimizer file exactly once"
    );
    dir
}

/// `Load` of a precomputed plan through a private session over step 2 of
/// `base`: a fresh atom cache per call, so every read reaches the disk.
fn load_plan(
    base: &std::path::Path,
    plan: &LoadPlan,
    opts: LoadOptions,
) -> ucp_repro::core::Result<RankState> {
    LoadSession::open(base, 2, opts)?.load_plan(plan)
}

/// Load every rank of `target` three ways — ranged, whole-file, and from
/// the convert's atoms in RAM — and demand bitwise equality, with every
/// padding value `+0.0`. Returns how many shard padding values the ranks
/// hold.
fn check_equivalence(base: &std::path::Path, target: ParallelConfig) -> usize {
    let universal = layout::universal_dir(base, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let (memory, _) = convert_to_memory(base, 2, &ConvertOptions::default()).unwrap();
    let mut padding = 0;
    for rank in 0..target.world_size() {
        let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
        let ranged = load_plan(
            base,
            &plan,
            LoadOptions {
                ranged: true,
                ..LoadOptions::with_workers(2)
            },
        )
        .unwrap();
        let full = load_plan(
            base,
            &plan,
            LoadOptions {
                ranged: false,
                ..LoadOptions::with_workers(2)
            },
        )
        .unwrap();
        let in_ram = memory.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
        let ctx = format!("target {} rank {rank}", target.label());
        naive::assert_states_eq(&ctx, &ranged, &full);
        naive::assert_states_eq(&format!("{ctx} (memory)"), &ranged, &in_ram);
        for (route, state) in [("ranged", &ranged), ("full", &full), ("memory", &in_ram)] {
            let ctx = format!("{ctx} {route}");
            padding += naive::assert_padding_is_positive_zero(&plan, state, &ctx);
        }
    }
    padding
}

#[test]
fn ranged_reads_match_whole_file_reads_across_reshard_matrix() {
    let _g = serial();
    let source = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    for (model, name) in [
        (ModelConfig::gpt3_tiny(), "equiv"),
        (ModelConfig::gpt3_tiny_padded_vocab(), "equiv_padded"),
    ] {
        let dir = universal_checkpoint_of(model, source, name, DType::F32);
        let mut padding = 0;
        for target in [
            ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero1),
            ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero2),
            ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
            ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
            ParallelConfig::new(4, 1, 1, 1, ZeroStage::Zero3),
            ParallelConfig::new(1, 4, 1, 1, ZeroStage::Zero1),
        ] {
            padding += check_equivalence(&dir, target);
        }
        let padded = name == "equiv_padded";
        assert_eq!(
            padding > 0,
            padded,
            "{name}: {padding} shard padding values"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn ranged_reads_match_under_reduced_precision_training() {
    // A bf16 training run produces the same fp32 master/optimizer atoms;
    // the ranged path must agree with the full path there too, and the
    // checkpoint must actually resume training.
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint(source, "bf16", DType::BF16);
    check_equivalence(&dir, ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1));
    check_equivalence(&dir, ParallelConfig::new(4, 1, 1, 1, ZeroStage::Zero1));

    let mut target_cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero2),
        71,
    );
    target_cfg.dtype = DType::F16;
    let run = train_run(&resuming(target_cfg, 4, &dir, 2)).unwrap();
    assert!(run.losses.iter().all(|(_, l)| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every atom container of the universal tree `dir`, largest first.
fn atom_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found: Vec<_> = std::fs::read_dir(dir.join("zero"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    found.sort_by_key(|p| std::cmp::Reverse(std::fs::metadata(p).unwrap().len()));
    found
}

#[test]
fn damaged_block_table_falls_back_to_whole_section_read() {
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint(source, "tablefault", DType::F32);
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let before: Vec<RankState> = (0..target.world_size())
        .map(|rank| {
            let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
            load_plan(&dir, &plan, LoadOptions::default()).unwrap()
        })
        .collect();

    // Damage a block-*table* entry of the biggest atom's fp32 section;
    // the payload itself stays intact.
    let atom = atom_files(&universal).into_iter().next().unwrap();
    let mut bytes = std::fs::read(&atom).unwrap();
    let index =
        ucp_repro::storage::ContainerIndex::read_from(&mut std::io::Cursor::new(&bytes)).unwrap();
    let info = index.get("fp32").unwrap().clone();
    assert!(info.crc_block > 0, "test premise: an atom with a table");
    let table_off = (info.payload_offset + info.payload_len) as usize;
    bytes[table_off] ^= 1;
    std::fs::write(&atom, &bytes).unwrap();

    // Ranged loads fall back to a verified whole-section read and still
    // produce the exact pre-corruption bytes, counting the fallback.
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    for (rank, expected) in before.iter().enumerate() {
        let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
        let loaded = load_plan(&dir, &plan, LoadOptions::default()).unwrap();
        naive::assert_states_eq(&format!("table-fallback rank {rank}"), &loaded, expected);
    }
    let report = rec.report("table_fallback");
    rec.set_enabled(false);
    assert!(
        report.counter("load/ranged_fallback").unwrap_or(0) > 0,
        "fallback must be counted"
    );

    // Damaging the payload itself defeats both the table and the
    // whole-payload CRC: the load must now fail, not fabricate data.
    bytes[table_off] ^= 1; // restore the table
    bytes[info.payload_offset as usize + 3] ^= 1; // corrupt the data
    std::fs::write(&atom, &bytes).unwrap();
    let plan = gen_ucp_metadata(&manifest, &target, 0, DEFAULT_ALIGNMENT).unwrap();
    assert!(
        load_plan(&dir, &plan, LoadOptions::default()).is_err(),
        "corrupt payload must fail the load"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Within one source — a ranged session, a whole-file session, the
/// convert's atoms in RAM — every DP replica of a target gets the very
/// shard allocation the first replica of its (tp, pp) slice built, TP
/// peers never share one, and every rank is bitwise the rank a fresh
/// session loads.
#[test]
fn dp_replicas_share_one_fp32_shard_per_tp_rank() {
    let _g = serial();
    let source = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint(source, "shared_shards", DType::F32);
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let (memory, _) = convert_to_memory(&dir, 2, &ConvertOptions::default()).unwrap();
    for target in [
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero3),
    ] {
        let session = |ranged| {
            let opts = LoadOptions {
                ranged,
                ..LoadOptions::with_workers(2)
            };
            LoadSession::open(&dir, 2, opts).unwrap()
        };
        let (ranged, whole) = (session(true), session(false));
        let routes: [(&str, &dyn Fn(usize) -> RankState); 3] = [
            ("ranged", &|rank| {
                ranged.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap()
            }),
            ("whole", &|rank| {
                whole.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap()
            }),
            ("memory", &|rank| {
                memory.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap()
            }),
        ];
        for (route, load) in routes {
            let states: Vec<RankState> = (0..target.world_size()).map(load).collect();
            for (rank, state) in states.iter().enumerate() {
                let ctx = format!("{route} target {} rank {rank}", target.label());
                let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
                let fresh = load_plan(&dir, &plan, LoadOptions::default()).unwrap();
                naive::assert_states_eq(&ctx, state, &fresh);
                let coord = target.coord(rank);
                let first = target.rank_of(RankCoord { dp: 0, ..coord });
                for ((name, shard), (_, built)) in
                    state.model_params.iter().zip(&states[first].model_params)
                {
                    assert!(
                        Arc::ptr_eq(shard, built),
                        "{ctx}: shard {name} is not the one rank {first} built"
                    );
                }
                if coord.tp > 0 {
                    let peer = target.rank_of(RankCoord { tp: 0, ..coord });
                    for ((name, shard), (_, other)) in
                        state.model_params.iter().zip(&states[peer].model_params)
                    {
                        assert!(!Arc::ptr_eq(shard, other), "{ctx}: {name} shared across TP");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_cache_shares_bytes_across_dp_replicas() {
    let _g = serial();
    let source = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint(source, "cache", DType::F32);

    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let session = LoadSession::open(&dir, 2, LoadOptions::default()).unwrap();
    let target = ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1);
    for rank in 0..target.world_size() {
        session.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap();
    }
    let report = rec.report("ranged_load_test");
    rec.set_enabled(false);

    let counter = |name: &str| report.counter(name).unwrap_or(0);
    let (read, needed) = (counter("load/bytes_read"), counter("load/bytes_needed"));
    assert!(counter("load/cache_misses") > 0, "first replica must read");
    assert!(
        counter("load/cache_hits") > 0,
        "later DP replicas must hit the session cache"
    );
    assert!(counter("load/cache_hit_bytes") > 0);
    assert!(read > 0 && needed > 0);
    assert!(
        read < needed,
        "cache sharing should make bytes read ({read}) less than bytes \
         needed ({needed}) when four DP replicas load the same slice"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Load every rank of `target` through one session over step 2 of `dir`,
/// returning the counters those loads recorded.
fn full_target_counters(
    dir: &std::path::Path,
    target: &ParallelConfig,
) -> ucp_repro::telemetry::Report {
    let session = LoadSession::open(dir, 2, LoadOptions::default()).unwrap();
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    for rank in 0..target.world_size() {
        session.load_rank(target, rank, DEFAULT_ALIGNMENT).unwrap();
    }
    let report = rec.report("full_target");
    rec.set_enabled(false);
    report
}

/// The entries of `plan` whose shard is strided in the atom (row-split
/// weights: one run per row, the TP peers' runs in between).
fn strided_entries(plan: &LoadPlan) -> LoadPlan {
    let mut plan = plan.clone();
    plan.entries.retain(|e| {
        let segments = e
            .partition
            .shard_segments(&e.full_shape, plan.target.tp, plan.coord.tp);
        segments.len() > 1
    });
    assert!(!plan.entries.is_empty(), "test premise: strided shards");
    plan
}

#[test]
fn a_session_reads_each_atom_once_for_a_whole_tp_target() {
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint_of(wide_model(), source, "once", DType::F32);
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let tree_bytes: u64 = (manifest.params.iter())
        .map(|atom| 12 * atom.shape.num_elements() as u64)
        .sum();

    for target in [
        ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(4, 1, 2, 1, ZeroStage::Zero1),
    ] {
        // The whole target through one session: index, payload and table
        // bytes together stay within 5 % of the tree's payload.
        let read = full_target_counters(&dir, &target)
            .counter("load/bytes_read")
            .unwrap_or(0);
        assert!(
            read > tree_bytes / 2 && read as f64 <= 1.05 * tree_bytes as f64,
            "{}: read {read} B of a {tree_bytes} B tree",
            target.label()
        );

        // After TP rank 0, its peer's strided shards are all in memory.
        let session = LoadSession::open(&dir, 2, LoadOptions::default()).unwrap();
        session.load_rank(&target, 0, DEFAULT_ALIGNMENT).unwrap();
        let peer = gen_ucp_metadata(&manifest, &target, 1, DEFAULT_ALIGNMENT).unwrap();
        assert_eq!((peer.coord.tp, peer.coord.pp, peer.coord.dp), (1, 0, 0));
        let rec = ucp_repro::telemetry::global();
        rec.reset();
        rec.set_enabled(true);
        session.load_plan(&strided_entries(&peer)).unwrap();
        let report = rec.report("tp_peer");
        rec.set_enabled(false);
        assert_eq!(report.counter("load/cache_misses").unwrap_or(0), 0);
        assert_eq!(report.counter("load/bytes_read").unwrap_or(0), 0);
        assert!(report.counter("load/cache_hits").unwrap_or(0) > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn whole_file_load_reads_each_atom_file_once() {
    // An atom's file holds its three states: the whole-file strategy
    // decodes it once for all of them — also for a MoE tree's sub-atoms —
    // so a rank that needs every atom reads the tree's atom bytes once.
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint_of(ModelConfig::moe_tiny(), source, "wholefile", DType::F32);
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    assert!(manifest.params.iter().any(|a| a.parts() > 1));
    let whole_file = LoadOptions {
        ranged: false,
        ..LoadOptions::default()
    };
    let session = LoadSession::open(&dir, 2, whole_file).unwrap();
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let single = ParallelConfig::new(1, 1, 1, 1, ZeroStage::Zero1);
    session.load_rank(&single, 0, DEFAULT_ALIGNMENT).unwrap();
    let report = rec.report("whole_file");
    rec.set_enabled(false);
    // Bytes counted are bytes the device handles transferred, and they are
    // the tree's atom bytes, each once; every one of them was needed.
    let atoms = layout::dir_size_bytes(&universal.join("zero"));
    assert_eq!(report.counter("load/bytes_read"), Some(atoms));
    assert_eq!(report.counter("io/bytes_read"), Some(atoms));
    assert_eq!(report.counter("load/bytes_needed"), Some(atoms));
    std::fs::remove_dir_all(&dir).ok();
}

/// `rchar` of `/proc/self/io`: bytes this process asked `read`-family
/// syscalls for.
#[cfg(target_os = "linux")]
fn rchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap();
    let line = io.lines().find_map(|l| l.strip_prefix("rchar:")).unwrap();
    line.trim().parse().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn load_bytes_read_is_what_the_kernel_was_asked_for() {
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint_of(wide_model(), source, "rchar", DType::F32);
    let target = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let before = rchar();
    let counted = full_target_counters(&dir, &target)
        .counter("load/bytes_read")
        .unwrap_or(0) as f64;
    // The window also holds the manifest read and the two reads of
    // /proc/self/io itself — well inside the tolerance.
    let kernel = (rchar() - before) as f64;
    assert!(
        (counted - kernel).abs() <= 0.01 * kernel,
        "load/bytes_read {counted} vs rchar delta {kernel}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_in_a_peers_part_of_a_span_fails_the_fetch_that_read_it() {
    let _g = serial();
    let source = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let dir = universal_checkpoint_of(wide_model(), source, "spanfault", DType::F32);
    let universal = layout::universal_dir(&dir, 2);
    let manifest = ucp_repro::core::manifest::UcpManifest::load(&universal).unwrap();
    let target = ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1);
    let plans: Vec<LoadPlan> = (0..2)
        .map(|rank| gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap())
        .map(|plan| strided_entries(&plan))
        .collect();

    // Flip one payload byte of a row-split fp32 atom inside TP rank 1's
    // first run: rank 0 never asks for it, but the span it fetches does.
    let victim = &plans[1].entries[0];
    let first_run = victim
        .partition
        .shard_segments(&victim.full_shape, 2, 1)
        .iter()
        .find_map(|s| s.src_offset)
        .unwrap();
    let atom = layout::atom_path(&universal, &victim.name, layout::AtomFile::Fp32);
    let mut bytes = std::fs::read(&atom).unwrap();
    let index =
        ucp_repro::storage::ContainerIndex::read_from(&mut std::io::Cursor::new(&bytes)).unwrap();
    let info = index.get("fp32").unwrap();
    bytes[info.payload_offset as usize + 4 * first_run + 1] ^= 0x10;
    std::fs::write(&atom, &bytes).unwrap();

    // Rank 0's fetch reads and verifies the span, so it is the one that
    // fails — typed — and the peer is never served the flipped byte.
    let session = LoadSession::open(&dir, 2, LoadOptions::default()).unwrap();
    for plan in &plans {
        let err = session.load_plan(plan).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "untyped failure: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
