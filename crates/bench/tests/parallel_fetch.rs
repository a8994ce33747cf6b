//! Entry-level load parallelism (`LoadOptions.workers`) must be invisible
//! except for speed: any worker count produces bitwise-identical rank state
//! and identical `load/bytes_read` accounting to the serial path, including
//! through a bandwidth-throttled device — and a fetch opens its atom file
//! once if it touches disk, never on a cache hit.

use ucp_bench::report::scratch_dir;
use ucp_core::convert::ConvertOptions;
use ucp_core::load::{LoadOptions, LoadSession, RankState, DEFAULT_ALIGNMENT};
use ucp_model::ModelConfig;
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_storage::Device;
use ucp_trainer::{convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainPlan};

/// Train a tiny TP2×PP2 source and convert it to a universal checkpoint.
fn universal_checkpoint(dir: &std::path::Path, step: u64) {
    let source = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let cfg = TrainConfig::quick(ModelConfig::gpt3_tiny(), source, 97);
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: step,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(step),
        checkpoint_dir: Some(dir.to_path_buf()),
    })
    .expect("source training run");
    convert_checkpoint(dir, step, &ConvertOptions::default()).expect("conversion");
}

/// What one session's loads recorded.
struct Counts {
    bytes_read: u64,
    opens: u64,
    range_reads: u64,
}

/// Load every rank of `target` through one session with `workers` entry
/// workers on a 64 MiB/s device, returning the states plus the session's
/// counters; then load every rank again and demand the warm cache serves
/// it without touching the disk.
fn session_load(
    dir: &std::path::Path,
    step: u64,
    target: &ParallelConfig,
    workers: usize,
) -> (Vec<RankState>, Counts) {
    let opts = LoadOptions {
        workers,
        device: Device::with_mibps(64),
        ranged: true,
    };
    // Opened before recording starts, so the manifest read is not among
    // the opens counted below.
    let session = LoadSession::open(dir, step, opts).expect("open universal checkpoint");
    let rec = ucp_telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let load_all = || -> Vec<RankState> {
        (0..target.world_size())
            .map(|rank| {
                session
                    .load_rank(target, rank, DEFAULT_ALIGNMENT)
                    .expect("load rank")
            })
            .collect()
    };
    let counts = || {
        let report = rec.report("parallel_fetch");
        let counter = |name: &str| report.counter(name).unwrap_or(0);
        assert_eq!(
            counter("io/bytes_read"),
            counter("load/bytes_read"),
            "the throttled device and the load path must count the same bytes"
        );
        Counts {
            bytes_read: counter("load/bytes_read"),
            opens: counter("storage/open"),
            range_reads: counter("storage/range_reads"),
        }
    };
    let states = load_all();
    let cold = counts();
    let again = load_all();
    let warm = counts();
    rec.set_enabled(false);
    for (rank, (a, b)) in states.iter().zip(&again).enumerate() {
        assert_states_identical(&format!("warm reload rank={rank}"), a, b);
    }
    assert_eq!(warm.opens, cold.opens, "a cache hit must not open a file");
    assert_eq!(
        warm.bytes_read, cold.bytes_read,
        "a cache hit must not read"
    );
    (states, cold)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_states_identical(label: &str, a: &RankState, b: &RankState) {
    assert_eq!(bits(&a.fp32), bits(&b.fp32), "{label}: fp32 chunk differs");
    assert_eq!(
        bits(&a.exp_avg),
        bits(&b.exp_avg),
        "{label}: exp_avg chunk differs"
    );
    assert_eq!(
        bits(&a.exp_avg_sq),
        bits(&b.exp_avg_sq),
        "{label}: exp_avg_sq chunk differs"
    );
    assert_eq!(a.model_params.len(), b.model_params.len(), "{label}");
    for ((an, at), (bn, bt)) in a.model_params.iter().zip(&b.model_params) {
        assert_eq!(an, bn, "{label}: param order differs");
        assert_eq!(
            bits(at.as_slice()),
            bits(bt.as_slice()),
            "{label}: param {an} differs"
        );
    }
}

/// Worker counts {1, 2, 8} all reconstruct the exact serial-path state and
/// account the exact serial-path bytes, for a DP-heavy target (atom-cache
/// sharing) and a TP-heavy target (strided shards widened to one span),
/// through a 64 MiB/s throttled device.
#[test]
fn load_worker_counts_are_bitwise_invisible() {
    let dir = scratch_dir("parallel_fetch");
    let step = 2;
    universal_checkpoint(&dir, step);

    for target in [
        ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1),
        ParallelConfig::new(4, 1, 1, 1, ZeroStage::Zero1),
    ] {
        let label = format!("tp{}_pp{}_dp{}", target.tp, target.pp, target.dp);
        let (ref_states, reference) = session_load(&dir, step, &target, 1);
        assert!(
            reference.bytes_read > 0,
            "{label}: serial path read nothing"
        );
        // One open per fetch that touches disk: a contiguous fetch is one
        // range read, a strided one may be several over the same handle.
        assert!(
            reference.opens > 0,
            "{label}: no storage/open ticks recorded"
        );
        if target.tp == 1 {
            assert_eq!(reference.opens, reference.range_reads, "{label}");
        } else {
            assert!(reference.opens <= reference.range_reads, "{label}");
        }

        for workers in [1usize, 2, 8] {
            let (states, counts) = session_load(&dir, step, &target, workers);
            assert_eq!(
                states.len(),
                ref_states.len(),
                "{label} workers={workers}: rank count"
            );
            for (rank, (a, b)) in ref_states.iter().zip(&states).enumerate() {
                assert_states_identical(&format!("{label} workers={workers} rank={rank}"), a, b);
            }
            assert_eq!(
                counts.bytes_read, reference.bytes_read,
                "{label} workers={workers}: load/bytes_read diverged from serial"
            );
            assert_eq!(counts.opens, reference.opens, "{label} workers={workers}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
