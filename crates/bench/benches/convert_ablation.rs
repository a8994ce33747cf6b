//! Ablation benches for the conversion design choices DESIGN.md calls out:
//!
//! - **Union parallelism**: Table 2 notes that "more parallelism leads to
//!   faster speed but is also more memory intensive" — sweep worker counts.
//! - **Alignment quantum**: ZeRO padding overhead vs conversion cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ucp_bench::report::scratch_dir;
use ucp_core::convert::ConvertOptions;
use ucp_model::{ModelConfig, SizePreset};
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_trainer::{convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainPlan};

fn prepare(name: &str, alignment: usize) -> (std::path::PathBuf, TrainConfig) {
    let model = ModelConfig::sized(SizePreset::Medium);
    let mut cfg = TrainConfig::quick(model, ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1), 11);
    cfg.global_batch = 4;
    cfg.micro_batch = 1;
    cfg.alignment = alignment;
    let dir = scratch_dir(&format!("bench_convert_{name}"));
    train_run(&TrainPlan {
        config: cfg.clone(),
        until_iteration: 1,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.clone()),
    })
    .expect("prepare");
    (dir, cfg)
}

fn bench_workers(c: &mut Criterion) {
    let (dir, _) = prepare("workers", 8);
    let mut group = c.benchmark_group("convert_union_parallelism");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                convert_checkpoint(
                    &dir,
                    1,
                    &ConvertOptions {
                        workers: w,
                        ..ConvertOptions::default()
                    },
                )
                .expect("convert")
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("convert_alignment_quantum");
    group.sample_size(10);
    for alignment in [1usize, 8, 64, 512] {
        let (dir, _) = prepare(&format!("align{alignment}"), alignment);
        group.bench_with_input(
            BenchmarkId::from_parameter(alignment),
            &alignment,
            |b, _| {
                b.iter(|| convert_checkpoint(&dir, 1, &ConvertOptions::default()).expect("convert"))
            },
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_load_workers(c: &mut Criterion) {
    // Parallel atom loading (the paper's loading-efficiency future work):
    // sweep reader threads for one target rank's load plan.
    use ucp_core::load::{gen_ucp_metadata, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};

    let (dir, _) = prepare("load_workers", 8);
    let (manifest, _) = convert_checkpoint(&dir, 1, &ConvertOptions::default()).expect("convert");
    let target = ParallelConfig::new(1, 1, 2, 1, ZeroStage::Zero1);
    let plan = gen_ucp_metadata(&manifest, &target, 0, DEFAULT_ALIGNMENT).expect("plan");

    let mut group = c.benchmark_group("load_atom_parallelism");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            // A session per iteration: every load reads from disk, none
            // from a warm atom cache.
            b.iter(|| {
                LoadSession::open(&dir, 1, LoadOptions::with_workers(w))
                    .and_then(|session| session.load_plan(&plan))
                    .expect("load")
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_workers, bench_alignment, bench_load_workers);
criterion_main!(benches);
