//! Parallel atom loading must produce exactly the serial loader's state
//! (the loading-efficiency extension the paper lists as future work).

use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{
    gen_ucp_metadata, LoadOptions, LoadPlan, LoadSession, DEFAULT_ALIGNMENT,
};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::trainer::{train_run, ResumeMode, TrainConfig, TrainPlan};

#[test]
fn parallel_load_matches_serial_bitwise() {
    let dir = std::env::temp_dir().join("ucp_it_parload");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1),
        71,
    );
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: 2,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(2),
        checkpoint_dir: Some(dir.clone()),
    })
    .unwrap();
    let (manifest, _) = convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    // A private session (fresh atom cache) per worker count.
    let load = |workers: usize, plan: &LoadPlan| {
        LoadSession::open(&dir, 2, LoadOptions::with_workers(workers))
            .and_then(|session| session.load_plan(plan))
            .unwrap()
    };

    let target = ParallelConfig::new(1, 2, 2, 1, ZeroStage::Zero2);
    for rank in 0..target.world_size() {
        let plan = gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).unwrap();
        let serial = load(1, &plan);
        for workers in [2usize, 8] {
            let parallel = load(workers, &plan);
            assert_eq!(parallel.fp32, serial.fp32, "rank {rank} fp32");
            assert_eq!(parallel.exp_avg, serial.exp_avg, "rank {rank} exp_avg");
            assert_eq!(
                parallel.exp_avg_sq, serial.exp_avg_sq,
                "rank {rank} exp_avg_sq"
            );
            assert_eq!(parallel.model_params.len(), serial.model_params.len());
            for ((na, ta), (nb, tb)) in parallel.model_params.iter().zip(&serial.model_params) {
                assert_eq!(na, nb);
                assert!(ta.bitwise_eq(tb), "rank {rank} param {na}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
