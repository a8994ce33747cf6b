//! Parallel atom loading must produce exactly the serial loader's state
//! (the loading-efficiency extension the paper lists as future work).

#[path = "support/naive.rs"]
mod naive;
#[path = "support/scratch.rs"]
mod scratch;

use scratch::{saving, scratch};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{
    gen_ucp_metadata, LoadOptions, LoadPlan, LoadSession, RankState, DEFAULT_ALIGNMENT,
};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, RankCoord, ZeroStage};
use ucp_repro::trainer::{train_run, TrainConfig};

#[test]
fn parallel_load_matches_serial_bitwise() {
    let dir = scratch("parload");
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1),
        71,
    );
    train_run(&saving(cfg, 2, 2, &dir)).unwrap();
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
            let ctx = format!("rank {rank}, {workers} workers");
            naive::assert_states_eq(&ctx, &load(workers, &plan), &serial);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two threads that load the DP replicas of each (tp, pp) slice of a
/// target at once (released together by a barrier), through one session,
/// race to build the same shards; the
/// states they get are bitwise the ones sequential loads through a fresh
/// session build, on both disk routes.
#[test]
fn concurrent_dp_replicas_through_one_session_match_sequential_loads() {
    let dir = scratch("parload_race");
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
        71,
    );
    train_run(&saving(cfg, 2, 2, &dir)).unwrap();
    convert_to_universal(&dir, 2, &ConvertOptions::default()).unwrap();
    let target = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero3);
    let open = |ranged| {
        let opts = LoadOptions {
            ranged,
            ..LoadOptions::with_workers(2)
        };
        LoadSession::open(&dir, 2, opts).unwrap()
    };
    for ranged in [true, false] {
        let sequential = open(ranged);
        let want: Vec<RankState> = (0..target.world_size())
            .map(|rank| {
                sequential
                    .load_rank(&target, rank, DEFAULT_ALIGNMENT)
                    .unwrap()
            })
            .collect();
        // Rounds, so the threads meet at different points of the plan.
        for _ in 0..4 {
            let shared = open(ranged);
            for tp in 0..target.tp {
                let replicas = [0, 1].map(|dp| {
                    target.rank_of(RankCoord {
                        dp,
                        pp: 0,
                        sp: 0,
                        tp,
                    })
                });
                let start = std::sync::Barrier::new(2);
                let got = std::thread::scope(|s| {
                    let handles = replicas.map(|rank| {
                        let (shared, start) = (&shared, &start);
                        s.spawn(move || {
                            start.wait();
                            shared.load_rank(&target, rank, DEFAULT_ALIGNMENT).unwrap()
                        })
                    });
                    handles.map(|h| h.join().unwrap())
                });
                for (rank, state) in replicas.into_iter().zip(&got) {
                    let ctx = format!("ranged {ranged}, rank {rank}");
                    naive::assert_states_eq(&ctx, state, &want[rank]);
                }
                for ((name, a), (_, b)) in got[0].model_params.iter().zip(&got[1].model_params) {
                    assert!(std::sync::Arc::ptr_eq(a, b), "tp {tp}: {name} not shared");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
