//! Property and stress tests for the deterministic collectives: results
//! must be independent of thread scheduling and identical across members.

use proptest::prelude::*;
use ucp_collectives::{Cluster, Group};
use ucp_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_reduce_equals_sequential_sum(
        world in 1usize..6,
        len in 1usize..32,
        seed in 0u64..1000,
    ) {
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                (0..len)
                    .map(|i| ((seed as usize + r * 31 + i * 7) % 13) as f32 - 6.0)
                    .collect()
            })
            .collect();
        let expected: Vec<f32> = (0..len)
            .map(|i| {
                let mut acc = 0.0f64;
                for row in &inputs {
                    acc += f64::from(row[i]);
                }
                acc as f32
            })
            .collect();
        let inputs_ref = &inputs;
        let out = Cluster::run(world, move |comm| {
            let g = Group::world(comm.world_size());
            let t = Tensor::from_vec(inputs_ref[comm.rank()].clone(), [len]).unwrap();
            comm.all_reduce_sum(&g, &t).unwrap()
        });
        for t in &out {
            prop_assert_eq!(t.as_slice(), &expected[..]);
        }
    }
}

#[test]
fn all_reduce_is_schedule_independent() {
    // Run the identical program many times; deterministic reduction means
    // bitwise-identical results regardless of thread interleaving.
    let reference = Cluster::run(4, |comm| {
        let g = Group::world(4);
        let t = Tensor::full([64], 0.1 + comm.rank() as f32 * 1e-3);
        comm.all_reduce_sum(&g, &t).unwrap()
    });
    for _ in 0..20 {
        let again = Cluster::run(4, |comm| {
            let g = Group::world(4);
            let t = Tensor::full([64], 0.1 + comm.rank() as f32 * 1e-3);
            comm.all_reduce_sum(&g, &t).unwrap()
        });
        for (a, b) in reference.iter().zip(&again) {
            assert!(a.bitwise_eq(b), "schedule-dependent reduction");
        }
    }
}

#[test]
fn concurrent_disjoint_groups_do_not_interfere() {
    // 8 ranks split into 4 pair-groups, all reducing simultaneously with
    // different payload sizes per pair.
    let out = Cluster::run(8, |comm| {
        let pair = comm.rank() / 2;
        let g = Group::new(vec![pair * 2, pair * 2 + 1]).unwrap();
        let len = pair + 1;
        let t = Tensor::full([len], comm.rank() as f32);
        let r = comm.all_reduce_sum(&g, &t).unwrap();
        (len, r.as_slice()[0])
    });
    for pair in 0..4 {
        let expect = (pair * 2 + pair * 2 + 1) as f32;
        assert_eq!(out[pair * 2], (pair + 1, expect));
        assert_eq!(out[pair * 2 + 1], (pair + 1, expect));
    }
}

#[test]
fn pipeline_chain_with_tp_groups() {
    // Emulate the trainer's communication pattern: TP all-reduce inside a
    // stage, point-to-point between stages, repeated.
    let out = Cluster::run(8, |comm| {
        // 2 TP × 2 PP × 2 DP grid, tp fastest.
        let rank = comm.rank();
        let tp = rank % 2;
        let pp = (rank / 2) % 2;
        let tp_group = Group::new(vec![rank - tp, rank - tp + 1]).unwrap();
        let mut acc = 0.0f32;
        for step in 0..5 {
            let t = Tensor::full([4], (step + rank) as f32);
            let reduced = comm.all_reduce_sum(&tp_group, &t).unwrap();
            if pp == 0 {
                comm.send_tensor(rank + 2, &reduced).unwrap();
            } else {
                let from_prev = comm.recv_tensor(rank - 2).unwrap();
                acc += from_prev.as_slice()[0];
            }
        }
        acc
    });
    // Last stage ranks accumulated sums from their tp pair of stage 0.
    for rank in [2usize, 3, 6, 7] {
        assert!(out[rank] > 0.0);
    }
    for rank in [0usize, 1, 4, 5] {
        assert_eq!(out[rank], 0.0);
    }
}

#[test]
fn large_world_smoke() {
    // 32 ranks: the Fig. 9 scale (BLOOM tp2·pp6·dp2 is 24 ranks).
    let out = Cluster::run(32, |comm| {
        let g = Group::world(32);
        comm.all_reduce_scalar(&g, 1.0).unwrap()
    });
    assert!(out.iter().all(|v| *v == 32.0));
}
