//! Cluster construction: spawn one thread per rank and wire the fabric.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::unbounded;

use crate::comm::{ClusterState, Comm, Payload};
use crate::CommError;

/// Fallback watchdog deadline when neither [`ClusterOptions`] nor the
/// `UCP_COMM_DEADLINE_MS` environment variable says otherwise. Generous on
/// purpose: a healthy collective on the in-process fabric completes in
/// microseconds, so this only ever fires on a genuinely hung rank.
pub const DEFAULT_COMM_DEADLINE: Duration = Duration::from_secs(30);

/// Tuning knobs for [`Cluster::try_run_with`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// How long a blocking receive may wait on one peer before the
    /// watchdog declares it hung ([`crate::CommError::Timeout`]).
    pub deadline: Duration,
}

impl Default for ClusterOptions {
    /// Deadline from `UCP_COMM_DEADLINE_MS` when set (parsed once per
    /// process), else [`DEFAULT_COMM_DEADLINE`].
    fn default() -> ClusterOptions {
        static ENV_MS: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
        let ms = ENV_MS.get_or_init(|| {
            std::env::var("UCP_COMM_DEADLINE_MS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
        });
        ClusterOptions {
            deadline: ms.map_or(DEFAULT_COMM_DEADLINE, Duration::from_millis),
        }
    }
}

/// A structured account of the rank whose failure took a cluster down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// The first rank marked dead — the root cause, not a casualty of the
    /// poison cascade.
    pub rank: usize,
    /// That rank's last step reported via [`Comm::set_step`] (0 if never
    /// set).
    pub step: u64,
    /// The panic payload, stringified (a [`CommError`] payload by its
    /// `Display`; `"<non-string panic payload>"` for other exotic types).
    pub payload: String,
    /// The first watchdog timeout the cluster saw, if one fired: a hang
    /// trips the deadline on the ranks blocked on it, and that timeout —
    /// not the hung rank's own payload — is what names the hang.
    pub timeout: Option<CommError>,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed at step {}: {}",
            self.rank, self.step, self.payload
        )
    }
}

impl std::error::Error for RankFailure {}

type PanicPayload = Box<dyn std::any::Any + Send>;

fn payload_string(payload: &PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(e) = payload.downcast_ref::<CommError>() {
        e.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// An in-process cluster of SPMD ranks.
///
/// [`Cluster::run`] stands in for `mpirun`/`torchrun`: it spawns
/// `world_size` threads, each executing `body` with its own [`Comm`], and
/// collects the per-rank return values in rank order. [`Cluster::try_run`]
/// is the supervised form: a rank panic comes back as a structured
/// [`RankFailure`] instead of tearing the caller down.
pub struct Cluster;

impl Cluster {
    /// Run `body` on `world_size` ranks and return their results in rank
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any rank's thread panics. The original panic payload and
    /// the failing rank are preserved in the propagated message, mirroring
    /// a fatal NCCL abort taking down the job.
    pub fn run<T, F>(world_size: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        match Self::try_run(world_size, body) {
            Ok(results) => results,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// [`Cluster::try_run_with`] under default [`ClusterOptions`].
    pub fn try_run<T, F>(world_size: usize, body: F) -> Result<Vec<T>, RankFailure>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        Self::try_run_with(world_size, &ClusterOptions::default(), body)
    }

    /// Run `body` on `world_size` ranks; if any rank panics, return a
    /// [`RankFailure`] naming the first failed rank, its last reported
    /// step, and the original panic payload.
    ///
    /// A panicking rank is marked dead in the shared `ClusterState`
    /// *before* its channels drop, and the cluster is poisoned, so peers
    /// blocked in collectives unwind promptly with typed
    /// [`crate::CommError::PeerDead`] / [`crate::CommError::Timeout`]
    /// errors instead of waiting forever. All threads are joined before
    /// this returns — teardown is complete either way.
    pub fn try_run_with<T, F>(
        world_size: usize,
        opts: &ClusterOptions,
        body: F,
    ) -> Result<Vec<T>, RankFailure>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        assert!(world_size > 0, "cluster needs at least one rank");

        let state = Arc::new(ClusterState::new(world_size, opts.deadline));

        // Channel matrix: fabric[src][dst] is the (sender, receiver) pair
        // carrying src → dst traffic.
        let mut senders: Vec<Vec<_>> = Vec::with_capacity(world_size);
        let mut receivers: Vec<Vec<_>> = (0..world_size).map(|_| Vec::new()).collect();
        for _src in 0..world_size {
            let mut row = Vec::with_capacity(world_size);
            for dst_inbox in receivers.iter_mut() {
                let (tx, rx) = unbounded::<Payload>();
                row.push(tx);
                dst_inbox.push(rx);
            }
            senders.push(row);
        }

        let mut comms: Vec<Comm> = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| {
                Comm::new(rank, world_size, tx_row, rx_row, state.clone())
            })
            .collect();

        let body = &body;
        let state_ref = &state;
        let joined: Vec<(usize, std::thread::Result<T>)> = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(world_size);
            for (rank, comm) in comms.drain(..).enumerate() {
                let state = state_ref.clone();
                handles.push((
                    rank,
                    scope.spawn(move |_| {
                        // Bind this thread to its rank's trace timeline
                        // (no-op while tracing is disabled).
                        ucp_telemetry::trace::register_rank(rank, "main");
                        let out = catch_unwind(AssertUnwindSafe(|| body(&comm)));
                        if out.is_err() {
                            // Mark dead while `comm` is still alive: peers
                            // must learn of the death before the channels
                            // disconnect underneath them.
                            state.mark_dead(rank);
                        }
                        drop(comm);
                        out
                    }),
                ));
            }
            handles
                .into_iter()
                // The spawn closure catches body panics, so a join error
                // means the harness itself died.
                .map(|(rank, h)| (rank, h.join().and_then(|inner| inner)))
                .collect()
        })
        .expect("cluster scope");

        let mut results = Vec::with_capacity(world_size);
        let mut failures: Vec<(usize, PanicPayload)> = Vec::new();
        for (rank, outcome) in joined {
            match outcome {
                Ok(v) => results.push(v),
                Err(payload) => failures.push((rank, payload)),
            }
        }
        if failures.is_empty() {
            return Ok(results);
        }
        // Attribute the failure to the root cause, not a casualty of the
        // poison cascade. Two signals, in order of trust:
        //
        // 1. a payload that is NOT a peer-failure `CommError` — a rank
        //    that panicked on its own (e.g. an injected fault) rather than
        //    because a peer vanished underneath it;
        // 2. the first rank marked dead. This alone is not enough: when a
        //    rank *hangs*, its peers trip the watchdog, panic on the typed
        //    error, and get marked dead before the hung rank unwinds.
        let secondary = |p: &PanicPayload| {
            p.downcast_ref::<CommError>()
                .is_some_and(CommError::is_peer_failure)
        };
        let first_dead = state.first_dead().unwrap_or(failures[0].0);
        let is_primary = |(r, p): &(usize, PanicPayload)| !secondary(p) && *r == first_dead;
        let at = failures
            .iter()
            .position(is_primary)
            .or_else(|| failures.iter().position(|(_, p)| !secondary(p)))
            .or_else(|| failures.iter().position(|(r, _)| *r == first_dead))
            .unwrap_or(0);
        let (rank, payload) = &failures[at];
        Err(RankFailure {
            rank: *rank,
            step: state.step_of(*rank),
            payload: payload_string(payload),
            timeout: state.first_timeout(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Group, Payload};
    use ucp_tensor::Tensor;

    #[test]
    fn single_rank_runs() {
        let out = Cluster::run(1, |comm| comm.rank() * 10 + comm.world_size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_in_rank_order() {
        let out = Cluster::run(8, |comm| comm.rank());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn point_to_point_ring() {
        let out = Cluster::run(4, |comm| {
            let next = (comm.rank() + 1) % 4;
            let prev = (comm.rank() + 3) % 4;
            comm.send(next, Payload::U64(comm.rank() as u64)).unwrap();
            match comm.recv(prev).unwrap() {
                Payload::U64(v) => v,
                _ => unreachable!(),
            }
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn all_reduce_sum_is_identical_everywhere() {
        let out = Cluster::run(4, |comm| {
            let g = Group::world(4);
            let t = Tensor::full([3], comm.rank() as f32 + 1.0);
            comm.all_reduce_sum(&g, &t).unwrap()
        });
        for t in &out {
            assert_eq!(t.as_slice(), &[10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn all_reduce_on_subgroup_only_touches_members() {
        let out = Cluster::run(4, |comm| {
            let g = if comm.rank() < 2 {
                Group::new(vec![0, 1]).unwrap()
            } else {
                Group::new(vec![2, 3]).unwrap()
            };
            let t = Tensor::full([1], comm.rank() as f32);
            comm.all_reduce_sum(&g, &t).unwrap().as_slice()[0]
        });
        assert_eq!(out, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn all_gather_preserves_member_order() {
        let out = Cluster::run(3, |comm| {
            let g = Group::world(3);
            let t = Tensor::full([1], comm.rank() as f32);
            let all = comm.all_gather_tensors(&g, &t).unwrap();
            all.iter().map(|t| t.as_slice()[0]).collect::<Vec<_>>()
        });
        for v in out {
            assert_eq!(v, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = Cluster::run(3, |comm| {
            let g = Group::world(3);
            let payload = Payload::U64(comm.rank() as u64 * 100);
            match comm.broadcast(&g, 2, payload).unwrap() {
                Payload::U64(v) => v,
                _ => unreachable!(),
            }
        });
        assert_eq!(out, vec![200, 200, 200]);
    }

    #[test]
    fn reduce_scatter_chunks_the_sum() {
        let out = Cluster::run(2, |comm| {
            let g = Group::world(2);
            let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]).unwrap();
            comm.reduce_scatter_sum(&g, &t).unwrap()
        });
        assert_eq!(out[0].as_slice(), &[2.0, 4.0]);
        assert_eq!(out[1].as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn all_to_all_transposes_payloads() {
        let out = Cluster::run(3, |comm| {
            let g = Group::world(3);
            let outgoing = (0..3)
                .map(|dst| Payload::U64((comm.rank() * 10 + dst) as u64))
                .collect();
            comm.all_to_all(&g, outgoing)
                .unwrap()
                .into_iter()
                .map(|p| match p {
                    Payload::U64(v) => v,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        });
        // Rank j receives value src*10 + j from every src, in src order.
        assert_eq!(out[0], vec![0, 10, 20]);
        assert_eq!(out[1], vec![1, 11, 21]);
        assert_eq!(out[2], vec![2, 12, 22]);
    }

    #[test]
    fn gather_and_scatter() {
        let out = Cluster::run(2, |comm| {
            let g = Group::world(2);
            let t = Tensor::full([2], comm.rank() as f32);
            let gathered = comm.gather_tensors(&g, 0, &t).unwrap();
            let to_scatter = if comm.rank() == 0 {
                Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0], [4]).unwrap()
            } else {
                Tensor::zeros([1])
            };
            let chunk = comm.scatter_chunks(&g, 0, &to_scatter).unwrap();
            (gathered.map(|v| v.len()), chunk)
        });
        assert_eq!(out[0].0, Some(2));
        assert_eq!(out[1].0, None);
        assert_eq!(out[0].1.as_slice(), &[7.0, 8.0]);
        assert_eq!(out[1].1.as_slice(), &[9.0, 10.0]);
    }

    #[test]
    fn f64_all_reduce_is_exact() {
        let out = Cluster::run(4, |comm| {
            let g = Group::world(4);
            let v = vec![0.1f64 * (comm.rank() as f64 + 1.0); 2];
            comm.all_reduce_sum_f64(&g, &v).unwrap()
        });
        let expected = 0.1 + 0.2 + 0.30000000000000004 + 0.4;
        for v in &out {
            assert!((v[0] - expected).abs() < 1e-15);
        }
        // All ranks agree bitwise.
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn scalar_all_reduce() {
        let out = Cluster::run(3, |comm| {
            comm.all_reduce_scalar(&Group::world(3), comm.rank() as f64)
                .unwrap()
        });
        assert_eq!(out, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn non_member_use_is_an_error() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 1 {
                let g = Group::new(vec![0]).unwrap();
                comm.barrier(&g).is_err()
            } else {
                let g = Group::new(vec![0]).unwrap();
                comm.barrier(&g).unwrap();
                true
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn barrier_completes() {
        // Smoke test that repeated barriers on overlapping groups complete.
        Cluster::run(4, |comm| {
            let world = Group::world(4);
            let pair = Group::new(vec![comm.rank() & !1, comm.rank() | 1]).unwrap();
            for _ in 0..10 {
                comm.barrier(&world).unwrap();
                comm.barrier(&pair).unwrap();
            }
        });
    }

    // ---- Failure handling ----------------------------------------------

    use crate::CommError;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    #[test]
    fn try_run_reports_rank_step_and_payload() {
        let failure = Cluster::try_run(2, |comm| {
            comm.set_step(7);
            if comm.rank() == 1 {
                panic!("injected fault on rank {}", comm.rank());
            }
            // Rank 0 blocks on its dead peer; the watchdog unwinds it.
            let _ = comm.recv(1);
        })
        .unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.step, 7);
        assert_eq!(failure.payload, "injected fault on rank 1");
        assert_eq!(failure.timeout, None, "a panic is not a watchdog fire");
    }

    #[test]
    fn peer_failure_payload_is_a_casualty_not_the_root_cause() {
        // Rank 0 dies first, but on a typed peer-failure error: it is a
        // casualty. Rank 1 panics on its own once the poison reaches it.
        let failure = Cluster::try_run(2, |comm| {
            comm.set_step(4);
            if comm.rank() == 0 {
                std::panic::panic_any(CommError::Timeout {
                    peer: 1,
                    waited_ms: 200,
                });
            }
            while !comm.poisoned() {
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("injected fault: rank 1 hung at step 4");
        })
        .unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.step, 4);
        assert_eq!(failure.payload, "injected fault: rank 1 hung at step 4");
    }

    #[test]
    fn hang_reports_the_hung_rank_and_the_first_timeout() {
        let opts = ClusterOptions {
            deadline: Duration::from_millis(200),
        };
        let failure = Cluster::try_run_with(3, &opts, |comm| {
            if comm.rank() == 0 {
                while !comm.poisoned() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                panic!("rank 0 hung");
            }
            // Blocked ranks unwind on the typed error, as layer math does.
            comm.recv(0).unwrap_or_else(|e| std::panic::panic_any(e));
        })
        .unwrap_err();
        assert_eq!(failure.rank, 0);
        assert_eq!(failure.payload, "rank 0 hung");
        assert!(
            matches!(failure.timeout, Some(CommError::Timeout { peer: 0, waited_ms }) if waited_ms >= 200),
            "the watchdog's timeout is kept: {:?}",
            failure.timeout
        );
    }

    #[test]
    fn comm_error_payload_renders_with_display() {
        let failure = Cluster::try_run(1, |_| {
            std::panic::panic_any(CommError::PeerDead { peer: 3 });
        })
        .unwrap_err();
        assert_eq!(failure.rank, 0);
        assert_eq!(failure.payload, "peer rank 3 is dead");
    }

    #[test]
    fn run_preserves_panic_payload_and_rank() {
        let caught = std::panic::catch_unwind(|| {
            Cluster::run(2, |comm| {
                if comm.rank() == 1 {
                    panic!("original cause");
                }
                let _ = comm.recv(1);
            });
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic message is a string")
            .clone();
        assert!(msg.contains("rank 1"), "message names the rank: {msg}");
        assert!(
            msg.contains("original cause"),
            "message keeps the payload: {msg}"
        );
    }

    #[test]
    fn hung_peer_trips_timeout_within_deadline_on_all_blocked_ranks() {
        let opts = ClusterOptions {
            deadline: Duration::from_millis(200),
        };
        let started = Instant::now();
        let out = Cluster::try_run_with(3, &opts, |comm| {
            if comm.rank() == 0 {
                // Hung leader: never joins the barrier, but stays alive
                // until the poison broadcast reaches it.
                while !comm.poisoned() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Ok(());
            }
            comm.barrier(&Group::world(3))
        })
        .expect("no rank panicked");
        // Blocked ranks unwound well before a forever-block would show.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "collectives did not unwind promptly"
        );
        assert!(out[0].is_ok());
        let mut timeouts = 0;
        for r in &out[1..] {
            match r {
                // The first watchdog to fire reports Timeout and poisons
                // the cluster; a peer may then unwind with PeerDead.
                Err(CommError::Timeout { peer: 0, waited_ms }) => {
                    assert!(*waited_ms >= 200, "timeout fired early: {waited_ms} ms");
                    timeouts += 1;
                }
                Err(CommError::PeerDead { peer: 0 }) => {}
                other => panic!("expected a typed watchdog error, got {other:?}"),
            }
        }
        assert!(timeouts >= 1, "at least one rank must report the timeout");
    }

    #[test]
    fn no_collective_blocks_forever_once_a_rank_is_dead() {
        let seen = Mutex::new(None);
        let started = Instant::now();
        let failure = Cluster::try_run(2, |comm| {
            if comm.rank() == 1 {
                panic!("dead rank");
            }
            // All collective shapes must unwind with a typed error, not
            // hang: the dead mark lands before the channels disconnect.
            let g = Group::world(2);
            let err = comm
                .barrier(&g)
                .and_then(|_| comm.all_reduce_scalar(&g, 1.0).map(|_| ()))
                .and_then(|_| comm.recv(1).map(|_| ()))
                .unwrap_err();
            *seen.lock().unwrap() = Some(err);
        })
        .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "rank 0 blocked on a dead peer"
        );
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.payload, "dead rank");
        let err = seen.lock().unwrap().clone().expect("rank 0 saw an error");
        assert!(
            matches!(err, CommError::PeerDead { peer: 1 }),
            "expected PeerDead, got {err:?}"
        );
    }

    #[test]
    fn slow_rank_under_deadline_is_not_a_failure() {
        let opts = ClusterOptions {
            deadline: Duration::from_millis(2_000),
        };
        let out = Cluster::try_run_with(2, &opts, |comm| {
            if comm.rank() == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
            comm.barrier(&Group::world(2))
        })
        .expect("no failure");
        assert!(out.iter().all(|r| r.is_ok()));
    }
}
