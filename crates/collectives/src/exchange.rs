//! Out-of-band typed message exchange between background threads.
//!
//! The save pipeline's overlapped writers assemble universal atoms across
//! ranks *while training continues*, so they cannot borrow the cluster's
//! [`crate::Comm`] endpoints (those belong to the training threads and
//! carry the SPMD collective traffic). They exchange over a [`Mesh`]: a
//! *persistent* all-to-all fabric whose O(world²) channels are created
//! once and reused across many exchange rounds. Each round (a save step)
//! claims an [`EpochLease`] tagged with a monotonically increasing epoch;
//! messages of different epochs share the underlying channels and are
//! demultiplexed at the receiving port, so per-pair FIFO order holds
//! *within* an epoch regardless of interleaving.
//!
//! Failure semantics mirror the main fabric: when a writer dies, the hangup
//! of its channel endpoints surfaces at every peer as
//! [`CommError::Disconnected`] on the next receive, and a deadline converts
//! a silently-hung peer into [`CommError::Timeout`]. A lease dropped
//! without [`EpochLease::finish`] broadcasts an abort for its epoch so
//! peers see `Disconnected` promptly instead of waiting out the deadline.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::CommError;

/// How long a blocked [`EpochLease::recv_from`] sleeps between checks of
/// its underlying channel when no doorbell rings. Sends and aborts notify
/// the destination port directly, so this tick only bounds how stale a
/// *hangup* (all senders dropped, which rings no doorbell) can go
/// unnoticed.
const MESH_POLL_TICK: Duration = Duration::from_millis(25);

/// Retired/aborted epoch bookkeeping kept per port. Epochs are claimed
/// monotonically, so old entries only matter for stragglers; a small
/// window bounds memory over arbitrarily long runs.
const EPOCH_HISTORY: usize = 64;

/// On-the-wire frame of a [`Mesh`] channel: an epoch tag plus either a
/// payload or an abort notice (`None`) for that epoch.
struct Envelope<M> {
    epoch: u64,
    payload: Option<M>,
}

/// Receive-side demultiplexer state for one (dst, src) channel.
struct PortState<M> {
    rx: Receiver<Envelope<M>>,
    /// Messages drained off the channel for epochs other than the one a
    /// receiver was waiting on, in arrival (= per-epoch send) order.
    stash: HashMap<u64, VecDeque<M>>,
    /// Epochs whose sender aborted (lease dropped without `finish`).
    aborted: BTreeSet<u64>,
    /// Epochs this port is done with; late envelopes for them are dropped.
    retired: BTreeSet<u64>,
    /// All senders for this channel are gone (mesh and leases dropped).
    hangup: bool,
}

struct Port<M> {
    state: Mutex<PortState<M>>,
    bell: Condvar,
}

impl<M> Port<M> {
    fn new(rx: Receiver<Envelope<M>>) -> Port<M> {
        Port {
            state: Mutex::new(PortState {
                rx,
                stash: HashMap::new(),
                aborted: BTreeSet::new(),
                retired: BTreeSet::new(),
                hangup: false,
            }),
            bell: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PortState<M>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn recv(&self, from: usize, epoch: u64, deadline: Duration) -> Result<M, CommError> {
        let end = Instant::now() + deadline;
        let mut st = self.lock();
        loop {
            // Anything a different-epoch receiver drained for us comes
            // first: it left the channel before whatever is still queued.
            if let Some(q) = st.stash.get_mut(&epoch) {
                if let Some(m) = q.pop_front() {
                    return Ok(m);
                }
            }
            if st.aborted.contains(&epoch) {
                return Err(CommError::Disconnected { peer: from });
            }
            // Drain the shared channel, returning on our own epoch and
            // stashing others (waking their receivers).
            loop {
                match st.rx.try_recv() {
                    Ok(env) => {
                        if st.retired.contains(&env.epoch) {
                            continue;
                        }
                        match env.payload {
                            Some(m) if env.epoch == epoch => return Ok(m),
                            Some(m) => {
                                st.stash.entry(env.epoch).or_default().push_back(m);
                                self.bell.notify_all();
                            }
                            None => {
                                st.aborted.insert(env.epoch);
                                trim_history(&mut st.aborted);
                                self.bell.notify_all();
                                if env.epoch == epoch {
                                    return Err(CommError::Disconnected { peer: from });
                                }
                            }
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        st.hangup = true;
                        break;
                    }
                }
            }
            if st.hangup {
                return Err(CommError::Disconnected { peer: from });
            }
            let now = Instant::now();
            if now >= end {
                return Err(CommError::Timeout {
                    peer: from,
                    waited_ms: deadline.as_millis() as u64,
                });
            }
            let wait = (end - now).min(MESH_POLL_TICK);
            st = self
                .bell
                .wait_timeout(st, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn retire(&self, epoch: u64) {
        let mut st = self.lock();
        st.stash.remove(&epoch);
        st.aborted.remove(&epoch);
        st.retired.insert(epoch);
        trim_history(&mut st.retired);
    }
}

fn trim_history(set: &mut BTreeSet<u64>) {
    while set.len() > EPOCH_HISTORY {
        set.pop_first();
    }
}

/// `ports[dst][src]` — the receive side of every channel in the mesh.
struct PortTable<M> {
    ports: Vec<Vec<Port<M>>>,
}

/// A persistent all-to-all exchange fabric. Channels (O(world²)) are
/// created once in [`Mesh::new`]; every save step then claims one
/// [`EpochLease`] per rank via [`Mesh::lease`] instead of wiring a fresh
/// mesh. Epochs must be claimed with increasing tags per rank and a
/// (rank, epoch) pair must be claimed at most once — the save pipeline
/// enforces this with the step number as the epoch.
pub struct Mesh<M> {
    txs: Vec<Vec<Sender<Envelope<M>>>>,
    ports: Arc<PortTable<M>>,
}

impl<M: Send> Mesh<M> {
    /// Build the persistent fabric for a `world`-rank exchange.
    pub fn new(world: usize) -> Mesh<M> {
        let mut txs: Vec<Vec<Sender<Envelope<M>>>> =
            (0..world).map(|_| Vec::with_capacity(world)).collect();
        let mut ports: Vec<Vec<Port<M>>> = Vec::with_capacity(world);
        for _dst in 0..world {
            let mut row = Vec::with_capacity(world);
            for src_txs in txs.iter_mut() {
                let (tx, rx) = channel();
                src_txs.push(tx);
                row.push(Port::new(rx));
            }
            ports.push(row);
        }
        Mesh {
            txs,
            ports: Arc::new(PortTable { ports }),
        }
    }

    /// Number of ranks in the exchange.
    pub fn world(&self) -> usize {
        self.txs.len()
    }

    /// Claim rank `rank`'s endpoint for one exchange round tagged `epoch`.
    pub fn lease(&self, rank: usize, epoch: u64) -> EpochLease<M> {
        EpochLease {
            rank,
            epoch,
            txs: self.txs[rank].clone(),
            ports: Arc::clone(&self.ports),
            finished: false,
        }
    }
}

/// One rank's claim on a [`Mesh`] for a single exchange round: unbounded
/// FIFO sends (a self channel included, so send/receive code stays
/// uniform), deadline receives addressed by source rank. Dropping the lease without calling
/// [`finish`](EpochLease::finish) broadcasts an abort so peers waiting on
/// this epoch fail with [`CommError::Disconnected`] promptly.
pub struct EpochLease<M> {
    rank: usize,
    epoch: u64,
    txs: Vec<Sender<Envelope<M>>>,
    ports: Arc<PortTable<M>>,
    finished: bool,
}

impl<M: Send> EpochLease<M> {
    /// The owning rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the exchange.
    pub fn world(&self) -> usize {
        self.txs.len()
    }

    /// The epoch tag of this round.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Send `msg` to rank `to` under this lease's epoch. Never blocks;
    /// fails with [`CommError::Disconnected`] if the mesh (and every lease
    /// of the destination) was dropped.
    pub fn send(&self, to: usize, msg: M) -> Result<(), CommError> {
        self.txs[to]
            .send(Envelope {
                epoch: self.epoch,
                payload: Some(msg),
            })
            .map_err(|_| CommError::Disconnected { peer: to })?;
        self.ports.ports[to][self.rank].bell.notify_all();
        Ok(())
    }

    /// Receive the next message rank `from` sent to this rank under this
    /// epoch, waiting at most `deadline`. Per-(pair, epoch) FIFO holds:
    /// messages from one peer within one epoch arrive in send order,
    /// regardless of interleaving with other peers or epochs.
    pub fn recv_from(&self, from: usize, deadline: Duration) -> Result<M, CommError> {
        self.ports.ports[self.rank][from].recv(from, self.epoch, deadline)
    }

    /// Mark the round complete: no abort is broadcast on drop, and this
    /// rank's ports retire the epoch (late stragglers are dropped).
    pub fn finish(mut self) {
        self.finished = true;
    }
}

impl<M> Drop for EpochLease<M> {
    fn drop(&mut self) {
        if !self.finished {
            for (to, tx) in self.txs.iter().enumerate() {
                if tx
                    .send(Envelope {
                        epoch: self.epoch,
                        payload: None,
                    })
                    .is_ok()
                {
                    self.ports.ports[to][self.rank].bell.notify_all();
                }
            }
        }
        for port in &self.ports.ports[self.rank] {
            port.retire(self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_secs(5);

    #[test]
    fn mesh_reuse_preserves_fifo_across_consecutive_epochs() {
        // One mesh, many save rounds: per-pair FIFO must hold within each
        // epoch.
        let mesh = Mesh::<(u64, u32)>::new(2);
        for epoch in 1..=5u64 {
            let tx_lease = mesh.lease(1, epoch);
            let rx_lease = mesh.lease(0, epoch);
            let t = std::thread::spawn(move || {
                for i in 0..4u32 {
                    tx_lease.send(0, (epoch, i)).unwrap();
                }
                tx_lease.finish();
            });
            for i in 0..4u32 {
                assert_eq!(rx_lease.recv_from(1, TICK).unwrap(), (epoch, i));
            }
            rx_lease.finish();
            t.join().unwrap();
        }
    }

    #[test]
    fn concurrent_epochs_demux_on_shared_channels() {
        // Two rounds in flight at once (step N draining while step N+1
        // starts): each receiver sees only its own epoch, in order, even
        // though both rounds share the same per-pair channel.
        let mesh = Mesh::<(u64, u32)>::new(2);
        let send_a = mesh.lease(1, 10);
        let send_b = mesh.lease(1, 11);
        let recv_a = mesh.lease(0, 10);
        let recv_b = mesh.lease(0, 11);
        for i in 0..3u32 {
            send_a.send(0, (10, i)).unwrap();
            send_b.send(0, (11, i)).unwrap();
        }
        send_a.finish();
        send_b.finish();
        // Drain the newer epoch first so the older one's messages must be
        // stashed and then replayed in order.
        let tb = std::thread::spawn(move || {
            for i in 0..3u32 {
                assert_eq!(recv_b.recv_from(1, TICK).unwrap(), (11, i));
            }
            recv_b.finish();
        });
        tb.join().unwrap();
        for i in 0..3u32 {
            assert_eq!(recv_a.recv_from(1, TICK).unwrap(), (10, i));
        }
        recv_a.finish();
    }

    #[test]
    fn dropped_lease_aborts_its_epoch_promptly() {
        let mesh = Mesh::<u32>::new(2);
        let receiver = mesh.lease(0, 7);
        let dead = mesh.lease(1, 7);
        drop(dead); // writer died without finish(): abort broadcast
        let start = Instant::now();
        assert_eq!(
            receiver.recv_from(1, TICK).unwrap_err(),
            CommError::Disconnected { peer: 1 }
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "abort must beat the deadline"
        );
        // The abort is scoped to its epoch: a later round on the same
        // mesh is unaffected.
        let rx2 = mesh.lease(0, 8);
        let tx2 = mesh.lease(1, 8);
        tx2.send(0, 42).unwrap();
        tx2.finish();
        assert_eq!(rx2.recv_from(1, TICK).unwrap(), 42);
        rx2.finish();
    }

    #[test]
    fn finished_lease_does_not_abort_but_mesh_teardown_hangs_up() {
        let mesh = Mesh::<u32>::new(2);
        let rx = mesh.lease(0, 1);
        let tx = mesh.lease(1, 1);
        tx.send(0, 5).unwrap();
        tx.finish(); // normal completion: no abort
        assert_eq!(rx.recv_from(1, TICK).unwrap(), 5);
        // With the mesh and every lease of rank 1 gone, the channel hangs
        // up and the receiver sees Disconnected, not a deadline stall.
        drop(mesh);
        assert_eq!(
            rx.recv_from(1, TICK).unwrap_err(),
            CommError::Disconnected { peer: 1 }
        );
    }

    #[test]
    fn mesh_deadline_surfaces_as_timeout() {
        let mesh = Mesh::<u32>::new(2);
        let rx = mesh.lease(0, 3);
        let _quiet = mesh.lease(1, 3); // claimed but silent
        let err = rx.recv_from(1, Duration::from_millis(10)).unwrap_err();
        assert_eq!(
            err,
            CommError::Timeout {
                peer: 1,
                waited_ms: 10
            }
        );
    }

    mod mesh_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random interleavings of sends from two peers across up to
            /// three concurrent epochs: every (peer, epoch) stream is
            /// received complete and in send order.
            #[test]
            fn prop_mesh_fifo_per_pair_per_epoch(
                schedule in prop::collection::vec((0usize..2, 0u64..3), 1..40),
            ) {
                let mesh = Mesh::<(usize, u64, u32)>::new(3);
                let epochs = [100u64, 101, 102];
                // Receivers for rank 2, one lease per epoch.
                let rx: Vec<_> = epochs.iter().map(|&e| mesh.lease(2, e)).collect();
                // Senders: ranks 0 and 1, one lease per epoch each.
                let tx: Vec<Vec<_>> = (0..2)
                    .map(|r| epochs.iter().map(|&e| mesh.lease(r, e)).collect())
                    .collect();
                let mut sent: std::collections::HashMap<(usize, u64), Vec<u32>> =
                    std::collections::HashMap::new();
                for (i, &(peer, ei)) in schedule.iter().enumerate() {
                    let epoch = epochs[ei as usize];
                    tx[peer][ei as usize].send(2, (peer, epoch, i as u32)).unwrap();
                    sent.entry((peer, epoch)).or_default().push(i as u32);
                }
                for ((peer, epoch), ids) in &sent {
                    let ei = epochs.iter().position(|e| e == epoch).unwrap();
                    for &id in ids {
                        let got = rx[ei].recv_from(*peer, TICK).unwrap();
                        prop_assert_eq!(got, (*peer, *epoch, id));
                    }
                }
            }
        }
    }
}
