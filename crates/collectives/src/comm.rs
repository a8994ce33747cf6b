//! Per-rank communicators: point-to-point messaging and deterministic
//! collectives built on top of it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use ucp_telemetry::trace;
use ucp_tensor::Tensor;

use crate::{group::Group, CommError, Result};

/// Shared failure-detection state of one cluster: which ranks are dead,
/// whether the cluster is poisoned, the first watchdog timeout, and each
/// rank's last reported step.
///
/// A rank is *dead* once its body has panicked (marked before its channels
/// drop, so peers see a typed [`CommError::PeerDead`] instead of a bare
/// disconnect). Poison is the broadcast form of that knowledge: once set,
/// every blocked `recv` unwinds at its next watchdog tick instead of
/// waiting out traffic that will never come.
pub(crate) struct ClusterState {
    dead: Vec<AtomicBool>,
    poisoned: AtomicBool,
    /// First rank marked dead (`usize::MAX` = none); CAS'd once so the
    /// root cause survives cascades.
    first_dead: AtomicUsize,
    /// The first [`CommError::Timeout`] any rank's watchdog raised; set
    /// once, so the hang that started a cascade is the one reported.
    timeout: OnceLock<CommError>,
    /// Last step each rank reported via [`Comm::set_step`].
    steps: Vec<AtomicU64>,
    /// Watchdog deadline for blocking receives.
    deadline: Duration,
}

impl ClusterState {
    pub(crate) fn new(world_size: usize, deadline: Duration) -> ClusterState {
        ClusterState {
            dead: (0..world_size).map(|_| AtomicBool::new(false)).collect(),
            poisoned: AtomicBool::new(false),
            first_dead: AtomicUsize::new(usize::MAX),
            timeout: OnceLock::new(),
            steps: (0..world_size).map(|_| AtomicU64::new(0)).collect(),
            deadline,
        }
    }

    /// Mark `rank` dead and poison the cluster.
    pub(crate) fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        let _ =
            self.first_dead
                .compare_exchange(usize::MAX, rank, Ordering::SeqCst, Ordering::SeqCst);
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Record a watchdog `timeout` (the first one wins) and poison the
    /// cluster.
    pub(crate) fn poison_on_timeout(&self, timeout: &CommError) {
        let _ = self.timeout.set(timeout.clone());
        self.poisoned.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    /// The first rank marked dead, if any.
    pub(crate) fn first_dead(&self) -> Option<usize> {
        match self.first_dead.load(Ordering::SeqCst) {
            usize::MAX => None,
            r => Some(r),
        }
    }

    pub(crate) fn step_of(&self, rank: usize) -> u64 {
        self.steps[rank].load(Ordering::SeqCst)
    }

    /// The first watchdog timeout, if any fired.
    pub(crate) fn first_timeout(&self) -> Option<CommError> {
        self.timeout.get().cloned()
    }
}

/// A message payload exchanged between ranks.
///
/// `F64` exists so gradient reduction can travel at full double precision:
/// the trainer accumulates microbatch gradients in f64 and reduces in f64,
/// making the result effectively independent of the data-parallel layout.
#[derive(Clone)]
pub(crate) enum Payload {
    /// A tensor (shape + f32 values).
    Tensor(Tensor),
    /// Member-ordered tensors (an all-gather's result).
    Tensors(Vec<Tensor>),
    /// Raw f64 vector (gradient accumulators; empty for a barrier).
    F64(Vec<f64>),
}

impl Payload {
    fn kind(&self) -> &'static str {
        match self {
            Payload::Tensor(_) => "tensor",
            Payload::Tensors(_) => "tensors",
            Payload::F64(_) => "f64",
        }
    }

    /// Approximate wire size in bytes (element counts times element width;
    /// shape/enum overhead ignored). Used for trace attribution.
    fn approx_bytes(&self) -> u64 {
        match self {
            Payload::Tensor(t) => 4 * t.num_elements() as u64,
            Payload::Tensors(ts) => ts.iter().map(|t| 4 * t.num_elements() as u64).sum(),
            Payload::F64(v) => 8 * v.len() as u64,
        }
    }
}

macro_rules! expect_payload {
    ($expr:expr, $variant:ident, $name:literal) => {
        match $expr {
            Payload::$variant(v) => Ok(v),
            other => Err(CommError::PayloadKindMismatch {
                expected: $name,
                got: other.kind(),
            }),
        }
    };
}

/// The per-rank handle to the cluster's communication fabric.
///
/// One `Comm` is handed to each rank closure by [`crate::Cluster::run`].
/// All methods are blocking; the SPMD contract (see crate docs) guarantees
/// progress.
pub struct Comm {
    rank: usize,
    world_size: usize,
    /// `senders[dst]` sends to rank `dst`.
    senders: Vec<Sender<Payload>>,
    /// `receivers[src]` receives from rank `src`.
    receivers: Vec<Receiver<Payload>>,
    /// Shared failure-detection state (dead ranks, poison, steps).
    state: Arc<ClusterState>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        world_size: usize,
        senders: Vec<Sender<Payload>>,
        receivers: Vec<Receiver<Payload>>,
        state: Arc<ClusterState>,
    ) -> Comm {
        Comm {
            rank,
            world_size,
            senders,
            receivers,
            state,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the cluster.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// True once any rank has failed (or a watchdog fired) and the cluster
    /// is unwinding. Long-running compute loops should check this to bail
    /// out promptly instead of producing work no peer will consume.
    pub fn poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    /// Record this rank's current training step for failure attribution:
    /// [`crate::RankFailure::step`] reports the failing rank's last value.
    pub fn set_step(&self, step: u64) {
        self.state.steps[self.rank].store(step, Ordering::SeqCst);
    }

    /// The watchdog deadline blocking receives wait before giving up.
    pub fn deadline(&self) -> Duration {
        self.state.deadline
    }

    // ---- Point-to-point -------------------------------------------------

    /// Raw channel send: no trace edge. The collective internals use this
    /// so their message traffic shows up only as the collective record,
    /// not as a storm of p2p edges.
    fn send_raw(&self, dst: usize, payload: Payload) -> Result<()> {
        if self.state.is_dead(dst) {
            return Err(CommError::PeerDead { peer: dst });
        }
        self.senders[dst]
            .send(payload)
            .map_err(|_| self.closed(dst))
    }

    /// The error for a channel to `peer` found closed: [`CommError::PeerDead`]
    /// when the peer is known dead or the cluster is poisoned (its ranks are
    /// unwinding, as the poll in [`Comm::recv_raw`] reports them), else
    /// [`CommError::Disconnected`].
    fn closed(&self, peer: usize) -> CommError {
        if self.state.is_dead(peer) {
            CommError::PeerDead { peer }
        } else if self.state.is_poisoned() {
            CommError::PeerDead {
                peer: self.state.first_dead().unwrap_or(peer),
            }
        } else {
            CommError::Disconnected { peer }
        }
    }

    /// Raw channel receive: no trace edge (see [`Comm::send_raw`]).
    ///
    /// Blocking, but watched: the wait is sliced into short ticks so the
    /// rank notices poison promptly, and gives up with a typed error after
    /// the cluster deadline — [`CommError::PeerDead`] when the peer (or any
    /// rank, once poisoned) is known dead, [`CommError::Timeout`] when the
    /// peer is alive but stuck. A timeout poisons the cluster so every
    /// other blocked rank unwinds too: no collective outlives the deadline.
    fn recv_raw(&self, src: usize) -> Result<Payload> {
        let deadline = self.state.deadline;
        let tick = (deadline / 16).clamp(Duration::from_millis(1), Duration::from_millis(50));
        let start = Instant::now();
        loop {
            if self.state.is_dead(src) {
                return Err(CommError::PeerDead { peer: src });
            }
            if self.state.is_poisoned() {
                let peer = self.state.first_dead().unwrap_or(src);
                return Err(CommError::PeerDead { peer });
            }
            match self.receivers[src].recv_timeout(tick) {
                Ok(p) => return Ok(p),
                Err(RecvTimeoutError::Disconnected) => return Err(self.closed(src)),
                Err(RecvTimeoutError::Timeout) => {
                    let waited = start.elapsed();
                    if waited >= deadline {
                        let timeout = CommError::Timeout {
                            peer: src,
                            waited_ms: waited.as_millis() as u64,
                        };
                        self.state.poison_on_timeout(&timeout);
                        return Err(timeout);
                    }
                }
            }
        }
    }

    /// Send a payload to `dst`. Sending to self is allowed (buffered).
    /// Records a trace send edge (pipeline activations).
    fn send(&self, dst: usize, payload: Payload) -> Result<()> {
        trace::edge(true, dst, payload.approx_bytes());
        self.send_raw(dst, payload)
    }

    /// Receive the next payload from `src` (blocking, FIFO per pair).
    /// Records a trace recv edge on arrival.
    pub(crate) fn recv(&self, src: usize) -> Result<Payload> {
        let payload = self.recv_raw(src)?;
        trace::edge(false, src, payload.approx_bytes());
        Ok(payload)
    }

    /// Send a tensor to `dst`.
    pub fn send_tensor(&self, dst: usize, t: &Tensor) -> Result<()> {
        self.send(dst, Payload::Tensor(t.clone()))
    }

    /// Receive a tensor from `src`.
    pub fn recv_tensor(&self, src: usize) -> Result<Tensor> {
        expect_payload!(self.recv(src)?, Tensor, "tensor")
    }

    /// Open a collective trace record without paying for the group label
    /// when tracing is off.
    fn trace_collective(
        &self,
        op: &'static str,
        group: &Group,
        bytes: u64,
    ) -> trace::CollectiveSpan<'static> {
        if trace::enabled() {
            trace::collective(op, &group.label(), bytes)
        } else {
            trace::collective(op, "", 0)
        }
    }

    // ---- Collectives ----------------------------------------------------

    /// Gather every member's payload to the leader (in member order), apply
    /// `reduce`, and send the result back. The one body of every
    /// collective below.
    ///
    /// Records one collective trace event per member under `op`: *enter* is
    /// the call, *ready* is when the rank stops waiting on its peers (the
    /// leader: last contribution received; others: result arrived), *exit*
    /// is the return.
    fn leader_reduce<F>(
        &self,
        op: &'static str,
        group: &Group,
        payload: Payload,
        reduce: F,
    ) -> Result<Payload>
    where
        F: FnOnce(Vec<Payload>) -> Result<Payload>,
    {
        if !group.contains(self.rank) {
            return Err(CommError::NotAMember { rank: self.rank });
        }
        let mut span = self.trace_collective(op, group, payload.approx_bytes());
        let leader = group.leader();
        if self.rank != leader {
            self.send_raw(leader, payload)?;
            let result = self.recv_raw(leader)?;
            span.ready();
            return Ok(result);
        }
        // The leader is the lowest member, so its own payload comes first.
        let mut contributions = Vec::with_capacity(group.size());
        contributions.push(payload);
        for &m in &group.members()[1..] {
            contributions.push(self.recv_raw(m)?);
        }
        span.ready();
        let result = reduce(contributions)?;
        for &m in &group.members()[1..] {
            self.send_raw(m, result.clone())?;
        }
        Ok(result)
    }

    /// Barrier over a group.
    pub fn barrier(&self, group: &Group) -> Result<()> {
        self.leader_reduce("barrier", group, Payload::F64(Vec::new()), |_| {
            Ok(Payload::F64(Vec::new()))
        })?;
        Ok(())
    }

    /// All-gather tensors: every member contributes one tensor and receives
    /// the full member-ordered list.
    pub fn all_gather_tensors(&self, group: &Group, t: &Tensor) -> Result<Vec<Tensor>> {
        let out = self.leader_reduce(
            "all_gather",
            group,
            Payload::Tensor(t.clone()),
            |contribs| {
                let tensors = contribs
                    .into_iter()
                    .map(|c| expect_payload!(c, Tensor, "tensor"))
                    .collect::<Result<_>>()?;
                Ok(Payload::Tensors(tensors))
            },
        )?;
        expect_payload!(out, Tensors, "tensors")
    }

    /// Deterministic all-reduce (sum) of tensors with f64 accumulation in
    /// member order. All members receive the identical result.
    pub fn all_reduce_sum(&self, group: &Group, t: &Tensor) -> Result<Tensor> {
        let out = self.leader_reduce(
            "all_reduce",
            group,
            Payload::Tensor(t.clone()),
            |contribs| {
                let mut tensors = Vec::with_capacity(contribs.len());
                for c in contribs {
                    tensors.push(expect_payload!(c, Tensor, "tensor")?);
                }
                let shape = tensors[0].shape().clone();
                let mut acc = vec![0.0f64; shape.num_elements()];
                for t in &tensors {
                    if t.shape() != &shape {
                        return Err(CommError::InvalidGroup(format!(
                            "all_reduce shape mismatch: {} vs {}",
                            t.shape(),
                            shape
                        )));
                    }
                    for (a, v) in acc.iter_mut().zip(t.as_slice()) {
                        *a += f64::from(*v);
                    }
                }
                let data: Vec<f32> = acc.into_iter().map(|v| v as f32).collect();
                // Shape is preserved, so from_vec cannot fail.
                Ok(Payload::Tensor(
                    Tensor::from_vec(data, shape).expect("shape preserved"),
                ))
            },
        )?;
        expect_payload!(out, Tensor, "tensor")
    }

    /// Deterministic all-reduce (sum) of f64 vectors in member order.
    pub fn all_reduce_sum_f64(&self, group: &Group, v: &[f64]) -> Result<Vec<f64>> {
        let out = self.leader_reduce(
            "all_reduce_f64",
            group,
            Payload::F64(v.to_vec()),
            |contribs| {
                let mut acc: Option<Vec<f64>> = None;
                for c in contribs {
                    let vec = expect_payload!(c, F64, "f64")?;
                    match &mut acc {
                        None => acc = Some(vec),
                        Some(a) => {
                            if a.len() != vec.len() {
                                return Err(CommError::InvalidGroup(format!(
                                    "all_reduce_f64 length mismatch: {} vs {}",
                                    a.len(),
                                    vec.len()
                                )));
                            }
                            for (x, y) in a.iter_mut().zip(vec) {
                                *x += y;
                            }
                        }
                    }
                }
                Ok(Payload::F64(acc.expect("group is non-empty")))
            },
        )?;
        expect_payload!(out, F64, "f64")
    }

    /// Deterministic sum of scalars across the group.
    pub fn all_reduce_scalar(&self, group: &Group, v: f64) -> Result<f64> {
        Ok(self.all_reduce_sum_f64(group, &[v])?[0])
    }
}
