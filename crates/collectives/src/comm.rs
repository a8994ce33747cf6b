//! Per-rank communicators: point-to-point messaging and deterministic
//! collectives built on top of it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use ucp_telemetry::trace;
use ucp_tensor::Tensor;

use crate::{group::Group, CommError, Result};

/// Shared failure-detection state of one cluster: which ranks are dead,
/// whether the cluster is poisoned, and each rank's last reported step.
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

    pub(crate) fn poison(&self) {
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
}

/// A message payload exchanged between ranks.
///
/// `F64` exists so gradient reduction can travel at full double precision:
/// the trainer accumulates microbatch gradients in f64 and reduces in f64,
/// making the result effectively independent of the data-parallel layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A tensor (shape + f32 values).
    Tensor(Tensor),
    /// Raw f64 vector (gradient accumulators).
    F64(Vec<f64>),
    /// Raw u32 vector (token ids).
    U32(Vec<u32>),
    /// Opaque bytes (serialized control state).
    Bytes(Vec<u8>),
    /// A single integer (control messages, sizes).
    U64(u64),
}

impl Payload {
    fn kind(&self) -> &'static str {
        match self {
            Payload::Tensor(_) => "tensor",
            Payload::F64(_) => "f64",
            Payload::U32(_) => "u32",
            Payload::Bytes(_) => "bytes",
            Payload::U64(_) => "u64",
        }
    }

    /// Approximate wire size in bytes (element counts times element width;
    /// shape/enum overhead ignored). Used for trace attribution.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Payload::Tensor(t) => 4 * t.num_elements() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U32(v) => 4 * v.len() as u64,
            Payload::Bytes(b) => b.len() as u64,
            Payload::U64(_) => 8,
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
                        self.state.poison();
                        return Err(CommError::Timeout {
                            peer: src,
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                }
            }
        }
    }

    /// Send a payload to `dst`. Sending to self is allowed (buffered).
    /// Records a trace send edge (pipeline activations and control traffic).
    pub fn send(&self, dst: usize, payload: Payload) -> Result<()> {
        trace::edge(true, dst, payload.approx_bytes());
        self.send_raw(dst, payload)
    }

    /// Receive the next payload from `src` (blocking, FIFO per pair).
    /// Records a trace recv edge on arrival.
    pub fn recv(&self, src: usize) -> Result<Payload> {
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

    fn member_index(&self, group: &Group) -> Result<usize> {
        group
            .index_of(self.rank)
            .ok_or(CommError::NotAMember { rank: self.rank })
    }

    /// Gather every member's payload to the leader (in member order), apply
    /// `reduce`, and broadcast the result back. The deterministic backbone
    /// of every collective below.
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
        self.member_index(group)?;
        let mut span = self.trace_collective(op, group, payload.approx_bytes());
        let leader = group.leader();
        if self.rank == leader {
            let mut contributions = Vec::with_capacity(group.size());
            for &m in group.members() {
                if m == self.rank {
                    contributions.push(payload.clone());
                } else {
                    contributions.push(self.recv_raw(m)?);
                }
            }
            span.ready();
            let result = reduce(contributions)?;
            for &m in group.members() {
                if m != self.rank {
                    self.send_raw(m, result.clone())?;
                }
            }
            Ok(result)
        } else {
            self.send_raw(leader, payload)?;
            let result = self.recv_raw(leader)?;
            span.ready();
            Ok(result)
        }
    }

    /// Barrier over a group.
    pub fn barrier(&self, group: &Group) -> Result<()> {
        self.leader_reduce("barrier", group, Payload::U64(0), |_| Ok(Payload::U64(0)))?;
        Ok(())
    }

    /// Broadcast `payload` from `root` to all members; every member returns
    /// the root's payload.
    pub fn broadcast(&self, group: &Group, root: usize, payload: Payload) -> Result<Payload> {
        self.member_index(group)?;
        if !group.contains(root) {
            return Err(CommError::InvalidGroup(format!(
                "broadcast root {root} not in group"
            )));
        }
        let mut span = self.trace_collective("broadcast", group, payload.approx_bytes());
        if self.rank == root {
            span.ready(); // the root never waits on peers
            for &m in group.members() {
                if m != self.rank {
                    self.send_raw(m, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            let result = self.recv_raw(root)?;
            span.ready();
            Ok(result)
        }
    }

    /// All-gather: every member contributes a payload and receives the full
    /// member-ordered list.
    pub fn all_gather(&self, group: &Group, payload: Payload) -> Result<Vec<Payload>> {
        self.member_index(group)?;
        let mut span = self.trace_collective("all_gather", group, payload.approx_bytes());
        let leader = group.leader();
        if self.rank == leader {
            let mut all = Vec::with_capacity(group.size());
            for &m in group.members() {
                if m == self.rank {
                    all.push(payload.clone());
                } else {
                    all.push(self.recv_raw(m)?);
                }
            }
            span.ready();
            for &m in group.members() {
                if m != self.rank {
                    for p in &all {
                        self.send_raw(m, p.clone())?;
                    }
                }
            }
            Ok(all)
        } else {
            self.send_raw(leader, payload)?;
            let mut all = Vec::with_capacity(group.size());
            for i in 0..group.size() {
                all.push(self.recv_raw(leader)?);
                if i == 0 {
                    // The leader has everything once it starts streaming;
                    // the rest of the loop is transfer, not peer wait.
                    span.ready();
                }
            }
            Ok(all)
        }
    }

    /// All-gather tensors.
    pub fn all_gather_tensors(&self, group: &Group, t: &Tensor) -> Result<Vec<Tensor>> {
        self.all_gather(group, Payload::Tensor(t.clone()))?
            .into_iter()
            .map(|p| expect_payload!(p, Tensor, "tensor"))
            .collect()
    }

    /// Deterministic all-reduce (sum) of tensors with f64 accumulation in
    /// member order. All members receive the identical result.
    pub fn all_reduce_sum(&self, group: &Group, t: &Tensor) -> Result<Tensor> {
        self.all_reduce_sum_named("all_reduce", group, t)
    }

    /// [`Comm::all_reduce_sum`] recorded under a caller-chosen trace op, so
    /// derived collectives (reduce-scatter) attribute to their own name.
    fn all_reduce_sum_named(&self, op: &'static str, group: &Group, t: &Tensor) -> Result<Tensor> {
        let out = self.leader_reduce(op, group, Payload::Tensor(t.clone()), |contribs| {
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
        })?;
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

    /// Reduce-scatter over the flattened tensor: the full sum is computed
    /// deterministically, and member `i` receives chunk `i` of the result
    /// (the ZeRO-2 gradient-partitioning primitive). The flattened length
    /// must be divisible by the group size.
    pub fn reduce_scatter_sum(&self, group: &Group, t: &Tensor) -> Result<Tensor> {
        let summed = self.all_reduce_sum_named("reduce_scatter", group, t)?;
        let n = summed.num_elements();
        let parts = group.size();
        if n % parts != 0 {
            return Err(CommError::InvalidGroup(format!(
                "reduce_scatter: {n} elements not divisible by {parts} members"
            )));
        }
        let idx = self.member_index(group)?;
        let chunk = n / parts;
        let flat = summed.flatten();
        flat.narrow(0, idx * chunk, chunk)
            .map_err(|e| CommError::InvalidGroup(e.to_string()))
    }

    /// All-to-all: member `i` provides one payload per member; member `j`
    /// receives the list of payloads destined to it, in member order.
    /// The sequence-parallel (Ulysses) attention primitive.
    pub fn all_to_all(&self, group: &Group, outgoing: Vec<Payload>) -> Result<Vec<Payload>> {
        let my_idx = self.member_index(group)?;
        if outgoing.len() != group.size() {
            return Err(CommError::InvalidGroup(format!(
                "all_to_all: {} payloads for group of {}",
                outgoing.len(),
                group.size()
            )));
        }
        let bytes = outgoing.iter().map(Payload::approx_bytes).sum();
        let mut span = self.trace_collective("all_to_all", group, bytes);
        // Send phase: deliver to each peer (self-delivery kept local).
        let mut mine: Vec<Option<Payload>> = (0..group.size()).map(|_| None).collect();
        for (j, payload) in outgoing.into_iter().enumerate() {
            let dst = group.members()[j];
            if dst == self.rank {
                mine[my_idx] = Some(payload);
            } else {
                self.send_raw(dst, payload)?;
            }
        }
        // Receive phase, in member order for determinism.
        let mut first = true;
        for (i, &src) in group.members().iter().enumerate() {
            if src != self.rank {
                mine[i] = Some(self.recv_raw(src)?);
                if first {
                    // Peers have arrived once the first incoming payload
                    // lands; the remainder is transfer.
                    span.ready();
                    first = false;
                }
            }
        }
        Ok(mine.into_iter().map(|p| p.expect("filled above")).collect())
    }

    /// Gather tensors to `root` (member order); non-roots return `None`.
    pub fn gather_tensors(
        &self,
        group: &Group,
        root: usize,
        t: &Tensor,
    ) -> Result<Option<Vec<Tensor>>> {
        self.member_index(group)?;
        let mut span = self.trace_collective("gather", group, 4 * t.num_elements() as u64);
        if self.rank == root {
            let mut all = Vec::with_capacity(group.size());
            for &m in group.members() {
                if m == self.rank {
                    all.push(t.clone());
                } else {
                    all.push(expect_payload!(self.recv_raw(m)?, Tensor, "tensor")?);
                }
            }
            span.ready();
            Ok(Some(all))
        } else {
            self.send_raw(root, Payload::Tensor(t.clone()))?;
            span.ready(); // fire-and-forget: a non-root never waits
            Ok(None)
        }
    }

    /// Scatter equal flat chunks of a rank-1 tensor from `root`; member `i`
    /// receives chunk `i`. Non-root members pass any tensor (ignored).
    pub fn scatter_chunks(&self, group: &Group, root: usize, t: &Tensor) -> Result<Tensor> {
        let idx = self.member_index(group)?;
        let mut span = self.trace_collective("scatter", group, 4 * t.num_elements() as u64);
        if self.rank == root {
            span.ready(); // the root never waits on peers
            let n = t.num_elements();
            let parts = group.size();
            if !n.is_multiple_of(parts) {
                return Err(CommError::InvalidGroup(format!(
                    "scatter: {n} elements not divisible by {parts} members"
                )));
            }
            let chunk = n / parts;
            let flat = t.flatten();
            let mut my_chunk = None;
            for (i, &m) in group.members().iter().enumerate() {
                let piece = flat
                    .narrow(0, i * chunk, chunk)
                    .map_err(|e| CommError::InvalidGroup(e.to_string()))?;
                if m == self.rank {
                    my_chunk = Some(piece);
                } else {
                    self.send_raw(m, Payload::Tensor(piece))?;
                }
            }
            // The root is always a member, so its chunk was filled; `idx`
            // proves membership.
            let _ = idx;
            Ok(my_chunk.expect("root is a member"))
        } else {
            let result = expect_payload!(self.recv_raw(root)?, Tensor, "tensor")?;
            span.ready();
            Ok(result)
        }
    }
}
