//! Deterministic in-process SPMD cluster.
//!
//! The paper's substrate is a GPU cluster communicating over NCCL. Here a
//! "rank" is an OS thread and communication happens over per-pair FIFO
//! channels. [`Comm`] carries exactly what TP/PP/DP/SP/ZeRO training sends:
//! point-to-point tensors (`send_tensor`/`recv_tensor`, pipeline
//! activations) and four collectives — `barrier`, `all_gather_tensors`,
//! `all_reduce_sum` (f32 tensors) and `all_reduce_sum_f64` (with its
//! `all_reduce_scalar` shorthand). Every collective has one body: the
//! lowest rank of a group receives every member's contribution *in rank
//! order*, reduces it (sums with f64 accumulation, or packs the list for a
//! gather), and sends the result back. This makes every collective
//! bitwise deterministic and independent of thread scheduling — a property
//! real GPU training lacks (the paper's Table 3 tolerates a ±0.02 loss band
//! for exactly this reason) and which lets our tests assert far tighter.
//!
//! SPMD contract: all members of a group must call the same sequence of
//! collectives on that group. Because each rank executes sequentially and
//! channels between any pair are FIFO, matching operations pair up in
//! program order; violating the contract either mismatches payloads
//! (caught by a payload-kind check: [`CommError::PayloadKindMismatch`]) or
//! leaves a rank waiting until the watchdog deadline
//! ([`CommError::Timeout`]).

pub mod cluster;
pub mod comm;
pub mod exchange;
pub mod group;

pub use cluster::{Cluster, ClusterOptions, RankFailure};
pub use comm::Comm;
pub use group::Group;

/// Errors surfaced by the communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A received payload had a different kind than the operation expected.
    PayloadKindMismatch {
        /// What the caller expected.
        expected: &'static str,
        /// What arrived.
        got: &'static str,
    },
    /// A peer disconnected (its thread panicked or exited early).
    Disconnected {
        /// The peer rank.
        peer: usize,
    },
    /// A peer was marked dead by the cluster (its body panicked), or the
    /// cluster was poisoned by a failure elsewhere and this rank is
    /// unwinding instead of waiting on traffic that may never come.
    PeerDead {
        /// The dead peer (or the first dead rank when unwinding on poison).
        peer: usize,
    },
    /// The watchdog deadline elapsed while waiting on a peer that is still
    /// connected but not making progress (a hung rank).
    Timeout {
        /// The peer this rank was blocked on.
        peer: usize,
        /// How long the rank waited before giving up.
        waited_ms: u64,
    },
    /// The calling rank is not a member of the group it used.
    NotAMember {
        /// The calling rank.
        rank: usize,
    },
    /// Group construction was invalid (empty, duplicates, or out of range).
    InvalidGroup(String),
}

impl CommError {
    /// True for errors that describe *another* rank's failure arriving at
    /// this rank (disconnect, death, watchdog timeout) rather than a local
    /// programming error. Supervisors use this to separate the root-cause
    /// failure from the sympathetic unwinding of surviving ranks.
    pub fn is_peer_failure(&self) -> bool {
        matches!(
            self,
            CommError::Disconnected { .. } | CommError::PeerDead { .. } | CommError::Timeout { .. }
        )
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PayloadKindMismatch { expected, got } => {
                write!(f, "payload kind mismatch: expected {expected}, got {got}")
            }
            CommError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            CommError::PeerDead { peer } => write!(f, "peer rank {peer} is dead"),
            CommError::Timeout { peer, waited_ms } => {
                write!(
                    f,
                    "watchdog timeout: no progress from rank {peer} after {waited_ms} ms"
                )
            }
            CommError::NotAMember { rank } => {
                write!(f, "rank {rank} is not a member of the group")
            }
            CommError::InvalidGroup(msg) => write!(f, "invalid group: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for communication operations.
pub type Result<T> = std::result::Result<T, CommError>;
