//! Per-rank distributed tracing: causal event timelines for the SPMD
//! cluster.
//!
//! The metrics recorder ([`crate::Recorder`]) aggregates per process —
//! good for totals, blind to *which rank* stalls a collective or whether
//! overlapped checkpointing actually overlaps. This module records typed,
//! timestamped events into per-thread buffers:
//!
//! - **Spans** (`Begin`/`End`) — every phase timed by a [`crate::Span`]
//!   guard, under its metric path (`save/persist`, `convert/total`,
//!   `load/read`), plus the trace-only ones: compute phases (`step`,
//!   `forward`) and per-work-item spans (`extract`, `read_entry`).
//! - **Collectives** — one event per collective call per rank, carrying
//!   `enter ≤ ready ≤ exit` timestamps so *wait time* (blocked on peers,
//!   `ready − enter`) is separable from *transfer/reduce time*
//!   (`exit − ready`), plus the op, group label, and payload bytes.
//! - **Edges** — point-to-point send/recv markers (pipeline activations),
//!   with peer and byte count.
//! - **Marks** — instantaneous phase markers.
//!
//! Each traced thread owns its buffer: recording appends to a `Vec`
//! behind a mutex that only the owning thread touches until the final
//! merge, so there is no cross-rank contention on the hot path
//! ("lock-free-ish"). Every event carries a nanosecond timestamp from one
//! process-wide monotonic clock (all ranks are threads of one process, so
//! timestamps are directly comparable — no cross-node clock skew to
//! correct) and a globally ordered sequence number, which makes merged
//! timelines causally consistent even when two events land in the same
//! nanosecond tick.
//!
//! After a run, [`Tracer::take_session`] merges the buffers into a
//! [`TraceSession`], which exports Chrome Trace Format JSON (one pid per
//! rank — load it in Perfetto or `chrome://tracing`), parses it back, and
//! computes the [`TraceSummary`] analysis behind `ucp trace --summary`.
//!
//! The global tracer starts **disabled**; every instrumentation call then
//! costs one relaxed atomic load, the same zero-overhead contract (and
//! `telemetry_disabled` bench group) as the metrics recorder.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::Json;

/// Chrome pid used for threads that are not cluster ranks (the driver
/// process and its worker pools). Rank pids are the rank ids themselves.
pub const DRIVER_PID: u64 = 1_000_000;

/// Event category (the Chrome `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCat {
    /// Collective communication (all-reduce, all-gather, barrier, ...).
    Collective,
    /// Training compute phases (step, forward, backward, optim).
    Compute,
    /// Checkpoint phases (snapshot, persist, drain, publish).
    Checkpoint,
    /// Conversion phases and work items (per-chunk extract).
    Convert,
    /// Universal-load phases.
    Load,
    /// Point-to-point send/recv edges.
    Comm,
    /// Elastic-recovery phases (detect, teardown, convert, resume).
    Recovery,
}

impl TraceCat {
    /// The Chrome `cat` string.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCat::Collective => "collective",
            TraceCat::Compute => "compute",
            TraceCat::Checkpoint => "checkpoint",
            TraceCat::Convert => "convert",
            TraceCat::Load => "load",
            TraceCat::Comm => "comm",
            TraceCat::Recovery => "recovery",
        }
    }

    /// Parse a Chrome `cat` string.
    pub fn parse(s: &str) -> Option<TraceCat> {
        Some(match s {
            "collective" => TraceCat::Collective,
            "compute" => TraceCat::Compute,
            "checkpoint" => TraceCat::Checkpoint,
            "convert" => TraceCat::Convert,
            "load" => TraceCat::Load,
            "comm" => TraceCat::Comm,
            "recovery" => TraceCat::Recovery,
            _ => return None,
        })
    }

    /// The category a metric span path traces under, chosen by its first
    /// segment; `None` for name spaces that stay metrics-only
    /// (`storage/`, `io/`, `bench/`).
    pub fn of_path(path: &str) -> Option<TraceCat> {
        Some(match path.split_once('/')?.0 {
            "save" | "fsck" => TraceCat::Checkpoint,
            "convert" => TraceCat::Convert,
            "load" => TraceCat::Load,
            "recovery" => TraceCat::Recovery,
            _ => return None,
        })
    }
}

/// What happened (the typed half of a [`TraceEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A phase opened.
    Begin {
        /// Category.
        cat: TraceCat,
        /// Phase name (stable across occurrences, e.g. `forward`).
        name: String,
    },
    /// The matching phase closed (LIFO per thread).
    End {
        /// Category (mirrors the `Begin`).
        cat: TraceCat,
        /// Phase name (mirrors the `Begin`).
        name: String,
    },
    /// One collective call on one rank. The event timestamp is *enter*
    /// (the rank arrived at the collective).
    Collective {
        /// Operation (`all_reduce`, `barrier`, ...).
        op: String,
        /// Communication group label (e.g. `0-3`).
        group: String,
        /// Approximate payload bytes contributed by this rank.
        bytes: u64,
        /// When this rank stopped waiting on peers (ns, same clock).
        ready_ns: u64,
        /// When the collective returned (ns, same clock).
        exit_ns: u64,
    },
    /// A point-to-point message edge.
    Edge {
        /// True for the send side, false for the receive side.
        send: bool,
        /// Peer rank.
        peer: u64,
        /// Approximate payload bytes.
        bytes: u64,
    },
    /// An instantaneous marker.
    Mark {
        /// Category.
        cat: TraceCat,
        /// Marker name.
        name: String,
    },
}

/// One recorded event: a monotonic timestamp, a causal sequence number
/// (globally ordered across threads), and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch (process-wide monotonic clock).
    pub ts_ns: u64,
    /// Global sequence number: a total order consistent with causality.
    pub seq: u64,
    /// The typed event.
    pub kind: EventKind,
}

/// One thread's buffer. Only the owning thread appends; the mutex exists
/// for the final merge, so recording never contends across ranks.
#[derive(Debug)]
struct ThreadBuffer {
    pid: u64,
    tid: u64,
    label: String,
    /// The tracer's session generation when the buffer was bound; a
    /// binding from before the last [`Tracer::take_session`] is stale.
    generation: u64,
    events: Mutex<Vec<TraceEvent>>,
}

fn lock_events(buf: &ThreadBuffer) -> MutexGuard<'_, Vec<TraceEvent>> {
    // A panicking rank thread must not cascade into tracing panics.
    buf.events.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Per-thread buffer bindings, keyed by tracer identity (a test's
    /// local tracer and the global one bind independently).
    static TLS_BUFFERS: RefCell<Vec<(usize, Arc<ThreadBuffer>)>> = const { RefCell::new(Vec::new()) };
}

/// The distributed-trace recorder. See the module docs for the model.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    seq: AtomicU64,
    next_tid: AtomicU64,
    epoch: Instant,
    /// Bumped by `take_session` under the `buffers` lock. It guards no
    /// data of its own (the buffers sit behind the mutex), so relaxed
    /// loads suffice: a thread ordered after a take sees the new value.
    generation: AtomicU64,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer used by the instrumented code. Starts
/// disabled; `ucp --trace-out` and tests enable it.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new_disabled)
}

/// Convenience: whether the global tracer is recording.
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Convenience: open a span on the global tracer.
#[inline]
pub fn span(cat: TraceCat, name: &str) -> TraceSpan<'static> {
    global().span(cat, name)
}

/// Convenience: open a collective record on the global tracer.
#[inline]
pub fn collective(op: &'static str, group: &str, bytes: u64) -> CollectiveSpan<'static> {
    global().collective(op, group, bytes)
}

/// Convenience: record a p2p edge on the global tracer.
#[inline]
pub fn edge(send: bool, peer: usize, bytes: u64) {
    global().edge(send, peer, bytes)
}

/// Convenience: record an instantaneous marker on the global tracer.
#[inline]
pub fn mark(cat: TraceCat, name: &str) {
    global().mark(cat, name)
}

/// Convenience: bind the current thread to `rank` on the global tracer.
#[inline]
pub fn register_rank(rank: usize, label: &str) {
    global().register(rank as u64, label)
}

/// Convenience: bind the current thread to an explicit pid on the global
/// tracer (use [`DRIVER_PID`] for non-rank threads).
#[inline]
pub fn register_thread(pid: u64, label: &str) {
    global().register(pid, label)
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, enabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            next_tid: AtomicU64::new(0),
            epoch: Instant::now(),
            generation: AtomicU64::new(0),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// A fresh tracer that ignores all events until enabled.
    pub fn new_disabled() -> Tracer {
        let t = Tracer::new();
        t.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Whether events are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Threads registered while disabled are
    /// not remembered — register after enabling.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Wipe all recorded events, then enable.
    pub fn start(&self) {
        self.take_session();
        self.set_enabled(true);
    }

    fn identity(&self) -> usize {
        self as *const Tracer as usize
    }

    /// Nanoseconds since this tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Bind the current thread to `pid` with a human-readable label,
    /// replacing any previous binding for this tracer. No-op while
    /// disabled.
    pub fn register(&self, pid: u64, label: &str) {
        if self.is_enabled() {
            self.bind(pid, label);
        }
    }

    fn bind(&self, pid: u64, label: &str) -> Arc<ThreadBuffer> {
        let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let buf = Arc::new(ThreadBuffer {
            pid,
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            label: label.to_string(),
            generation: self.generation.load(Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        buffers.push(Arc::clone(&buf));
        drop(buffers);
        let id = self.identity();
        TLS_BUFFERS.with(|tls| {
            let mut tls = tls.borrow_mut();
            tls.retain(|(tid, _)| *tid != id);
            tls.push((id, Arc::clone(&buf)));
        });
        buf
    }

    /// The current thread's buffer, auto-binding unbound threads as
    /// driver threads (worker pools, background writers) — whether or not
    /// the tracer is still enabled: an event that passed the enabled check
    /// must land somewhere even if recording stops a moment later. A
    /// binding older than the last `take_session` points at a drained
    /// buffer the tracer no longer holds; it is renewed under the same
    /// pid and label.
    fn buffer(&self) -> Arc<ThreadBuffer> {
        let id = self.identity();
        let existing = TLS_BUFFERS.with(|tls| {
            tls.borrow()
                .iter()
                .find(|(tid, _)| *tid == id)
                .map(|(_, b)| Arc::clone(b))
        });
        match existing {
            Some(b) if b.generation == self.generation.load(Ordering::Relaxed) => b,
            Some(stale) => self.bind(stale.pid, &stale.label),
            None => self.bind(DRIVER_PID, "worker"),
        }
    }

    fn push(&self, kind: EventKind) {
        let ev = TraceEvent {
            ts_ns: self.now_ns(),
            seq: self.next_seq(),
            kind,
        };
        lock_events(&self.buffer()).push(ev);
    }

    /// Open a span; the `End` event is recorded when the guard drops.
    /// One relaxed atomic load and an inert guard while disabled.
    #[must_use = "a trace span records its End on drop"]
    pub fn span(&self, cat: TraceCat, name: &str) -> TraceSpan<'_> {
        if !self.is_enabled() {
            return TraceSpan {
                tracer: self,
                cat,
                name: String::new(),
                live: false,
            };
        }
        self.push(EventKind::Begin {
            cat,
            name: name.to_string(),
        });
        TraceSpan {
            tracer: self,
            cat,
            name: name.to_string(),
            live: true,
        }
    }

    /// Open a collective record: the enter timestamp is now, `ready()`
    /// marks the end of the peer wait, and dropping the guard records the
    /// exit. Inert while disabled.
    #[must_use = "a collective span records on drop"]
    pub fn collective(&self, op: &'static str, group: &str, bytes: u64) -> CollectiveSpan<'_> {
        if !self.is_enabled() {
            return CollectiveSpan {
                tracer: self,
                op,
                group: String::new(),
                bytes,
                enter_ns: 0,
                ready_ns: None,
                live: false,
            };
        }
        CollectiveSpan {
            tracer: self,
            op,
            group: group.to_string(),
            bytes,
            enter_ns: self.now_ns(),
            ready_ns: None,
            live: true,
        }
    }

    /// Record a p2p edge event.
    #[inline]
    pub fn edge(&self, send: bool, peer: usize, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(EventKind::Edge {
            send,
            peer: peer as u64,
            bytes,
        });
    }

    /// Record an instantaneous marker.
    #[inline]
    pub fn mark(&self, cat: TraceCat, name: &str) {
        if !self.is_enabled() {
            return;
        }
        self.push(EventKind::Mark {
            cat,
            name: name.to_string(),
        });
    }

    /// Drain every thread's buffer into a merged [`TraceSession`]. Safe
    /// while threads are still running: a thread bound before the take
    /// re-binds lazily, under its pid and label, on its next event.
    pub fn take_session(&self) -> TraceSession {
        let buffers: Vec<Arc<ThreadBuffer>> = {
            let mut held = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.fetch_add(1, Ordering::Relaxed);
            std::mem::take(&mut *held)
        };
        let mut tracks: Vec<ThreadTrack> = buffers
            .iter()
            .map(|b| ThreadTrack {
                pid: b.pid,
                tid: b.tid,
                label: b.label.clone(),
                events: std::mem::take(&mut *lock_events(b)),
            })
            .filter(|t| !t.events.is_empty())
            .collect();
        tracks.sort_by_key(|t| (t.pid, t.tid));
        TraceSession { tracks }
    }
}

/// Scoped span guard; records the `End` event on drop.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    tracer: &'a Tracer,
    cat: TraceCat,
    name: String,
    live: bool,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        self.tracer.push(EventKind::End {
            cat: self.cat,
            name: std::mem::take(&mut self.name),
        });
    }
}

/// In-flight collective record; see [`Tracer::collective`].
#[derive(Debug)]
pub struct CollectiveSpan<'a> {
    tracer: &'a Tracer,
    op: &'static str,
    group: String,
    bytes: u64,
    enter_ns: u64,
    ready_ns: Option<u64>,
    live: bool,
}

impl CollectiveSpan<'_> {
    /// Mark the moment this rank stopped waiting on its peers (last
    /// needed payload arrived). If never called, ready collapses to exit.
    pub fn ready(&mut self) {
        if self.live && self.ready_ns.is_none() {
            self.ready_ns = Some(self.tracer.now_ns());
        }
    }
}

impl Drop for CollectiveSpan<'_> {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let exit_ns = self.tracer.now_ns();
        let ready_ns = self
            .ready_ns
            .unwrap_or(exit_ns)
            .clamp(self.enter_ns, exit_ns);
        let ev = TraceEvent {
            ts_ns: self.enter_ns,
            seq: self.tracer.next_seq(),
            kind: EventKind::Collective {
                op: self.op.to_string(),
                group: std::mem::take(&mut self.group),
                bytes: self.bytes,
                ready_ns,
                exit_ns,
            },
        };
        lock_events(&self.tracer.buffer()).push(ev);
    }
}

// ---------------------------------------------------------------------------
// Merged sessions and Chrome Trace Format export
// ---------------------------------------------------------------------------

/// One thread's merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrack {
    /// Chrome pid: the rank id, or [`DRIVER_PID`].
    pub pid: u64,
    /// Chrome tid (unique per thread across the session).
    pub tid: u64,
    /// Human-readable thread label (`main`, `saver`, `worker`).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

/// A merged multi-thread trace: the unit of export, import, and analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSession {
    /// Per-thread timelines, sorted by (pid, tid).
    pub tracks: Vec<ThreadTrack>,
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

impl TraceSession {
    /// Distinct rank pids present (driver threads excluded).
    pub fn ranks(&self) -> BTreeSet<u64> {
        self.tracks
            .iter()
            .filter(|t| t.pid < DRIVER_PID)
            .map(|t| t.pid)
            .collect()
    }

    /// Total recorded events.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Render as a Chrome Trace Format document (`traceEvents` array of
    /// `B`/`E`/`i` phases plus `M` metadata naming each pid/tid), loadable
    /// in Perfetto / `chrome://tracing`. Timestamps are microseconds; the
    /// exact nanosecond clock and the causal sequence number ride along in
    /// `args` so [`TraceSession::from_chrome_json`] is lossless.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Json> = Vec::new();
        let mut named_pids: BTreeSet<u64> = BTreeSet::new();
        for track in &self.tracks {
            if named_pids.insert(track.pid) {
                let name = if track.pid == DRIVER_PID {
                    "driver".to_string()
                } else {
                    format!("rank {}", track.pid)
                };
                events.push(Json::obj(vec![
                    ("name", Json::Str("process_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", num(track.pid)),
                    ("tid", num(track.tid)),
                    ("args", Json::obj(vec![("name", Json::Str(name))])),
                ]));
            }
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", num(track.pid)),
                ("tid", num(track.tid)),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(track.label.clone()))]),
                ),
            ]));
            for ev in &track.events {
                events.extend(chrome_event(track, ev));
            }
        }
        let doc = Json::obj(vec![
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }

    /// Parse a Chrome Trace Format document produced by
    /// [`TraceSession::to_chrome_json`] back into a session.
    pub fn from_chrome_json(text: &str) -> Result<TraceSession, String> {
        let doc = Json::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        let mut labels: BTreeMap<(u64, u64), String> = BTreeMap::new();
        // Per-(pid, tid) open-span stacks for matching E to B.
        let mut stacks: BTreeMap<(u64, u64), Vec<PendingBegin>> = BTreeMap::new();
        let mut tracks: BTreeMap<(u64, u64), Vec<TraceEvent>> = BTreeMap::new();
        for ev in events {
            let ph = ev
                .get("ph")
                .and_then(Json::as_str)
                .ok_or("event missing ph")?;
            let pid = ev
                .get("pid")
                .and_then(Json::as_u64)
                .ok_or("event missing pid")?;
            let tid = ev
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or("event missing tid")?;
            let key = (pid, tid);
            let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
            let args = ev.get("args");
            let arg_u64 = |k: &str| args.and_then(|a| a.get(k)).and_then(Json::as_u64);
            let ts_ns = arg_u64("ts_ns").unwrap_or_else(|| {
                (ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0) * 1000.0).round() as u64
            });
            let seq = arg_u64("seq").unwrap_or(0);
            let cat = ev
                .get("cat")
                .and_then(Json::as_str)
                .and_then(TraceCat::parse);
            match ph {
                "M" => {
                    if name == "thread_name" {
                        if let Some(l) = args.and_then(|a| a.get("name")).and_then(Json::as_str) {
                            labels.insert(key, l.to_string());
                        }
                    }
                }
                "B" => {
                    stacks.entry(key).or_default().push(PendingBegin {
                        ts_ns,
                        seq,
                        cat: cat.ok_or_else(|| format!("B event '{name}' has unknown cat"))?,
                        name: name.to_string(),
                        group: args
                            .and_then(|a| a.get("group"))
                            .and_then(Json::as_str)
                            .map(str::to_string),
                        bytes: arg_u64("bytes"),
                        ready_ns: arg_u64("ready_ns"),
                    });
                }
                "E" => {
                    let begun = stacks.entry(key).or_default().pop().ok_or_else(|| {
                        format!("E without B for '{name}' on pid {pid} tid {tid}")
                    })?;
                    let out = tracks.entry(key).or_default();
                    if begun.cat == TraceCat::Collective {
                        out.push(TraceEvent {
                            ts_ns: begun.ts_ns,
                            seq: begun.seq,
                            kind: EventKind::Collective {
                                op: begun.name,
                                group: begun.group.unwrap_or_default(),
                                bytes: begun.bytes.unwrap_or(0),
                                ready_ns: begun.ready_ns.unwrap_or(ts_ns),
                                exit_ns: ts_ns,
                            },
                        });
                    } else {
                        out.push(TraceEvent {
                            ts_ns: begun.ts_ns,
                            seq: begun.seq,
                            kind: EventKind::Begin {
                                cat: begun.cat,
                                name: begun.name.clone(),
                            },
                        });
                        out.push(TraceEvent {
                            ts_ns,
                            seq,
                            kind: EventKind::End {
                                cat: begun.cat,
                                name: begun.name,
                            },
                        });
                    }
                }
                "i" | "I" => {
                    let kind = if cat == Some(TraceCat::Comm) {
                        EventKind::Edge {
                            send: name == "send",
                            peer: arg_u64("peer").unwrap_or(0),
                            bytes: arg_u64("bytes").unwrap_or(0),
                        }
                    } else {
                        EventKind::Mark {
                            cat: cat.ok_or_else(|| format!("i event '{name}' has unknown cat"))?,
                            name: name.to_string(),
                        }
                    };
                    tracks
                        .entry(key)
                        .or_default()
                        .push(TraceEvent { ts_ns, seq, kind });
                }
                other => return Err(format!("unsupported phase '{other}'")),
            }
        }
        for ((pid, tid), stack) in &stacks {
            if let Some(open) = stack.last() {
                return Err(format!(
                    "B without E for '{}' on pid {pid} tid {tid}",
                    open.name
                ));
            }
        }
        let mut out: Vec<ThreadTrack> = tracks
            .into_iter()
            .map(|((pid, tid), mut events)| {
                events.sort_by_key(|e| e.seq);
                ThreadTrack {
                    pid,
                    tid,
                    label: labels.get(&(pid, tid)).cloned().unwrap_or_default(),
                    events,
                }
            })
            .collect();
        out.sort_by_key(|t| (t.pid, t.tid));
        Ok(TraceSession { tracks: out })
    }

    /// Compute the analysis behind `ucp trace --summary`.
    pub fn summary(&self) -> TraceSummary {
        let mut ranks: BTreeMap<u64, RankSummary> = BTreeMap::new();
        let mut ops: BTreeMap<String, OpWait> = BTreeMap::new();
        for track in &self.tracks {
            if track.events.is_empty() {
                continue;
            }
            let first = track.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
            let last = track
                .events
                .iter()
                .map(|e| match &e.kind {
                    EventKind::Collective { exit_ns, .. } => *exit_ns,
                    _ => e.ts_ns,
                })
                .max()
                .unwrap_or(0);
            let entry = ranks.entry(track.pid).or_insert_with(|| RankSummary {
                pid: track.pid,
                first_ns: first,
                last_ns: last,
                ..RankSummary::default()
            });
            entry.first_ns = entry.first_ns.min(first);
            entry.last_ns = entry.last_ns.max(last);
            entry.events += track.events.len() as u64;
            for ev in &track.events {
                if let EventKind::Collective {
                    op,
                    bytes,
                    ready_ns,
                    exit_ns,
                    ..
                } = &ev.kind
                {
                    let wait = ready_ns.saturating_sub(ev.ts_ns);
                    let total = exit_ns.saturating_sub(ev.ts_ns);
                    entry.collectives += 1;
                    entry.collective_ns += total;
                    entry.wait_ns += wait;
                    let ow = ops.entry(op.clone()).or_insert_with(|| OpWait {
                        op: op.clone(),
                        ..OpWait::default()
                    });
                    ow.count += 1;
                    ow.bytes += bytes;
                    ow.total_wait_ns += wait;
                    ow.total_comm_ns += total - wait.min(total);
                    ow.wait_hist.record(wait);
                }
            }
        }
        let mut rank_rows: Vec<RankSummary> = ranks.into_values().collect();
        for r in &mut rank_rows {
            r.wall_ns = r.last_ns.saturating_sub(r.first_ns);
            r.busy_ns = r.wall_ns.saturating_sub(r.collective_ns);
        }
        // Straggler ranking: the rank everyone else waits on is the one
        // that waits the *least* inside collectives.
        let mut stragglers: Vec<(u64, u64)> = rank_rows
            .iter()
            .filter(|r| r.pid < DRIVER_PID)
            .map(|r| (r.pid, r.wait_ns))
            .collect();
        stragglers.sort_by_key(|&(pid, wait)| (wait, pid));
        TraceSummary {
            ranks: rank_rows,
            ops: ops.into_values().collect(),
            stragglers,
            critical_path: self.critical_path(),
        }
    }

    /// Approximate critical path: the top-level (unnested) spans of every
    /// thread, grouped by phase name, keeping the slowest instance of
    /// each phase, ordered by start time. For an SPMD program whose
    /// phases are separated by barriers this is exactly the chain of
    /// slowest ranks; for overlapping phases it is a useful upper sketch.
    pub fn critical_path(&self) -> Vec<CritSegment> {
        let mut slowest: BTreeMap<String, CritSegment> = BTreeMap::new();
        for track in &self.tracks {
            let mut depth = 0usize;
            let mut open: Vec<(u64, &str, TraceCat)> = Vec::new();
            for ev in &track.events {
                match &ev.kind {
                    EventKind::Begin { cat, name } => {
                        open.push((ev.ts_ns, name, *cat));
                        depth += 1;
                    }
                    EventKind::End { .. } => {
                        depth = depth.saturating_sub(1);
                        if let Some((start, name, cat)) = open.pop() {
                            if depth == 0 {
                                let dur = ev.ts_ns.saturating_sub(start);
                                let seg = slowest.entry(name.to_string()).or_insert(CritSegment {
                                    name: name.to_string(),
                                    cat,
                                    pid: track.pid,
                                    start_ns: start,
                                    dur_ns: dur,
                                });
                                if dur > seg.dur_ns {
                                    seg.pid = track.pid;
                                    seg.start_ns = start;
                                    seg.dur_ns = dur;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut path: Vec<CritSegment> = slowest.into_values().collect();
        path.sort_by_key(|s| (s.start_ns, s.pid));
        path
    }
}

/// An open `B` awaiting its `E` during Chrome-trace parsing.
struct PendingBegin {
    ts_ns: u64,
    seq: u64,
    cat: TraceCat,
    name: String,
    group: Option<String>,
    bytes: Option<u64>,
    ready_ns: Option<u64>,
}

/// Render one [`TraceEvent`] as Chrome trace event objects.
fn chrome_event(track: &ThreadTrack, ev: &TraceEvent) -> Vec<Json> {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let base = |ph: &str, name: &str, cat: TraceCat, ts_ns: u64, args: Vec<(&str, Json)>| {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str(cat.as_str().to_string())),
            ("ph", Json::Str(ph.to_string())),
            ("ts", us(ts_ns)),
            ("pid", num(track.pid)),
            ("tid", num(track.tid)),
            ("args", Json::obj(args)),
        ])
    };
    match &ev.kind {
        EventKind::Begin { cat, name } => vec![base(
            "B",
            name,
            *cat,
            ev.ts_ns,
            vec![("seq", num(ev.seq)), ("ts_ns", num(ev.ts_ns))],
        )],
        EventKind::End { cat, name } => vec![base(
            "E",
            name,
            *cat,
            ev.ts_ns,
            vec![("seq", num(ev.seq)), ("ts_ns", num(ev.ts_ns))],
        )],
        EventKind::Collective {
            op,
            group,
            bytes,
            ready_ns,
            exit_ns,
        } => vec![
            base(
                "B",
                op,
                TraceCat::Collective,
                ev.ts_ns,
                vec![
                    ("seq", num(ev.seq)),
                    ("ts_ns", num(ev.ts_ns)),
                    ("group", Json::Str(group.clone())),
                    ("bytes", num(*bytes)),
                    ("ready_ns", num(*ready_ns)),
                    ("wait_ns", num(ready_ns.saturating_sub(ev.ts_ns))),
                ],
            ),
            base(
                "E",
                op,
                TraceCat::Collective,
                *exit_ns,
                vec![("seq", num(ev.seq)), ("ts_ns", num(*exit_ns))],
            ),
        ],
        EventKind::Edge { send, peer, bytes } => {
            let mut e = base(
                "i",
                if *send { "send" } else { "recv" },
                TraceCat::Comm,
                ev.ts_ns,
                vec![
                    ("seq", num(ev.seq)),
                    ("ts_ns", num(ev.ts_ns)),
                    ("peer", num(*peer)),
                    ("bytes", num(*bytes)),
                ],
            );
            if let Json::Obj(m) = &mut e {
                m.insert("s".into(), Json::Str("t".into()));
            }
            vec![e]
        }
        EventKind::Mark { cat, name } => vec![base(
            "i",
            name,
            *cat,
            ev.ts_ns,
            vec![("seq", num(ev.seq)), ("ts_ns", num(ev.ts_ns))],
        )],
    }
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// Per-rank (per-pid) busy/wait accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankSummary {
    /// Rank id, or [`DRIVER_PID`].
    pub pid: u64,
    /// Earliest event timestamp (ns).
    pub first_ns: u64,
    /// Latest event timestamp (ns).
    pub last_ns: u64,
    /// Active window: `last_ns − first_ns`.
    pub wall_ns: u64,
    /// Time outside collectives (compute + I/O).
    pub busy_ns: u64,
    /// Total time inside collectives (wait + transfer).
    pub collective_ns: u64,
    /// Time blocked waiting on peers inside collectives.
    pub wait_ns: u64,
    /// Collective calls recorded.
    pub collectives: u64,
    /// Events recorded on this pid.
    pub events: u64,
}

impl RankSummary {
    /// Busy share of the active window, in percent.
    pub fn busy_pct(&self) -> f64 {
        pct(self.busy_ns, self.wall_ns)
    }

    /// Peer-wait share of the active window, in percent.
    pub fn wait_pct(&self) -> f64 {
        pct(self.wait_ns, self.wall_ns)
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Per-collective-op wait accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpWait {
    /// Operation name.
    pub op: String,
    /// Calls across all ranks.
    pub count: u64,
    /// Total payload bytes contributed.
    pub bytes: u64,
    /// Total peer-wait ns across calls.
    pub total_wait_ns: u64,
    /// Total transfer/reduce ns across calls.
    pub total_comm_ns: u64,
    /// Distribution of per-call wait ns (log2 buckets).
    pub wait_hist: Histogram,
}

/// One segment of the approximate critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CritSegment {
    /// Phase name.
    pub name: String,
    /// Category.
    pub cat: TraceCat,
    /// The slowest pid for this phase.
    pub pid: u64,
    /// Start (ns) of the slowest instance.
    pub start_ns: u64,
    /// Duration (ns) of the slowest instance.
    pub dur_ns: u64,
}

/// The `ucp trace --summary` analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-pid busy/wait rows, sorted by pid.
    pub ranks: Vec<RankSummary>,
    /// Per-op wait accounting, sorted by op.
    pub ops: Vec<OpWait>,
    /// `(pid, wait_ns)` ascending: first entry is the likeliest straggler
    /// (the rank its peers wait on waits the least itself).
    pub stragglers: Vec<(u64, u64)>,
    /// Approximate critical path (see [`TraceSession::critical_path`]).
    pub critical_path: Vec<CritSegment>,
}

impl TraceSummary {
    /// Machine-readable JSON rendering (deterministic key order).
    pub fn to_json(&self) -> String {
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("pid", num(r.pid)),
                    ("wall_ns", num(r.wall_ns)),
                    ("busy_ns", num(r.busy_ns)),
                    ("collective_ns", num(r.collective_ns)),
                    ("wait_ns", num(r.wait_ns)),
                    ("busy_pct", Json::Num(round2(r.busy_pct()))),
                    ("wait_pct", Json::Num(round2(r.wait_pct()))),
                    ("collectives", num(r.collectives)),
                    ("events", num(r.events)),
                ])
            })
            .collect();
        let ops = self
            .ops
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("op", Json::Str(o.op.clone())),
                    ("count", num(o.count)),
                    ("bytes", num(o.bytes)),
                    ("total_wait_ns", num(o.total_wait_ns)),
                    ("total_comm_ns", num(o.total_comm_ns)),
                    (
                        "wait_buckets",
                        Json::Arr(
                            o.wait_hist
                                .nonzero_buckets()
                                .into_iter()
                                .map(|(le, count)| {
                                    Json::obj(vec![("le", num(le)), ("count", num(count))])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let stragglers = self
            .stragglers
            .iter()
            .map(|&(pid, wait)| Json::obj(vec![("pid", num(pid)), ("wait_ns", num(wait))]))
            .collect();
        let path = self
            .critical_path
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(s.cat.as_str().to_string())),
                    ("pid", num(s.pid)),
                    ("start_ns", num(s.start_ns)),
                    ("dur_ns", num(s.dur_ns)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("schema", Json::Str("ucp-trace-summary-v1".into())),
            ("ranks", Json::Arr(ranks)),
            ("collectives", Json::Arr(ops)),
            ("stragglers", Json::Arr(stragglers)),
            ("critical_path", Json::Arr(path)),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new_disabled();
        t.register(0, "main");
        {
            let _s = t.span(TraceCat::Compute, "step");
            let mut c = t.collective("barrier", "0-1", 0);
            c.ready();
        }
        t.edge(true, 1, 64);
        t.mark(TraceCat::Checkpoint, "publish");
        assert_eq!(t.take_session().event_count(), 0);
    }

    #[test]
    fn spans_and_collectives_merge_per_thread() {
        let t = Tracer::new();
        t.register(3, "main");
        {
            let _s = t.span(TraceCat::Compute, "step");
            let mut c = t.collective("all_reduce", "0-3", 4096);
            c.ready();
        }
        t.edge(false, 1, 128);
        let session = t.take_session();
        assert_eq!(session.tracks.len(), 1);
        let track = &session.tracks[0];
        assert_eq!(track.pid, 3);
        assert_eq!(track.label, "main");
        // Begin, Collective, End, Edge — in causal (seq) order.
        assert_eq!(track.events.len(), 4);
        assert!(matches!(track.events[0].kind, EventKind::Begin { .. }));
        let seqs: Vec<u64> = track.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn collective_timestamps_are_ordered() {
        let t = Tracer::new();
        t.register(0, "main");
        {
            let mut c = t.collective("all_gather", "0-1", 1024);
            std::thread::sleep(std::time::Duration::from_millis(2));
            c.ready();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let session = t.take_session();
        let ev = &session.tracks[0].events[0];
        let EventKind::Collective {
            ready_ns, exit_ns, ..
        } = &ev.kind
        else {
            panic!("expected collective");
        };
        assert!(ev.ts_ns <= *ready_ns);
        assert!(ready_ns <= exit_ns);
        assert!(*ready_ns - ev.ts_ns >= 1_000_000, "waited ≥ 1ms");
    }

    #[test]
    fn unregistered_threads_autoregister_as_driver() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _sp = t.span(TraceCat::Convert, "extract");
            });
        });
        let session = t.take_session();
        assert_eq!(session.tracks.len(), 1);
        assert_eq!(session.tracks[0].pid, DRIVER_PID);
        assert!(session.ranks().is_empty());
    }

    #[test]
    fn chrome_roundtrip_is_lossless() {
        let t = Tracer::new();
        t.register(0, "main");
        {
            let _outer = t.span(TraceCat::Compute, "step");
            {
                let _inner = t.span(TraceCat::Compute, "forward");
            }
            let mut c = t.collective("all_reduce", "0-1", 2048);
            c.ready();
        }
        t.edge(true, 1, 99);
        t.mark(TraceCat::Checkpoint, "publish");
        let session = t.take_session();
        let text = session.to_chrome_json();
        let back = TraceSession::from_chrome_json(&text).unwrap();
        assert_eq!(back, session);
        // And export is a fixed point.
        assert_eq!(back.to_chrome_json(), text);
    }

    #[test]
    fn parser_rejects_unbalanced_spans() {
        let text = r#"{"traceEvents": [
            {"name": "x", "cat": "compute", "ph": "B", "ts": 1, "pid": 0, "tid": 0, "args": {}}
        ]}"#;
        assert!(TraceSession::from_chrome_json(text)
            .unwrap_err()
            .contains("B without E"));
        let text = r#"{"traceEvents": [
            {"name": "x", "cat": "compute", "ph": "E", "ts": 1, "pid": 0, "tid": 0, "args": {}}
        ]}"#;
        assert!(TraceSession::from_chrome_json(text)
            .unwrap_err()
            .contains("E without B"));
    }

    #[test]
    fn summary_separates_busy_from_wait() {
        let session = TraceSession {
            tracks: vec![
                ThreadTrack {
                    pid: 0,
                    tid: 0,
                    label: "main".into(),
                    events: vec![
                        TraceEvent {
                            ts_ns: 0,
                            seq: 0,
                            kind: EventKind::Begin {
                                cat: TraceCat::Compute,
                                name: "step".into(),
                            },
                        },
                        TraceEvent {
                            ts_ns: 600,
                            seq: 1,
                            kind: EventKind::Collective {
                                op: "all_reduce".into(),
                                group: "0-1".into(),
                                bytes: 64,
                                ready_ns: 700,
                                exit_ns: 800,
                            },
                        },
                        TraceEvent {
                            ts_ns: 1000,
                            seq: 2,
                            kind: EventKind::End {
                                cat: TraceCat::Compute,
                                name: "step".into(),
                            },
                        },
                    ],
                },
                ThreadTrack {
                    pid: 1,
                    tid: 1,
                    label: "main".into(),
                    events: vec![TraceEvent {
                        ts_ns: 0,
                        seq: 3,
                        kind: EventKind::Collective {
                            op: "all_reduce".into(),
                            group: "0-1".into(),
                            bytes: 64,
                            ready_ns: 700,
                            exit_ns: 1000,
                        },
                    }],
                },
            ],
        };
        let s = session.summary();
        assert_eq!(s.ranks.len(), 2);
        let r0 = &s.ranks[0];
        assert_eq!(r0.wall_ns, 1000);
        assert_eq!(r0.collective_ns, 200);
        assert_eq!(r0.wait_ns, 100);
        assert_eq!(r0.busy_ns, 800);
        assert!((r0.busy_pct() - 80.0).abs() < 1e-9);
        // Rank 1 waits 700 of 1000 ns; rank 0 waits 100 → rank 0 is the
        // straggler (first in the ranking).
        assert_eq!(s.stragglers[0].0, 0);
        assert_eq!(s.stragglers[1], (1, 700));
        let op = &s.ops[0];
        assert_eq!(op.count, 2);
        assert_eq!(op.total_wait_ns, 800);
        assert_eq!(op.total_comm_ns, 400);
        // Critical path: the single top-level span on rank 0.
        assert_eq!(s.critical_path.len(), 1);
        assert_eq!(s.critical_path[0].name, "step");
        assert_eq!(s.critical_path[0].dur_ns, 1000);
        // Summary JSON parses back as JSON.
        assert!(Json::parse(&s.to_json()).is_ok());
    }

    #[test]
    fn start_clears_previous_session() {
        let t = Tracer::new();
        t.register(0, "main");
        t.mark(TraceCat::Compute, "old");
        t.start();
        t.register(0, "main");
        t.mark(TraceCat::Compute, "new");
        let session = t.take_session();
        assert_eq!(session.event_count(), 1);
        assert!(matches!(
            &session.tracks[0].events[0].kind,
            EventKind::Mark { name, .. } if name == "new"
        ));
    }

    #[test]
    fn guard_outliving_the_recording_still_lands_its_event() {
        // A guard opened on an unbound thread, dropped after recording
        // stopped: its event must bind a buffer, not panic in `Drop`.
        let t = Tracer::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let guard = t.collective("barrier", "0-1", 0);
                t.set_enabled(false);
                drop(guard);
            });
        });
        assert_eq!(t.take_session().event_count(), 1);
    }

    #[test]
    fn a_bound_thread_keeps_recording_after_take_session() {
        // The thread's binding outlives the buffer `take_session` drained:
        // its next event must reach the next session, under the pid and
        // label it registered with, instead of the orphaned buffer.
        let t = Tracer::new();
        t.register(2, "rank2");
        t.mark(TraceCat::Compute, "first");
        assert_eq!(t.take_session().event_count(), 1);
        t.mark(TraceCat::Compute, "second");
        let session = t.take_session();
        assert_eq!(session.event_count(), 1);
        let track = &session.tracks[0];
        assert_eq!((track.pid, track.label.as_str()), (2, "rank2"));
    }
}
