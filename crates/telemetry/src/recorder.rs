//! The thread-safe metrics recorder: span aggregates, monotonic counters,
//! and value histograms. (The guard that times a phase is [`crate::Span`].)
//!
//! A [`Recorder`] is cheap to consult when disabled — one relaxed atomic
//! load — so instrumentation can stay compiled into the hot paths
//! (conversion, loading, checkpoint saving) at near-zero cost. When
//! enabled, updates take a short mutex-protected map operation; the
//! instrumented code records per *phase*, *file*, or *atom*, never per
//! element, so contention stays negligible next to the work being timed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::hist::Histogram;
use crate::report::{CounterStat, HistStat, Report, SpanStat};

/// Aggregated timings of one span path.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across completions.
    pub total_ns: u64,
    /// Shortest completion (ns).
    pub min_ns: u64,
    /// Longest completion (ns).
    pub max_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

/// A thread-safe telemetry recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    state: Mutex<State>,
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder used by the instrumented hot paths.
/// Starts disabled; `ucp --metrics-out` and the bench harness enable it.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new_disabled)
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, enabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(true),
            state: Mutex::new(State::default()),
        }
    }

    /// A fresh recorder that ignores all updates until enabled.
    pub fn new_disabled() -> Recorder {
        let r = Recorder::new();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether updates are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Lock the state, recovering it if a panicking thread poisoned the
    /// mutex. Every update is a self-contained map operation, so the
    /// state is never left half-written by a panic mid-update; recovering
    /// keeps a crashing rank thread from cascading into telemetry panics
    /// during the final metric flush.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `n` to the named monotonic counter.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state();
        *state.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Record one observation into the named histogram.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state();
        state
            .hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Record one completed span of `duration` under `path`.
    #[inline]
    pub fn record_span(&self, path: &str, duration: Duration) {
        if !self.is_enabled() {
            return;
        }
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        let mut state = self.state();
        let agg = state.spans.entry(path.to_string()).or_default();
        if agg.count == 0 {
            agg.min_ns = ns;
            agg.max_ns = ns;
        } else {
            agg.min_ns = agg.min_ns.min(ns);
            agg.max_ns = agg.max_ns.max(ns);
        }
        agg.count += 1;
        agg.total_ns += ns;
    }

    /// Wipe all recorded data (the enabled flag is untouched).
    pub fn reset(&self) {
        let mut state = self.state();
        *state = State::default();
    }

    /// Snapshot everything recorded so far into a [`Report`].
    pub fn report(&self, label: &str) -> Report {
        let state = self.state();
        Report {
            label: label.to_string(),
            spans: state
                .spans
                .iter()
                .map(|(path, agg)| SpanStat {
                    path: path.clone(),
                    count: agg.count,
                    total_secs: agg.total_ns as f64 / 1e9,
                    min_secs: agg.min_ns as f64 / 1e9,
                    max_secs: agg.max_ns as f64 / 1e9,
                })
                .collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, value)| CounterStat {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: state
                .hists
                .iter()
                .map(|(name, h)| HistStat::from_histogram(name, h))
                .collect(),
        }
    }

    /// Fold a snapshot [`Report`] into this recorder — the receive side of
    /// fleet aggregation, where rank 0 absorbs merged per-rank snapshots
    /// so they flow out through the ordinary `--metrics-out` export.
    /// Counters add, histograms merge bucket-wise, spans accumulate
    /// (span seconds re-enter as nanoseconds at microsecond fidelity,
    /// matching the report's own rounding). No-op while disabled.
    pub fn absorb(&self, report: &Report) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state();
        for c in &report.counters {
            *state.counters.entry(c.name.clone()).or_insert(0) += c.value;
        }
        for h in &report.histograms {
            state
                .hists
                .entry(h.name.clone())
                .or_default()
                .merge(&h.to_histogram());
        }
        for s in &report.spans {
            let agg = state.spans.entry(s.path.clone()).or_default();
            let ns = |secs: f64| (secs.max(0.0) * 1e9).round() as u64;
            if agg.count == 0 {
                agg.min_ns = ns(s.min_secs);
                agg.max_ns = ns(s.max_secs);
            } else {
                agg.min_ns = agg.min_ns.min(ns(s.min_secs));
                agg.max_ns = agg.max_ns.max(ns(s.max_secs));
            }
            agg.count += s.count;
            agg.total_ns += ns(s.total_secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new_disabled();
        r.count("c", 5);
        r.observe("h", 10);
        r.record_span("phase", Duration::from_nanos(1));
        let report = r.report("test");
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let r = Recorder::new();
        r.count("bytes", 100);
        r.count("bytes", 50);
        r.count("files", 1);
        let report = r.report("t");
        assert_eq!(report.counter("bytes"), Some(150));
        assert_eq!(report.counter("files"), Some(1));
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn concurrent_counter_increments_from_many_threads() {
        let r = Recorder::new();
        let threads: u64 = 8;
        let per_thread: u64 = 1000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = &r;
                s.spawn(move || {
                    for i in 0..per_thread {
                        r.count("shared", 1);
                        r.observe("values", t * per_thread + i);
                    }
                });
            }
        });
        let report = r.report("t");
        assert_eq!(report.counter("shared"), Some(threads * per_thread));
        let h = report.hist("values").unwrap();
        assert_eq!(h.count, threads * per_thread);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, threads * per_thread - 1);
    }

    #[test]
    fn concurrent_spans_and_hists_merge_deterministically() {
        // Spans, counters, and histograms hammered from many threads must
        // produce the exact totals of the serial equivalent — the invariant
        // fleet aggregation and the overlapped save writers lean on.
        let r = Recorder::new();
        let threads: u64 = 8;
        let per_thread: u64 = 500;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = &r;
                s.spawn(move || {
                    for i in 0..per_thread {
                        r.record_span("work", Duration::from_nanos(i + 1));
                        r.count("ops", 2);
                        r.observe("latency", (t + 1) * 10);
                        r.observe("latency", i);
                    }
                });
            }
        });
        let report = r.report("t");
        assert_eq!(report.counter("ops"), Some(threads * per_thread * 2));
        let work = report.span("work").unwrap();
        assert_eq!(work.count, threads * per_thread);
        assert!(work.min_secs <= work.max_secs);
        assert!(work.total_secs >= work.max_secs);
        let h = report.hist("latency").unwrap();
        assert_eq!(h.count, threads * per_thread * 2);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, per_thread - 1);
        // Bucket counts must sum to the observation count (no lost or
        // double-counted updates under contention).
        assert_eq!(
            h.buckets.iter().map(|b| b.count).sum::<u64>(),
            threads * per_thread * 2
        );
    }

    #[test]
    fn absorb_folds_a_report_in() {
        let src = Recorder::new();
        src.count("fleet/ops", 7);
        src.observe("fleet/ms", 100);
        src.observe("fleet/ms", 4000);
        src.record_span("fleet/phase", Duration::from_millis(3));
        let snapshot = src.report("rank1");

        let dst = Recorder::new();
        dst.count("fleet/ops", 1);
        dst.absorb(&snapshot);
        dst.absorb(&snapshot);
        let report = dst.report("t");
        assert_eq!(report.counter("fleet/ops"), Some(15));
        let h = report.hist("fleet/ms").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!((h.min, h.max), (100, 4000));
        let sp = report.span("fleet/phase").unwrap();
        assert_eq!(sp.count, 2);
        assert!((sp.total_secs - 0.006).abs() < 1e-4);

        let disabled = Recorder::new_disabled();
        disabled.absorb(&snapshot);
        disabled.set_enabled(true);
        assert!(disabled.report("t").counters.is_empty());
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let r = Recorder::new();
        r.count("x", 1);
        r.reset();
        assert!(r.is_enabled());
        assert!(r.report("t").counters.is_empty());
    }

    #[test]
    fn poisoned_state_recovers_instead_of_cascading() {
        let r = Recorder::new();
        r.count("before", 1);
        // Poison the state mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = r.state.lock().unwrap();
            panic!("rank thread dies mid-flush");
        }));
        assert!(r.state.is_poisoned());
        // All lock sites must keep working on the recovered state.
        r.count("after", 2);
        r.observe("h", 7);
        r.record_span("p", Duration::from_nanos(5));
        let report = r.report("t");
        assert_eq!(report.counter("before"), Some(1));
        assert_eq!(report.counter("after"), Some(2));
        assert!(report.hist("h").is_some());
        assert!(report.span("p").is_some());
        r.reset();
        assert!(r.report("t").counters.is_empty());
    }

    #[test]
    fn global_starts_disabled() {
        // Other tests in the process may enable the global recorder, so
        // only assert the accessor is stable and usable.
        let g = global();
        let id1 = g as *const Recorder;
        let id2 = global() as *const Recorder;
        assert_eq!(id1, id2);
    }
}
