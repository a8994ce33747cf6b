//! Zero-dependency telemetry for the UCP hot paths.
//!
//! Three primitives, one report:
//!
//! - **Spans** — one guard, [`span`], times a phase under an absolute
//!   slash path (`convert/extract`). On drop it aggregates the elapsed
//!   time by path (count / total / min / max) *and* brackets the scope on
//!   the [`trace`] timeline under the same name, so a phase is one
//!   greppable string in both artifacts. It records however the scope
//!   ends — fallthrough, `?`, or unwind.
//! - **Counters** — monotonic `u64` accumulators (`convert/bytes_written`).
//! - **Histograms** — log2-bucketed `u64` distributions for latencies and
//!   byte volumes (`load/atom_read_ns`).
//!
//! Everything funnels into a [`Report`], which serializes to a
//! deterministic `ucp-metrics-v1` JSON document (the `--metrics-out`
//! format, also consumed by CI's perf-smoke gate) and to Prometheus text
//! exposition.
//!
//! The process-global recorder ([`global()`]) starts **disabled**; when
//! disabled every instrumentation call is a single relaxed atomic load
//! (two for a span: recorder and tracer), so the hot paths carry no
//! measurable overhead by default.
//!
//! The [`trace`] module adds the per-rank distributed tracing layer
//! (typed event timelines, Chrome Trace Format export, busy/wait
//! analysis) under the same zero-overhead-when-disabled contract. The
//! [`fleet`] module merges per-rank recorder snapshots into cross-rank
//! aggregates (sum/min/max plus straggler skew) that ride the same
//! report schema.
//!
//! ```
//! use ucp_telemetry::{Recorder, Span, Tracer};
//!
//! let (rec, tracer) = (Recorder::new(), Tracer::new());
//! {
//!     let _phase = Span::open(&rec, &tracer, "convert/extract");
//!     rec.count("convert/fragments", 4);
//!     rec.observe("load/atom_read_ns", 12_500);
//! }
//! let report = rec.report("demo");
//! assert_eq!(report.span("convert/extract").unwrap().count, 1);
//! assert_eq!(tracer.take_session().event_count(), 2); // Begin + End
//! assert_eq!(report.counter("convert/fragments"), Some(4));
//! let json = report.to_json();
//! let back = ucp_telemetry::Report::from_json(&json).unwrap();
//! assert_eq!(back.counter("convert/fragments"), Some(4));
//! ```

pub mod fleet;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;
pub mod span;
pub mod trace;

pub use fleet::RankSnapshot;
pub use hist::Histogram;
pub use json::Json;
pub use recorder::{global, Recorder};
pub use report::{BucketStat, CounterStat, HistStat, Report, SpanStat, SCHEMA};
pub use span::Span;
pub use trace::{TraceCat, TraceSession, TraceSummary, Tracer};

/// Time a phase under `path` on the global recorder and the global
/// tracer — the one way production code instruments a phase.
#[inline]
pub fn span(path: &str) -> Span<'_> {
    Span::open(global(), trace::global(), path)
}

/// Convenience: bump a counter on the global recorder.
#[inline]
pub fn count(name: &str, n: u64) {
    global().count(name, n)
}

/// Convenience: record a histogram observation on the global recorder.
#[inline]
pub fn observe(name: &str, value: u64) {
    global().observe(name, value)
}

/// Convenience: whether the global recorder is enabled. Lets callers skip
/// prep work (e.g. an extra `Instant::now()`) when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}
