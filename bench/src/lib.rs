//! `ucp-e2e`: the repository's end-to-end benchmark.
//!
//! Five state-heavy workloads run through the production drivers with all
//! telemetry off for the end-to-end metrics, then again through
//! bench-owned step loops that wrap every call into a layer's public
//! function in a span for the per-layer metrics. See `README.md`.

pub mod adapter;
pub mod checks;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod workloads;
