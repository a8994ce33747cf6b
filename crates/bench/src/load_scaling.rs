//! Fig. 13-style load-scaling experiment: universal-load cost under the
//! ranged read path (section-range reads + coalescing + session atom
//! cache) versus whole-file atom reads, across reconfiguration targets.
//!
//! A TP2×PP2 source checkpoint is converted to a universal checkpoint,
//! then every rank of each target strategy is loaded twice through a
//! bandwidth-throttled device — once per read strategy — under one
//! [`LoadSession`] per run, so the bytes-moved difference shows up as
//! wall-clock time. The telemetry counters give the exact read
//! amplification two ways, both gated in CI on the ranged path:
//! `load/bytes_read / load/bytes_needed` ≤ 1.15 (hits count as needed, so
//! it sees over-fetch but not re-reads) and `load/bytes_read` ≤ 1.05 × the
//! tree's payload bytes (a session reads each atom once).

use ucp_core::convert::ConvertOptions;
use ucp_core::load::{LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_model::ModelConfig;
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_storage::Device;
use ucp_telemetry::{CounterStat, Report, SpanStat};
use ucp_trainer::{convert_checkpoint, train_run, ResumeMode, TrainConfig, TrainPlan};

use crate::report::scratch_dir;

/// Simulated device bandwidth (MiB/s): low enough that bytes moved
/// dominate the load wall time, as on a bandwidth-bound NVMe tier.
const MIBPS: u64 = 64;

/// Iterations before the measured checkpoint.
const SOURCE_ITERS: u64 = 2;

/// Source model: `gpt3_tiny` widened until a TP4 shard of a `[256, 256]`
/// weight is strided at CRC-block granularity (one 256-byte block per run).
/// At hidden 32 every run shares its block with its peers' and no target
/// exercises the many-short-runs pattern.
fn source_model() -> ModelConfig {
    ModelConfig {
        hidden_size: 256,
        ffn_size: 512,
        num_layers: 2,
        max_seq_len: 8,
        ..ModelConfig::gpt3_tiny()
    }
}

/// One target strategy's measurements.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Target label, e.g. `tp2_pp2_dp1`.
    pub target: String,
    /// Target TP degree (the reshard axis the ranged path slices on).
    pub tp: usize,
    /// Wall seconds loading every target rank with ranged reads.
    pub ranged_secs: f64,
    /// Wall seconds loading every target rank with whole-file reads.
    pub full_secs: f64,
    /// Ranged path: bytes fetched from disk (block-aligned + CRC table).
    pub ranged_bytes_read: u64,
    /// Ranged path: exact bytes the ranks' shards needed.
    pub ranged_bytes_needed: u64,
    /// Full path: bytes read (whole atom files).
    pub full_bytes_read: u64,
    /// Payload bytes of the universal tree (three fp32 states per element).
    pub tree_bytes: u64,
    /// Ranged path: atom-cache hits across the session.
    pub cache_hits: u64,
    /// Ranged path: atom-cache misses across the session.
    pub cache_misses: u64,
}

impl ScaleRow {
    /// Read amplification of the ranged path (1.0 = reads exactly what is
    /// needed; the CI gate asserts ≤ 1.15).
    pub fn amplification(&self) -> f64 {
        self.ranged_bytes_read as f64 / self.ranged_bytes_needed.max(1) as f64
    }

    /// Ranged-path speedup over whole-file reads.
    pub fn speedup(&self) -> f64 {
        self.full_secs / self.ranged_secs.max(1e-12)
    }
}

/// Fig. 13 result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Per-target measurements.
    pub rows: Vec<ScaleRow>,
}

impl Fig13Result {
    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig. 13: universal load, ranged reads + atom cache vs whole-file reads\n",
        );
        out.push_str(&format!(
            "{:<14} {:>11} {:>11} {:>8} {:>12} {:>12} {:>12} {:>7} {:>6} {:>6}\n",
            "target",
            "ranged (s)",
            "full (s)",
            "speedup",
            "read B",
            "needed B",
            "full read B",
            "ampl.",
            "hits",
            "miss"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>11.4} {:>11.4} {:>7.2}x {:>12} {:>12} {:>12} {:>7.3} {:>6} {:>6}\n",
                r.target,
                r.ranged_secs,
                r.full_secs,
                r.speedup(),
                r.ranged_bytes_read,
                r.ranged_bytes_needed,
                r.full_bytes_read,
                r.amplification(),
                r.cache_hits,
                r.cache_misses,
            ));
        }
        out.push_str("(ranged path reads only the block-aligned ranges each shard touches;\n");
        out.push_str(" DP replicas of a (tp, pp) slice share one session atom cache)\n");
        out
    }

    /// Re-express the table in the `ucp-metrics-v1` schema shared with
    /// `ucp --metrics-out`, so CI consumes one artifact format.
    pub fn to_report(&self) -> Report {
        let mut report = Report {
            label: "load_scaling".into(),
            ..Report::default()
        };
        let span = |path: String, secs: f64| SpanStat {
            path,
            count: 1,
            total_secs: secs,
            min_secs: secs,
            max_secs: secs,
        };
        for r in &self.rows {
            report
                .spans
                .push(span(format!("load/{}/ranged", r.target), r.ranged_secs));
            report
                .spans
                .push(span(format!("load/{}/full", r.target), r.full_secs));
            for (name, value) in [
                ("tp", r.tp as u64),
                ("ranged_bytes_read", r.ranged_bytes_read),
                ("ranged_bytes_needed", r.ranged_bytes_needed),
                ("full_bytes_read", r.full_bytes_read),
                ("tree_bytes", r.tree_bytes),
                ("cache_hits", r.cache_hits),
                ("cache_misses", r.cache_misses),
            ] {
                report.counters.push(CounterStat {
                    name: format!("load/{}/{name}", r.target),
                    value,
                });
            }
        }
        report.spans.sort_by(|a, b| a.path.cmp(&b.path));
        report.counters.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }
}

fn target_label(p: &ParallelConfig) -> String {
    format!("tp{}_pp{}_dp{}", p.tp, p.pp, p.dp)
}

/// Load every rank of `target` through one session, returning wall
/// seconds plus the session's telemetry counters.
fn timed_session_load(
    dir: &std::path::Path,
    step: u64,
    target: &ParallelConfig,
    ranged: bool,
) -> (f64, Report) {
    let rec = ucp_telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let opts = LoadOptions {
        workers: 2,
        device: Device::with_mibps(MIBPS),
        ranged,
    };
    let t0 = std::time::Instant::now();
    let session = LoadSession::open(dir, step, opts).expect("open universal checkpoint");
    for rank in 0..target.world_size() {
        session
            .load_rank(target, rank, DEFAULT_ALIGNMENT)
            .expect("load rank");
    }
    let secs = t0.elapsed().as_secs_f64();
    let report = rec.report("load_scaling");
    rec.set_enabled(false);
    (secs, report)
}

/// Fig. 13: train a TP2×PP2 source, convert, then load every rank of each
/// reconfiguration target with ranged and whole-file reads.
pub fn fig13(fast: bool) -> Fig13Result {
    let dir = scratch_dir("fig13");
    let source = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    let cfg = TrainConfig::quick(source_model(), source, 21);
    train_run(&TrainPlan {
        config: cfg,
        until_iteration: SOURCE_ITERS,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(SOURCE_ITERS),
        checkpoint_dir: Some(dir.clone()),
    })
    .expect("fig13 source run");
    convert_checkpoint(&dir, SOURCE_ITERS, &ConvertOptions::default()).expect("fig13 conversion");
    let session = LoadSession::open(&dir, SOURCE_ITERS, LoadOptions::default()).expect("manifest");
    let atoms = &session.manifest().params;
    let tree_bytes = atoms
        .iter()
        .map(|a| 12 * a.shape.num_elements() as u64)
        .sum();

    let mut targets = vec![
        ParallelConfig::new(1, 1, 4, 1, ZeroStage::Zero1),
        ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        ParallelConfig::new(4, 1, 1, 1, ZeroStage::Zero1),
    ];
    if fast {
        // CI smoke keeps one DP-heavy and one TP-heavy target.
        targets.truncate(2);
    }

    let mut rows = Vec::new();
    for target in &targets {
        let counter = |rep: &Report, name: &str| rep.counter(name).unwrap_or(0);
        let (ranged_secs, ranged_rep) = timed_session_load(&dir, SOURCE_ITERS, target, true);
        let (full_secs, full_rep) = timed_session_load(&dir, SOURCE_ITERS, target, false);
        rows.push(ScaleRow {
            target: target_label(target),
            tp: target.tp,
            ranged_secs,
            full_secs,
            ranged_bytes_read: counter(&ranged_rep, "load/bytes_read"),
            ranged_bytes_needed: counter(&ranged_rep, "load/bytes_needed"),
            full_bytes_read: counter(&full_rep, "load/bytes_read"),
            tree_bytes,
            cache_hits: counter(&ranged_rep, "load/cache_hits"),
            cache_misses: counter(&ranged_rep, "load/cache_misses"),
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    Fig13Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_report_round_trips_through_the_shared_schema() {
        let result = Fig13Result {
            rows: vec![ScaleRow {
                target: "tp2_pp2_dp1".into(),
                tp: 2,
                ranged_secs: 0.5,
                full_secs: 1.5,
                ranged_bytes_read: 1100,
                ranged_bytes_needed: 1000,
                full_bytes_read: 4000,
                tree_bytes: 1080,
                cache_hits: 7,
                cache_misses: 3,
            }],
        };
        assert!((result.rows[0].amplification() - 1.1).abs() < 1e-9);
        assert!((result.rows[0].speedup() - 3.0).abs() < 1e-9);
        let report = result.to_report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.label, "load_scaling");
        assert_eq!(
            parsed.counter("load/tp2_pp2_dp1/ranged_bytes_read"),
            Some(1100)
        );
        assert_eq!(parsed.counter("load/tp2_pp2_dp1/cache_hits"), Some(7));
        let span = parsed.span("load/tp2_pp2_dp1/full").unwrap();
        assert!((span.total_secs - 1.5).abs() < 1e-6);
    }
}
