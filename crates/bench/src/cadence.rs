//! Checkpoint-cadence sweep: what does `--save-every 1` actually cost?
//!
//! Runs short overlapped training runs at save cadences {1, 2, 4, 8} over
//! a dense model and an MoE model, and measures the quantities the
//! per-iteration pipeline is built to keep flat:
//!
//! * **blocking stall per save** — the `save/snapshot` + `save/drain` +
//!   `save/publish` spans, i.e. the time training actually stops at a
//!   checkpoint boundary. With persistent meshes, carried assemblers, and
//!   the bounded snapshot pool this must not grow as the cadence tightens.
//! * **exchange bytes per save** — the dirty-filtered all-to-all volume
//!   (`save/exchange_bytes`). Dense models re-exchange everything; MoE
//!   models route only top-k experts per step, so frozen experts drop out
//!   and the steady-state per-save volume collapses.
//! * **written atom bytes per save** — what the stage assemblers staged
//!   fresh (`save/universal_bytes`); the rest of the tree is hard links. An
//!   expert weight is stored as one sub-atom per expert, so the MoE volume
//!   follows the exchange volume down instead of staying a full tree.
//!
//! `ci/check_save_stall.py --cadence` gates all three on the emitted
//! `BENCH_cadence.json` (shared `ucp-metrics-v1` schema).

use ucp_model::ModelConfig;
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_telemetry::{CounterStat, Report, SpanStat};
use ucp_trainer::{train_run_overlapped, ResumeMode, TrainConfig, TrainPlan};

use crate::report::scratch_dir;

/// Iterations per run; every cadence divides it, so a run at cadence K
/// takes exactly `ITERS / K` checkpoints and always saves at the end.
pub const ITERS: u64 = 8;

/// Spans on the training critical path at a save boundary. Mirrors
/// `BLOCKING_SPANS` in `ci/check_save_stall.py`; assembly and atom I/O run
/// on the background writers and are deliberately absent.
const BLOCKING_SPANS: [&str; 3] = ["save/snapshot", "save/drain", "save/publish"];

/// One (model, cadence) cell of the sweep.
#[derive(Debug, Clone)]
pub struct CadenceRow {
    /// Model label (`dense` or `moe`).
    pub model: &'static str,
    /// Save cadence: checkpoint every K iterations.
    pub every: u64,
    /// Checkpoints taken (`ITERS / every`).
    pub saves: u64,
    /// Total seconds training blocked across all saves (blocking spans).
    pub blocking_secs: f64,
    /// Dirty-filtered all-to-all volume across all saves (bytes).
    pub exchange_bytes: u64,
    /// Atom bytes written fresh across all saves (the rest is hard links).
    pub universal_bytes: u64,
    /// Universal atoms written fresh across all saves.
    pub atoms_written: u64,
    /// Universal atoms hard-linked clean from the prior step.
    pub atoms_skipped: u64,
    /// Saves that reused the persistent mesh instead of building one.
    pub mesh_reuse: u64,
}

impl CadenceRow {
    /// Seconds training blocked per checkpoint.
    pub fn blocking_per_save(&self) -> f64 {
        self.blocking_secs / self.saves.max(1) as f64
    }

    /// Exchange bytes per checkpoint.
    pub fn bytes_per_save(&self) -> u64 {
        self.exchange_bytes / self.saves.max(1)
    }

    /// Atom bytes written per checkpoint.
    pub fn written_per_save(&self) -> u64 {
        self.universal_bytes / self.saves.max(1)
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct CadenceResult {
    /// Iterations each run trained for.
    pub iters: u64,
    /// One row per (model, cadence) cell.
    pub rows: Vec<CadenceRow>,
}

impl CadenceResult {
    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Checkpoint cadence sweep: per-save cost vs --save-every ({} iters/run)\n",
            self.iters
        );
        out.push_str(&format!(
            "{:<7} {:>6} {:>6} {:>14} {:>14} {:>14} {:>12} {:>14} {:>10}\n",
            "model",
            "every",
            "saves",
            "block/save(s)",
            "bytes/save",
            "written/save",
            "mesh reuse",
            "atoms w/s",
            "skipped%"
        ));
        for r in &self.rows {
            let atoms = r.atoms_written + r.atoms_skipped;
            let skipped_pct = if atoms == 0 {
                0.0
            } else {
                100.0 * r.atoms_skipped as f64 / atoms as f64
            };
            out.push_str(&format!(
                "{:<7} {:>6} {:>6} {:>14.6} {:>14} {:>14} {:>12} {:>14} {:>9.1}%\n",
                r.model,
                r.every,
                r.saves,
                r.blocking_per_save(),
                r.bytes_per_save(),
                r.written_per_save(),
                r.mesh_reuse,
                format!("{}/{}", r.atoms_written, r.atoms_skipped),
                skipped_pct,
            ));
        }
        out.push_str(
            "(per-save blocking must stay flat as cadence tightens; MoE steady-state \
             bytes/save and written/save must collapse as frozen experts drop out of \
             the exchange and their sub-atoms are hard-linked; atoms count sub-atoms)\n",
        );
        out
    }

    /// Re-express the sweep in the `ucp-metrics-v1` schema shared with
    /// `ucp --metrics-out`, so CI consumes one artifact format. Span
    /// `cadence/<model>/every<K>/blocking` carries the run's total
    /// blocking seconds with `count` = saves taken; the per-cell counters
    /// carry the raw save-path volumes.
    pub fn to_report(&self) -> Report {
        let mut report = Report {
            label: "cadence".into(),
            ..Report::default()
        };
        report.counters.push(CounterStat {
            name: "cadence/iters".into(),
            value: self.iters,
        });
        for r in &self.rows {
            let key = format!("cadence/{}/every{}", r.model, r.every);
            report.spans.push(SpanStat {
                path: format!("{key}/blocking"),
                count: r.saves,
                total_secs: r.blocking_secs,
                min_secs: r.blocking_per_save(),
                max_secs: r.blocking_per_save(),
            });
            for (name, value) in [
                ("saves", r.saves),
                ("exchange_bytes", r.exchange_bytes),
                ("universal_bytes", r.universal_bytes),
                ("atoms_written", r.atoms_written),
                ("atoms_skipped", r.atoms_skipped),
                ("mesh_reuse", r.mesh_reuse),
            ] {
                report.counters.push(CounterStat {
                    name: format!("{key}/{name}"),
                    value,
                });
            }
        }
        report.spans.sort_by(|a, b| a.path.cmp(&b.path));
        report.counters.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }
}

/// The MoE cell's model: `moe_tiny` widened to 32 experts with top-1
/// routing and a short sequence. The stock test config routes 256 tokens
/// top-2 over 8 experts, so every expert is hit every step and nothing is
/// ever clean; production MoE routes a small top-k over many experts,
/// leaving most experts' gradients exactly zero each step — the regime
/// the dirty filter exploits.
fn moe_sparse() -> ModelConfig {
    let mut cfg = ModelConfig::moe_tiny();
    cfg.num_experts = 32;
    cfg.top_k = 1;
    cfg.max_seq_len = 4;
    cfg
}

/// One overlapped run at the given cadence, measured through the global
/// recorder (reset per run so cells don't bleed into each other).
fn run_cell(label: &'static str, model: &ModelConfig, every: u64) -> CadenceRow {
    let parallel = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
    let dir = scratch_dir(&format!("cadence_{label}_{every}"));
    let mut config = TrainConfig::quick(model.clone(), parallel, 29);
    if label == "moe" {
        // Few tokens per step: 2 samples x 4 tokens x top-1 touches at
        // most 8 of the 32 experts per DP replica.
        config.global_batch = 2;
        config.micro_batch = 1;
    }
    let rec = ucp_telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    train_run_overlapped(&TrainPlan {
        config,
        until_iteration: ITERS,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
    })
    .expect("cadence run");
    let report = rec.report("cadence_cell");
    rec.set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();

    let span_secs = |path: &str| report.span(path).map_or(0.0, |s| s.total_secs);
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    CadenceRow {
        model: label,
        every,
        saves: ITERS / every,
        // A cadence-8 run drains its only writer at shutdown, so
        // `save/drain` may be absent; missing blocking spans count as 0.
        blocking_secs: BLOCKING_SPANS.iter().map(|s| span_secs(s)).sum(),
        exchange_bytes: counter("save/exchange_bytes"),
        universal_bytes: counter("save/universal_bytes"),
        atoms_written: counter("save/atoms_written"),
        atoms_skipped: counter("save/atoms_skipped"),
        mesh_reuse: counter("save/mesh_reuse"),
    }
}

/// Run the sweep. `fast` keeps only the two cadence endpoints (1 and 8) —
/// the pair the CI gate compares — for quick local iteration.
pub fn run(fast: bool) -> CadenceResult {
    let cadences: &[u64] = if fast { &[1, 8] } else { &[1, 2, 4, 8] };
    let dense = ModelConfig::gpt3_tiny();
    let moe = moe_sparse();
    let mut rows = Vec::new();
    for (label, model) in [("dense", &dense), ("moe", &moe)] {
        for &every in cadences {
            rows.push(run_cell(label, model, every));
        }
    }
    CadenceResult { iters: ITERS, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CadenceResult {
        CadenceResult {
            iters: 8,
            rows: vec![
                CadenceRow {
                    model: "moe",
                    every: 1,
                    saves: 8,
                    blocking_secs: 0.08,
                    exchange_bytes: 4000,
                    universal_bytes: 6000,
                    atoms_written: 70,
                    atoms_skipped: 10,
                    mesh_reuse: 7,
                },
                CadenceRow {
                    model: "moe",
                    every: 8,
                    saves: 1,
                    blocking_secs: 0.01,
                    exchange_bytes: 1000,
                    universal_bytes: 2000,
                    atoms_written: 10,
                    atoms_skipped: 0,
                    mesh_reuse: 0,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_the_shared_schema() {
        let report = sample().to_report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.label, "cadence");
        assert_eq!(parsed.counter("cadence/iters"), Some(8));
        assert_eq!(parsed.counter("cadence/moe/every1/saves"), Some(8));
        assert_eq!(
            parsed.counter("cadence/moe/every1/exchange_bytes"),
            Some(4000)
        );
        assert_eq!(parsed.counter("cadence/moe/every8/mesh_reuse"), Some(0));
        let span = parsed.span("cadence/moe/every1/blocking").unwrap();
        assert_eq!(span.count, 8);
        assert!((span.total_secs - 0.08).abs() < 1e-9);
    }

    /// What `ci/check_save_stall.py --cadence` reads, from a real `--fast`
    /// sweep: per (model, cadence) cell the blocking span and the counters
    /// its table and assertions index, for both models at both endpoints.
    #[test]
    fn fast_sweep_reports_every_cell_the_gate_reads() {
        let report = run(true).to_report();
        for model in ["dense", "moe"] {
            for every in [1, ITERS] {
                let key = format!("cadence/{model}/every{every}");
                let span = report
                    .span(&format!("{key}/blocking"))
                    .unwrap_or_else(|| panic!("no {key}/blocking span"));
                assert_eq!(span.count, ITERS / every, "{key}");
                assert_eq!(report.counter(&format!("{key}/saves")), Some(ITERS / every));
                for name in ["exchange_bytes", "universal_bytes"] {
                    let bytes = report.counter(&format!("{key}/{name}"));
                    assert!(bytes.is_some_and(|b| b > 0), "{key}/{name}: {bytes:?}");
                }
                for name in ["mesh_reuse", "atoms_skipped"] {
                    assert!(report.counter(&format!("{key}/{name}")).is_some(), "{key}");
                }
            }
        }
    }

    #[test]
    fn per_save_normalization_divides_by_saves() {
        let result = sample();
        let every1 = &result.rows[0];
        assert!((every1.blocking_per_save() - 0.01).abs() < 1e-9);
        assert_eq!(every1.bytes_per_save(), 500);
        assert_eq!(every1.written_per_save(), 750);
        let render = result.render();
        assert!(render.contains("moe"), "render lists the model:\n{render}");
        assert!(render.contains("every"), "render has the header:\n{render}");
    }
}
