//! One benchmark process: set-up, warm-up pass with the expensive checks,
//! then timed passes for `--seconds` — through the production drivers for
//! the end-to-end metrics (`--trace 0`), or in plain/traced pairs plus
//! the probes for the per-layer metrics (`--trace 1`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter;
use crate::checks::{tree_diff, Checks};
use crate::metrics::{is_time_unit, E2E, LAYERS};
use crate::probes;
use crate::stats::{median, Stat};
use crate::sys::{self, Scratch};
use crate::trace::{self, ThreadSpans, Tracer, MAIN};
use crate::workloads::{Ctx, Mode, PassOut, Samples, Sizing, Workload};

/// Part of a traced run's `--seconds` kept back for the probes.
const PROBE_RESERVE: Duration = Duration::from_secs(4);
/// Saves the save probe makes (the first is counted, the rest timed).
const PROBE_SAVES: usize = 4;

/// Per-layer samples that are end-to-end readings of one workload: taken
/// from the plain pass of a pair, never from the traced one.
const FROM_PLAIN_PASS: [&str; 3] = [
    "trainer.recover_peer_ready_ms",
    "trainer.recover_disk_ready_ms",
    "trainer.lost_steps",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Feeds `TrainConfig.seed`.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// One pass at 4 steps (self-tests).
    pub smoke: bool,
    /// Scratch root override.
    pub scratch: Option<PathBuf>,
    /// Where to write the Chrome trace of a traced run.
    pub trace_out: Option<PathBuf>,
    /// Test only: damage one atom before the warm-up checks.
    pub corrupt_atom: bool,
}

/// What the process measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed used.
    pub seed: u64,
    /// Per-layer (`true`) or end-to-end metrics.
    pub trace: bool,
    /// `available_parallelism`.
    pub nproc: usize,
    /// Filesystem type of the scratch root.
    pub scratch_fs: String,
    /// Timed passes (pairs, when tracing).
    pub passes: usize,
    /// Correctness tally.
    pub checks: Checks,
    /// Every metric of the mode, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, Stat)>,
}

fn merge(into: &mut Samples, from: Samples) {
    for (name, values) in from {
        into.entry(name).or_default().extend(values);
    }
}

/// Run the benchmark process described by `opts`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let t_start = Instant::now();
    let root = sys::choose_scratch_root(opts.scratch.as_deref(), sys::MIN_FREE_BYTES)?;
    let root = std::path::absolute(&root).map_err(|e| e.to_string())?;
    let scratch = Scratch::create(&root, opts.workload.name())?;
    let ctx = Ctx {
        scratch: &scratch,
        seed: opts.seed,
        sizing: if opts.smoke {
            Sizing::SMOKE
        } else {
            Sizing::FULL
        },
    };
    let mut checks = Checks::default();

    let (fixture, setup_out) = opts.workload.setup(&ctx)?;
    let warm = opts.workload.pass(
        &ctx,
        fixture.as_ref(),
        0,
        Mode {
            checks: Some(&mut checks),
            corrupt_atom: opts.corrupt_atom,
            ..Mode::default()
        },
    )?;
    let setup_s = t_start.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut report = Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        trace: opts.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch_fs: sys::fs_type(&root),
        passes: 0,
        checks: Checks::default(),
        metrics: Vec::new(),
    };
    let same_curves = |checks: &mut Checks, out: &PassOut, what: &str| {
        checks.check(out.losses == warm.losses, || {
            format!("{what}: loss curves differ from the warm-up pass")
        });
    };

    if !opts.trace {
        let mut e2e = setup_out.e2e;
        let t_meas = Instant::now();
        loop {
            report.passes += 1;
            let out = opts
                .workload
                .pass(&ctx, fixture.as_ref(), report.passes, Mode::default())?;
            same_curves(&mut checks, &out, "timed pass");
            merge(&mut e2e, out.e2e);
            if opts.smoke || t_meas.elapsed() >= budget {
                break;
            }
        }
        for def in E2E {
            let stat = match def.name {
                "setup_s" => Stat::single(def.unit, setup_s),
                name => Stat::median(def.unit, e2e.get(name).map_or(&[][..], Vec::as_slice)),
            };
            checks.check(
                stat.n > 0 && stat.value.is_finite() && stat.value > 0.0,
                || format!("{} has no positive reading", def.name),
            );
            report.metrics.push((def.name, stat));
        }
        report.checks = checks;
        return Ok(report);
    }

    // Traced run: plain/traced pairs of the same pass, so that overhead is
    // a ratio of neighbours and the traced loop is checked against the
    // production driver every time.
    let tracer = Tracer::new();
    let mut layer = setup_out.layer;
    let (mut plain_walls, mut overheads) = (Vec::new(), Vec::new());
    let t_meas = Instant::now();
    loop {
        let first = report.passes == 0;
        report.passes += 1;
        let n = report.passes * 2;
        let plain = opts.workload.pass(
            &ctx,
            fixture.as_ref(),
            n,
            Mode {
                digest_trees: first,
                ..Mode::default()
            },
        )?;
        tracer.set_pass(report.passes as u32);
        let traced = opts.workload.pass(
            &ctx,
            fixture.as_ref(),
            n + 1,
            Mode {
                tracer: Some(&tracer),
                digest_trees: first,
                ..Mode::default()
            },
        )?;
        same_curves(&mut checks, &plain, "plain pass");
        same_curves(&mut checks, &traced, "traced pass");
        for (a, b) in plain.trees.iter().zip(&traced.trees) {
            let diff = tree_diff(a, b);
            checks.check(diff.is_none(), || {
                format!(
                    "traced loop's tree differs from the driver's: {}",
                    diff.unwrap_or_default()
                )
            });
        }
        let wall = |out: &PassOut| out.e2e.get("wall_s").map_or(0.0, |v| median(v));
        plain_walls.push(wall(&plain));
        overheads.push(wall(&traced) / wall(&plain));
        let mut plain_layer = plain.layer;
        let mut traced_layer = traced.layer;
        for name in FROM_PLAIN_PASS {
            traced_layer.remove(name);
            if let Some((name, values)) = plain_layer.remove_entry(name) {
                layer.entry(name).or_default().extend(values);
            }
        }
        merge(&mut layer, traced_layer);
        if opts.smoke || t_meas.elapsed() + PROBE_RESERVE >= budget {
            break;
        }
    }
    let threads = tracer.take();

    let mut stats: BTreeMap<&'static str, Stat> = span_stats(&threads);
    stats.insert(
        "bench.trace_overhead_ratio",
        Stat::median("ratio", &overheads),
    );
    stats.insert(
        "bench.trace_coverage",
        Stat::single("ratio", trace::coverage(&threads)),
    );
    if opts.workload == Workload::DenseOverlapEvery1 {
        // What the program's own telemetry costs when switched on.
        adapter::set_telemetry(true);
        let on = opts
            .workload
            .pass(&ctx, fixture.as_ref(), 1, Mode::default());
        adapter::set_telemetry(false);
        let on = on?;
        let wall_on = on.e2e.get("wall_s").map_or(0.0, |v| median(v));
        stats.insert(
            "telemetry.enabled_overhead_ratio",
            Stat::single("ratio", wall_on / median(&plain_walls)),
        );
    }
    if let Some((driver, topo)) = opts.workload.save_shape() {
        let saves = if opts.smoke { 2 } else { PROBE_SAVES };
        let probe = adapter::probe_save(
            opts.workload.model(),
            topo,
            driver,
            opts.seed,
            saves,
            &scratch.sub("save_probe"),
        )?;
        if !probe.writer_busy_ms.is_empty() {
            stats.insert(
                "trainer.writer_busy_ms_p50",
                Stat::median("ms", &probe.writer_busy_ms),
            );
        }
        stats.insert(
            "storage.commit_points_per_save",
            Stat::single("count", probe.commit_points as f64),
        );
    }
    stats.extend(probes::run_all(&scratch, opts.workload.model())?);
    stats.insert("bench.peak_rss_mb", Stat::single("MiB", sys::vm_hwm_mib()));

    for def in LAYERS {
        let stat = stats
            .remove(def.name)
            .or_else(|| layer.get(def.name).map(|v| Stat::median(def.unit, v)))
            .unwrap_or_else(|| {
                // Never called by this workload's script. A time reads as
                // an empty bracket, not as a constant the driver refuses.
                let value = if is_time_unit(def.unit) {
                    let ns = trace::empty_bracket_ns();
                    match def.unit {
                        "s" => ns / 1e9,
                        "ms" => ns / 1e6,
                        "us" => ns / 1e3,
                        _ => ns,
                    }
                } else {
                    0.0
                };
                Stat::absent(def.unit, value)
            });
        debug_assert_eq!(stat.unit, def.unit, "{}", def.name);
        report.metrics.push((def.name, stat));
    }
    if let Some(path) = &opts.trace_out {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, trace::chrome_json(&threads))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    report.checks = checks;
    Ok(report)
}

/// Per-layer metrics that come straight from spans: `(metric, unit, span,
/// percentile)`. Times are as rank 0 and the orchestrating thread saw
/// them, except the resumes, which every rank makes.
const SPAN_METRICS: &[(&str, &str, &str, f64)] = &[
    ("trainer.step_ms_p50", "ms", "trainer.step", 50.0),
    ("trainer.step_ms_p90", "ms", "trainer.step", 90.0),
    ("trainer.sync_save_ms_p50", "ms", "trainer.sync_save", 50.0),
    (
        "trainer.pool_acquire_ms_p50",
        "ms",
        "trainer.pool_acquire",
        50.0,
    ),
    ("trainer.snapshot_ms_p50", "ms", "trainer.snapshot", 50.0),
    (
        "trainer.persist_wait_ms_p50",
        "ms",
        "trainer.persist_wait",
        50.0,
    ),
    ("trainer.drain_ms_p50", "ms", "trainer.drain", 50.0),
    ("trainer.publish_ms_p50", "ms", "trainer.publish", 50.0),
    ("trainer.final_drain_ms", "ms", "trainer.final_drain", 50.0),
    (
        "trainer.save_stall_ms_p50",
        "ms",
        "trainer.save_boundary",
        50.0,
    ),
    (
        "trainer.save_stall_ms_p90",
        "ms",
        "trainer.save_boundary",
        90.0,
    ),
    (
        "trainer.hot_replicate_ms_p50",
        "ms",
        "trainer.hot_replicate",
        50.0,
    ),
    ("trainer.hot_recover_ms", "ms", "trainer.hot_recover", 50.0),
    (
        "trainer.resume_native_ms",
        "ms",
        "trainer.resume_native",
        50.0,
    ),
    (
        "trainer.resume_universal_ms",
        "ms",
        "trainer.resume_universal",
        50.0,
    ),
    ("core.convert_s", "s", "core.convert", 50.0),
    ("core.session_open_ms", "ms", "core.session_open", 50.0),
    ("core.load_plan_us_p50", "us", "core.load_plan", 50.0),
    ("core.load_rank_ms_p50", "ms", "core.load_rank", 50.0),
];

fn span_stats(threads: &[ThreadSpans]) -> BTreeMap<&'static str, Stat> {
    let lead = trace::tabulate(threads, |t| t.rank == 0 || t.rank == MAIN);
    let all = trace::tabulate(threads, |_| true);
    let mut out = BTreeMap::new();
    for &(metric, unit, span, p) in SPAN_METRICS {
        let table = if span.starts_with("trainer.resume_") {
            &all
        } else {
            &lead
        };
        let Some(ms) = table.dur_ms.get(span).filter(|v| !v.is_empty()) else {
            continue;
        };
        let per_ms = match unit {
            "us" => 1e3,
            "s" => 1e-3,
            _ => 1.0,
        };
        let scaled: Vec<f64> = ms.iter().map(|m| m * per_ms).collect();
        out.insert(metric, Stat::percentile(unit, &scaled, p));
    }
    out
}
