//! The five workload scripts. One function runs a pass either through the
//! production drivers (end-to-end numbers) or through the bench-owned
//! traced loops (per-layer numbers); the script — which calls, in which
//! order, on which trees — is the same code either way.
//!
//! Sizes are chosen for two cores and the driver's time cap: a pass takes
//! 2–7 s, so a 10 s run holds two to five timed passes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, Driver, KillOut, KillSpec, Model, Resume, RunOut, Session, Topo, TrainSpec,
};
use crate::checks::{fresh_and_linked, losses_bitwise_equal, tree_diff, tree_digest, Checks};
use crate::sys::{proc_io, Scratch};
use crate::trace::{ThreadTrace, Tracer, MAIN};

/// Bytes of one native save per parameter: fp32 master + two fp32 Adam
/// moments + the bf16 model copy.
const NATIVE_BYTES_PER_PARAM: u64 = 14;
/// Payload bytes of a universal tree per parameter: three fp32 states.
const UNIVERSAL_BYTES_PER_PARAM: u64 = 12;

/// Source layout of the save-and-reshard workloads.
const TP2: Topo = Topo::new(2, 1, 1);
/// Their target layout (and the kill workload's source).
const DP2: Topo = Topo::new(1, 1, 2);
/// Fan-out targets: DP-only, TP×PP split, wide TP×DP, wide ZeRO-3.
pub const FANOUT_TARGETS: [Topo; 4] = [
    DP2,
    Topo::new(2, 2, 1),
    Topo::new(4, 1, 2),
    Topo {
        tp: 1,
        pp: 1,
        dp: 8,
        zero3: true,
    },
];

/// How much work a pass does.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Steps of the dense saving runs.
    pub dense_steps: u64,
    /// Steps of the MoE saving run.
    pub moe_steps: u64,
    /// Save cadence of the sync and kill workloads.
    pub sync_every: u64,
    /// Steps the resumed run trains past the checkpoint.
    pub resume_steps: u64,
    /// Steps of a supervised run, and the step at which rank 1 panics.
    pub kill_steps: u64,
    /// See `kill_steps`.
    pub kill_at: u64,
    /// Steps of the fan-out fixture's training run, and how many times
    /// set-up builds it (each build is one sample of the save-side
    /// metrics that workload reports).
    pub fixture_steps: u64,
    /// See `fixture_steps`.
    pub fixture_builds: usize,
    /// Full sweeps over the four targets per fan-out pass.
    pub fanout_sweeps: usize,
}

impl Sizing {
    /// The benchmark proper.
    pub const FULL: Sizing = Sizing {
        dense_steps: 8,
        moe_steps: 12,
        sync_every: 2,
        resume_steps: 2,
        kill_steps: 8,
        kill_at: 5,
        fixture_steps: 4,
        fixture_builds: 3,
        fanout_sweeps: 5,
    };

    /// `--smoke`: the same scripts at 4 steps, for the self-tests.
    pub const SMOKE: Sizing = Sizing {
        dense_steps: 4,
        moe_steps: 4,
        sync_every: 2,
        resume_steps: 1,
        kill_steps: 4,
        kill_at: 3,
        fixture_steps: 2,
        fixture_builds: 1,
        fanout_sweeps: 1,
    };
}

/// Samples keyed by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(map: &mut Samples, name: &'static str, value: f64) {
    map.entry(name).or_default().push(value);
}

/// What one pass (or the set-up) measured.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    /// End-to-end samples by metric name.
    pub e2e: Samples,
    /// Per-layer counts and one-shot timings taken at script boundaries.
    pub layer: Samples,
    /// Every loss curve the script produced, in script order.
    pub losses: Vec<Vec<(u64, f64)>>,
    /// Digest of every tree the script wrote (only when asked for).
    pub trees: Vec<BTreeMap<String, (u64, u64)>>,
}

/// Everything a pass needs besides its script.
pub struct Ctx<'a> {
    /// Where trees go.
    pub scratch: &'a Scratch,
    /// Feeds `TrainConfig.seed` only.
    pub seed: u64,
    /// Work per pass.
    pub sizing: Sizing,
}

/// How a pass runs.
#[derive(Default)]
pub struct Mode<'a> {
    /// Run the bench-owned loops and record spans.
    pub tracer: Option<&'a Tracer>,
    /// Run the expensive correctness checks (warm-up pass).
    pub checks: Option<&'a mut Checks>,
    /// Digest the trees before deleting them.
    pub digest_trees: bool,
    /// Test only: flip a byte of one atom before the checks look at it.
    pub corrupt_atom: bool,
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dense_sync_reshard`
    DenseSyncReshard,
    /// `dense_overlap_every1`
    DenseOverlapEvery1,
    /// `moe_overlap_every1`
    MoeOverlapEvery1,
    /// `dense_kill_recover`
    DenseKillRecover,
    /// `reshard_load_fanout`
    ReshardLoadFanout,
}

/// The fan-out workload's fixture: one universal tree.
pub struct Fixture {
    dir: PathBuf,
    step: u64,
}

impl Workload {
    /// All five, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::DenseSyncReshard,
        Workload::DenseOverlapEvery1,
        Workload::MoeOverlapEvery1,
        Workload::DenseKillRecover,
        Workload::ReshardLoadFanout,
    ];

    /// Name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSyncReshard => "dense_sync_reshard",
            Workload::DenseOverlapEvery1 => "dense_overlap_every1",
            Workload::MoeOverlapEvery1 => "moe_overlap_every1",
            Workload::DenseKillRecover => "dense_kill_recover",
            Workload::ReshardLoadFanout => "reshard_load_fanout",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The model the workload trains or loads.
    pub fn model(self) -> Model {
        match self {
            Workload::MoeOverlapEvery1 => Model::Moe4m,
            _ => Model::Dense4m,
        }
    }

    /// Driver and source layout of the workload's saves (for the save
    /// probe); `None` where a pass saves nothing.
    pub fn save_shape(self) -> Option<(Driver, Topo)> {
        match self {
            Workload::DenseSyncReshard => Some((Driver::Sync, TP2)),
            Workload::DenseOverlapEvery1 | Workload::MoeOverlapEvery1 => {
                Some((Driver::Overlapped, TP2))
            }
            Workload::DenseKillRecover => Some((Driver::Sync, DP2)),
            Workload::ReshardLoadFanout => None,
        }
    }

    /// Build whatever must exist before the first pass. Only the fan-out
    /// workload has a fixture; building it is also where that workload
    /// takes its save-side end-to-end samples (a pass of it saves nothing).
    pub fn setup(self, ctx: &Ctx<'_>) -> Result<(Option<Fixture>, PassOut), String> {
        let mut out = PassOut::default();
        if self != Workload::ReshardLoadFanout {
            return Ok((None, out));
        }
        let z = ctx.sizing;
        let script = SaveReshard {
            model: Model::Dense4m,
            driver: Driver::Sync,
            steps: z.fixture_steps,
            every: z.sync_every.min(z.fixture_steps),
        };
        let dir = ctx.scratch.path().join("fixture");
        for _ in 0..z.fixture_builds {
            let dir = ctx.scratch.sub("fixture");
            let saved = script.train_and_save(ctx, &dir, None)?;
            saved.record(&mut out, &script);
            adapter::convert(&dir, script.steps)?;
        }
        Ok((
            Some(Fixture {
                dir,
                step: script.steps,
            }),
            out,
        ))
    }

    /// Run one pass. `n` numbers the pass's scratch subtree.
    pub fn pass(
        self,
        ctx: &Ctx<'_>,
        fixture: Option<&Fixture>,
        n: usize,
        mode: Mode<'_>,
    ) -> Result<PassOut, String> {
        let z = ctx.sizing;
        match self {
            Workload::DenseSyncReshard => SaveReshard {
                model: Model::Dense4m,
                driver: Driver::Sync,
                steps: z.dense_steps,
                every: z.sync_every,
            }
            .pass(ctx, n, mode),
            Workload::DenseOverlapEvery1 => SaveReshard {
                model: Model::Dense4m,
                driver: Driver::Overlapped,
                steps: z.dense_steps,
                every: 1,
            }
            .pass(ctx, n, mode),
            Workload::MoeOverlapEvery1 => SaveReshard {
                model: Model::Moe4m,
                driver: Driver::Overlapped,
                steps: z.moe_steps,
                every: 1,
            }
            .pass(ctx, n, mode),
            Workload::DenseKillRecover => kill_recover_pass(ctx, n, mode),
            Workload::ReshardLoadFanout => {
                let fixture = fixture.ok_or("fan-out pass needs its fixture")?;
                fanout_pass(ctx, fixture, mode)
            }
        }
    }
}

// ---- shared helpers ---------------------------------------------------------

fn run_train(spec: &TrainSpec, tracer: Option<&Tracer>) -> Result<RunOut, String> {
    match tracer {
        Some(t) => adapter::traced_train(spec, t),
        None => adapter::train(spec),
    }
}

/// Time `f`; inside a span when tracing.
fn timed<R>(main: Option<&ThreadTrace<'_>>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = match main {
        Some(m) => m.time(name, f),
        None => f(),
    };
    (r, t.elapsed().as_secs_f64())
}

/// Ranged load of every rank of `topo` must equal the whole-file load,
/// bit for bit.
fn check_ranged_equals_whole(
    checks: &mut Checks,
    dir: &Path,
    step: u64,
    topo: Topo,
) -> Result<(), String> {
    let ranged = Session::open(dir, step, 2, true)?;
    let whole = Session::open(dir, step, 2, false)?;
    for rank in 0..topo.world() {
        let a = ranged.load_rank(topo, rank)?.digest();
        let b = whole.load_rank(topo, rank)?.digest();
        checks.check(a == b, || {
            format!("ranged load of rank {rank} of {topo:?} differs from the whole-file load")
        });
    }
    Ok(())
}

/// `fsck` (no repair) clean, and `latest_universal ≤ latest`.
fn check_tree_health(checks: &mut Checks, dir: &Path, what: &str) -> Result<(), String> {
    let (clean, _) = adapter::fsck_clean(dir)?;
    checks.check(clean, || format!("{what}: fsck reports problems"));
    let (latest, universal) = adapter::markers(dir);
    checks.check(universal <= latest && latest.is_some(), || {
        format!("{what}: markers out of order (latest {latest:?}, universal {universal:?})")
    });
    Ok(())
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn flip_one_byte(path: &Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes)
}

// ---- save → reshard (three workloads) ---------------------------------------

/// Train under TP2·DP1 with saves, stop, and bring the state up under
/// TP1·DP2: the shape shared by the sync workload and both overlap ones.
struct SaveReshard {
    model: Model,
    driver: Driver,
    steps: u64,
    every: u64,
}

/// The training half of a save-and-reshard pass.
struct Saved {
    twin: RunOut,
    saving: RunOut,
    wchar: u64,
}

impl Saved {
    fn record(&self, out: &mut PassOut, script: &SaveReshard) {
        let saves = script.steps / script.every;
        push(
            &mut out.e2e,
            "train_steps_per_s",
            script.steps as f64 / self.saving.wall_secs,
        );
        push(
            &mut out.e2e,
            "ckpt_overhead_ratio",
            self.saving.wall_secs / self.twin.wall_secs,
        );
        push(
            &mut out.e2e,
            "write_amp",
            self.wchar as f64
                / (saves * NATIVE_BYTES_PER_PARAM * adapter::params(script.model)) as f64,
        );
    }
}

impl SaveReshard {
    fn spec(&self, ctx: &Ctx<'_>, dir: &Path) -> TrainSpec {
        TrainSpec {
            model: self.model,
            topo: TP2,
            seed: ctx.seed,
            until: self.steps,
            driver: self.driver,
            every: None,
            resume: Resume::Fresh,
            dir: dir.to_path_buf(),
        }
    }

    /// The no-save twin, then the identical plan with saves.
    fn train_and_save(
        &self,
        ctx: &Ctx<'_>,
        dir: &Path,
        tracer: Option<&Tracer>,
    ) -> Result<Saved, String> {
        let twin = run_train(&self.spec(ctx, dir), tracer)?;
        let (_, w0) = proc_io();
        let saving = run_train(
            &TrainSpec {
                every: Some(self.every),
                ..self.spec(ctx, dir)
            },
            tracer,
        )?;
        let (_, w1) = proc_io();
        Ok(Saved {
            twin,
            saving,
            wchar: w1 - w0,
        })
    }

    fn resume_spec(&self, ctx: &Ctx<'_>, dir: &Path) -> TrainSpec {
        TrainSpec {
            topo: DP2,
            until: self.steps + ctx.sizing.resume_steps,
            driver: Driver::Sync,
            resume: Resume::Universal(self.steps),
            ..self.spec(ctx, dir)
        }
    }

    fn pass(&self, ctx: &Ctx<'_>, n: usize, mode: Mode<'_>) -> Result<PassOut, String> {
        let dir = ctx.scratch.sub(&format!("pass{n}"));
        let main = mode.tracer.map(|t| t.thread(MAIN, "main"));
        let main = main.as_ref();
        let mut out = PassOut::default();
        let params = adapter::params(self.model);
        let t_pass = Instant::now();

        let saved = self.train_and_save(ctx, &dir, mode.tracer)?;
        saved.record(&mut out, self);

        // Training has stopped. Ready = every target rank holds state:
        // convert (sync saves leave no universal tree), open, load.
        let mut ready = 0.0;
        if self.driver == Driver::Sync {
            let (conv, secs) = timed(main, "core.convert", || adapter::convert(&dir, self.steps));
            let conv = conv?;
            ready += secs;
            push(&mut out.layer, "core.convert_extract_s", conv.extract_secs);
            push(&mut out.layer, "core.convert_union_s", conv.union_secs);
            push(
                &mut out.layer,
                "core.convert_mbps",
                conv.bytes_written as f64 / 1e6 / conv.wall_secs,
            );
        }
        let t_open = Instant::now();
        drop(Session::open(&dir, self.steps, 1, true)?);
        let open_secs = t_open.elapsed().as_secs_f64();
        let (r0, _) = proc_io();
        let resumed = run_train(&self.resume_spec(ctx, &dir), mode.tracer)?;
        let (r1, _) = proc_io();
        ready += open_secs + resumed.load_secs;
        let native = run_train(
            &TrainSpec {
                driver: Driver::Sync,
                resume: Resume::Native(self.steps),
                ..self.spec(ctx, &dir)
            },
            mode.tracer,
        )?;

        push(&mut out.e2e, "wall_s", t_pass.elapsed().as_secs_f64());
        push(&mut out.e2e, "reshard_ready_s", ready);
        push(
            &mut out.e2e,
            "reshard_vs_native_ratio",
            ready / native.load_secs,
        );
        push(
            &mut out.e2e,
            "read_amp",
            (r1 - r0) as f64 / (UNIVERSAL_BYTES_PER_PARAM * params) as f64,
        );

        if self.driver == Driver::Overlapped {
            // What each save wrote fresh vs. hard-linked from its
            // predecessor (the first save has no predecessor; skip it).
            for step in (2..=self.steps).filter(|s| s % self.every == 0) {
                let (fresh, linked) = fresh_and_linked(&adapter::universal_dir(&dir, step));
                push(&mut out.layer, "core.fresh_bytes_per_save", fresh as f64);
                push(&mut out.layer, "core.atoms_linked_per_save", linked as f64);
            }
        }
        let (fsck, secs) = timed(main, "core.fsck", || adapter::fsck_clean(&dir));
        let (clean, _) = fsck?;
        let tree_bytes = dir_bytes(&dir);
        push(
            &mut out.layer,
            "core.fsck_mbps",
            tree_bytes as f64 / 1e6 / secs,
        );

        if let Some(checks) = mode.checks {
            checks.check(clean, || "fsck reports problems".to_string());
            if mode.corrupt_atom {
                let atom =
                    adapter::first_atom_file(&dir, self.steps).ok_or("no atom file to corrupt")?;
                flip_one_byte(&atom).map_err(|e| e.to_string())?;
            }
            self.expensive_checks(ctx, &dir, &saved, &resumed, checks)?;
        }
        out.losses = vec![
            saved.twin.losses,
            saved.saving.losses,
            resumed.losses,
            native.losses,
        ];
        if mode.digest_trees {
            out.trees
                .push(tree_digest(&dir).map_err(|e| e.to_string())?);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(out)
    }

    fn expensive_checks(
        &self,
        ctx: &Ctx<'_>,
        dir: &Path,
        saved: &Saved,
        resumed: &RunOut,
        checks: &mut Checks,
    ) -> Result<(), String> {
        checks.check(
            losses_bitwise_equal(&saved.saving.losses, &saved.twin.losses),
            || "saving run's losses differ from the no-save twin's".to_string(),
        );
        let (latest, _) = adapter::markers(dir);
        checks.check(latest == Some(self.steps), || {
            format!("latest is {latest:?}, expected step {}", self.steps)
        });
        check_tree_health(checks, dir, "saved tree")?;
        match check_ranged_equals_whole(checks, dir, self.steps, DP2) {
            Ok(()) => {}
            // A damaged atom fails the load outright: that is a failed check,
            // not a benchmark error.
            Err(e) => checks.check(false, || format!("whole-file reference load failed: {e}")),
        }
        if self.driver == Driver::Overlapped {
            // Reference: the same native step, converted offline.
            let reference = ctx.scratch.sub("reference");
            copy_tree(
                &adapter::native_dir(dir, self.steps),
                &adapter::native_dir(&reference, self.steps),
            )
            .map_err(|e| e.to_string())?;
            adapter::convert(&reference, self.steps)?;
            let born = tree_digest(&adapter::universal_dir(dir, self.steps));
            let offline = tree_digest(&adapter::universal_dir(&reference, self.steps));
            let diff = tree_diff(
                &born.map_err(|e| e.to_string())?,
                &offline.map_err(|e| e.to_string())?,
            );
            checks.check(diff.is_none(), || {
                format!(
                    "born-universal atoms differ from offline convert: {}",
                    diff.unwrap_or_default()
                )
            });
            let expected = adapter::train(&self.resume_spec(ctx, &reference))?;
            checks.check(
                losses_bitwise_equal(&resumed.losses, &expected.losses),
                || "resumed losses differ from the offline-converted reference".to_string(),
            );
            let _ = std::fs::remove_dir_all(&reference);
        }
        Ok(())
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let (fresh, _) = fresh_and_linked(dir);
    fresh
}

// ---- kill → recover ---------------------------------------------------------

fn run_kill(
    spec: &KillSpec,
    tracer: Option<&Tracer>,
    layer: &mut Samples,
) -> Result<KillOut, String> {
    let Some(t) = tracer else {
        return adapter::kill_recover(spec);
    };
    let (out, shards) = adapter::traced_kill_recover(spec, t)?;
    if spec.kill.is_some() {
        push(layer, "trainer.detect_teardown_ms", out.detect_teardown_ms);
    }
    if spec.hot {
        push(
            layer,
            "trainer.hot_resident_mb",
            out.hot_resident_bytes as f64 / (1 << 20) as f64,
        );
    }
    if let Some(shards) = shards {
        let (assemble_ms, loads) = adapter::probe_memory_checkpoint(shards, spec.ladder)?;
        push(layer, "core.memory_assemble_ms", assemble_ms);
        for ms in loads {
            push(layer, "core.memory_load_rank_ms", ms);
        }
    }
    Ok(out)
}

fn kill_recover_pass(ctx: &Ctx<'_>, n: usize, mode: Mode<'_>) -> Result<PassOut, String> {
    let z = ctx.sizing;
    let root = ctx.scratch.sub(&format!("pass{n}"));
    let mut out = PassOut::default();
    let params = adapter::params(Model::Dense4m);
    let killed = |hot: bool, sub: &str| KillSpec {
        model: Model::Dense4m,
        topo: DP2,
        ladder: TP2,
        seed: ctx.seed,
        until: z.kill_steps,
        every: Some(z.sync_every),
        kill: Some((1, z.kill_at)),
        hot,
        dir: root.join(sub),
    };
    let t_pass = Instant::now();

    // Ideal run: same plan, no saves, nothing fails.
    let twin = run_kill(
        &KillSpec {
            every: None,
            kill: None,
            ..killed(false, "twin")
        },
        mode.tracer,
        &mut out.layer,
    )?;
    // Run P: the peer tier serves the recovery.
    let (_, w0) = proc_io();
    let p = run_kill(&killed(true, "p"), mode.tracer, &mut out.layer)?;
    let (r0, w1) = proc_io();
    // Run D: the disk tier does (convert on recovery + reshard load).
    let d_spec = killed(false, "d");
    let d = run_kill(&d_spec, mode.tracer, &mut out.layer)?;
    let (r1, _) = proc_io();
    let resume_step = z.kill_at / z.sync_every * z.sync_every;
    let native = run_train(
        &TrainSpec {
            model: Model::Dense4m,
            topo: DP2,
            seed: ctx.seed,
            until: resume_step,
            driver: Driver::Sync,
            every: None,
            resume: Resume::Native(resume_step),
            dir: d_spec.dir.clone(),
        },
        mode.tracer,
    )?;

    let peer_ready_ms = p.recovery_ms + p.resumed_load_secs * 1e3;
    let disk_ready_ms = d.recovery_ms + d.resumed_load_secs * 1e3;
    let ready = (peer_ready_ms + disk_ready_ms) / 1e3;
    let saves = z.kill_steps / z.sync_every;
    push(&mut out.e2e, "wall_s", t_pass.elapsed().as_secs_f64());
    push(
        &mut out.e2e,
        "train_steps_per_s",
        z.kill_steps as f64 / p.wall_secs,
    );
    push(
        &mut out.e2e,
        "ckpt_overhead_ratio",
        p.wall_secs / twin.wall_secs,
    );
    push(&mut out.e2e, "reshard_ready_s", ready);
    push(
        &mut out.e2e,
        "reshard_vs_native_ratio",
        ready / native.load_secs,
    );
    push(
        &mut out.e2e,
        "write_amp",
        (w1 - w0) as f64 / (saves * NATIVE_BYTES_PER_PARAM * params) as f64,
    );
    push(
        &mut out.e2e,
        "read_amp",
        (r1 - r0) as f64 / (UNIVERSAL_BYTES_PER_PARAM * params) as f64,
    );
    push(
        &mut out.layer,
        "trainer.recover_peer_ready_ms",
        peer_ready_ms,
    );
    push(
        &mut out.layer,
        "trainer.recover_disk_ready_ms",
        disk_ready_ms,
    );
    push(
        &mut out.layer,
        "trainer.lost_steps",
        (p.lost_steps + d.lost_steps) as f64,
    );

    if let Some(checks) = mode.checks {
        checks.check(p.source == "peer", || {
            format!(
                "run P recovered from {:?}, expected the peer tier",
                p.source
            )
        });
        checks.check(d.source == "disk", || {
            format!(
                "run D recovered from {:?}, expected the disk tier",
                d.source
            )
        });
        for (run, name) in [(&p, "P"), (&d, "D")] {
            checks.check(run.lost_steps <= z.sync_every, || {
                format!("run {name} lost {} steps", run.lost_steps)
            });
        }
        // Same step, same target layout: RAM and disk recoveries must
        // continue the same curve.
        checks.check(losses_bitwise_equal(&p.losses, &d.losses), || {
            "peer-recovered losses differ from disk-recovered".to_string()
        });
        check_tree_health(checks, &root.join("p"), "run P tree")?;
        check_tree_health(checks, &root.join("d"), "run D tree")?;
    }
    out.losses = vec![twin.losses, p.losses, d.losses, native.losses];
    if mode.digest_trees {
        for sub in ["p", "d"] {
            out.trees
                .push(tree_digest(&root.join(sub)).map_err(|e| e.to_string())?);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

// ---- load fan-out -----------------------------------------------------------

fn fanout_pass(ctx: &Ctx<'_>, fixture: &Fixture, mode: Mode<'_>) -> Result<PassOut, String> {
    let main = mode.tracer.map(|t| t.thread(MAIN, "main"));
    let main = main.as_ref();
    let mut out = PassOut::default();
    let payload = (UNIVERSAL_BYTES_PER_PARAM * adapter::params(Model::Dense4m)) as f64;
    let (dir, step) = (fixture.dir.as_path(), fixture.step);
    let t_pass = Instant::now();

    let native = run_train(
        &TrainSpec {
            model: Model::Dense4m,
            topo: TP2,
            seed: ctx.seed,
            until: step,
            driver: Driver::Sync,
            every: None,
            resume: Resume::Native(step),
            dir: dir.to_path_buf(),
        },
        mode.tracer,
    )?;
    let (mut delivered, mut load_secs) = (0u64, 0.0);
    for _ in 0..ctx.sizing.fanout_sweeps {
        let mut ready = 0.0;
        let (sweep_r0, _) = proc_io();
        for topo in FANOUT_TARGETS {
            let (r0, _) = proc_io();
            let t_target = Instant::now();
            // A fresh session per target: its cache is shared by the
            // target's DP replicas, not inherited from the last layout.
            let (session, _) = timed(main, "core.session_open", || {
                Session::open(dir, step, 2, true)
            });
            let session = session?;
            for rank in 0..topo.world() {
                if main.is_some() {
                    timed(main, "core.load_plan", || session.plan(topo, rank)).0?;
                }
                let (state, secs) = timed(main, "core.load_rank", || session.load_rank(topo, rank));
                delivered += state?.state_bytes();
                load_secs += secs;
            }
            ready += t_target.elapsed().as_secs_f64();
            let (r1, _) = proc_io();
            let amp = (r1 - r0) as f64 / payload;
            if topo == DP2 {
                push(&mut out.layer, "core.read_amp_dp_only", amp);
            } else if topo == FANOUT_TARGETS[1] {
                push(&mut out.layer, "core.read_amp_tp_split", amp);
            }
        }
        let (sweep_r1, _) = proc_io();
        push(&mut out.e2e, "reshard_ready_s", ready);
        push(
            &mut out.e2e,
            "reshard_vs_native_ratio",
            ready / native.load_secs,
        );
        push(
            &mut out.e2e,
            "read_amp",
            (sweep_r1 - sweep_r0) as f64 / payload,
        );
    }
    push(&mut out.e2e, "wall_s", t_pass.elapsed().as_secs_f64());
    push(
        &mut out.layer,
        "core.load_mbps",
        delivered as f64 / 1e6 / load_secs,
    );
    let (fsck, secs) = timed(main, "core.fsck", || adapter::fsck_clean(dir));
    let (clean, _) = fsck?;
    push(
        &mut out.layer,
        "core.fsck_mbps",
        dir_bytes(dir) as f64 / 1e6 / secs,
    );

    if let Some(checks) = mode.checks {
        checks.check(clean, || "fixture: fsck reports problems".to_string());
        check_tree_health(checks, dir, "fixture")?;
        for topo in FANOUT_TARGETS {
            check_ranged_equals_whole(checks, dir, step, topo)?;
        }
    }
    out.losses = vec![native.losses];
    Ok(out)
}
