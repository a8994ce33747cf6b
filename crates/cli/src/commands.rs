//! Command implementations.

use ucp_core::checkpoint::{load_model_states, load_optim_states};
use ucp_core::convert::{convert_to_universal, ConvertOptions};
use ucp_core::language::UcpSpec;
use ucp_core::load::{gen_ucp_metadata, read_atom, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_core::manifest::{AtomMeta, UcpManifest};
use ucp_model::ModelConfig;
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_storage::{layout, retention, Device};
use ucp_trainer::{
    supervise, train_run_overlapped, Persist, ResumeMode, SavePolicy, SupervisorOptions,
    TrainConfig, TrainPlan,
};

use serde::Serialize;

use crate::args::Parsed;
use crate::resolve_step;

fn require_dir(p: &Parsed) -> Result<std::path::PathBuf, String> {
    p.dir.clone().ok_or_else(|| "--dir is required".into())
}

/// Run subcommand `cmd` under one telemetry capture: both channels are
/// armed before the command and their artifacts written after it whether
/// it returned `Ok` or `Err` — a failed run is the one whose report is
/// needed. The recorder is armed for `--metrics-out` (and always for
/// `load`, which prints its read-amplification summary from the
/// counters), the tracer for `--trace-out` (and always for `ucp trace`'s
/// run mode, whose default output is `<dir>/trace.json`).
pub fn dispatch(cmd: &str, p: &Parsed) -> Result<(), String> {
    let run: fn(&Parsed) -> Result<(), String> = match cmd {
        "convert" => convert,
        "load" => load,
        "train" => train,
        "inspect" => inspect,
        "plan" => plan,
        "verify" => verify,
        "fsck" => fsck,
        "prune" => prune,
        "spec" => spec,
        "diff" => diff,
        "trace" => trace,
        "chaos" => chaos,
        "status" => crate::status::status,
        other => return Err(format!("unknown command '{other}'\n{}", crate::args::USAGE)),
    };
    let trace_out = match cmd {
        "trace" if p.trace_in.is_some() => None,
        "trace" => p
            .trace_out
            .clone()
            .or_else(|| p.dir.as_ref().map(|d| d.join("trace.json"))),
        _ => p.trace_out.clone(),
    };
    let rec = ucp_telemetry::global();
    let tracer = ucp_telemetry::trace::global();
    if p.metrics_out.is_some() || cmd == "load" {
        rec.reset();
        rec.set_enabled(true);
    }
    if trace_out.is_some() {
        tracer.start();
        ucp_telemetry::trace::register_thread(ucp_telemetry::trace::DRIVER_PID, "driver");
    }
    let result = run(p);
    rec.set_enabled(false);
    tracer.set_enabled(false);
    // Both files go through the staged-commit protocol (parent
    // directories created, write + rename atomic) so a crash or a
    // concurrent reader never observes torn JSON.
    let write = |path: &std::path::Path, text: String| {
        ucp_storage::commit::atomic_write(path, text.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    let traced = trace_out.as_deref().map_or(Ok(()), |path| {
        let session = tracer.take_session();
        write(path, session.to_chrome_json())?;
        println!(
            "trace written to {} ({} events, {} rank(s))",
            path.display(),
            session.event_count(),
            session.ranks().len()
        );
        if cmd == "trace" && (p.summary || p.json) {
            print_trace_summary(&session, p.json)?;
        }
        Ok(())
    });
    let measured = p.metrics_out.as_deref().map_or(Ok(()), |path| {
        write(path, rec.report(cmd).to_json())?;
        println!("metrics report written to {}", path.display());
        Ok(())
    });
    result.and(traced).and(measured)
}

fn target_parallel(p: &Parsed) -> Result<ParallelConfig, String> {
    Ok(ParallelConfig::new(
        p.tp.ok_or("--tp is required")?,
        p.pp.ok_or("--pp is required")?,
        p.dp.ok_or("--dp is required")?,
        p.sp.unwrap_or(1),
        ZeroStage::from_u8(p.zero.unwrap_or(1)).ok_or("--zero must be 0..=3")?,
    ))
}

fn model_preset(name: Option<&str>) -> Result<ModelConfig, String> {
    match name {
        Some("gpt3-tiny") => Ok(ModelConfig::gpt3_tiny()),
        Some("gpt3-tiny-padded") => Ok(ModelConfig::gpt3_tiny_padded_vocab()),
        Some("llama-tiny") => Ok(ModelConfig::llama_tiny()),
        Some("bloom-tiny") => Ok(ModelConfig::bloom_tiny()),
        Some("moe-tiny") => Ok(ModelConfig::moe_tiny()),
        Some(other) => Err(format!("unknown model preset '{other}'")),
        None => Err("--model is required".into()),
    }
}

/// `ucp convert`: native distributed checkpoint → universal checkpoint.
pub fn convert(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let step = resolve_step(&dir, p.step)?;
    let opts = ConvertOptions {
        workers: p.workers.unwrap_or(4),
        verify_replicas: !p.no_verify,
        spec_override: None,
    };
    println!(
        "converting {} step {step} (workers={}, verify={})",
        dir.display(),
        opts.workers,
        opts.verify_replicas
    );
    let (manifest, stats) = convert_to_universal(&dir, step, &opts).map_err(|e| e.to_string())?;
    println!(
        "done: {} atoms, {} bytes written, extract {:.3}s, union {:.3}s",
        stats.atoms_written, stats.bytes_written, stats.extract_secs, stats.union_secs
    );
    println!(
        "universal checkpoint at {} (source was {})",
        layout::universal_dir(&dir, step).display(),
        manifest.source_label
    );
    Ok(())
}

/// `ucp load`: execute the universal load for one rank (or every rank of
/// the target strategy) against the on-disk atoms, optionally through a
/// simulated fixed-bandwidth device (`--mibps`). Ranks load through one
/// shared session, so the default ranged path fetches each atom byte
/// range from disk once and serves repeats from the session atom cache;
/// `--no-ranged-load` falls back to whole-file reads.
pub fn load(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let step = resolve_step(&dir, p.step)?;
    let target = target_parallel(p)?;
    let device = match p.mibps {
        Some(m) => Device::with_mibps(m),
        None => Device::unlimited(),
    };
    let opts = LoadOptions {
        workers: p.workers.unwrap_or(4),
        device,
        ranged: !p.no_ranged_load,
    };
    let ranged = opts.ranged;
    let ranks: Vec<usize> = match p.rank {
        Some(r) if r >= target.world_size() => {
            return Err(format!(
                "rank {r} out of range for world size {}",
                target.world_size()
            ));
        }
        Some(r) => vec![r],
        None => (0..target.world_size()).collect(),
    };
    let session = LoadSession::open(&dir, step, opts).map_err(|e| e.to_string())?;
    let mut total_elems = 0usize;
    for &rank in &ranks {
        let state = session
            .load_rank(&target, rank, DEFAULT_ALIGNMENT)
            .map_err(|e| e.to_string())?;
        total_elems += state.fp32.len();
        println!(
            "rank {rank}: {} optimizer elements, {} model params",
            state.fp32.len(),
            state.model_params.len()
        );
    }
    println!(
        "loaded {} rank(s) of {} — {total_elems} flat elements total ({} reads)",
        ranks.len(),
        target.label(),
        if ranged { "ranged" } else { "full-file" }
    );
    // The summary comes from the telemetry counters `dispatch` arms.
    let report = ucp_telemetry::global().report("load");
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let read = counter("load/bytes_read");
    let needed = counter("load/bytes_needed");
    if needed > 0 {
        println!(
            "bytes read {read} / needed {needed} ({:.3}x amplification); atom cache: {} hit(s), {} miss(es), {} bytes served from cache",
            read as f64 / needed as f64,
            counter("load/cache_hits"),
            counter("load/cache_misses"),
            counter("load/cache_hit_bytes"),
        );
    }
    Ok(())
}

/// The save policy `--overlapped` / `--no-universal-save` select.
fn save_policy(p: &Parsed) -> SavePolicy {
    if p.overlapped {
        SavePolicy {
            persist: Persist::Overlapped,
            universal: !p.no_universal_save,
        }
    } else {
        SavePolicy::default()
    }
}

/// `ucp train`: run the training simulator with periodic native
/// checkpointing — the quickest way to produce a native tree for
/// `convert` / `load` to chew on.
pub fn train(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let target = target_parallel(p)?;
    let model = model_preset(p.model.as_deref())?;
    model.validate(target.tp)?;
    let config = TrainConfig::quick(model, target, p.seed.unwrap_or(42));
    let iters = p.iters.unwrap_or(4);
    // Reject rather than silently clamp: a user writing `--save-every 0`
    // either wants no checkpoints (omit the flag semantics differ) or made
    // a typo for per-iteration cadence — guessing either way is worse than
    // asking.
    if p.save_every == Some(0) {
        return Err(
            "--save-every must be >= 1 (use 1 for per-iteration checkpoints; to train without \
             checkpointing, drop --save-every and set --iters as needed)"
                .to_string(),
        );
    }
    // Same convention for --hot-replicas: 0 (a hot tier with no replicas)
    // and a factor that reaches the world size are rejected, not clamped.
    let save = save_policy(p);
    save.validate(p.hot_replicas, target.world_size())?;
    let plan = TrainPlan {
        config,
        until_iteration: iters,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(p.save_every.unwrap_or(iters).max(1)),
        checkpoint_dir: Some(dir.clone()),
    };
    // Every run goes through the restart supervisor: the hot tier's
    // recovery lives there, and faults only fire if UCP_RANK_FAULTS arms
    // them.
    let opts = SupervisorOptions {
        hot_replicas: p.hot_replicas,
        save,
        ..SupervisorOptions::default()
    };
    let result = supervise(&plan, &opts)
        .map(|mut rep| rep.segments.pop().expect("supervise returns >=1 segment"))
        .map_err(|e| format!("{e:?}"))?;
    for (iter, loss) in &result.losses {
        println!("iter {iter}: loss {loss:.6}");
    }
    println!(
        "trained {iters} iteration(s); checkpoint save {:.3}s; tree at {}",
        result.save_secs,
        dir.display()
    );
    if save.universal {
        match layout::read_latest_universal(&dir) {
            Some(step) => println!(
                "universal checkpoint published at save time: step {step} (resume under any \
                 strategy without `ucp convert`)"
            ),
            None => println!("no universal checkpoint published (no save boundary reached)"),
        }
    }
    Ok(())
}

/// `ucp inspect`: summarize a checkpoint tree.
pub fn inspect(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let step = resolve_step(&dir, p.step)?;
    let step_dir = layout::step_dir(&dir, step);
    if step_dir.is_dir() {
        let (common, params) = load_model_states(&step_dir, 0, 0).map_err(|e| e.to_string())?;
        println!("native checkpoint {}", step_dir.display());
        println!("  iteration       {}", common.iteration);
        println!("  strategy        {}", common.parallel.label());
        println!(
            "  model           {} ({} layers, hidden {}, vocab {})",
            common.model.family,
            common.model.num_layers,
            common.model.hidden_size,
            common.model.vocab_size
        );
        println!("  total bytes     {}", layout::dir_size_bytes(&step_dir));
        println!("  (tp=0, pp=0) model shards: {}", params.len());
        if let Ok((_, shard)) = load_optim_states(&step_dir, 0, 0, 0) {
            let straddlers = shard
                .layout
                .slots
                .iter()
                .filter(|s| shard.layout.fragments_of(s).len() > 1)
                .count();
            println!(
                "  flat layout     {} slots, {} elements/chunk, alignment {}, {} straddling params",
                shard.layout.slots.len(),
                shard.layout.chunk,
                shard.layout.alignment,
                straddlers
            );
        }
    } else {
        println!("no native checkpoint at {}", step_dir.display());
    }

    let universal = layout::universal_dir(&dir, step);
    if universal.is_dir() {
        let manifest = UcpManifest::load(&universal).map_err(|e| e.to_string())?;
        println!("universal checkpoint {}", universal.display());
        println!("  source          {}", manifest.source_label);
        println!("  atoms           {}", manifest.params.len());
        // A split parameter is one atom stored as sub-atoms, not many.
        let split: Vec<_> = manifest.params.iter().filter(|a| a.parts() > 1).collect();
        if !split.is_empty() {
            let parts: usize = split.iter().map(|a| a.parts()).sum();
            println!(
                "  split atoms     {} (stored as {parts} sub-atoms)",
                split.len()
            );
            for a in split {
                println!("    {:<50} {} in {} parts", a.name, a.shape, a.parts());
            }
        }
        println!("  total bytes     {}", layout::dir_size_bytes(&universal));
        let mut by_pattern: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for a in &manifest.params {
            *by_pattern.entry(a.pattern.paper_name()).or_default() += 1;
        }
        for (pattern, count) in by_pattern {
            println!("    {pattern:<20} {count}");
        }
    } else {
        println!(
            "no universal checkpoint at {} (run `ucp convert`)",
            universal.display()
        );
    }
    Ok(())
}

/// `ucp plan`: print the GenUcpMetadata plan for one target rank.
pub fn plan(p: &Parsed) -> Result<(), String> {
    print!("{}", plan_report(p)?);
    Ok(())
}

/// The text `ucp plan` prints.
pub fn plan_report(p: &Parsed) -> Result<String, String> {
    use std::fmt::Write;
    let dir = require_dir(p)?;
    let step = resolve_step(&dir, p.step)?;
    let target = target_parallel(p)?;
    let rank = p.rank.ok_or("--rank is required")?;
    if rank >= target.world_size() {
        return Err(format!(
            "rank {rank} out of range for world size {}",
            target.world_size()
        ));
    }
    let universal = layout::universal_dir(&dir, step);
    let manifest = UcpManifest::load(&universal).map_err(|e| e.to_string())?;
    let plan =
        gen_ucp_metadata(&manifest, &target, rank, DEFAULT_ALIGNMENT).map_err(|e| e.to_string())?;
    let coord = plan.coord;
    let chunk = plan.layout.rank_range(coord.dp * target.sp + coord.sp);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "load plan for rank {rank} of {} (dp={}, pp={}, sp={}, tp={})",
        target.label(),
        coord.dp,
        coord.pp,
        coord.sp,
        coord.tp
    );
    let _ = writeln!(
        out,
        "  flat chunk: {} elements at [{}, {}) of {}",
        plan.layout.chunk, chunk.start, chunk.end, plan.layout.total_len
    );
    let with_frags = plan
        .entries
        .iter()
        .filter(|e| !e.fragments.is_empty())
        .count();
    let _ = writeln!(
        out,
        "  {} parameters on this (tp, pp) slice; {} intersect this rank's chunk",
        plan.entries.len(),
        with_frags
    );
    for entry in plan.entries.iter().take(10) {
        let frag: usize = entry.fragments.iter().map(|f| f.len).sum();
        let _ = writeln!(
            out,
            "    {:<50} {} — {} elements into chunk",
            entry.name, entry.full_shape, frag
        );
    }
    if plan.entries.len() > 10 {
        let _ = writeln!(out, "    ... ({} more)", plan.entries.len() - 10);
    }
    Ok(out)
}

/// `ucp verify`: check one step's native and universal trees the way
/// `ucp fsck` does — every file the step's own configuration or manifest
/// implies is present and checksum-clean — and change nothing.
pub fn verify(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let step = resolve_step(&dir, p.step)?;
    let report = ucp_core::fsck::check_step(&dir, step);
    if report.steps_checked.is_empty() && report.universal_checked.is_empty() {
        return Err(format!("no checkpoint files found for step {step}"));
    }
    if report.clean() {
        println!(
            "ok: {} files verified at step {step}",
            report.files_verified
        );
        return Ok(());
    }
    let problems: Vec<String> = report
        .problems
        .iter()
        .map(|p| format!("{}: {}", p.path, p.detail))
        .collect();
    Err(format!(
        "step {step} failed verification ({} files verified):\n  {}",
        report.files_verified,
        problems.join("\n  ")
    ))
}

/// `ucp fsck`: verify and repair a checkpoint tree. Exits non-zero when
/// any problem is found, even if it was repaired — the caller should know
/// the tree was not clean.
pub fn fsck(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let opts = ucp_core::FsckOptions {
        repair: !p.no_repair,
    };
    let report = ucp_core::fsck(&dir, &opts).map_err(|e| e.to_string())?;
    if p.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "checked {} native step(s), {} universal step(s); {} files verified",
            report.steps_checked.len(),
            report.universal_checked.len(),
            report.files_verified
        );
        if report.tmp_removed > 0 {
            println!("swept {} stale .tmp file(s)", report.tmp_removed);
        }
        for q in &report.quarantined {
            println!("quarantined {q}");
        }
        for m in &report.markers_repaired {
            println!("marker repaired: {m}");
        }
        for problem in &report.problems {
            eprintln!("PROBLEM {}: {}", problem.path, problem.detail);
        }
    }
    if report.clean() {
        if !p.json {
            println!("clean");
        }
        Ok(())
    } else {
        Err(format!(
            "{} problem(s) found{}",
            report.problems.len(),
            if opts.repair {
                " (bad trees quarantined)"
            } else {
                " (run without --no-repair to quarantine)"
            }
        ))
    }
}

/// `ucp trace`: record a traced workload (or ingest a saved trace with
/// `--trace-in`) and analyze it.
///
/// Run mode executes the full hot path — a TP=2 × PP=2 train with
/// overlapped background saves, the universal conversion of the final
/// step, and the universal load for every rank — under the recording
/// session [`dispatch`] arms, which then publishes Chrome Trace Format
/// JSON (one pid per rank; open it in Perfetto or `chrome://tracing`) and
/// prints the `--summary`.
pub fn trace(p: &Parsed) -> Result<(), String> {
    // Ingest mode: analyze a previously recorded trace.
    if let Some(path) = &p.trace_in {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let session = ucp_telemetry::TraceSession::from_chrome_json(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if !p.json {
            println!(
                "trace {}: {} events, {} rank(s)",
                path.display(),
                session.event_count(),
                session.ranks().len()
            );
        }
        return print_trace_summary(&session, p.json);
    }

    // Run mode: record the built-in 2×2 workload.
    let dir = require_dir(p)?;
    let model = model_preset(p.model.as_deref().or(Some("gpt3-tiny")))?;
    let parallel = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
    model.validate(parallel.tp)?;
    let iters = p.iters.unwrap_or(4);
    let plan = TrainPlan {
        config: TrainConfig::quick(model, parallel, p.seed.unwrap_or(42)),
        until_iteration: iters,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(p.save_every.unwrap_or(2).max(1)),
        checkpoint_dir: Some(dir.clone()),
    };
    let workers = p.workers.unwrap_or(2);

    // 1. Train with overlapped background checkpointing.
    train_run_overlapped(&plan).map_err(|e| format!("{e:?}"))?;
    // 2. Convert the final native step to a universal checkpoint.
    let step = resolve_step(&dir, None)?;
    let opts = ConvertOptions {
        workers,
        verify_replicas: false,
        spec_override: None,
    };
    convert_to_universal(&dir, step, &opts).map_err(|e| e.to_string())?;
    // 3. Universal load for every rank of the same strategy.
    let session = LoadSession::open(&dir, step, LoadOptions::with_workers(workers))
        .map_err(|e| e.to_string())?;
    for rank in 0..parallel.world_size() {
        session
            .load_rank(&parallel, rank, DEFAULT_ALIGNMENT)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Print the busy/wait/straggler analysis of a trace session, as the
/// `ucp-trace-summary-v1` JSON (`json = true`) or a human-readable table.
fn print_trace_summary(session: &ucp_telemetry::TraceSession, json: bool) -> Result<(), String> {
    let summary = session.summary();
    if json {
        println!("{}", summary.to_json());
        return Ok(());
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let who = |pid: u64| {
        if pid >= ucp_telemetry::trace::DRIVER_PID {
            "driver".to_string()
        } else {
            format!("rank {pid}")
        }
    };
    println!("per-rank busy/wait:");
    for r in &summary.ranks {
        println!(
            "  {}: busy {:5.1}%  wait {:5.1}%  (wall {:.3} ms, {} collective(s), {} event(s))",
            who(r.pid),
            r.busy_pct(),
            r.wait_pct(),
            ms(r.wall_ns),
            r.collectives,
            r.events
        );
    }
    println!("per-collective wait vs transfer:");
    for op in &summary.ops {
        println!(
            "  {:<16} x{:<4} {:>10} B  wait {:.3} ms  transfer {:.3} ms",
            op.op,
            op.count,
            op.bytes,
            ms(op.total_wait_ns),
            ms(op.total_comm_ns)
        );
    }
    println!("straggler ranking (least collective wait first — the rank the others wait on):");
    for (i, (pid, wait_ns)) in summary.stragglers.iter().enumerate() {
        println!("  {}. rank {pid}: {:.3} ms total wait", i + 1, ms(*wait_ns));
    }
    println!("critical path (slowest top-level span per phase):");
    for seg in &summary.critical_path {
        println!(
            "  +{:9.3} ms  {:<12} [{}] on {} — {:.3} ms",
            ms(seg.start_ns),
            seg.name,
            seg.cat.as_str(),
            who(seg.pid),
            ms(seg.dur_ns)
        );
    }
    Ok(())
}

/// `ucp prune`: apply a retention policy.
pub fn prune(p: &Parsed) -> Result<(), String> {
    let dir = require_dir(p)?;
    let policy = retention::RetentionPolicy {
        keep_last: match p.keep_last.ok_or("--keep-last is required")? {
            0 => return Err("--keep-last must be >= 1 (the newest step is never pruned)".into()),
            n => n,
        },
        keep_every: match p.keep_every {
            Some(0) => return Err("--keep-every must be >= 1 (omit it to keep no anchors)".into()),
            every => every,
        },
    };
    let report = retention::prune(&dir, &policy).map_err(|e| e.to_string())?;
    println!(
        "pruned {} steps ({} bytes reclaimed); kept {:?}",
        report.removed.len(),
        report.bytes_reclaimed,
        report.kept
    );
    Ok(())
}

/// `ucp spec`: print the derived pattern spec for a model preset — the
/// JSON form of the UCP language, ready to be edited and extended.
pub fn spec(p: &Parsed) -> Result<(), String> {
    let model = model_preset(p.model.as_deref())?;
    let tp = p.tp.unwrap_or(2);
    model.validate(tp)?;
    let spec = UcpSpec::from_model(&model, tp, &[]);
    println!("{}", spec.to_json().map_err(|e| e.to_string())?);
    Ok(())
}

/// `ucp diff`: compare two universal checkpoint directories atom by atom.
/// `--dir` and `--other` point directly at `global_step*_universal`
/// directories. Exit is an error when any atom differs beyond the
/// tolerance (default: bitwise).
pub fn diff(p: &Parsed) -> Result<(), String> {
    let a_dir = require_dir(p)?;
    let b_dir = p.other.clone().ok_or("--other is required")?;
    let tol = p.tolerance.unwrap_or(0.0);
    let a = UcpManifest::load(&a_dir).map_err(|e| format!("{}: {e}", a_dir.display()))?;
    let b = UcpManifest::load(&b_dir).map_err(|e| format!("{}: {e}", b_dir.display()))?;

    let mut differing = 0usize;
    let mut compared = 0usize;
    for atom in &a.params {
        let Some(other) = b.atom(&atom.name) else {
            println!("only in A: {}", atom.name);
            differing += 1;
            continue;
        };
        if atom.shape != other.shape {
            println!(
                "shape mismatch {}: {} vs {}",
                atom.name, atom.shape, other.shape
            );
            differing += 1;
            continue;
        }
        // Whole tensors, however each tree stores them: a split tree and an
        // unsplit one of the same state are identical.
        let read = |dir: &std::path::Path, meta: &AtomMeta| {
            read_atom(dir, &meta.name, meta.parts(), &Device::unlimited())
                .map_err(|e| format!("{}: {e}", meta.name))
        };
        let (ta, tb) = (read(&a_dir, atom)?, read(&b_dir, other)?);
        for (file, (ta, tb)) in layout::AtomFile::ALL.into_iter().zip(ta.iter().zip(&tb)) {
            compared += 1;
            let delta = ta.max_abs_diff(tb).unwrap_or(f32::INFINITY);
            if f64::from(delta) > tol {
                println!(
                    "differs {} [{}]: max |Δ| = {delta:e}",
                    atom.name,
                    file.state_key()
                );
                differing += 1;
            }
        }
    }
    for atom in &b.params {
        if a.atom(&atom.name).is_none() {
            println!("only in B: {}", atom.name);
            differing += 1;
        }
    }
    if differing == 0 {
        println!(
            "identical: {compared} state tensors across {} atoms (tolerance {tol:e})",
            a.params.len()
        );
        Ok(())
    } else {
        Err(format!("{differing} differences found"))
    }
}

/// `ucp chaos`: sweep a rank-kill schedule and verify elastic recovery.
///
/// Every cell of the (kill step × fault kind × degraded target) matrix
/// trains fresh under the source topology, kills the highest rank at the
/// scheduled step, and lets the supervisor resume from the latest
/// committed checkpoint under the cell's degraded topology. The cell
/// passes when the run completes, the resumed loss trajectory is
/// bitwise-equal to a fault-free run from the same checkpoint, and
/// `fsck` finds the tree clean.
pub fn chaos(p: &Parsed) -> Result<(), String> {
    use std::time::{Duration, Instant};
    use ucp_trainer::supervisor::{FaultKind, RankFault, SupervisorOptions};

    let dir = require_dir(p)?;
    let source = target_parallel(p)?;
    let model = model_preset(p.model.as_deref())?;
    model.validate(source.tp)?;
    if source.world_size() < 2 {
        return Err("chaos needs a source topology with at least 2 ranks".into());
    }
    let seed = p.seed.unwrap_or(42);
    let iters = p.iters.unwrap_or(6);
    let save_every = p.save_every.unwrap_or(2).max(1);
    let deadline = Duration::from_millis(p.deadline_ms.unwrap_or(2000));

    let kill_steps: Vec<u64> = match p.kill_steps.as_deref() {
        None => vec![3],
        Some(spec) => spec
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| format!("bad kill step '{s}'")))
            .collect::<Result<_, _>>()?,
    };
    let kinds: Vec<(String, FaultKind)> = p
        .kinds
        .as_deref()
        .unwrap_or("panic,hang")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Ok((s.to_string(), s.parse::<FaultKind>()?)))
        .collect::<Result<_, String>>()?;
    let targets: Vec<ParallelConfig> = match p.targets.as_deref() {
        None => vec![source],
        Some(spec) => spec
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(parse_topology)
            .collect::<Result<_, _>>()?,
    };
    for t in &targets {
        model.validate(t.tp)?;
    }
    let save = save_policy(p);
    let min_world = std::iter::once(&source)
        .chain(targets.iter())
        .map(|t| t.world_size())
        .min()
        .unwrap_or(1);
    save.validate(p.hot_replicas, min_world)?;
    let faults_per_cell = match p.faults_per_cell {
        Some(0) => {
            return Err(
                "--faults-per-cell must be >= 1 (a cell with no faults proves nothing)".to_string(),
            )
        }
        Some(n) if n >= source.world_size() => {
            return Err(format!(
                "--faults-per-cell ({n}) must leave at least one survivor of the {} source \
                 ranks",
                source.world_size()
            ))
        }
        Some(n) => n,
        None => 1,
    };

    println!(
        "chaos sweep: source {}, {} kill step(s) x {} kind(s) x {} target(s), deadline {:?}{}",
        source.label(),
        kill_steps.len(),
        kinds.len(),
        targets.len(),
        deadline,
        match p.hot_replicas {
            Some(k) => format!(", hot tier K={k}, {faults_per_cell} fault(s)/cell"),
            None => String::new(),
        }
    );

    let mut cells = Vec::new();
    let mut failed = 0usize;
    for &step in &kill_steps {
        for (kind_label, kind) in &kinds {
            for (ti, &target) in targets.iter().enumerate() {
                let cell_dir = dir.join(format!("cell_s{step}_{kind_label}_t{ti}"));
                let _ = std::fs::remove_dir_all(&cell_dir);
                // Kill the top `faults_per_cell` ranks simultaneously; the
                // supervisor models them as one lost set, so a multi-fault
                // cell still costs exactly one recovery cycle.
                let kill_rank = source.world_size() - 1;
                let faults: Vec<RankFault> = (0..faults_per_cell)
                    .map(|i| RankFault {
                        rank: kill_rank - i,
                        step,
                        kind: *kind,
                    })
                    .collect();
                // The tier the recovery is REQUIRED to use: RAM survives a
                // lost set of up to K consecutive ranks (and needs a save
                // boundary before the kill); anything beyond that must fall
                // back to disk.
                let expect_source = p.hot_replicas.map(|k| {
                    if faults_per_cell <= k && step >= save_every {
                        "peer"
                    } else {
                        "disk"
                    }
                });
                let plan = ucp_trainer::TrainPlan {
                    config: TrainConfig::quick(model.clone(), source, seed),
                    until_iteration: iters,
                    resume: ResumeMode::Fresh,
                    checkpoint_every: Some(save_every),
                    checkpoint_dir: Some(cell_dir.clone()),
                };
                let opts = SupervisorOptions {
                    deadline,
                    max_restarts: 2,
                    ladder: vec![target],
                    faults,
                    hot_replicas: p.hot_replicas,
                    save,
                };
                let t0 = Instant::now();
                let cell = match ucp_trainer::supervise(&plan, &opts) {
                    Err(e) => {
                        failed += 1;
                        ChaosCell {
                            kill_step: step,
                            kind: kind_label.clone(),
                            target: target.label(),
                            survived: false,
                            error: Some(e.to_string()),
                            faults: faults_per_cell,
                            ..ChaosCell::default()
                        }
                    }
                    Ok(report) => {
                        let restarts = report.restarts.len();
                        let resume_step = report.restarts.first().and_then(|r| r.resume_step);
                        let recovery_source = report.restarts.first().map(|r| r.source.clone());
                        // A slow rank under the deadline must NOT restart;
                        // a kill must recover in exactly one cycle.
                        let expect_restarts = usize::from(!matches!(kind, FaultKind::SlowMs(_)));
                        // Fault-free reference from the same checkpoint
                        // under the topology the final segment ran with. A
                        // peer-memory recovery never touched the disk copy,
                        // so the universal tree may not exist yet — convert
                        // it now; the comparison below then directly proves
                        // the RAM-assembled checkpoint matches the disk one
                        // bit for bit.
                        if let Some(s) = resume_step {
                            let universal = layout::universal_dir(&cell_dir, s);
                            if !layout::manifest_path(&universal).exists() {
                                ucp_trainer::convert_checkpoint(
                                    &cell_dir,
                                    s,
                                    &ConvertOptions::default(),
                                )
                                .map_err(|e| format!("reference convert: {e}"))?;
                            }
                        }
                        let final_parallel = if restarts > 0 { target } else { source };
                        let reference = ucp_trainer::train_run(&ucp_trainer::TrainPlan {
                            config: TrainConfig::quick(model.clone(), final_parallel, seed),
                            until_iteration: iters,
                            resume: match resume_step {
                                Some(s) => ResumeMode::Universal {
                                    dir: cell_dir.clone(),
                                    step: s,
                                },
                                None => ResumeMode::Fresh,
                            },
                            checkpoint_every: None,
                            checkpoint_dir: None,
                        })
                        .map_err(|e| format!("reference run: {e}"))?;
                        let resumed = &report.final_segment().losses;
                        let bitwise_equal =
                            resumed.len() == reference.losses.len()
                                && resumed.iter().zip(&reference.losses).all(
                                    |((ia, la), (ib, lb))| ia == ib && la.to_bits() == lb.to_bits(),
                                );
                        let fsck_clean = ucp_core::fsck::fsck(
                            &cell_dir,
                            &ucp_core::fsck::FsckOptions { repair: false },
                        )
                        .map(|r| r.clean())
                        .unwrap_or(false);
                        // With the hot tier armed, recovering from the wrong
                        // tier (disk when RAM should have survived, or the
                        // other way round) fails the cell even if the math
                        // checks out.
                        let source_ok = match (expect_source, &recovery_source) {
                            (Some(want), Some(got)) if restarts > 0 => want == got,
                            _ => true,
                        };
                        let ok =
                            restarts == expect_restarts && bitwise_equal && fsck_clean && source_ok;
                        if !ok {
                            failed += 1;
                        }
                        ChaosCell {
                            kill_step: step,
                            kind: kind_label.clone(),
                            target: target.label(),
                            survived: true,
                            error: None,
                            restarts,
                            resume_step,
                            lost_steps: report.restarts.first().map(|r| r.lost_steps),
                            recovery_ms: report.restarts.first().map(|r| r.recovery_ms),
                            recovery_source,
                            faults: faults_per_cell,
                            bitwise_equal,
                            fsck_clean,
                            ok,
                        }
                    }
                };
                println!(
                    "cell step={step} kind={kind_label} target={}: {}",
                    target.label(),
                    if cell.ok {
                        format!(
                            "ok (resumed from {:?}, {:.1}s)",
                            cell.resume_step,
                            t0.elapsed().as_secs_f64()
                        )
                    } else {
                        let line = serde_json::to_string(&cell).map_err(|e| e.to_string())?;
                        format!("FAILED: {line}")
                    }
                );
                cells.push(cell);
            }
        }
    }

    let report = ChaosReport {
        schema: "ucp-chaos-v1".to_string(),
        model: p.model.clone(),
        source: source.label(),
        iters,
        save_every,
        deadline_ms: deadline.as_millis() as u64,
        hot_replicas: p.hot_replicas,
        faults_per_cell,
        total: cells.len(),
        failed,
        cells,
    };
    if let Some(path) = &p.report_out {
        let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        ucp_storage::commit::atomic_write(path, text.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("chaos report written to {}", path.display());
    }
    if failed > 0 {
        return Err(format!("{failed}/{} chaos cell(s) failed", report.total));
    }
    println!(
        "all {} chaos cell(s) recovered and match bitwise",
        report.total
    );
    Ok(())
}

/// The `ucp-chaos-v1` report of one chaos sweep.
#[derive(Debug, Serialize)]
struct ChaosReport {
    schema: String,
    model: Option<String>,
    source: String,
    iters: u64,
    save_every: u64,
    deadline_ms: u64,
    hot_replicas: Option<usize>,
    faults_per_cell: usize,
    cells: Vec<ChaosCell>,
    total: usize,
    failed: usize,
}

/// One cell of the chaos matrix.
#[derive(Debug, Default, Serialize)]
struct ChaosCell {
    kill_step: u64,
    kind: String,
    target: String,
    survived: bool,
    error: Option<String>,
    restarts: usize,
    resume_step: Option<u64>,
    lost_steps: Option<u64>,
    recovery_ms: Option<u64>,
    recovery_source: Option<String>,
    faults: usize,
    bitwise_equal: bool,
    fsck_clean: bool,
    ok: bool,
}

/// Parse a `TPxPPxDP[xSP]` topology triple like `1x1x2`.
fn parse_topology(spec: &str) -> Result<ParallelConfig, String> {
    let parts: Vec<usize> = spec
        .split('x')
        .map(|n| {
            n.trim()
                .parse()
                .map_err(|_| format!("bad topology '{spec}'"))
        })
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [tp, pp, dp] => Ok(ParallelConfig::new(*tp, *pp, *dp, 1, ZeroStage::Zero1)),
        [tp, pp, dp, sp] => Ok(ParallelConfig::new(*tp, *pp, *dp, *sp, ZeroStage::Zero1)),
        _ => Err(format!("topology '{spec}' must be TPxPPxDP or TPxPPxDPxSP")),
    }
}
