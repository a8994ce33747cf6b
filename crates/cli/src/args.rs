//! Minimal flag parsing (no external CLI dependency).

use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
ucp — universal checkpoint tools

USAGE:
  ucp convert --dir <ckpt-base> [--step N] [--workers W] [--no-verify]
      Convert a native distributed checkpoint into a universal checkpoint.
  ucp load --dir <ckpt-base> --step N --tp T --pp P --dp D [--sp S] [--rank R]
      [--workers W] [--mibps M] [--no-ranged-load]
      Execute the universal load for one rank (or all ranks when --rank is
      omitted), optionally through a simulated fixed-bandwidth device of
      M >= 1 MiB/s (0 is rejected). By
      default only the block-aligned byte ranges each rank's shard needs
      are read, with a session atom cache shared across ranks;
      --no-ranged-load reads whole atom files instead (the reference
      path). Prints bytes read vs. bytes needed and cache hit rates.
  ucp train --dir <ckpt-base> --model <preset> --tp T --pp P --dp D [--sp S]
      [--iters I] [--save-every K] [--seed S] [--overlapped]
      [--no-universal-save] [--hot-replicas K]
      Run the training simulator with periodic native checkpointing.
      --save-every takes K >= 1 (K=1 checkpoints every iteration; 0 is
      rejected rather than clamped).
      --hot-replicas K enables the peer-replicated in-memory hot
      checkpoint tier: each save, every rank pushes its shard to K
      successor ranks, and a supervised recovery serves the resume state
      from surviving RAM copies before falling back to disk. Takes
      K >= 1 and K < world size (0 is rejected rather than clamped), and
      composes with --overlapped.
      --overlapped snapshots each checkpoint in memory and persists it on
      background writer threads; the writers also run the born-universal
      save pipeline, so latest_universal is published at save time and a
      reconfigured resume needs no convert pass. --no-universal-save
      keeps the overlapped native writers but skips the pipeline
      (resume under a new strategy then requires `ucp convert`).
  ucp inspect --dir <ckpt-base> [--step N]
      Summarize a checkpoint: strategy, flat layout, atoms and patterns.
  ucp plan --dir <ckpt-base> --step N --tp T --pp P --dp D [--sp S] [--zero Z] --rank R
      Print the GenUcpMetadata load plan for one target rank.
  ucp verify --dir <ckpt-base> [--step N]
      Check one step the way fsck does — every file its configuration or
      manifest implies is present and checksum-clean — and change nothing.
  ucp prune --dir <ckpt-base> --keep-last K [--keep-every N]
      Remove old checkpoint steps per the retention policy.
  ucp fsck --dir <ckpt-base> [--no-repair] [--json]
      Verify every checkpoint step (checksums + completeness), quarantine
      bad step trees to *.corrupt, sweep stale .tmp files, and repair
      dangling latest markers. --no-repair only reports; --json prints a
      machine-readable report. Exits non-zero when problems are found.
  ucp spec --model <gpt3-tiny|llama-tiny|bloom-tiny|moe-tiny> --tp T
      Print the derived UCP pattern spec (JSON) for a model preset.
  ucp diff --dir <universal-dir-A> --other <universal-dir-B> [--tolerance T]
      Compare two universal checkpoints atom by atom.
  ucp trace --dir <ckpt-base> [--trace-out <path>] [--summary] [--json]
      Record a traced 2x2 (TPxPP) workload — train with overlapped saves,
      convert, universal load — and write Chrome Trace Format JSON (one
      pid per rank; load it in Perfetto or chrome://tracing). --summary
      prints per-rank busy/wait, per-collective wait breakdowns, and the
      straggler ranking; --json emits that analysis as JSON.
  ucp trace --trace-in <trace.json> [--summary] [--json]
      Analyze a previously recorded trace instead of running a workload.
  ucp chaos --dir <work-dir> --model <preset> --tp T --pp P --dp D [--sp S]
      [--iters I] [--save-every K] [--seed S] [--kill-steps 2,3,4]
      [--kinds panic,hang] [--targets 1x1x2;1x1x1] [--deadline-ms MS]
      [--hot-replicas K] [--faults-per-cell N] [--overlapped]
      [--no-universal-save] [--report-out <path>]
      Sweep a rank-kill schedule: for every kill step x fault kind, train
      under the source topology, kill a rank at that step, and let the
      supervisor resume from the latest committed checkpoint under the
      next degraded topology (--targets, `TPxPPxDP` triples separated by
      ';'). Each cell checks the resumed loss trajectory is bitwise-equal
      to a fault-free run from the same checkpoint and that `fsck` stays
      clean. --hot-replicas K arms the in-memory hot tier and records
      per-cell which tier (peer vs disk) served the recovery;
      --faults-per-cell N kills the top N ranks simultaneously at the
      kill step (N > K is expected to fall back to disk). --overlapped
      (and --no-universal-save) run every cell under that save policy,
      as in `ucp train`. --report-out
      writes a ucp-chaos-v1 JSON report; exits non-zero if any cell
      fails to recover, diverges, or recovers from the wrong tier.
  ucp status --dir <ckpt-base> [--metrics <report.json>] [--json]
      [--max-stale-steps N] [--max-recovery-ms MS] [--max-save-stall-ms MS]
      [--max-read-amp X]
      Report the health of a checkpoint tree by joining its run journal
      (journal.jsonl), the latest/latest_universal markers, and an
      optional ucp-metrics-v1 report (--metrics, e.g. one written by
      --metrics-out). Prints a markdown health table: checkpoint
      freshness (steps since latest_universal), recovery counts and
      worst recovery_ms, save-stall p99, read amplification, and the
      last fsck verdict. Each --max-* flag arms a declarative SLO
      threshold; violations are named in the output and the exit code is
      non-zero when any is breached. --json emits the machine-readable
      ucp-status-v1 report instead.
  ucp help
      Show this message.

  Every command accepts --metrics-out <path>: enable telemetry and write
  a ucp-metrics-v1 JSON report of the run's phase timings, counters, and
  histograms to <path>; and --trace-out <path>: record a distributed
  trace of the run and write it as Chrome Trace Format JSON. Both are
  written whether the command succeeds or fails, create missing parent
  directories and publish the file atomically.";

/// Parsed flags (a flat bag; each command reads what it needs).
#[derive(Debug, Default)]
pub struct Parsed {
    /// `--dir`.
    pub dir: Option<PathBuf>,
    /// `--step`.
    pub step: Option<u64>,
    /// `--workers`.
    pub workers: Option<usize>,
    /// `--no-verify`.
    pub no_verify: bool,
    /// `--tp`, `--pp`, `--dp`, `--sp`.
    pub tp: Option<usize>,
    /// Pipeline degree.
    pub pp: Option<usize>,
    /// Data-parallel degree.
    pub dp: Option<usize>,
    /// Sequence-parallel degree.
    pub sp: Option<usize>,
    /// `--zero` stage.
    pub zero: Option<u8>,
    /// `--rank`.
    pub rank: Option<usize>,
    /// `--keep-last` (prune).
    pub keep_last: Option<usize>,
    /// `--keep-every` (prune).
    pub keep_every: Option<u64>,
    /// `--model` (spec): preset name.
    pub model: Option<String>,
    /// `--other` (diff): second universal checkpoint directory.
    pub other: Option<std::path::PathBuf>,
    /// `--tolerance` (diff): max elementwise |Δ| treated as equal.
    pub tolerance: Option<f64>,
    /// `--metrics-out`: enable telemetry and write the JSON report here.
    pub metrics_out: Option<PathBuf>,
    /// `--trace-out`: enable tracing and write Chrome-trace JSON here.
    pub trace_out: Option<PathBuf>,
    /// `--trace-in` (trace): analyze a saved trace instead of running.
    pub trace_in: Option<PathBuf>,
    /// `--summary` (trace): print the busy/wait/straggler analysis.
    pub summary: bool,
    /// `--iters` (train): iterations to run.
    pub iters: Option<u64>,
    /// `--save-every` (train): checkpoint every K iterations.
    pub save_every: Option<u64>,
    /// `--seed` (train).
    pub seed: Option<u64>,
    /// `--overlapped` (train): background snapshot-persist writers.
    pub overlapped: bool,
    /// `--no-universal-save` (train --overlapped): skip the born-universal
    /// save pipeline, native checkpoints only.
    pub no_universal_save: bool,
    /// `--mibps` (load): simulated device bandwidth in MiB/s.
    pub mibps: Option<u64>,
    /// `--no-ranged-load` (load): read whole atom files instead of
    /// section-range reads.
    pub no_ranged_load: bool,
    /// `--no-repair` (fsck): report only, change nothing on disk.
    pub no_repair: bool,
    /// `--json` (fsck): print the machine-readable report.
    pub json: bool,
    /// `--kill-steps` (chaos): comma-separated step boundaries to kill at.
    pub kill_steps: Option<String>,
    /// `--kinds` (chaos): comma-separated fault kinds (`panic`, `hang`,
    /// `slow:<ms>`).
    pub kinds: Option<String>,
    /// `--targets` (chaos): `;`-separated degraded `TPxPPxDP[xSP]`
    /// topologies.
    pub targets: Option<String>,
    /// `--deadline-ms` (chaos): collective watchdog deadline.
    pub deadline_ms: Option<u64>,
    /// `--report-out` (chaos): write the machine-readable chaos report
    /// here.
    pub report_out: Option<PathBuf>,
    /// `--metrics` (status): ucp-metrics-v1 report to join into the
    /// health report.
    pub metrics: Option<PathBuf>,
    /// `--max-stale-steps` (status): SLO — max steps the universal
    /// checkpoint may lag the newest native save.
    pub max_stale_steps: Option<u64>,
    /// `--max-recovery-ms` (status): SLO — max journal-recorded recovery
    /// wall time.
    pub max_recovery_ms: Option<u64>,
    /// `--max-save-stall-ms` (status): SLO — max p99 of the per-rank
    /// save-stall histogram.
    pub max_save_stall_ms: Option<u64>,
    /// `--max-read-amp` (status): SLO — max bytes_read / bytes_needed on
    /// the load path.
    pub max_read_amp: Option<f64>,
    /// `--hot-replicas` (train, chaos): peer-replication factor of the
    /// in-memory hot checkpoint tier.
    pub hot_replicas: Option<usize>,
    /// `--faults-per-cell` (chaos): ranks killed simultaneously per cell.
    pub faults_per_cell: Option<usize>,
}

/// Parse a flag list.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("flag {} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => p.dir = Some(PathBuf::from(value(&mut i)?)),
            "--step" => p.step = Some(parse_num(&value(&mut i)?)?),
            "--workers" => p.workers = Some(parse_num(&value(&mut i)?)? as usize),
            "--no-verify" => p.no_verify = true,
            "--tp" => p.tp = Some(parse_num(&value(&mut i)?)? as usize),
            "--pp" => p.pp = Some(parse_num(&value(&mut i)?)? as usize),
            "--dp" => p.dp = Some(parse_num(&value(&mut i)?)? as usize),
            "--sp" => p.sp = Some(parse_num(&value(&mut i)?)? as usize),
            "--zero" => p.zero = Some(parse_num(&value(&mut i)?)? as u8),
            "--rank" => p.rank = Some(parse_num(&value(&mut i)?)? as usize),
            "--keep-last" => p.keep_last = Some(parse_num(&value(&mut i)?)? as usize),
            "--keep-every" => p.keep_every = Some(parse_num(&value(&mut i)?)?),
            "--model" => p.model = Some(value(&mut i)?),
            "--other" => p.other = Some(PathBuf::from(value(&mut i)?)),
            "--tolerance" => {
                let v = value(&mut i)?;
                p.tolerance = Some(v.parse().map_err(|_| format!("'{v}' is not a number"))?);
            }
            "--metrics-out" => p.metrics_out = Some(PathBuf::from(value(&mut i)?)),
            "--trace-out" => p.trace_out = Some(PathBuf::from(value(&mut i)?)),
            "--trace-in" => p.trace_in = Some(PathBuf::from(value(&mut i)?)),
            "--summary" => p.summary = true,
            "--iters" => p.iters = Some(parse_num(&value(&mut i)?)?),
            "--save-every" => p.save_every = Some(parse_num(&value(&mut i)?)?),
            "--seed" => p.seed = Some(parse_num(&value(&mut i)?)?),
            "--overlapped" => p.overlapped = true,
            "--no-universal-save" => p.no_universal_save = true,
            "--mibps" => match parse_num(&value(&mut i)?)? {
                0 => return Err("--mibps must be >= 1 (omit it for an unthrottled load)".into()),
                m => p.mibps = Some(m),
            },
            "--no-ranged-load" => p.no_ranged_load = true,
            "--no-repair" => p.no_repair = true,
            "--json" => p.json = true,
            "--kill-steps" => p.kill_steps = Some(value(&mut i)?),
            "--kinds" => p.kinds = Some(value(&mut i)?),
            "--targets" => p.targets = Some(value(&mut i)?),
            "--deadline-ms" => p.deadline_ms = Some(parse_num(&value(&mut i)?)?),
            "--report-out" => p.report_out = Some(PathBuf::from(value(&mut i)?)),
            "--metrics" => p.metrics = Some(PathBuf::from(value(&mut i)?)),
            "--max-stale-steps" => p.max_stale_steps = Some(parse_num(&value(&mut i)?)?),
            "--max-recovery-ms" => p.max_recovery_ms = Some(parse_num(&value(&mut i)?)?),
            "--max-save-stall-ms" => p.max_save_stall_ms = Some(parse_num(&value(&mut i)?)?),
            "--hot-replicas" => p.hot_replicas = Some(parse_num(&value(&mut i)?)? as usize),
            "--faults-per-cell" => p.faults_per_cell = Some(parse_num(&value(&mut i)?)? as usize),
            "--max-read-amp" => {
                let v = value(&mut i)?;
                p.max_read_amp = Some(v.parse().map_err(|_| format!("'{v}' is not a number"))?);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(p)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_convert_flags() {
        let p = parse(&sv(&["--dir", "/ckpt", "--step", "100", "--workers", "8"])).unwrap();
        assert_eq!(p.dir.unwrap(), PathBuf::from("/ckpt"));
        assert_eq!(p.step, Some(100));
        assert_eq!(p.workers, Some(8));
        assert!(!p.no_verify);
    }

    #[test]
    fn parses_plan_flags() {
        let p = parse(&sv(&[
            "--dir", "/c", "--step", "5", "--tp", "2", "--pp", "2", "--dp", "1", "--zero", "3",
            "--rank", "3",
        ]))
        .unwrap();
        assert_eq!((p.tp, p.pp, p.dp, p.sp), (Some(2), Some(2), Some(1), None));
        assert_eq!(p.zero, Some(3));
        assert_eq!(p.rank, Some(3));
    }

    #[test]
    fn parses_telemetry_and_train_flags() {
        let p = parse(&sv(&[
            "--metrics-out",
            "/tmp/m.json",
            "--iters",
            "4",
            "--save-every",
            "2",
            "--seed",
            "7",
            "--mibps",
            "800",
        ]))
        .unwrap();
        assert_eq!(p.metrics_out.unwrap(), PathBuf::from("/tmp/m.json"));
        assert_eq!(p.iters, Some(4));
        assert_eq!(p.save_every, Some(2));
        assert_eq!(p.seed, Some(7));
        assert_eq!(p.mibps, Some(800));
        assert!(!p.overlapped && !p.no_universal_save);
    }

    #[test]
    fn parses_overlapped_save_flags() {
        let p = parse(&sv(&["--dir", "/c", "--overlapped"])).unwrap();
        assert!(p.overlapped);
        assert!(!p.no_universal_save);
        let p = parse(&sv(&["--dir", "/c", "--overlapped", "--no-universal-save"])).unwrap();
        assert!(p.overlapped && p.no_universal_save);
    }

    #[test]
    fn parses_load_strategy_flag() {
        assert!(!parse(&sv(&["--dir", "/c"])).unwrap().no_ranged_load);
        assert!(
            parse(&sv(&["--dir", "/c", "--no-ranged-load"]))
                .unwrap()
                .no_ranged_load
        );
    }

    #[test]
    fn parses_fsck_flags() {
        let p = parse(&sv(&["--dir", "/c", "--no-repair", "--json"])).unwrap();
        assert!(p.no_repair);
        assert!(p.json);
        let p = parse(&sv(&["--dir", "/c"])).unwrap();
        assert!(!p.no_repair);
        assert!(!p.json);
    }

    #[test]
    fn parses_trace_flags() {
        let p = parse(&sv(&[
            "--trace-out",
            "/tmp/t.json",
            "--trace-in",
            "/tmp/in.json",
            "--summary",
        ]))
        .unwrap();
        assert_eq!(p.trace_out.unwrap(), PathBuf::from("/tmp/t.json"));
        assert_eq!(p.trace_in.unwrap(), PathBuf::from("/tmp/in.json"));
        assert!(p.summary);
        assert!(!parse(&sv(&[])).unwrap().summary);
    }

    #[test]
    fn parses_chaos_flags() {
        let p = parse(&sv(&[
            "--dir",
            "/c",
            "--kill-steps",
            "2,3,4",
            "--kinds",
            "panic,hang",
            "--targets",
            "1x1x2;1x1x1",
            "--deadline-ms",
            "1500",
            "--report-out",
            "/tmp/chaos.json",
        ]))
        .unwrap();
        assert_eq!(p.kill_steps.as_deref(), Some("2,3,4"));
        assert_eq!(p.kinds.as_deref(), Some("panic,hang"));
        assert_eq!(p.targets.as_deref(), Some("1x1x2;1x1x1"));
        assert_eq!(p.deadline_ms, Some(1500));
        assert_eq!(p.report_out.unwrap(), PathBuf::from("/tmp/chaos.json"));
    }

    #[test]
    fn parses_hot_tier_flags() {
        let p = parse(&sv(&[
            "--dir",
            "/c",
            "--hot-replicas",
            "2",
            "--faults-per-cell",
            "3",
        ]))
        .unwrap();
        assert_eq!(p.hot_replicas, Some(2));
        assert_eq!(p.faults_per_cell, Some(3));
        let p = parse(&sv(&["--dir", "/c"])).unwrap();
        assert!(p.hot_replicas.is_none() && p.faults_per_cell.is_none());
        assert!(parse(&sv(&["--hot-replicas", "two"])).is_err());
    }

    #[test]
    fn parses_status_flags() {
        let p = parse(&sv(&[
            "--dir",
            "/c",
            "--metrics",
            "/tmp/m.json",
            "--max-stale-steps",
            "2",
            "--max-recovery-ms",
            "1500",
            "--max-save-stall-ms",
            "250",
            "--max-read-amp",
            "1.5",
            "--json",
        ]))
        .unwrap();
        assert_eq!(p.metrics.unwrap(), PathBuf::from("/tmp/m.json"));
        assert_eq!(p.max_stale_steps, Some(2));
        assert_eq!(p.max_recovery_ms, Some(1500));
        assert_eq!(p.max_save_stall_ms, Some(250));
        assert_eq!(p.max_read_amp, Some(1.5));
        assert!(p.json);
        let p = parse(&sv(&["--dir", "/c"])).unwrap();
        assert!(p.max_stale_steps.is_none() && p.max_read_amp.is_none());
        assert!(parse(&sv(&["--max-read-amp", "wat"])).is_err());
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(parse(&sv(&["--bogus"])).is_err());
        assert!(parse(&sv(&["--step"])).is_err());
        assert!(parse(&sv(&["--step", "abc"])).is_err());
    }

    #[test]
    fn rejects_zero_mibps_naming_the_flag() {
        let err = parse(&sv(&["--mibps", "0"])).unwrap_err();
        assert!(err.contains("--mibps"), "{err}");
        assert_eq!(parse(&sv(&["--mibps", "1"])).unwrap().mibps, Some(1));
    }
}
