//! `ucp status`: join the run journal, the checkpoint markers, and an
//! optional `ucp-metrics-v1` report into one health report, evaluated
//! against declarative SLO thresholds.
//!
//! The health indicators are the ones an operator pages on:
//!
//! - **checkpoint freshness** — how many steps the published universal
//!   checkpoint lags the newest native save (a reconfigured resume can
//!   only start from `latest_universal`, so lag here is work at risk);
//! - **recovery** — how many failures the journal records and the worst
//!   wall-clock cost of one recovery cycle;
//! - **save stall p99** — the tail of the per-rank training stall per
//!   checkpoint, from the fleet-merged `rank/save_block_us` histogram;
//! - **read amplification** — bytes read vs. bytes needed on the
//!   universal load path;
//! - **journal & fsck hygiene** — malformed journal records and the last
//!   recorded fsck verdict.
//!
//! Each `--max-*` flag arms one threshold; unarmed thresholds are
//! reported but never fail the command. A threshold whose input data is
//! absent (e.g. `--max-read-amp` without `--metrics`) is reported as
//! `no data` rather than guessed at.

use std::path::Path;

use serde::{Deserialize, Serialize};
use ucp_storage::{journal, layout};
use ucp_telemetry::Report;

use crate::args::Parsed;

/// Schema tag of the `ucp status --json` document.
pub const SCHEMA: &str = "ucp-status-v1";

/// One armed-and-breached SLO threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The flag that armed the threshold (e.g. `max-stale-steps`).
    pub threshold: String,
    /// Human-readable `observed vs. limit` detail.
    pub detail: String,
}

/// The run journal's hygiene.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JournalHealth {
    /// Complete records in the run journal.
    pub records: usize,
    /// Journal ends mid-line (crash debris; healed on next append).
    pub torn_tail: bool,
    /// Complete journal lines that do not parse (corruption).
    pub malformed: usize,
}

/// The joined health report; its JSON form is the `ucp-status-v1`
/// document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// [`SCHEMA`].
    pub schema: String,
    /// The checkpoint root reported on.
    pub dir: String,
    /// Newest native step per the `latest` marker (journal fallback).
    pub latest_native: Option<u64>,
    /// Newest universal step per `latest_universal` (journal fallback).
    pub latest_universal: Option<u64>,
    /// Steps the universal checkpoint lags the newest native save.
    pub stale_steps: u64,
    /// Run-journal hygiene.
    pub journal: JournalHealth,
    /// Recovery cycles the journal records.
    pub recoveries: u64,
    /// Watchdog fires the journal records.
    pub watchdog_fires: u64,
    /// Retention prunes the journal records.
    pub retention_prunes: u64,
    /// Worst journal-recorded recovery wall time.
    pub max_recovery_ms: Option<u64>,
    /// Recoveries the hot tier served from surviving RAM replicas.
    pub peer_recoveries: u64,
    /// Hot-tier recoveries that had to fall back to disk (incomplete or
    /// stale RAM copy).
    pub disk_fallbacks: u64,
    /// Replication waves the journal records (one per checkpoint save
    /// with the hot tier armed).
    pub hot_replications: u64,
    /// Tier that served the most recent recovery (`peer` or `disk`).
    pub last_recovery_source: Option<String>,
    /// Problem count of the most recent journaled fsck pass.
    pub last_fsck_problems: Option<u64>,
    /// p99 of the fleet-merged per-rank save-stall histogram, in ms.
    pub save_stall_p99_ms: Option<f64>,
    /// load/bytes_read ÷ load/bytes_needed from the metrics report.
    pub read_amplification: Option<f64>,
    /// save/atoms_written — atoms rewritten by the incremental pipeline.
    pub atoms_written: Option<u64>,
    /// save/atoms_skipped — clean atoms republished as hard links.
    pub atoms_skipped: Option<u64>,
    /// save/mesh_reuse — save-exchange leases served by the persistent
    /// mesh without rewiring it.
    pub mesh_reuse: Option<u64>,
    /// p99 of save/snapshot_pool_wait_us — µs a checkpoint boundary spent
    /// waiting for a reusable snapshot buffer.
    pub snapshot_pool_wait_p99_us: Option<f64>,
    /// Breached thresholds.
    pub violations: Vec<Violation>,
    /// No threshold breached: healthy under the armed SLOs.
    pub healthy: bool,
}

/// Gather the health indicators for the tree at `dir`, joining the
/// optional metrics report, and evaluate the thresholds armed in `p`.
pub fn gather(dir: &Path, metrics: Option<&Report>, p: &Parsed) -> Result<StatusReport, String> {
    let journal = journal::read(dir).map_err(|e| format!("reading journal: {e}"))?;
    let mut r = StatusReport {
        schema: SCHEMA.to_string(),
        dir: dir.display().to_string(),
        latest_native: layout::read_latest(dir).or_else(|| journal.last_step("native_persisted")),
        latest_universal: layout::read_latest_universal(dir)
            .or_else(|| journal.last_step("universal_published")),
        journal: JournalHealth {
            records: journal.records.len(),
            torn_tail: journal.torn_tail,
            malformed: journal.malformed,
        },
        recoveries: journal.of_kind("recovery_begin").count() as u64,
        watchdog_fires: journal.of_kind("watchdog").count() as u64,
        retention_prunes: journal.of_kind("retention_prune").count() as u64,
        ..StatusReport::default()
    };
    r.stale_steps = r
        .latest_native
        .unwrap_or(0)
        .saturating_sub(r.latest_universal.unwrap_or(0));
    r.max_recovery_ms = journal
        .of_kind("recovery_end")
        .filter_map(|rec| match &rec.event {
            journal::JournalEvent::RecoveryEnd { recovery_ms, .. } => Some(*recovery_ms),
            _ => None,
        })
        .max();
    r.hot_replications = journal.of_kind("hot_replicated").count() as u64;
    r.disk_fallbacks = journal
        .of_kind("hot_recovery_end")
        .filter(|rec| {
            matches!(
                &rec.event,
                journal::JournalEvent::HotRecoveryEnd { fallback: true, .. }
            )
        })
        .count() as u64;
    let sources: Vec<&String> = journal
        .of_kind("recovery_end")
        .filter_map(|rec| match &rec.event {
            journal::JournalEvent::RecoveryEnd { source, .. } => Some(source),
            _ => None,
        })
        .collect();
    r.peer_recoveries = sources.iter().filter(|s| s.as_str() == "peer").count() as u64;
    r.last_recovery_source = sources.last().map(|s| s.to_string());
    r.last_fsck_problems = journal
        .of_kind("fsck")
        .filter_map(|rec| match &rec.event {
            journal::JournalEvent::Fsck { problems, .. } => Some(*problems),
            _ => None,
        })
        .last();
    if let Some(m) = metrics {
        r.save_stall_p99_ms = m
            .hist("fleet/rank/save_block_us")
            .or_else(|| m.hist("rank/save_block_us"))
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(0.99) as f64 / 1000.0);
        if let (Some(read), Some(needed)) =
            (m.counter("load/bytes_read"), m.counter("load/bytes_needed"))
        {
            if needed > 0 {
                r.read_amplification = Some(read as f64 / needed as f64);
            }
        }
        r.atoms_written = m.counter("save/atoms_written");
        r.atoms_skipped = m.counter("save/atoms_skipped");
        r.mesh_reuse = m.counter("save/mesh_reuse");
        r.snapshot_pool_wait_p99_us = m
            .hist("save/snapshot_pool_wait_us")
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(0.99) as f64);
    }

    if r.journal.malformed > 0 {
        r.violations.push(Violation {
            threshold: "journal-integrity".into(),
            detail: format!(
                "{} malformed journal record(s); run `ucp fsck`",
                r.journal.malformed
            ),
        });
    }
    if let Some(limit) = p.max_stale_steps {
        if r.stale_steps > limit {
            r.violations.push(Violation {
                threshold: "max-stale-steps".into(),
                detail: format!(
                    "universal checkpoint lags newest native save by {} step(s) (limit {limit})",
                    r.stale_steps
                ),
            });
        }
    }
    if let (Some(limit), Some(worst)) = (p.max_recovery_ms, r.max_recovery_ms) {
        if worst > limit {
            r.violations.push(Violation {
                threshold: "max-recovery-ms".into(),
                detail: format!("worst recovery took {worst} ms (limit {limit} ms)"),
            });
        }
    }
    if let (Some(limit), Some(p99)) = (p.max_save_stall_ms, r.save_stall_p99_ms) {
        if p99 > limit as f64 {
            r.violations.push(Violation {
                threshold: "max-save-stall-ms".into(),
                detail: format!("save-stall p99 is {p99:.3} ms (limit {limit} ms)"),
            });
        }
    }
    if let (Some(limit), Some(amp)) = (p.max_read_amp, r.read_amplification) {
        if amp > limit {
            r.violations.push(Violation {
                threshold: "max-read-amp".into(),
                detail: format!("load read amplification is {amp:.3}x (limit {limit}x)"),
            });
        }
    }
    r.healthy = r.violations.is_empty();
    Ok(r)
}

fn fmt_opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "n/a".into(),
    }
}

impl StatusReport {
    /// Render the markdown health table plus the SLO verdict table.
    pub fn to_markdown(&self, p: &Parsed) -> String {
        fn row(out: &mut String, k: &str, v: String) {
            out.push_str(&format!("| {k} | {v} |\n"));
        }
        let mut out = String::new();
        out.push_str(&format!("# ucp status: {}\n\n", self.dir));
        out.push_str("| indicator | value |\n|---|---|\n");
        row(&mut out, "latest native step", fmt_opt(&self.latest_native));
        row(
            &mut out,
            "latest universal step",
            fmt_opt(&self.latest_universal),
        );
        row(
            &mut out,
            "checkpoint staleness (steps)",
            self.stale_steps.to_string(),
        );
        row(
            &mut out,
            "journal records",
            self.journal.records.to_string(),
        );
        row(
            &mut out,
            "journal integrity",
            match (self.journal.malformed, self.journal.torn_tail) {
                (0, false) => "clean".into(),
                (0, true) => "torn tail (crash debris; self-heals)".into(),
                (n, _) => format!("{n} malformed record(s)"),
            },
        );
        row(&mut out, "recoveries", self.recoveries.to_string());
        row(&mut out, "watchdog fires", self.watchdog_fires.to_string());
        row(
            &mut out,
            "retention prunes",
            self.retention_prunes.to_string(),
        );
        row(
            &mut out,
            "worst recovery_ms",
            fmt_opt(&self.max_recovery_ms),
        );
        row(
            &mut out,
            "hot tier (peer / disk-fallback recoveries)",
            if self.hot_replications > 0 || self.peer_recoveries > 0 || self.disk_fallbacks > 0 {
                format!(
                    "{} / {} ({} replication wave(s))",
                    self.peer_recoveries, self.disk_fallbacks, self.hot_replications
                )
            } else {
                "n/a".into()
            },
        );
        row(
            &mut out,
            "last recovery source",
            fmt_opt(&self.last_recovery_source),
        );
        row(
            &mut out,
            "last fsck problems",
            fmt_opt(&self.last_fsck_problems.map(|n| {
                if n == 0 {
                    "0 (clean)".to_string()
                } else {
                    n.to_string()
                }
            })),
        );
        row(
            &mut out,
            "save-stall p99 (ms)",
            fmt_opt(&self.save_stall_p99_ms.map(|v| format!("{v:.3}"))),
        );
        row(
            &mut out,
            "read amplification",
            fmt_opt(&self.read_amplification.map(|v| format!("{v:.3}x"))),
        );
        row(
            &mut out,
            "atoms written / skipped",
            match (self.atoms_written, self.atoms_skipped) {
                (None, None) => "n/a".into(),
                (w, s) => {
                    let (w, s) = (w.unwrap_or(0), s.unwrap_or(0));
                    let total = w + s;
                    if total > 0 {
                        format!(
                            "{w} / {s} ({:.1}% skipped)",
                            100.0 * s as f64 / total as f64
                        )
                    } else {
                        format!("{w} / {s}")
                    }
                }
            },
        );
        row(&mut out, "mesh reuse", fmt_opt(&self.mesh_reuse));
        row(
            &mut out,
            "snapshot-pool wait p99 (us)",
            fmt_opt(&self.snapshot_pool_wait_p99_us.map(|v| format!("{v:.0}"))),
        );
        out.push('\n');

        let armed: Vec<(&str, Option<String>, bool)> = vec![
            (
                "max-stale-steps",
                p.max_stale_steps.map(|v| v.to_string()),
                true,
            ),
            (
                "max-recovery-ms",
                p.max_recovery_ms.map(|v| v.to_string()),
                self.max_recovery_ms.is_some() || self.recoveries == 0,
            ),
            (
                "max-save-stall-ms",
                p.max_save_stall_ms.map(|v| v.to_string()),
                self.save_stall_p99_ms.is_some(),
            ),
            (
                "max-read-amp",
                p.max_read_amp.map(|v| v.to_string()),
                self.read_amplification.is_some(),
            ),
        ];
        if armed.iter().any(|(_, limit, _)| limit.is_some()) {
            out.push_str("| threshold | limit | verdict |\n|---|---|---|\n");
            for (name, limit, has_data) in armed {
                let Some(limit) = limit else { continue };
                let verdict = match self.violations.iter().find(|v| v.threshold == name) {
                    Some(v) => format!("VIOLATED — {}", v.detail),
                    None if has_data => "ok".into(),
                    None => "no data".into(),
                };
                out.push_str(&format!("| {name} | {limit} | {verdict} |\n"));
            }
        }
        out
    }

    /// Machine-readable `ucp-status-v1` JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("a derived Serialize cannot fail")
    }
}

/// `ucp status`: print the health report; exit non-zero (via `Err`)
/// naming every breached threshold.
pub fn status(p: &Parsed) -> Result<(), String> {
    let dir = p.dir.clone().ok_or("--dir is required")?;
    let metrics = match &p.metrics {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Some(Report::from_json(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?)
        }
    };
    let report = gather(&dir, metrics.as_ref(), p)?;
    if p.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_markdown(p));
    }
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "SLO violation: {}",
            report
                .violations
                .iter()
                .map(|v| format!("{} ({})", v.threshold, v.detail))
                .collect::<Vec<_>>()
                .join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use ucp_storage::journal::JournalEvent;

    fn temp_base(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucp_status_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stale_universal_marker_violates_the_freshness_slo() {
        let base = temp_base("stale");
        layout::write_latest(&base, 10).unwrap();
        layout::write_latest_universal(&base, 4).unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            max_stale_steps: Some(2),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!(r.stale_steps, 6);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].threshold, "max-stale-steps");
        // The CLI entry point surfaces the violation as a non-zero exit,
        // naming the threshold.
        let err = status(&p).unwrap_err();
        assert!(err.contains("max-stale-steps"), "{err}");
        // Within budget → healthy, exit zero.
        let ok = Parsed {
            dir: Some(base.clone()),
            max_stale_steps: Some(6),
            ..Parsed::default()
        };
        assert!(status(&ok).is_ok());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn slow_recovery_in_the_journal_violates_the_recovery_slo() {
        let base = temp_base("recovery");
        journal::append(
            &base,
            &JournalEvent::RecoveryBegin {
                rank: 1,
                step: 5,
                cause: "injected".into(),
            },
        )
        .unwrap();
        journal::append(
            &base,
            &JournalEvent::RecoveryEnd {
                resume_step: Some(4),
                lost_steps: 1,
                recovery_ms: 9000,
                parallel: "tp1_pp1_dp1".into(),
                source: "disk".into(),
            },
        )
        .unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            max_recovery_ms: Some(2000),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.max_recovery_ms, Some(9000));
        assert_eq!(r.last_recovery_source.as_deref(), Some("disk"));
        assert_eq!(r.violations[0].threshold, "max-recovery-ms");
        let err = status(&p).unwrap_err();
        assert!(err.contains("max-recovery-ms"), "{err}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn hot_tier_journal_events_surface_in_the_report() {
        let base = temp_base("hot");
        journal::append(
            &base,
            &JournalEvent::HotReplicated {
                step: 2,
                ranks: 4,
                bytes: 1024,
            },
        )
        .unwrap();
        journal::append(&base, &JournalEvent::HotRecoveryBegin { step: 3 }).unwrap();
        journal::append(
            &base,
            &JournalEvent::HotRecoveryEnd {
                served_ranks: vec![0, 1, 2],
                fallback: false,
            },
        )
        .unwrap();
        journal::append(
            &base,
            &JournalEvent::RecoveryEnd {
                resume_step: Some(2),
                lost_steps: 1,
                recovery_ms: 40,
                parallel: "tp1_pp1_dp2".into(),
                source: "peer".into(),
            },
        )
        .unwrap();
        journal::append(&base, &JournalEvent::HotRecoveryBegin { step: 5 }).unwrap();
        journal::append(
            &base,
            &JournalEvent::HotRecoveryEnd {
                served_ranks: Vec::new(),
                fallback: true,
            },
        )
        .unwrap();
        journal::append(
            &base,
            &JournalEvent::RecoveryEnd {
                resume_step: Some(4),
                lost_steps: 1,
                recovery_ms: 120,
                parallel: "tp1_pp1_dp1".into(),
                source: "disk".into(),
            },
        )
        .unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!(r.hot_replications, 1);
        assert_eq!(r.peer_recoveries, 1);
        assert_eq!(r.disk_fallbacks, 1);
        assert_eq!(r.last_recovery_source.as_deref(), Some("disk"));
        assert!(r.violations.is_empty());
        let md = r.to_markdown(&p);
        assert!(md.contains("1 / 1 (1 replication wave(s))"), "{md}");
        let doc: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(doc.get("peer_recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("disk_fallbacks").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("last_recovery_source").unwrap().as_str(),
            Some("disk")
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn metrics_join_feeds_stall_and_read_amp_slos() {
        let base = temp_base("metrics");
        let rec = ucp_telemetry::Recorder::new();
        rec.set_enabled(true);
        for us in [1000, 1200, 90_000] {
            rec.observe("fleet/rank/save_block_us", us);
        }
        rec.count("load/bytes_read", 300);
        rec.count("load/bytes_needed", 100);
        rec.count("save/atoms_written", 5);
        rec.count("save/atoms_skipped", 15);
        rec.count("save/mesh_reuse", 7);
        rec.observe("save/snapshot_pool_wait_us", 250);
        let metrics = rec.report("t");
        // Roundtrip through the ucp-metrics-v1 JSON the CLI would read.
        let metrics = Report::from_json(&metrics.to_json()).unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            max_save_stall_ms: Some(10),
            max_read_amp: Some(2.0),
            ..Parsed::default()
        };
        let r = gather(&base, Some(&metrics), &p).unwrap();
        assert!(r.save_stall_p99_ms.unwrap() > 10.0);
        assert!((r.read_amplification.unwrap() - 3.0).abs() < 1e-9);
        // The incremental-save counters ride the same report.
        assert_eq!(r.atoms_written, Some(5));
        assert_eq!(r.atoms_skipped, Some(15));
        assert_eq!(r.mesh_reuse, Some(7));
        assert!(r.snapshot_pool_wait_p99_us.unwrap() >= 250.0);
        let md = r.to_markdown(&p);
        assert!(md.contains("5 / 15 (75.0% skipped)"), "{md}");
        let names: Vec<_> = r.violations.iter().map(|v| v.threshold.as_str()).collect();
        assert_eq!(names, vec!["max-save-stall-ms", "max-read-amp"]);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn unarmed_thresholds_and_missing_data_stay_healthy() {
        let base = temp_base("healthy");
        layout::write_latest(&base, 6).unwrap();
        journal::append(&base, &JournalEvent::NativePersisted { step: 6 }).unwrap();
        journal::append(&base, &JournalEvent::UniversalPublished { step: 6 }).unwrap();
        // No thresholds armed: stale-by-zero, no violations, and the
        // journal fallback supplies latest_universal (no marker file).
        let p = Parsed {
            dir: Some(base.clone()),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!(r.latest_universal, Some(6));
        assert_eq!(r.stale_steps, 0);
        assert!(r.violations.is_empty());
        // Armed save-stall SLO without metrics data: reported, not failed.
        let p = Parsed {
            dir: Some(base.clone()),
            max_save_stall_ms: Some(1),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert!(r.violations.is_empty());
        assert!(r.to_markdown(&p).contains("no data"));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn malformed_journal_is_always_a_violation() {
        let base = temp_base("malformed");
        std::fs::write(journal::journal_path(&base), "garbage line\n").unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!(r.violations[0].threshold, "journal-integrity");
        assert!(status(&p).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn deeply_nested_journal_line_is_a_violation_not_an_abort() {
        let base = temp_base("nested");
        journal::append(&base, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        ucp_storage::commit::append_line(&journal::journal_path(&base), &"[".repeat(100_000))
            .unwrap();
        journal::append(&base, &JournalEvent::NativePersisted { step: 1 }).unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        assert_eq!((r.journal.records, r.journal.malformed), (2, 1));
        assert_eq!(r.violations[0].threshold, "journal-integrity");
        assert!(status(&p).unwrap_err().contains("journal-integrity"));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn json_report_carries_the_verdict() {
        let base = temp_base("json");
        layout::write_latest(&base, 8).unwrap();
        let p = Parsed {
            dir: Some(base.clone()),
            max_stale_steps: Some(3),
            ..Parsed::default()
        };
        let r = gather(&base, None, &p).unwrap();
        let text = r.to_json();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("ucp-status-v1"));
        assert_eq!(doc.get("stale_steps").unwrap().as_u64(), Some(8));
        assert_eq!(doc.get("healthy").and_then(Value::as_bool), Some(false));
        assert_eq!(
            doc.get("journal")
                .and_then(|j| j.get("records"))
                .and_then(Value::as_u64),
            Some(0)
        );
        // An unknown quantity is `null`, not a missing member.
        assert_eq!(doc.get("latest_universal"), Some(&Value::Null));
        let violations = doc.get("violations").unwrap().as_array().unwrap();
        assert_eq!(
            violations[0].get("threshold").unwrap().as_str(),
            Some("max-stale-steps")
        );
        // The document reads back to the same report.
        assert_eq!(serde_json::from_str::<StatusReport>(&text).unwrap(), r);
        let _ = std::fs::remove_dir_all(&base);
    }
}
