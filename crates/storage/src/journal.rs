//! The run journal: a crash-consistent, append-only record of checkpoint
//! lifecycle events.
//!
//! Every per-command artifact (`--metrics-out`, traces, chaos reports) is
//! a post-hoc dump; the journal is the durable *run-scoped* record. It
//! lives as `journal.jsonl` directly under the checkpoint root — one JSON
//! object per line — and is written through [`crate::commit::append_line`],
//! so a crash can only ever lose or tear the final line. Readers (and
//! `ucp fsck`) accept exactly that: [`read`] returns the parseable prefix
//! plus a flag for a torn tail, and any complete line that fails to parse
//! is counted as corruption rather than silently skipped.
//!
//! Events are typed ([`JournalEvent`]) but the format is forward-tolerant:
//! a record whose `kind` this build doesn't know parses as
//! [`JournalEvent::Other`], so newer writers never brick older readers.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Serialize, Value};

use crate::{commit, Result};

/// File name of the journal under the checkpoint root. The name carries
/// no `global_step` prefix, so step scanners never mistake it for a
/// checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Path of the journal under checkpoint root `base`.
pub fn journal_path(base: &Path) -> PathBuf {
    base.join(JOURNAL_FILE)
}

/// A typed checkpoint-lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A checkpoint save began (snapshot taken / files being written).
    SaveStarted {
        /// Step being saved.
        step: u64,
    },
    /// The step's native files are durable and `latest` points at it.
    NativePersisted {
        /// Step whose native checkpoint completed.
        step: u64,
    },
    /// The step's universal checkpoint is durable and `latest_universal`
    /// points at it.
    UniversalPublished {
        /// Step whose universal checkpoint was published.
        step: u64,
    },
    /// A failure was detected and recovery began.
    RecoveryBegin {
        /// Rank whose failure triggered recovery.
        rank: usize,
        /// Step the run had reached when it failed.
        step: u64,
        /// Attributed cause (panic payload, watchdog verdict, ...).
        cause: String,
    },
    /// Recovery finished and the run resumed.
    RecoveryEnd {
        /// Step the run resumed from (`None` = restarted fresh).
        resume_step: Option<u64>,
        /// Iterations of work lost to the failure.
        lost_steps: u64,
        /// Wall-clock milliseconds from failure detection to resume.
        recovery_ms: u64,
        /// Parallel strategy label resumed under (may differ from the
        /// failed segment's when the supervisor descended its ladder).
        parallel: String,
        /// Recovery tier that served the resume state: `"peer"` when the
        /// hot in-memory tier had a complete copy, `"disk"` otherwise.
        source: String,
    },
    /// A save step's shards were replicated into peer memory (hot tier).
    HotReplicated {
        /// Step whose shards were replicated.
        step: u64,
        /// Ranks that completed their replication round.
        ranks: u64,
        /// Replica payload bytes pushed by rank 0 (one rank's share).
        bytes: u64,
    },
    /// Peer-memory recovery was attempted after a failure.
    HotRecoveryBegin {
        /// Step the run had reached when it failed.
        step: u64,
    },
    /// Peer-memory recovery finished (served from RAM or fell back).
    HotRecoveryEnd {
        /// Surviving ranks whose replica banks served shards (empty on
        /// fallback).
        served_ranks: Vec<usize>,
        /// `true` when the hot copy was incomplete and recovery fell back
        /// to the latest committed disk checkpoint.
        fallback: bool,
    },
    /// A collective watchdog attributed a hang to a rank.
    Watchdog {
        /// Rank the watchdog blamed.
        rank: usize,
        /// Step at which the hang was detected.
        step: u64,
        /// Watchdog verdict text.
        detail: String,
    },
    /// Retention pruning removed old checkpoints.
    RetentionPrune {
        /// Steps whose directories were removed.
        removed: Vec<u64>,
        /// Bytes reclaimed by the prune.
        bytes_reclaimed: u64,
    },
    /// An `ucp fsck` pass finished.
    Fsck {
        /// Problems found (0 = clean).
        problems: u64,
        /// Corrupt files quarantined.
        quarantined: u64,
        /// Whether repair mode was on.
        repair: bool,
    },
    /// A record written by a newer build; preserved but uninterpreted.
    Other {
        /// The unrecognized `kind` tag.
        kind: String,
    },
}

impl JournalEvent {
    /// The record's `kind` tag.
    pub fn kind(&self) -> &str {
        match self {
            JournalEvent::SaveStarted { .. } => "save_started",
            JournalEvent::NativePersisted { .. } => "native_persisted",
            JournalEvent::UniversalPublished { .. } => "universal_published",
            JournalEvent::RecoveryBegin { .. } => "recovery_begin",
            JournalEvent::RecoveryEnd { .. } => "recovery_end",
            JournalEvent::HotReplicated { .. } => "hot_replicated",
            JournalEvent::HotRecoveryBegin { .. } => "hot_recovery_begin",
            JournalEvent::HotRecoveryEnd { .. } => "hot_recovery_end",
            JournalEvent::Watchdog { .. } => "watchdog",
            JournalEvent::RetentionPrune { .. } => "retention_prune",
            JournalEvent::Fsck { .. } => "fsck",
            JournalEvent::Other { kind } => kind,
        }
    }

    /// The record as one JSON object: `kind`, `t_ms`, then the event's
    /// fields.
    fn to_json(&self, t_ms: u64) -> Value {
        let fields: Vec<(&str, Value)> = match self {
            JournalEvent::SaveStarted { step }
            | JournalEvent::NativePersisted { step }
            | JournalEvent::UniversalPublished { step }
            | JournalEvent::HotRecoveryBegin { step } => vec![("step", step.to_value())],
            JournalEvent::RecoveryBegin { rank, step, cause } => vec![
                ("rank", rank.to_value()),
                ("step", step.to_value()),
                ("cause", cause.to_value()),
            ],
            JournalEvent::RecoveryEnd {
                resume_step,
                lost_steps,
                recovery_ms,
                parallel,
                source,
            } => vec![
                ("resume_step", resume_step.to_value()),
                ("lost_steps", lost_steps.to_value()),
                ("recovery_ms", recovery_ms.to_value()),
                ("parallel", parallel.to_value()),
                ("source", source.to_value()),
            ],
            JournalEvent::HotReplicated { step, ranks, bytes } => vec![
                ("step", step.to_value()),
                ("ranks", ranks.to_value()),
                ("bytes", bytes.to_value()),
            ],
            JournalEvent::HotRecoveryEnd {
                served_ranks,
                fallback,
            } => vec![
                ("served_ranks", served_ranks.to_value()),
                ("fallback", fallback.to_value()),
            ],
            JournalEvent::Watchdog { rank, step, detail } => vec![
                ("rank", rank.to_value()),
                ("step", step.to_value()),
                ("detail", detail.to_value()),
            ],
            JournalEvent::RetentionPrune {
                removed,
                bytes_reclaimed,
            } => vec![
                ("removed", removed.to_value()),
                ("bytes_reclaimed", bytes_reclaimed.to_value()),
            ],
            JournalEvent::Fsck {
                problems,
                quarantined,
                repair,
            } => vec![
                ("problems", problems.to_value()),
                ("quarantined", quarantined.to_value()),
                ("repair", repair.to_value()),
            ],
            JournalEvent::Other { .. } => vec![],
        };
        let head = [("kind", self.kind().to_value()), ("t_ms", t_ms.to_value())];
        Value::Object(
            head.into_iter()
                .chain(fields)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The event a record object holds; `None` when a field its `kind`
    /// needs is missing or not of its type (a `step` of `2.5` included).
    fn from_json(doc: &Value) -> Option<JournalEvent> {
        let kind = doc.get("kind")?.as_str()?;
        let int = |k: &str| doc.get(k).and_then(Value::as_u64);
        let step = || int("step");
        let rank = || int("rank").and_then(|r| usize::try_from(r).ok());
        let text = |k: &str| doc.get(k).and_then(Value::as_str).map(str::to_string);
        let flag = |k: &str| doc.get(k).and_then(Value::as_bool).unwrap_or(false);
        let ints = |k: &str| {
            doc.get(k)
                .and_then(Value::as_array)
                .map(|items| items.iter().filter_map(Value::as_u64))
        };
        Some(match kind {
            "save_started" => JournalEvent::SaveStarted { step: step()? },
            "native_persisted" => JournalEvent::NativePersisted { step: step()? },
            "universal_published" => JournalEvent::UniversalPublished { step: step()? },
            "recovery_begin" => JournalEvent::RecoveryBegin {
                rank: rank()?,
                step: step()?,
                cause: text("cause")?,
            },
            "recovery_end" => JournalEvent::RecoveryEnd {
                resume_step: int("resume_step"),
                lost_steps: int("lost_steps")?,
                recovery_ms: int("recovery_ms")?,
                parallel: text("parallel")?,
                // Records written before the hot tier existed carry no
                // source; every recovery then was served from disk.
                source: text("source").unwrap_or_else(|| "disk".into()),
            },
            "hot_replicated" => JournalEvent::HotReplicated {
                step: step()?,
                ranks: int("ranks")?,
                bytes: int("bytes")?,
            },
            "hot_recovery_begin" => JournalEvent::HotRecoveryBegin { step: step()? },
            "hot_recovery_end" => JournalEvent::HotRecoveryEnd {
                served_ranks: ints("served_ranks")?.map(|r| r as usize).collect(),
                fallback: flag("fallback"),
            },
            "watchdog" => JournalEvent::Watchdog {
                rank: rank()?,
                step: step()?,
                detail: text("detail")?,
            },
            "retention_prune" => JournalEvent::RetentionPrune {
                removed: ints("removed")?.collect(),
                bytes_reclaimed: int("bytes_reclaimed")?,
            },
            "fsck" => JournalEvent::Fsck {
                problems: int("problems")?,
                quarantined: int("quarantined")?,
                repair: flag("repair"),
            },
            other => JournalEvent::Other {
                kind: other.to_string(),
            },
        })
    }
}

/// One journal line: an event plus its wall-clock timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Milliseconds since the Unix epoch at append time.
    pub t_ms: u64,
    /// The event.
    pub event: JournalEvent,
}

/// The readable state of a journal file.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// All records from complete, parseable lines, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ends in an incomplete line (a crash mid-append).
    pub torn_tail: bool,
    /// Complete lines that failed to parse — corruption, not crash debris.
    pub malformed: usize,
    /// Byte length of the newline-terminated prefix (what a repair keeps).
    pub valid_bytes: u64,
}

impl Journal {
    /// Records of one event kind, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a JournalRecord> {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    /// The newest step with a given marker-ish event kind, if any.
    pub fn last_step(&self, kind: &str) -> Option<u64> {
        self.of_kind(kind)
            .filter_map(|r| match &r.event {
                JournalEvent::SaveStarted { step }
                | JournalEvent::NativePersisted { step }
                | JournalEvent::UniversalPublished { step } => Some(*step),
                _ => None,
            })
            .last()
    }
}

/// Append `event` to the journal under `base`, stamped with the current
/// wall clock. Crash-consistent per [`crate::commit::append_line`].
pub fn append(base: &Path, event: &JournalEvent) -> Result<()> {
    let t_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    append_at(base, t_ms, event)
}

/// [`append`] with an explicit timestamp (tests, replays).
pub fn append_at(base: &Path, t_ms: u64, event: &JournalEvent) -> Result<()> {
    let line = serde_json::to_string(&event.to_json(t_ms)).expect("a Value always serializes");
    commit::append_line(&journal_path(base), &line)
}

/// Read the journal under `base`. A missing file is an empty journal; a
/// torn final line (crash mid-append) is tolerated and flagged, never an
/// error. Only I/O failures propagate.
pub fn read(base: &Path) -> Result<Journal> {
    read_path(&journal_path(base))
}

/// [`read`] against an explicit journal file path.
pub fn read_path(path: &Path) -> Result<Journal> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Journal::default()),
        Err(e) => return Err(e.into()),
    };
    let mut journal = Journal::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // No newline: the append died mid-write. Everything before
            // this line is intact — the parseable prefix.
            journal.torn_tail = true;
            break;
        };
        let line = &bytes[offset..offset + nl];
        offset += nl + 1;
        journal.valid_bytes = offset as u64;
        let text = String::from_utf8_lossy(line);
        match serde_json::from_str::<Value>(text.trim()) {
            Ok(doc) => match JournalEvent::from_json(&doc) {
                Some(event) => journal.records.push(JournalRecord {
                    t_ms: doc.get("t_ms").and_then(Value::as_u64).unwrap_or(0),
                    event,
                }),
                None => journal.malformed += 1,
            },
            Err(_) => journal.malformed += 1,
        }
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::fault::{self, FaultPlan};

    fn temp_base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucp_journal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn all_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::SaveStarted { step: 10 },
            JournalEvent::NativePersisted { step: 10 },
            JournalEvent::UniversalPublished { step: 10 },
            JournalEvent::RecoveryBegin {
                rank: 2,
                step: 12,
                cause: "rank 2 panicked: injected \"fault\"".into(),
            },
            JournalEvent::Watchdog {
                rank: 1,
                step: 12,
                detail: "allreduce watchdog: rank 1 silent 5000ms".into(),
            },
            JournalEvent::RecoveryEnd {
                resume_step: Some(10),
                lost_steps: 2,
                recovery_ms: 321,
                parallel: "tp2_pp1_dp2".into(),
                source: "peer".into(),
            },
            JournalEvent::RecoveryEnd {
                resume_step: None,
                lost_steps: 12,
                recovery_ms: 5,
                parallel: "tp1_pp1_dp1".into(),
                source: "disk".into(),
            },
            JournalEvent::HotReplicated {
                step: 10,
                ranks: 4,
                bytes: 65536,
            },
            JournalEvent::HotRecoveryBegin { step: 12 },
            JournalEvent::HotRecoveryEnd {
                served_ranks: vec![0, 1, 3],
                fallback: false,
            },
            JournalEvent::HotRecoveryEnd {
                served_ranks: vec![],
                fallback: true,
            },
            JournalEvent::RetentionPrune {
                removed: vec![2, 4],
                bytes_reclaimed: 4096,
            },
            JournalEvent::Fsck {
                problems: 0,
                quarantined: 0,
                repair: true,
            },
        ]
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let base = temp_base("roundtrip");
        for (i, ev) in all_events().iter().enumerate() {
            append_at(&base, 1000 + i as u64, ev).unwrap();
        }
        let journal = read(&base).unwrap();
        assert!(!journal.torn_tail);
        assert_eq!(journal.malformed, 0);
        assert_eq!(
            journal.records.iter().map(|r| &r.event).collect::<Vec<_>>(),
            all_events().iter().collect::<Vec<_>>()
        );
        assert_eq!(journal.records[0].t_ms, 1000);
        assert_eq!(journal.last_step("universal_published"), Some(10));
        assert_eq!(journal.of_kind("recovery_end").count(), 2);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn missing_journal_reads_empty() {
        let base = temp_base("missing");
        let journal = read(&base).unwrap();
        assert!(journal.records.is_empty());
        assert!(!journal.torn_tail);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn unknown_kind_is_preserved_not_dropped() {
        let base = temp_base("unknown");
        commit::append_line(
            &journal_path(&base),
            r#"{"kind":"from_the_future","t_ms":9,"payload":[1,2]}"#,
        )
        .unwrap();
        let journal = read(&base).unwrap();
        assert_eq!(journal.malformed, 0);
        assert_eq!(
            journal.records[0].event,
            JournalEvent::Other {
                kind: "from_the_future".into()
            }
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn recovery_end_without_source_defaults_to_disk() {
        // Records written before the hot tier existed carry no `source`
        // field; they must parse as disk recoveries, not as malformed.
        let base = temp_base("no_source");
        commit::append_line(
            &journal_path(&base),
            r#"{"kind":"recovery_end","t_ms":7,"resume_step":4,"lost_steps":1,"recovery_ms":88,"parallel":"tp1_pp1_dp2"}"#,
        )
        .unwrap();
        let journal = read(&base).unwrap();
        assert_eq!(journal.malformed, 0);
        assert_eq!(
            journal.records[0].event,
            JournalEvent::RecoveryEnd {
                resume_step: Some(4),
                lost_steps: 1,
                recovery_ms: 88,
                parallel: "tp1_pp1_dp2".into(),
                source: "disk".into(),
            }
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn torn_tail_is_flagged_and_prefix_kept() {
        let base = temp_base("torn");
        append_at(&base, 1, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        append_at(&base, 2, &JournalEvent::NativePersisted { step: 1 }).unwrap();
        // Simulate a crash mid-append: raw bytes with no newline.
        let path = journal_path(&base);
        let mut bytes = std::fs::read(&path).unwrap();
        let prefix_len = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"kind\":\"save_st");
        std::fs::write(&path, &bytes).unwrap();
        let journal = read(&base).unwrap();
        assert!(journal.torn_tail);
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.malformed, 0);
        assert_eq!(journal.valid_bytes, prefix_len);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn malformed_complete_line_is_counted_as_corruption() {
        let base = temp_base("malformed");
        append_at(&base, 1, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        commit::append_line(&journal_path(&base), "not json at all").unwrap();
        append_at(&base, 3, &JournalEvent::NativePersisted { step: 1 }).unwrap();
        let journal = read(&base).unwrap();
        assert_eq!(journal.malformed, 1);
        assert_eq!(journal.records.len(), 2);
        assert!(!journal.torn_tail);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn non_integer_field_is_malformed_not_truncated() {
        let base = temp_base("fraction");
        append_at(&base, 1, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        commit::append_line(
            &journal_path(&base),
            r#"{"kind":"save_started","t_ms":2,"step":2.5}"#,
        )
        .unwrap();
        let journal = read(&base).unwrap();
        assert_eq!(journal.records.len(), 1);
        assert_eq!(journal.malformed, 1);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn deeply_nested_line_is_malformed_not_a_stack_overflow() {
        let base = temp_base("nested");
        append_at(&base, 1, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        commit::append_line(&journal_path(&base), &"[".repeat(100_000)).unwrap();
        append_at(&base, 3, &JournalEvent::NativePersisted { step: 1 }).unwrap();
        let journal = read(&base).unwrap();
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.malformed, 1);
        assert!(!journal.torn_tail);
        std::fs::remove_dir_all(&base).ok();
    }

    /// The acceptance sweep: kill the append at every kill point (plus a
    /// torn-write variant) and assert the journal stays a parseable
    /// prefix — prior records intact, at most the new one missing.
    #[test]
    fn kill_point_sweep_leaves_parseable_prefix() {
        let base = temp_base("sweep");
        append_at(&base, 1, &JournalEvent::SaveStarted { step: 1 }).unwrap();
        let armed = fault::arm(FaultPlan::count_only(&base));
        append_at(&base, 2, &JournalEvent::NativePersisted { step: 1 }).unwrap();
        let kill_points = armed.hits();
        drop(armed);
        assert_eq!(kill_points, 2);
        let baseline = read(&base).unwrap().records.len();

        for k in 0..kill_points {
            for truncate in [None, Some(5)] {
                let tag = format!("kill {k} truncate {truncate:?}");
                let plan = FaultPlan {
                    truncate_to: truncate,
                    ..FaultPlan::kill_at(k, &base)
                };
                let armed = fault::arm(plan);
                let err = append_at(
                    &base,
                    100 + k,
                    &JournalEvent::UniversalPublished { step: 1 },
                )
                .unwrap_err();
                drop(armed);
                assert!(err.to_string().contains("injected crash"), "{tag}: {err}");
                let journal = read(&base).unwrap();
                assert_eq!(journal.malformed, 0, "{tag}: corrupt mid-file line");
                assert!(
                    journal.records.len() >= baseline,
                    "{tag}: lost committed records"
                );
                for r in &journal.records[..baseline] {
                    assert_ne!(
                        r.event,
                        JournalEvent::UniversalPublished { step: 1 },
                        "{tag}: prefix reordered"
                    );
                }
                // Heal for the next round: a fresh append must succeed and
                // the journal must absorb any torn tail the crash left.
                append_at(&base, 200 + k, &JournalEvent::SaveStarted { step: 2 }).unwrap();
                let healed = read(&base).unwrap();
                assert_eq!(
                    healed.records.last().unwrap().event,
                    JournalEvent::SaveStarted { step: 2 },
                    "{tag}: journal not replayable after crash"
                );
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
