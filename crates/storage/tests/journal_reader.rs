//! The run-journal reader against files this build did not write: a
//! journal written by the codec that preceded `serde_json`, and
//! structured fuzzing — byte flips, splices of JSON-significant bytes and
//! truncations over a valid `journal.jsonl`. Whatever the damage,
//! `journal::read_path` returns `Ok`, counts what it cannot parse, flags
//! a torn tail, and keeps every record before the first damaged byte.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde_json::Value;
use ucp_storage::journal::{self, Journal, JournalEvent};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucp_journal_reader_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One record of every kind, an unknown kind and a null `resume_step`.
/// `tests/fixtures/journal_sorted_keys.jsonl`, written by the codec that
/// preceded `serde_json` (keys sorted, every number an `f64`), holds
/// these in order, stamped from 1 760 000 000 000 ms, then a torn tail.
fn events() -> Vec<JournalEvent> {
    vec![
        JournalEvent::SaveStarted { step: 10 },
        JournalEvent::NativePersisted { step: 10 },
        JournalEvent::UniversalPublished { step: 10 },
        JournalEvent::RecoveryBegin {
            rank: 2,
            step: 12,
            cause: "rank 2 panicked: injected \"fault\"\tat step 12".into(),
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
        JournalEvent::Watchdog {
            rank: 1,
            step: 12,
            detail: "allreduce watchdog: rank 1 silent 5000ms".into(),
        },
        JournalEvent::RetentionPrune {
            removed: vec![2, 4],
            bytes_reclaimed: 4096,
        },
        JournalEvent::Fsck {
            problems: 3,
            quarantined: 1,
            repair: true,
        },
        JournalEvent::Other {
            kind: "from_the_future".into(),
        },
    ]
}

fn sorted_keys_fixture() -> Vec<u8> {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_sorted_keys.jsonl");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn journal_written_with_sorted_keys_reads_back() {
    let bytes = sorted_keys_fixture();
    let base = scratch("sorted_keys");
    std::fs::write(journal::journal_path(&base), &bytes).unwrap();
    let journal = journal::read(&base).unwrap();
    let events = events();
    assert_eq!(
        journal.records.iter().map(|r| &r.event).collect::<Vec<_>>(),
        events.iter().collect::<Vec<_>>()
    );
    let stamps: Vec<u64> = journal.records.iter().map(|r| r.t_ms).collect();
    let want: Vec<u64> = (0..events.len() as u64)
        .map(|i| 1_760_000_000_000 + i)
        .collect();
    assert_eq!(stamps, want);
    assert_eq!(journal.malformed, 0);
    assert!(journal.torn_tail);
    let torn = bytes.len() - bytes.iter().rposition(|&b| b == b'\n').unwrap() - 1;
    assert_eq!(torn, r#"{"kind":"save_started","st"#.len());
    assert_eq!(journal.valid_bytes, (bytes.len() - torn) as u64);

    // The same events written now: same keys, same line lengths (so
    // a save's journal bytes do not move), only the key order differs.
    let again = scratch("sorted_keys_again");
    for (i, ev) in events.iter().enumerate() {
        journal::append_at(&again, 1_760_000_000_000 + i as u64, ev).unwrap();
    }
    let now = std::fs::read_to_string(journal::journal_path(&again)).unwrap();
    let old = std::str::from_utf8(&bytes[..bytes.len() - torn]).unwrap();
    assert_eq!(old.lines().count(), now.lines().count());
    let keys = |line: &str| -> Vec<String> {
        let doc: Value = serde_json::from_str(line).unwrap();
        let mut keys: Vec<String> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    };
    for (o, n) in old.lines().zip(now.lines()) {
        assert_eq!(o.len(), n.len(), "{n}");
        assert_eq!(keys(o), keys(n), "{n}");
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&again).ok();
}

/// The bytes of a valid journal holding [`events`], written once.
fn valid_journal() -> Vec<u8> {
    static VALID: OnceLock<Vec<u8>> = OnceLock::new();
    VALID
        .get_or_init(|| {
            let base = scratch("valid");
            for (i, ev) in events().iter().enumerate() {
                journal::append_at(&base, 1_000 + i as u64, ev).unwrap();
            }
            let bytes = std::fs::read(journal::journal_path(&base)).unwrap();
            std::fs::remove_dir_all(&base).ok();
            bytes
        })
        .clone()
}

fn read_bytes(path: &Path, bytes: &[u8]) -> Journal {
    std::fs::write(path, bytes).unwrap();
    journal::read_path(path).expect("a damaged journal still reads")
}

/// What every read of `damaged` (equal to `valid` before byte `first`)
/// must satisfy.
fn check(valid: &[u8], damaged: &[u8], first: usize, journal: &Journal) -> Result<(), String> {
    let lines = damaged.iter().filter(|&&b| b == b'\n').count();
    prop_assert!(journal.records.len() + journal.malformed <= lines);
    let torn = damaged.last().is_some_and(|&b| b != b'\n');
    prop_assert_eq!(journal.torn_tail, torn);
    let valid_bytes = damaged
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    prop_assert_eq!(journal.valid_bytes, valid_bytes as u64);
    // Lines that end before the damage are untouched records.
    let intact = valid[..first.min(valid.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    let want = events();
    prop_assert!(journal.records.len() >= intact);
    for (i, record) in journal.records[..intact].iter().enumerate() {
        prop_assert_eq!(&record.event, &want[i]);
        prop_assert_eq!(record.t_ms, 1_000 + i as u64);
    }
    Ok(())
}

/// Bytes that change a JSON document's structure when spliced in.
const STRUCTURAL: &[u8] = b"[]{}\",:\\\n0-.e";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_flips_never_panic(at in 0.0f64..1.0, mask in 1u32..256) {
        let valid = valid_journal();
        let i = ((at * valid.len() as f64) as usize).min(valid.len() - 1);
        let mut damaged = valid.clone();
        damaged[i] ^= mask as u8;
        let path = scratch("flip").join(journal::JOURNAL_FILE);
        let journal = read_bytes(&path, &damaged);
        check(&valid, &damaged, i, &journal)?;
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn structural_splices_never_panic(at in 0.0f64..1.0, pick in 0..STRUCTURAL.len(), len in 1usize..4) {
        let valid = valid_journal();
        let i = ((at * valid.len() as f64) as usize).min(valid.len() - 1);
        let mut damaged = valid.clone();
        let end = (i + len).min(damaged.len());
        damaged.splice(i..end, vec![STRUCTURAL[pick]; len]);
        let path = scratch("splice").join(journal::JOURNAL_FILE);
        let journal = read_bytes(&path, &damaged);
        check(&valid, &damaged, i, &journal)?;
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncations_keep_the_complete_prefix(at in 0.0f64..1.0) {
        let valid = valid_journal();
        let cut = (at * (valid.len() + 1) as f64) as usize;
        let cut = cut.min(valid.len());
        let path = scratch("truncate").join(journal::JOURNAL_FILE);
        let journal = read_bytes(&path, &valid[..cut]);
        check(&valid, &valid[..cut], cut, &journal)?;
        // A cut never corrupts a complete line: every one is a record.
        prop_assert_eq!(journal.malformed, 0);
        let complete = valid[..cut].iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(journal.records.len(), complete);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
