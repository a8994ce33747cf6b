//! Golden-file tests: the JSON and Prometheus renderings of a fixed
//! report must match the committed artifacts byte-for-byte, so any
//! schema drift is an explicit, reviewed diff. `report.json` is
//! `serde_json`'s rendering: fields in declaration order, an integral
//! float printed as `1.0`.
//!
//! The `*_sorted_keys.json` files were written by the hand-rolled codec
//! that preceded `serde_json` (keys sorted, every number an `f64`,
//! integral floats printed as integers). They are never re-blessed: they
//! hold the promise that files written before the switch still read back
//! to the same values.
//!
//! To regenerate `report.json` and `report.prom` after an intentional
//! schema change: `UCP_BLESS=1 cargo test -p ucp-telemetry --test golden`

use std::path::PathBuf;

use ucp_telemetry::trace::{EventKind, ThreadTrack, TraceEvent, DRIVER_PID};
use ucp_telemetry::{BucketStat, CounterStat, HistStat, Report, SpanStat, TraceCat, TraceSession};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A report with every feature exercised: nested span paths, counters,
/// a histogram with spread-out buckets, and label characters that need
/// escaping in both output formats.
fn fixture() -> Report {
    Report {
        label: "golden \"run\"".to_string(),
        spans: vec![
            SpanStat {
                path: "convert".into(),
                count: 1,
                total_secs: 2.5,
                min_secs: 2.5,
                max_secs: 2.5,
            },
            SpanStat {
                path: "convert/atom_write".into(),
                count: 12,
                total_secs: 0.36,
                min_secs: 0.01,
                max_secs: 0.09,
            },
            SpanStat {
                path: "convert/extract".into(),
                count: 4,
                total_secs: 1.0,
                min_secs: 0.2,
                max_secs: 0.3,
            },
        ],
        counters: vec![
            CounterStat {
                name: "convert/atoms_written".into(),
                value: 12,
            },
            CounterStat {
                name: "convert/bytes_written".into(),
                value: 1048576,
            },
            CounterStat {
                name: "convert/fragments".into(),
                value: 48,
            },
        ],
        histograms: vec![HistStat {
            name: "load/atom_read_ns".into(),
            count: 7,
            sum: 7300000,
            min: 100000,
            max: 2100000,
            buckets: vec![
                BucketStat {
                    le: 131071,
                    count: 2,
                },
                BucketStat {
                    le: 1048575,
                    count: 3,
                },
                BucketStat {
                    le: 2097151,
                    count: 1,
                },
                BucketStat {
                    le: 4194303,
                    count: 1,
                },
            ],
        }],
    }
}

fn check_or_bless(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UCP_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, expected,
        "{name} drifted from its golden file; run with UCP_BLESS=1 if intentional"
    );
}

#[test]
fn json_matches_golden_file() {
    check_or_bless("report.json", &fixture().to_json());
}

#[test]
fn prometheus_matches_golden_file() {
    check_or_bless("report.prom", &fixture().to_prometheus());
}

fn read_golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn golden_json_parses_back_to_the_fixture() {
    for name in ["report.json", "report_sorted_keys.json"] {
        let parsed = Report::from_json(&read_golden(name)).unwrap();
        assert_eq!(parsed, fixture(), "{name}");
    }
}

fn event(ts_ns: u64, seq: u64, kind: EventKind) -> TraceEvent {
    TraceEvent { ts_ns, seq, kind }
}

/// The session `trace_sorted_keys.json` was exported from: every event
/// kind, two ranks and a `DRIVER_PID` thread.
fn trace_fixture() -> TraceSession {
    let step = |cat| EventKind::Begin {
        cat,
        name: "step".into(),
    };
    let collective = |exit_ns| EventKind::Collective {
        op: "all_reduce".into(),
        group: "0-1".into(),
        bytes: 4096,
        ready_ns: 2_250,
        exit_ns,
    };
    TraceSession {
        tracks: vec![
            ThreadTrack {
                pid: 0,
                tid: 1,
                label: "main".into(),
                events: vec![
                    event(1_000, 0, step(TraceCat::Compute)),
                    event(1_500, 1, collective(3_001)),
                    event(
                        3_500,
                        2,
                        EventKind::Edge {
                            send: true,
                            peer: 1,
                            bytes: 128,
                        },
                    ),
                    event(
                        4_000,
                        3,
                        EventKind::End {
                            cat: TraceCat::Compute,
                            name: "step".into(),
                        },
                    ),
                    event(
                        4_123,
                        4,
                        EventKind::Mark {
                            cat: TraceCat::Checkpoint,
                            name: "publish".into(),
                        },
                    ),
                ],
            },
            ThreadTrack {
                pid: 1,
                tid: 2,
                label: "main".into(),
                events: vec![
                    event(1_200, 5, collective(3_002)),
                    event(
                        3_600,
                        6,
                        EventKind::Edge {
                            send: false,
                            peer: 0,
                            bytes: 128,
                        },
                    ),
                ],
            },
            ThreadTrack {
                pid: DRIVER_PID,
                tid: 3,
                label: "saver".into(),
                events: vec![
                    event(
                        5_000,
                        7,
                        EventKind::Begin {
                            cat: TraceCat::Checkpoint,
                            name: "save/persist".into(),
                        },
                    ),
                    event(
                        7_250,
                        8,
                        EventKind::End {
                            cat: TraceCat::Checkpoint,
                            name: "save/persist".into(),
                        },
                    ),
                ],
            },
        ],
    }
}

#[test]
fn sorted_key_trace_reads_back_to_its_session() {
    let session = TraceSession::from_chrome_json(&read_golden("trace_sorted_keys.json")).unwrap();
    assert_eq!(session, trace_fixture());
    // Re-exported, it is a fixed point of the current codec.
    let text = session.to_chrome_json();
    assert_eq!(TraceSession::from_chrome_json(&text).unwrap(), session);
}

/// Every byte of the golden trace XORed with `0xFF` and with `0x03`, and
/// every truncation: the loader returns a session or an error, never
/// panics, and every session it returns can be summarized.
#[test]
fn damaged_traces_load_or_fail_and_summarize_without_panicking() {
    let bytes = read_golden("trace_sorted_keys.json").into_bytes();
    let try_load = |damaged: &[u8]| {
        if let Ok(session) = TraceSession::from_chrome_json(&String::from_utf8_lossy(damaged)) {
            session.summary();
        }
    };
    let mut damaged = bytes.clone();
    for i in 0..bytes.len() {
        for mask in [0xFF, 0x03] {
            damaged[i] = bytes[i] ^ mask;
            try_load(&damaged);
        }
        damaged[i] = bytes[i];
    }
    for n in 0..bytes.len() {
        try_load(&bytes[..n]);
    }
}

#[test]
fn trace_clock_and_sequence_are_exact_u64() {
    let mut session = trace_fixture();
    let saver = &mut session.tracks[2];
    saver.events[0].ts_ns = (1 << 53) + 1;
    saver.events[0].seq = u64::MAX - 1;
    saver.events[1].ts_ns = (1 << 53) + 3;
    saver.events[1].seq = u64::MAX;
    let text = session.to_chrome_json();
    assert_eq!(TraceSession::from_chrome_json(&text).unwrap(), session);
}

#[test]
fn end_to_end_recorder_to_file() {
    let rec = ucp_telemetry::Recorder::new();
    let tracer = ucp_telemetry::Tracer::new_disabled();
    {
        let _phase = ucp_telemetry::Span::open(&rec, &tracer, "convert/extract");
        rec.count("convert/bytes_written", 4096);
        rec.observe("load/atom_read_ns", 250_000);
    }
    let report = rec.report("e2e");
    let dir = std::env::temp_dir().join(format!("ucp-telemetry-e2e-{}", std::process::id()));
    let path = dir.join("metrics.json");
    report.write_json_file(&path).unwrap();
    let back = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(back.label, "e2e");
    assert_eq!(back.counter("convert/bytes_written"), Some(4096));
    assert!(back.span("convert/extract").unwrap().total_secs >= 0.0);
    assert_eq!(back.hist("load/atom_read_ns").unwrap().count, 1);
}
