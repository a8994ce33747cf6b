//! Golden-file tests: the JSON and Prometheus renderings of a fixed
//! report must match the committed artifacts byte-for-byte, so any
//! schema drift is an explicit, reviewed diff.
//!
//! To regenerate after an intentional schema change:
//! `UCP_BLESS=1 cargo test -p ucp-telemetry --test golden`

use std::path::PathBuf;

use ucp_telemetry::{BucketStat, CounterStat, HistStat, Report, SpanStat};

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

#[test]
fn golden_json_parses_back_to_the_fixture() {
    let path = golden_dir().join("report.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let parsed = Report::from_json(&text).unwrap();
    assert_eq!(parsed, fixture());
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
