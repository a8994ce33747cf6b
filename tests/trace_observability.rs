//! End-to-end observability: a TP=2 × PP=2 training run with overlapped
//! checkpointing, followed by convert and universal load, must produce a
//! Chrome trace with one pid per rank and every event category, survive a
//! lossless JSON round-trip, and yield a sane busy/wait summary.

use std::sync::OnceLock;

use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::load::{gen_ucp_metadata, LoadOptions, LoadSession, DEFAULT_ALIGNMENT};
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::telemetry::json::Json;
use ucp_repro::telemetry::trace::{self, EventKind, TraceSession, DRIVER_PID};
use ucp_repro::trainer::{train_run_overlapped, ResumeMode, TrainConfig, TrainPlan};

const WORLD: usize = 4; // TP=2 × PP=2

/// Record the shared workload exactly once per test process. Every test
/// derives from this one recording: the tracer is process-global, so a
/// single synchronized recording avoids cross-test interleaving.
fn recorded_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let dir = std::env::temp_dir().join("ucp_it_trace_observability");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let parallel = ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1);
        let plan = TrainPlan {
            config: TrainConfig::quick(ModelConfig::gpt3_tiny(), parallel, 7),
            until_iteration: 4,
            resume: ResumeMode::Fresh,
            checkpoint_every: Some(2),
            checkpoint_dir: Some(dir.clone()),
        };

        let tracer = trace::global();
        tracer.start();
        trace::register_thread(DRIVER_PID, "driver");
        train_run_overlapped(&plan).unwrap();
        let opts = ConvertOptions {
            workers: 2,
            verify_replicas: false,
            spec_override: None,
        };
        convert_to_universal(&dir, 4, &opts).unwrap();
        let session = LoadSession::open(&dir, 4, LoadOptions::default()).unwrap();
        for rank in 0..parallel.world_size() {
            let plan =
                gen_ucp_metadata(session.manifest(), &parallel, rank, DEFAULT_ALIGNMENT).unwrap();
            session.load_plan(&plan).unwrap();
        }
        tracer.set_enabled(false);
        let text = tracer.take_session().to_chrome_json();
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

#[test]
fn one_pid_per_rank_and_all_categories() {
    let session = TraceSession::from_chrome_json(recorded_trace()).unwrap();
    let ranks = session.ranks();
    assert_eq!(
        ranks.iter().copied().collect::<Vec<_>>(),
        (0..WORLD as u64).collect::<Vec<_>>(),
        "one pid per cluster rank"
    );
    let mut cats = std::collections::BTreeSet::new();
    for track in &session.tracks {
        for ev in &track.events {
            match &ev.kind {
                EventKind::Begin { cat, .. } | EventKind::Mark { cat, .. } => {
                    cats.insert(cat.as_str());
                }
                EventKind::Collective { .. } => {
                    cats.insert("collective");
                }
                EventKind::Edge { .. } => {
                    cats.insert("comm");
                }
                EventKind::End { .. } => {}
            }
        }
    }
    for required in ["collective", "compute", "checkpoint", "convert", "load"] {
        assert!(cats.contains(required), "missing category {required}");
    }
}

#[test]
fn chrome_invariants_hold_in_raw_json() {
    // Validate the exported document independently of the parser: walk
    // the raw traceEvents and check per-(pid, tid) B/E balance.
    let doc = Json::parse(recorded_trace()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut depth: std::collections::BTreeMap<(u64, u64), i64> = Default::default();
    let mut durations = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap();
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap();
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap();
        match ph {
            "B" => {
                *depth.entry((pid, tid)).or_default() += 1;
                durations += 1;
            }
            "E" => {
                let d = depth.entry((pid, tid)).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without B on pid {pid} tid {tid}");
            }
            "M" | "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(durations > 0, "trace has duration events");
    for ((pid, tid), d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on pid {pid} tid {tid}");
    }
}

#[test]
fn collective_timestamps_are_ordered() {
    let session = TraceSession::from_chrome_json(recorded_trace()).unwrap();
    let mut seen = 0usize;
    for track in &session.tracks {
        for ev in &track.events {
            if let EventKind::Collective {
                ready_ns, exit_ns, ..
            } = &ev.kind
            {
                assert!(ev.ts_ns <= *ready_ns, "enter must not follow ready");
                assert!(ready_ns <= exit_ns, "ready must not follow exit");
                seen += 1;
            }
        }
    }
    assert!(seen > 0, "run recorded collectives");
}

#[test]
fn chrome_roundtrip_is_lossless() {
    let text = recorded_trace();
    let session = TraceSession::from_chrome_json(text).unwrap();
    assert_eq!(session.to_chrome_json(), text, "export is a fixed point");
}

#[test]
fn summary_reports_busy_wait_and_stragglers() {
    let session = TraceSession::from_chrome_json(recorded_trace()).unwrap();
    let summary = session.summary();
    let rank_rows: Vec<_> = summary
        .ranks
        .iter()
        .filter(|r| r.pid < DRIVER_PID)
        .collect();
    assert_eq!(rank_rows.len(), WORLD);
    for r in &rank_rows {
        assert!(r.wall_ns > 0);
        assert!(r.busy_ns <= r.wall_ns);
        assert!(r.wait_ns <= r.collective_ns);
        assert!(r.busy_pct() > 0.0 && r.busy_pct() <= 100.0);
        assert!(r.collectives > 0, "every rank joined collectives");
    }
    // Straggler ranking covers every rank, sorted by ascending wait (the
    // rank that waits least is the one the others wait on).
    assert_eq!(summary.stragglers.len(), WORLD);
    assert!(summary.stragglers.windows(2).all(|w| w[0].1 <= w[1].1));
    assert!(!summary.ops.is_empty(), "per-op wait table populated");
    assert!(!summary.critical_path.is_empty(), "critical path extracted");
    // The summary itself serializes.
    let json = Json::parse(&summary.to_json()).unwrap();
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("ucp-trace-summary-v1")
    );
}
