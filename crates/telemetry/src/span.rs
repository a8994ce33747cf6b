//! The phase guard: one scope timed once, for the metrics report and
//! the trace.

use std::time::Instant;

use crate::recorder::Recorder;
use crate::trace::{TraceCat, TraceSpan, Tracer};

/// Times one phase, named by an absolute slash path (`save/persist`).
///
/// On drop — scope end, `?` return, or unwind alike — the elapsed time is
/// recorded under `path` in the recorder (if it was enabled at open), and
/// a `Begin`/`End` pair named `path` brackets the scope on the tracer (if
/// it was enabled at open and [`TraceCat::of_path`] maps the path's first
/// segment to a category). With both disabled, opening costs two relaxed
/// loads: no clock read, no allocation.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
pub struct Span<'a> {
    rec: &'a Recorder,
    path: &'a str,
    /// `None` when the recorder was disabled at open.
    start: Option<Instant>,
    /// `None` when the tracer was disabled at open or the path has no
    /// trace category. Dropped after [`Drop::drop`] runs, which is what
    /// emits the `End`.
    _trace: Option<TraceSpan<'a>>,
}

impl<'a> Span<'a> {
    /// Open a span over an explicit recorder and tracer (the globals'
    /// spelling is [`crate::span()`]).
    #[inline]
    pub fn open(rec: &'a Recorder, tracer: &'a Tracer, path: &'a str) -> Span<'a> {
        let trace = if tracer.is_enabled() {
            TraceCat::of_path(path).map(|cat| tracer.span(cat, path))
        } else {
            None
        };
        Span {
            rec,
            path,
            start: rec.is_enabled().then(Instant::now),
            _trace: trace,
        }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.rec.record_span(self.path, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceSession};

    fn names(session: &TraceSession) -> Vec<(&'static str, TraceCat, String)> {
        session
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match &e.kind {
                EventKind::Begin { cat, name } => Some(("B", *cat, name.clone())),
                EventKind::End { cat, name } => Some(("E", *cat, name.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_guard_is_inert() {
        let rec = Recorder::new_disabled();
        let tracer = Tracer::new_disabled();
        {
            let sp = Span::open(&rec, &tracer, "save/persist");
            // Structural: nothing was read from the clock or allocated.
            assert!(sp.start.is_none());
            assert!(sp._trace.is_none());
        }
        assert!(rec.report("t").spans.is_empty());
        assert_eq!(tracer.take_session().event_count(), 0);
    }

    #[test]
    fn one_path_names_the_phase_in_both_channels() {
        let rec = Recorder::new();
        let tracer = Tracer::new();
        let paths = [
            ("save/persist", TraceCat::Checkpoint),
            ("fsck/total", TraceCat::Checkpoint),
            ("convert/total", TraceCat::Convert),
            ("load/total", TraceCat::Load),
            ("recovery/locate", TraceCat::Recovery),
        ];
        let mut want = Vec::new();
        for (path, cat) in paths {
            drop(Span::open(&rec, &tracer, path));
            assert_eq!(rec.report("t").span(path).unwrap().count, 1);
            want.push(("B", cat, path.to_string()));
            want.push(("E", cat, path.to_string()));
        }
        assert_eq!(names(&tracer.take_session()), want);
    }

    #[test]
    fn uncategorised_paths_are_metrics_only() {
        let rec = Recorder::new();
        let tracer = Tracer::new();
        for path in ["storage/write", "io/read", "bench/fig13_load", "save"] {
            let sp = Span::open(&rec, &tracer, path);
            assert!(sp._trace.is_none(), "{path}");
            drop(sp);
            assert!(rec.report("t").span(path).is_some(), "{path}");
        }
        assert_eq!(tracer.take_session().event_count(), 0);
    }

    #[test]
    fn channels_arm_independently() {
        // Tracer on, recorder off: the `ucp trace` configuration.
        let rec = Recorder::new_disabled();
        let tracer = Tracer::new();
        let sp = Span::open(&rec, &tracer, "load/read");
        assert!(sp.start.is_none());
        drop(sp);
        assert!(rec.report("t").spans.is_empty());
        assert_eq!(names(&tracer.take_session()).len(), 2);
    }

    #[test]
    fn failed_phases_are_still_measured() {
        let rec = Recorder::new();
        let tracer = Tracer::new();
        let failing = || -> Result<(), String> {
            let _sp = Span::open(&rec, &tracer, "save/exchange");
            Err::<(), _>("peer hung up".to_string())?;
            Ok(())
        };
        assert!(failing().is_err());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sp = Span::open(&rec, &tracer, "save/persist");
            panic!("rank dies inside persist");
        }));
        assert!(unwound.is_err());

        let report = rec.report("t");
        assert_eq!(report.span("save/exchange").unwrap().count, 1);
        assert_eq!(report.span("save/persist").unwrap().count, 1);
        // Both exits closed their `Begin`: the export stays balanced per
        // thread, so the strict parser accepts it.
        let session = tracer.take_session();
        let back = TraceSession::from_chrome_json(&session.to_chrome_json()).unwrap();
        assert_eq!(back.event_count(), 4);
    }
}
