//! The benchmark's own tracer: spans recorded from *outside* the program,
//! around each call into a layer's public function.
//!
//! Each thread records `{name, rank, pass, start_ns, end_ns, parent}` into
//! a `Vec` it owns and hands the whole `Vec` to the [`Tracer`] when it
//! ends; nothing is shared while a span is open. Self time is a span's
//! duration minus its direct children's. The traced run writes the spans
//! out as a Chrome trace when it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `trainer.step`.
    pub name: &'static str,
    /// Pass number the span belongs to.
    pub pass: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index (in the same thread's `Vec`) of the enclosing span.
    pub parent: Option<u32>,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one thread recorded.
#[derive(Debug, Clone)]
pub struct ThreadSpans {
    /// Cluster rank the thread ran as (`MAIN` for the orchestrating thread).
    pub rank: usize,
    /// `"train"` for a rank's training thread, `"main"` for the orchestrator.
    pub role: &'static str,
    /// When the thread's recorder was created / dropped.
    pub begin_ns: u64,
    /// See `begin_ns`.
    pub end_ns: u64,
    /// Spans in the order they were opened.
    pub spans: Vec<SpanRec>,
}

/// Rank id used for the orchestrating (non-cluster) thread.
pub const MAIN: usize = usize::MAX;

/// Collects per-thread span vectors.
pub struct Tracer {
    t0: Instant,
    pass: AtomicU32,
    done: Mutex<Vec<ThreadSpans>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            pass: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag subsequently opened spans with `pass`.
    pub fn set_pass(&self, pass: u32) {
        // Relaxed: a label on spans, publishes no other data.
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// A recorder for the calling thread.
    pub fn thread(&self, rank: usize, role: &'static str) -> ThreadTrace<'_> {
        ThreadTrace {
            tracer: self,
            rank,
            role,
            begin_ns: self.now_ns(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Everything recorded so far, by threads that have ended.
    pub fn take(&self) -> Vec<ThreadSpans> {
        std::mem::take(&mut *self.done.lock().expect("tracer sink poisoned"))
    }
}

/// One thread's span recorder. Dropping it hands the spans to the tracer.
pub struct ThreadTrace<'t> {
    tracer: &'t Tracer,
    rank: usize,
    role: &'static str,
    begin_ns: u64,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<u32>>,
}

impl ThreadTrace<'_> {
    /// Run `f` inside a span called `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// Open a span; it closes when the guard drops (also on unwind, so a
    /// rank that fails mid-call leaves a well-formed trace).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_, '_> {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                pass: self.tracer.pass.load(Ordering::Relaxed),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        // Clock read last, so the bookkeeping above is outside the span.
        self.spans.borrow_mut()[idx as usize].start_ns = self.tracer.now_ns();
        SpanGuard { owner: self, idx }
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a, 't> {
    owner: &'a ThreadTrace<'t>,
    idx: u32,
}

impl Drop for SpanGuard<'_, '_> {
    fn drop(&mut self) {
        let end = self.owner.tracer.now_ns();
        self.owner.spans.borrow_mut()[self.idx as usize].end_ns = end;
        let mut open = self.owner.open.borrow_mut();
        while let Some(top) = open.pop() {
            if top == self.idx {
                break;
            }
        }
    }
}

impl Drop for ThreadTrace<'_> {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut *self.spans.borrow_mut());
        let rec = ThreadSpans {
            rank: self.rank,
            role: self.role,
            begin_ns: self.begin_ns,
            end_ns: self.tracer.now_ns(),
            spans,
        };
        // A poisoned sink only means another thread panicked while
        // flushing; the Vec inside is still valid.
        match self.tracer.done.lock() {
            Ok(mut g) => g.push(rec),
            Err(p) => p.into_inner().push(rec),
        }
    }
}

/// What an open-and-close of nothing costs: the reading reported for a
/// layer the script never calls (a constant 0 would be refused by the
/// driver as "a time that reads the same on every run").
pub fn empty_bracket_ns() -> f64 {
    const READS: u32 = 64;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// Self time of every span: duration minus direct children.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name samples pulled out of a set of thread traces.
#[derive(Debug, Default, Clone)]
pub struct SpanTable {
    /// name → durations in milliseconds (one per span).
    pub dur_ms: BTreeMap<&'static str, Vec<f64>>,
    /// name → total self time in milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
}

/// Collect durations and self times of the spans `keep` selects.
pub fn tabulate(threads: &[ThreadSpans], keep: impl Fn(&ThreadSpans) -> bool) -> SpanTable {
    let mut table = SpanTable::default();
    for t in threads.iter().filter(|t| keep(t)) {
        let own = self_times_ns(&t.spans);
        for (s, own_ns) in t.spans.iter().zip(own) {
            table
                .dur_ms
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e6);
            *table.self_ms.entry(s.name).or_default() += own_ns as f64 / 1e6;
        }
    }
    table
}

/// Share of the rank-0 training threads' lifetime that lies inside named
/// spans (top-level spans; their children are inside them).
pub fn coverage(threads: &[ThreadSpans]) -> f64 {
    let (mut covered, mut alive) = (0u64, 0u64);
    for t in threads.iter().filter(|t| t.rank == 0 && t.role == "train") {
        alive += t.end_ns.saturating_sub(t.begin_ns);
        covered += t
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRec::dur_ns)
            .sum::<u64>();
    }
    if alive == 0 {
        0.0
    } else {
        covered as f64 / alive as f64
    }
}

/// Chrome trace format (`chrome://tracing`, Perfetto): one complete event
/// per span, `pid` = rank, `tid` = role.
pub fn chrome_json(threads: &[ThreadSpans]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for t in threads {
        let pid = if t.rank == MAIN { 9999 } else { t.rank };
        for s in &t.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":\"{}\",\"args\":{{\"pass\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                t.role,
                s.pass
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            pass: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            rec("a", 0, 100, None),
            rec("b", 10, 60, Some(0)),
            rec("c", 20, 30, Some(1)),
            rec("d", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn nesting_and_flush_on_drop() {
        let tracer = Tracer::new();
        {
            let tt = tracer.thread(0, "train");
            tt.time("outer", || {
                tt.time("inner", || std::hint::black_box(1 + 1));
            });
            tt.time("next", || ());
        }
        let threads = tracer.take();
        assert_eq!(threads.len(), 1);
        let s = &threads[0].spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("next", None));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let cov = coverage(&threads);
        assert!(cov > 0.0 && cov <= 1.0, "{cov}");
        let table = tabulate(&threads, |_| true);
        assert_eq!(table.dur_ms["outer"].len(), 1);
        assert!(chrome_json(&threads).contains("\"name\":\"inner\""));
    }

    #[test]
    fn span_closes_on_unwind() {
        let tracer = Tracer::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tt = tracer.thread(1, "train");
            tt.time("dies", || panic!("boom"));
        }));
        assert!(r.is_err());
        let threads = tracer.take();
        assert_eq!(threads[0].spans[0].name, "dies");
        assert!(threads[0].spans[0].end_ns >= threads[0].spans[0].start_ns);
    }

    #[test]
    fn empty_bracket_is_positive() {
        assert!(empty_bracket_ns() > 0.0);
    }
}
