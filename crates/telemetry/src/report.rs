//! The metrics report: the one schema shared by `ucp --metrics-out`,
//! the bench harness, and CI's perf-smoke artifact.
//!
//! A [`Report`] is plain data — span timings, counters, histograms — with
//! a deterministic JSON form (fields in declaration order, stable field
//! set, `schema` version tag, integers exact to `u64::MAX`) and a
//! Prometheus text rendering for scrape-style consumers. Reports merge,
//! so a multi-command run (train → convert → load) can accumulate into
//! one artifact.

use serde::{Deserialize, Serialize, Value};

use crate::hist::Histogram;

/// Schema tag embedded in every JSON report.
pub const SCHEMA: &str = "ucp-metrics-v1";

/// Aggregated timing of one span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Slash-separated phase path (e.g. `convert/extract`).
    pub path: String,
    /// Completed span count.
    pub count: u64,
    /// Total seconds across completions.
    pub total_secs: f64,
    /// Shortest completion (seconds).
    pub min_secs: f64,
    /// Longest completion (seconds).
    pub max_secs: f64,
}

/// A monotonic counter's final value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Counter name (e.g. `convert/bytes_written`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram bucket of the *JSON* form: observations `<= le` not
/// counted by earlier buckets (per-bucket counts). This is only the
/// storage shape — [`Report::to_prometheus`] converts to the standard
/// cumulative `_bucket`/`_sum`/`_count` series real scrapers expect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketStat {
    /// Inclusive upper bound.
    pub le: u64,
    /// Observations in this bucket.
    pub count: u64,
}

/// A histogram's summary and non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistStat {
    /// Histogram name (e.g. `load/atom_read_ns`).
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty buckets in ascending bound order.
    pub buckets: Vec<BucketStat>,
}

impl HistStat {
    /// Summarize a histogram (empty histograms keep `min = 0`).
    pub fn from_histogram(name: &str, h: &Histogram) -> HistStat {
        HistStat {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: if h.is_empty() { 0 } else { h.min },
            max: h.max,
            buckets: h
                .nonzero_buckets()
                .into_iter()
                .map(|(le, count)| BucketStat { le, count })
                .collect(),
        }
    }

    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Rebuild a [`Histogram`] from this summary. Bucket-resolution
    /// lossless: per-bucket counts and count/sum/min/max all survive, so
    /// quantiles computed from a parsed JSON report match the live ones.
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        h.count = self.count;
        h.sum = self.sum;
        h.min = if self.count == 0 { u64::MAX } else { self.min };
        h.max = self.max;
        for b in &self.buckets {
            // The bound's bit length is its bucket index (le = 2^i - 1),
            // and stays right even if a huge bound lost precision in JSON.
            h.buckets[Histogram::bucket_index(b.le)] += b.count;
        }
        h
    }

    /// Approximate quantile (`q` in `[0, 1]`) over the summarized buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        self.to_histogram().quantile(q)
    }
}

/// The `ucp-metrics-v1` document: a [`Report`] under its schema tag.
#[derive(Serialize, Deserialize)]
struct ReportDoc {
    schema: String,
    label: String,
    spans: Vec<SpanStat>,
    counters: Vec<CounterStat>,
    histograms: Vec<HistStat>,
}

/// A full metrics report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Run label (command or bench configuration).
    pub label: String,
    /// Span timings, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistStat>,
}

impl Report {
    /// Look up a span by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Fold `other` into this report: spans/counters/histograms with the
    /// same key accumulate; the label keeps `self`'s unless empty.
    pub fn merge(&mut self, other: &Report) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        for s in &other.spans {
            match self.spans.iter_mut().find(|x| x.path == s.path) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.total_secs += s.total_secs;
                    mine.min_secs = mine.min_secs.min(s.min_secs);
                    mine.max_secs = mine.max_secs.max(s.max_secs);
                }
                None => self.spans.push(s.clone()),
            }
        }
        for c in &other.counters {
            match self.counters.iter_mut().find(|x| x.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|x| x.name == h.name) {
                Some(mine) => {
                    let was_empty = mine.count == 0;
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = if was_empty {
                        h.min
                    } else {
                        mine.min.min(h.min)
                    };
                    mine.max = mine.max.max(h.max);
                    for b in &h.buckets {
                        match mine.buckets.iter_mut().find(|x| x.le == b.le) {
                            Some(mb) => mb.count += b.count,
                            None => mine.buckets.push(b.clone()),
                        }
                    }
                    mine.buckets.sort_by_key(|b| b.le);
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Deterministic pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let doc = ReportDoc {
            schema: SCHEMA.to_string(),
            label: self.label.clone(),
            spans: self
                .spans
                .iter()
                .map(|s| SpanStat {
                    total_secs: round6(s.total_secs),
                    min_secs: round6(s.min_secs),
                    max_secs: round6(s.max_secs),
                    ..s.clone()
                })
                .collect(),
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        };
        let mut text = serde_json::to_string_pretty(&doc).expect("a derived Serialize cannot fail");
        text.push('\n');
        text
    }

    /// Parse a JSON report (accepts any `ucp-metrics-v1` document).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema field")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let doc = ReportDoc::from_value(&doc).map_err(|e| e.to_string())?;
        Ok(Report {
            label: doc.label,
            spans: doc.spans,
            counters: doc.counters,
            histograms: doc.histograms,
        })
    }

    /// Prometheus text exposition rendering. Span totals and counters
    /// become counters; histograms use the standard cumulative-bucket
    /// `_bucket`/`_sum`/`_count` triple.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let label = escape_label(&self.label);
        if !self.spans.is_empty() {
            out.push_str("# TYPE ucp_span_seconds_total counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "ucp_span_seconds_total{{run=\"{label}\",path=\"{}\"}} {}\n",
                    escape_label(&s.path),
                    fmt_f64(s.total_secs)
                ));
            }
            out.push_str("# TYPE ucp_span_count_total counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "ucp_span_count_total{{run=\"{label}\",path=\"{}\"}} {}\n",
                    escape_label(&s.path),
                    s.count
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("# TYPE ucp_counter_total counter\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "ucp_counter_total{{run=\"{label}\",name=\"{}\"}} {}\n",
                    escape_label(&c.name),
                    c.value
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# TYPE ucp_hist histogram\n");
            for h in &self.histograms {
                let name = escape_label(&h.name);
                let mut cumulative = 0u64;
                for b in &h.buckets {
                    cumulative += b.count;
                    out.push_str(&format!(
                        "ucp_hist_bucket{{run=\"{label}\",name=\"{name}\",le=\"{}\"}} {cumulative}\n",
                        b.le
                    ));
                }
                out.push_str(&format!(
                    "ucp_hist_bucket{{run=\"{label}\",name=\"{name}\",le=\"+Inf\"}} {}\n",
                    h.count
                ));
                out.push_str(&format!(
                    "ucp_hist_sum{{run=\"{label}\",name=\"{name}\"}} {}\n",
                    h.sum
                ));
                out.push_str(&format!(
                    "ucp_hist_count{{run=\"{label}\",name=\"{name}\"}} {}\n",
                    h.count
                ));
            }
        }
        out
    }

    /// Write the JSON form to a file (creating parent directories).
    pub fn write_json_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Round to microsecond resolution so reports are stable across
/// formatting paths while staying far finer than any measured phase.
fn round6(secs: f64) -> f64 {
    (secs * 1e6).round() / 1e6
}

fn fmt_f64(v: f64) -> String {
    // Prometheus floats: plain decimal, no exponent surprises for the
    // magnitudes we emit.
    format!("{v}")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut h = Histogram::new();
        for v in [100u64, 200, 4000] {
            h.record(v);
        }
        Report {
            label: "unit".into(),
            spans: vec![
                SpanStat {
                    path: "convert".into(),
                    count: 1,
                    total_secs: 1.5,
                    min_secs: 1.5,
                    max_secs: 1.5,
                },
                SpanStat {
                    path: "convert/extract".into(),
                    count: 4,
                    total_secs: 0.75,
                    min_secs: 0.1,
                    max_secs: 0.3,
                },
            ],
            counters: vec![CounterStat {
                name: "convert/bytes_written".into(),
                value: 123456,
            }],
            histograms: vec![HistStat::from_histogram("load/atom_read_ns", &h)],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let text = r.to_json();
        let back = Report::from_json(&text).unwrap();
        assert_eq!(back, r);
        // And the rendering is a fixed point.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn integers_beyond_f64_precision_roundtrip_exactly() {
        let big = (1u64 << 53) + 1;
        let mut r = sample();
        r.counters[0].value = big;
        r.histograms[0].sum = big;
        let text = r.to_json();
        assert!(text.contains("9007199254740993"), "{text}");
        let back = Report::from_json(&text).unwrap();
        assert_eq!(back.counter("convert/bytes_written"), Some(big));
        assert_eq!(back.hist("load/atom_read_ns").unwrap().sum, big);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(Report::from_json(r#"{"schema": "other", "label": ""}"#).is_err());
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn merge_accumulates_and_sorts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.span("convert").unwrap().count, 2);
        assert!((a.span("convert").unwrap().total_secs - 3.0).abs() < 1e-9);
        assert_eq!(a.counter("convert/bytes_written"), Some(246912));
        let h = a.hist("load/atom_read_ns").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 4000);
        let mut paths: Vec<String> = a.spans.iter().map(|s| s.path.clone()).collect();
        let sorted = paths.clone();
        paths.sort();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn hist_stat_roundtrips_to_histogram() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 100, 200, 4000, 1 << 40] {
            h.record(v);
        }
        let stat = HistStat::from_histogram("x", &h);
        assert_eq!(stat.to_histogram(), h);
        assert_eq!(stat.quantile(0.5), h.quantile(0.5));
        // Through a JSON roundtrip too (quantiles are what `ucp status`
        // reads back out of a metrics artifact).
        let r = Report {
            label: "q".into(),
            spans: vec![],
            counters: vec![],
            histograms: vec![stat],
        };
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.histograms[0].quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn merge_into_empty_adopts_label() {
        let mut empty = Report::default();
        empty.merge(&sample());
        assert_eq!(empty.label, "unit");
        assert_eq!(empty, sample());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE ucp_hist histogram"));
        assert!(
            text.contains("ucp_hist_bucket{run=\"unit\",name=\"load/atom_read_ns\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("ucp_hist_count{run=\"unit\",name=\"load/atom_read_ns\"} 3"));
        assert!(text.contains("ucp_span_seconds_total{run=\"unit\",path=\"convert/extract\"} 0.75"));
        // The per-bucket JSON counts (1 each at le=127/255/4095) must come
        // out as a running cumulative series, ending at the total count.
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter(|l| l.starts_with("ucp_hist_bucket") && l.contains("atom_read_ns"))
            .map(|l| {
                let le = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let v: u64 = l.rsplit(' ').next().unwrap().parse().unwrap();
                (le.to_string(), v)
            })
            .collect();
        assert_eq!(
            buckets,
            vec![
                ("127".into(), 1),
                ("255".into(), 2),
                ("4095".into(), 3),
                ("+Inf".into(), 3),
            ]
        );
    }
}
