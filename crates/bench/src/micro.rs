//! The `ucp bench` microbenchmark: raw throughput of the byte-moving hot
//! paths, emitted as a `ucp-metrics-v1` [`Report`] (`BENCH_ops.json`).
//!
//! Each probe times `k` repeats of one hot loop and records them as a
//! span (count = repeats; `min_secs` is the best pass, which the perf
//! gate derives throughput from) plus a counter holding the bytes one
//! pass moves. The probes:
//!
//! - `bench/crc_sliced` — the production CRC-32C kernel, through its
//!   dispatcher: SSE4.2 `crc32` where the CPU has it, slicing-by-8
//!   elsewhere (the span keeps the name it was baselined under).
//! - `bench/crc_bytewise` — the classic byte-at-a-time loop (a local
//!   copy; the production oracle is `#[cfg(test)]`). The ratio of the two
//!   is the `crc_speedup` metric the acceptance gate holds ≥ 3×.
//! - `bench/crc_blocks` — per-block table construction at the container's
//!   `RANGE_CRC_BLOCK` granularity.
//! - `bench/range_read` — a verified whole-section
//!   [`ContainerIndex::read_section_range_with`] against a real on-disk
//!   container, scratch buffers reused across passes.
//! - `bench/fig13_load` — the fig13 (fast) ranged-load wall time through
//!   the 64 MiB/s throttled device; sleep-dominated, hence stable across
//!   machines. Skipped in `--fast` runs.

use std::time::Instant;

use ucp_storage::{Container, ContainerIndex, RangeScratch, RANGE_CRC_BLOCK};
use ucp_telemetry::{CounterStat, Report, SpanStat};
use ucp_tensor::{DetRng, Tensor};

use crate::load_scaling::fig13;
use crate::report::scratch_dir;

/// Payload bytes the CRC probes hash per pass (full mode).
const CRC_BYTES: usize = 8 * 1024 * 1024;
/// Elements of the section the range-read probe fetches (full mode).
const RANGE_ELEMS: usize = 1024 * 1024;
/// Timed repeats per probe (full mode).
const REPEATS: usize = 5;

/// The byte-at-a-time reference loop, kept here (not in `ucp-storage`,
/// where the oracle is test-only) so the microbench can measure the
/// speedup the production kernel buys on this exact machine.
fn crc32c_bytewise(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0x82F6_3B78;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *e = crc;
        }
        t
    });
    let mut state = !0u32;
    for &b in bytes {
        state = (state >> 8) ^ table[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    !state
}

/// Deterministic pseudo-random payload (xorshift; no RNG dependency and
/// no wall-clock seed, so every run hashes identical bytes).
fn payload(len: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Time `k` passes of `f`, folding them into one span stat.
fn time_k<F: FnMut()>(path: &str, k: usize, mut f: F) -> SpanStat {
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..k {
        let t = Instant::now();
        f();
        let secs = t.elapsed().as_secs_f64();
        total += secs;
        min = min.min(secs);
        max = max.max(secs);
    }
    SpanStat {
        path: path.to_string(),
        count: k as u64,
        total_secs: total,
        min_secs: min,
        max_secs: max,
    }
}

/// Run the microbenchmark. `fast` shrinks payloads/repeats and skips the
/// fig13 load probe — for quick local iteration; CI gates on full runs.
pub fn run(fast: bool) -> Report {
    let (crc_bytes, range_elems, repeats) = if fast {
        (CRC_BYTES / 8, RANGE_ELEMS / 8, 3)
    } else {
        (CRC_BYTES, RANGE_ELEMS, REPEATS)
    };
    let mut report = Report {
        label: "ops_micro".into(),
        ..Report::default()
    };
    let mut counter = |name: &str, value: u64| {
        report.counters.push(CounterStat {
            name: name.to_string(),
            value,
        });
    };

    // CRC kernels, all over the same payload so ratios are meaningful.
    // `black_box` keeps the checksums observable so the loops can't be
    // optimized away.
    use std::hint::black_box;
    let data = payload(crc_bytes);
    let sliced = time_k("bench/crc_sliced", repeats, || {
        black_box(ucp_storage::crc::crc32c(black_box(&data)));
    });
    let bytewise = time_k("bench/crc_bytewise", repeats, || {
        black_box(crc32c_bytewise(black_box(&data)));
    });
    let blocks = time_k("bench/crc_blocks", repeats, || {
        black_box(ucp_storage::crc::crc32c_blocks(
            black_box(&data),
            RANGE_CRC_BLOCK as usize,
        ));
    });
    counter("bench/crc_sliced_bytes", crc_bytes as u64);
    counter("bench/crc_bytewise_bytes", crc_bytes as u64);
    counter("bench/crc_blocks_bytes", crc_bytes as u64);

    // Verified section-range read against a real container on disk.
    let dir = scratch_dir("bench_micro");
    let path = dir.join("probe.ucpt");
    let rng = DetRng::new(0xBE11C);
    let mut c = Container::new("{}");
    c.push("w", Tensor::randn([range_elems], 1.0, &rng.derive("w")));
    c.write_file(&path).expect("write probe container");
    let index = ContainerIndex::read_file(&path).expect("index probe container");
    let info = index.get("w").expect("probe section");
    let pass_bytes = info.range_read_bytes(&(0..range_elems))
        + 4 * info.payload_len.div_ceil(info.crc_block as u64);
    let mut f = std::io::BufReader::new(std::fs::File::open(&path).expect("open probe"));
    let mut scratch = RangeScratch::default();
    let range = time_k("bench/range_read", repeats, || {
        index
            .read_section_range_with(&mut f, "w", 0..range_elems, &mut scratch)
            .expect("range read");
    });
    counter("bench/range_read_bytes", pass_bytes);
    std::fs::remove_dir_all(&dir).ok();

    report.spans.extend([sliced, bytewise, blocks, range]);

    // End-to-end ranged load through the throttled device (fig13 fast
    // variant). Wall time is sleep-dominated at 64 MiB/s, which is what
    // makes it a stable CI gate.
    if !fast {
        let fig = fig13(true);
        let secs: f64 = fig.rows.iter().map(|r| r.ranged_secs).sum();
        report.spans.push(SpanStat {
            path: "bench/fig13_load".into(),
            count: fig.rows.len() as u64,
            total_secs: secs,
            min_secs: fig
                .rows
                .iter()
                .map(|r| r.ranged_secs)
                .fold(f64::INFINITY, f64::min),
            max_secs: fig.rows.iter().map(|r| r.ranged_secs).fold(0.0, f64::max),
        });
        let read: u64 = fig.rows.iter().map(|r| r.ranged_bytes_read).sum();
        report.counters.push(CounterStat {
            name: "bench/fig13_bytes_read".into(),
            value: read,
        });
    }

    report.spans.sort_by(|a, b| a.path.cmp(&b.path));
    report.counters.sort_by(|a, b| a.name.cmp(&b.name));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytewise_copy_matches_production_kernel() {
        let data = payload(4096 + 3);
        assert_eq!(crc32c_bytewise(&data), ucp_storage::crc::crc32c(&data));
        assert_eq!(crc32c_bytewise(b""), 0);
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn fast_run_emits_all_gated_crc_and_range_metrics() {
        let report = run(true);
        for span in [
            "bench/crc_sliced",
            "bench/crc_bytewise",
            "bench/crc_blocks",
            "bench/range_read",
        ] {
            let s = report.span(span).unwrap_or_else(|| panic!("span {span}"));
            assert!(s.count >= 1);
            assert!(s.min_secs > 0.0, "{span} measured nothing");
            let bytes = report.counter(&format!("{span}_bytes")).unwrap();
            assert!(bytes > 0);
        }
        // Fast mode skips the fig13 probe.
        assert!(report.span("bench/fig13_load").is_none());
        // And the artifact round-trips through the shared schema (JSON
        // rounds seconds to 6 decimals, so compare serialized forms).
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.to_json(), report.to_json());
    }
}
