//! Micro probes: one layer's public call in isolation, over buffers the
//! size the workloads move. They run in every traced process (a probe is
//! a property of the build and the machine, not of the workload), so
//! each per-layer name below always has a measured value.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, AdamProbe, ContainerProbe, MatmulProbe, Model};
use crate::stats::Stat;
use crate::sys::{proc_io, Scratch};

/// Wall-clock budget of one probe's sampling loop.
const BUDGET: Duration = Duration::from_millis(120);
/// Fewest samples a probe takes, whatever they cost.
const MIN_SAMPLES: usize = 5;
/// Most samples a probe keeps.
const MAX_SAMPLES: usize = 2000;

/// Call `f` until the budget is spent; milliseconds per call.
fn sample(mut f: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_SAMPLES || (start.elapsed() < BUDGET && out.len() < MAX_SAMPLES) {
        let t = Instant::now();
        f()?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Median rate: `units` of work per call ÷ seconds per call.
fn rate(unit: &'static str, units_per_call: f64, ms: &[f64]) -> Stat {
    let rates: Vec<f64> = ms.iter().map(|m| units_per_call / (m / 1e3)).collect();
    Stat::median(unit, &rates)
}

fn micros(ms: &[f64]) -> Stat {
    let us: Vec<f64> = ms.iter().map(|m| m * 1e3).collect();
    Stat::median("us", &us)
}

/// Run every probe; results keyed by per-layer metric name.
pub fn run_all(scratch: &Scratch, model: Model) -> Result<BTreeMap<&'static str, Stat>, String> {
    let mut out = BTreeMap::new();
    let params = adapter::params(model) as usize;
    // One TP2 rank's flat chunk: what a snapshot copies, a fragment
    // exchange moves, and an optimizer shard file holds per state.
    let chunk = params / 2;
    let dir = scratch.sub("probes");

    // collectives
    let (reduce_ms, barrier_us) = adapter::probe_collectives(params, 8)?;
    out.insert(
        "collectives.allreduce_ms_p50",
        Stat::median("ms", &reduce_ms),
    );
    out.insert(
        "collectives.barrier_us_p50",
        Stat::median("us", &barrier_us),
    );
    let round_ms = adapter::probe_exchange(chunk, 16)?;
    out.insert(
        "collectives.exchange_mbps",
        rate("MB/s", 2.0 * (chunk * 4) as f64 / 1e6, &round_ms),
    );

    // tensor / optim / model / parallel
    let (m, k, n) = match model {
        Model::Dense4m => (8, 192, 768),
        Model::Moe4m => (4, 128, 128),
    };
    let mm = MatmulProbe::build(m, k, n);
    let ms = sample(|| {
        // One call is microseconds; batch so the clock is not the cost.
        (0..64).for_each(|_| mm.run());
        Ok(())
    })?;
    out.insert(
        "tensor.matmul_gflops",
        rate("GFLOP/s", 64.0 * 2.0 * (m * k * n) as f64 / 1e9, &ms),
    );
    let mut adam = AdamProbe::build(chunk);
    let ms = sample(|| {
        adam.step();
        Ok(())
    })?;
    out.insert(
        "optim.adam_melems_per_s",
        rate("Melem/s", chunk as f64 / 1e6, &ms),
    );
    let ms = sample(|| {
        std::hint::black_box(adapter::probe_shard_segments(model, 2));
        Ok(())
    })?;
    out.insert("model.shard_segments_us_p50", micros(&ms));
    let ms = sample(|| {
        std::hint::black_box(adapter::probe_flat_build(model, 2, 2));
        Ok(())
    })?;
    out.insert("parallel.flat_build_us_p50", micros(&ms));

    // storage: CRC over 8 MiB
    let buf: Vec<u8> = (0..8usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    let gb = buf.len() as f64 / 1e9;
    let ms = sample(|| {
        std::hint::black_box(adapter::probe_crc(&buf));
        Ok(())
    })?;
    out.insert("storage.crc32c_gbps", rate("GB/s", gb, &ms));
    let ms = sample(|| {
        std::hint::black_box(adapter::probe_crc_blocks(&buf));
        Ok(())
    })?;
    out.insert("storage.crc_blocks_gbps", rate("GB/s", gb, &ms));

    // storage: a shard-sized container on the scratch filesystem
    let container = ContainerProbe::build(chunk);
    let mb = container.bytes() as f64 / 1e6;
    let file = dir.join("shard.ucpt");
    let ms = sample(|| container.write(&file))?;
    out.insert("storage.container_write_mbps", rate("MB/s", mb, &ms));
    let ms = sample(|| ContainerProbe::read(&file))?;
    out.insert("storage.container_read_mbps", rate("MB/s", mb, &ms));
    let ms = sample(|| ContainerProbe::open_index(&file))?;
    out.insert("storage.index_open_us_p50", micros(&ms));
    range_read_probes(&container, &file, &mut out)?;

    // storage: the commit protocol's small operations
    let marker = dir.join("marker");
    let ms = sample(|| adapter::probe_atomic_write(&marker))?;
    out.insert("storage.atomic_write_us_p50", micros(&ms));
    let ms = sample(|| adapter::probe_fsync_dir(&dir))?;
    out.insert("storage.fsync_dir_us_p50", micros(&ms));
    let mut k = 0u64;
    let ms = sample(|| {
        k += 1;
        adapter::probe_link_file(&file, &dir.join(format!("links/{k}")))
    })?;
    out.insert("storage.link_file_us_p50", micros(&ms));
    let ms = sample(|| {
        k += 1;
        adapter::probe_journal_append(&dir, k)
    })?;
    out.insert("storage.journal_append_us_p50", micros(&ms));
    let ms = sample(|| {
        k += 1;
        adapter::probe_publish_markers(&dir, k)
    })?;
    out.insert("storage.publish_markers_us_p50", micros(&ms));

    // storage: the same container with fsync (informational: whatever
    // the scratch filesystem has behind it, not a device)
    let target = dir.join("durable.ucpt");
    let ms = sample(|| container.write_durable(&target))?;
    out.insert("storage.durable_write_mbps", rate("MB/s", mb, &ms));

    // core: one atom file through the shared atom writer
    let universal = dir.join("global_step1_universal");
    let mut bytes = 0u64;
    let ms = sample(|| {
        bytes = adapter::probe_atom_write(&universal, "probe.weight", chunk)?;
        Ok(())
    })?;
    out.insert(
        "core.atom_write_mbps",
        rate("MB/s", bytes as f64 / 1e6, &ms),
    );
    Ok(out)
}

/// `read_section_range_with` two ways: one long run, and 4 KiB runs at a
/// row stride — the pattern a TP-column shard produces — with the bytes
/// `read()` actually moved for the latter.
fn range_read_probes(
    container: &ContainerProbe,
    file: &Path,
    out: &mut BTreeMap<&'static str, Stat>,
) -> Result<(), String> {
    let mut index = ContainerProbe::open_for_ranges(file)?;
    let long = container.elems / 2;
    let ms = sample(|| index.range_read(0..long))?;
    out.insert(
        "storage.range_read_mbps",
        rate("MB/s", (long * 4) as f64 / 1e6, &ms),
    );
    const RUN: usize = 1024; // 4 KiB of f32
    const STRIDE: usize = 4 * RUN;
    let runs = (container.elems / STRIDE).max(1);
    let mut at = 0usize;
    let (r0, _) = proc_io();
    let ms = sample(|| {
        let start = (at % runs) * STRIDE;
        at += 1;
        index.range_read(start..start + RUN)
    })?;
    let (r1, _) = proc_io();
    out.insert("storage.range_small_us_p50", micros(&ms));
    out.insert(
        "storage.range_syscall_amp",
        Stat::single("ratio", (r1 - r0) as f64 / (ms.len() * RUN * 4) as f64),
    );
    Ok(())
}
