//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root must list exactly these (a self-test holds it to that); every
//! later performance claim names one end-to-end metric and one workload
//! from here.

/// How the driver starts one run, from the root of a checkout (it appends
/// `--workload <name> --seed <n> --seconds <n> --trace <0|1>`). Cargo
/// builds on first use; a checkout without the crates fails to build and
/// exits non-zero.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--bin",
    "ucp-e2e",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["bench"];

/// Seconds one run measures (after set-up).
pub const RUN_SECONDS: u64 = 10;

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "dense_sync_reshard",
        why: "paper flow: sync native saves on the training thread, offline convert, reshard load; convert and container-write gains show here",
    },
    WorkloadDef {
        name: "dense_overlap_every1",
        why: "born-universal save every step, all blocks dirty: snapshot, exchange, assemble, atom writes compete with compute; convert is bypassed",
    },
    WorkloadDef {
        name: "moe_overlap_every1",
        why: "same save layers used incrementally: dirty-fragment exchange, carried assemblers, hard-linked clean atoms (sparse MoE routing)",
    },
    WorkloadDef {
        name: "dense_kill_recover",
        why: "rank panic under supervise: detect, teardown, peer-RAM recovery vs disk convert+load, hot-tier replication charged to wall time",
    },
    WorkloadDef {
        name: "reshard_load_fanout",
        why: "loads only, no training in a pass: plan, range fetch, block-CRC verify, scatter into four target layouts; save-side work is bypassed",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
pub struct E2eDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// End-to-end metrics, reported by every workload. A bound is about three
/// times the widest quartile spread (share of the median) the metric
/// showed over ten seeds on any workload, on the 2-core sandbox with its
/// scratch on ext4 (`results/BENCH_e2e.json`): timings there spread
/// 2–9 %, the byte counts not at all. Peak memory is per-layer
/// (`bench.peak_rss_mb`): `VmHWM` spreads 10–22 % between runs of one
/// binary, by which glibc arena each short-lived thread lands in.
pub const E2E: &[E2eDef] = &[
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "train_steps_per_s",
        unit: "steps/s",
        better: Better::Higher,
        bound: 0.20,
    },
    E2eDef {
        name: "ckpt_overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "reshard_ready_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "reshard_vs_native_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
    E2eDef {
        name: "read_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// A per-layer metric: one layer's public call, timed or counted from
/// outside. No bound; these explain a move in an end-to-end metric.
pub struct LayerDef {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, reported by every traced run (a layer the
/// workload's script never calls reads as an empty bracket, `n` = 0).
pub const LAYERS: &[LayerDef] = &[
    // trainer: spans of the bench-owned step loop
    lower("trainer.step_ms_p50", "ms"),
    lower("trainer.step_ms_p90", "ms"),
    lower("trainer.sync_save_ms_p50", "ms"),
    lower("trainer.pool_acquire_ms_p50", "ms"),
    lower("trainer.snapshot_ms_p50", "ms"),
    lower("trainer.persist_wait_ms_p50", "ms"),
    lower("trainer.drain_ms_p50", "ms"),
    lower("trainer.publish_ms_p50", "ms"),
    lower("trainer.final_drain_ms", "ms"),
    lower("trainer.save_stall_ms_p50", "ms"),
    lower("trainer.save_stall_ms_p90", "ms"),
    lower("trainer.writer_busy_ms_p50", "ms"),
    lower("trainer.resume_native_ms", "ms"),
    lower("trainer.resume_universal_ms", "ms"),
    lower("trainer.hot_replicate_ms_p50", "ms"),
    lower("trainer.hot_resident_mb", "MiB"),
    lower("trainer.hot_recover_ms", "ms"),
    lower("trainer.detect_teardown_ms", "ms"),
    lower("trainer.recover_peer_ready_ms", "ms"),
    lower("trainer.recover_disk_ready_ms", "ms"),
    lower("trainer.lost_steps", "steps"),
    // collectives / tensor / optim / model / parallel: isolated probes
    lower("collectives.allreduce_ms_p50", "ms"),
    lower("collectives.barrier_us_p50", "us"),
    higher("collectives.exchange_mbps", "MB/s"),
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("optim.adam_melems_per_s", "Melem/s"),
    lower("model.shard_segments_us_p50", "us"),
    lower("parallel.flat_build_us_p50", "us"),
    // storage: isolated probes on the scratch filesystem
    higher("storage.crc32c_gbps", "GB/s"),
    higher("storage.crc_blocks_gbps", "GB/s"),
    higher("storage.container_write_mbps", "MB/s"),
    higher("storage.container_read_mbps", "MB/s"),
    lower("storage.index_open_us_p50", "us"),
    higher("storage.range_read_mbps", "MB/s"),
    lower("storage.range_small_us_p50", "us"),
    lower("storage.range_syscall_amp", "ratio"),
    lower("storage.atomic_write_us_p50", "us"),
    lower("storage.fsync_dir_us_p50", "us"),
    lower("storage.link_file_us_p50", "us"),
    lower("storage.journal_append_us_p50", "us"),
    lower("storage.publish_markers_us_p50", "us"),
    higher("storage.durable_write_mbps", "MB/s"),
    lower("storage.commit_points_per_save", "count"),
    // core: script spans and counts, plus the atom-write probe
    lower("core.convert_s", "s"),
    lower("core.convert_extract_s", "s"),
    lower("core.convert_union_s", "s"),
    higher("core.convert_mbps", "MB/s"),
    higher("core.atom_write_mbps", "MB/s"),
    lower("core.session_open_ms", "ms"),
    lower("core.load_plan_us_p50", "us"),
    lower("core.load_rank_ms_p50", "ms"),
    higher("core.load_mbps", "MB/s"),
    lower("core.read_amp_dp_only", "ratio"),
    lower("core.read_amp_tp_split", "ratio"),
    lower("core.fresh_bytes_per_save", "bytes"),
    higher("core.atoms_linked_per_save", "count"),
    lower("core.memory_assemble_ms", "ms"),
    lower("core.memory_load_rank_ms", "ms"),
    higher("core.fsck_mbps", "MB/s"),
    // instrumentation cost
    lower("telemetry.enabled_overhead_ratio", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
    higher("bench.trace_coverage", "ratio"),
    lower("bench.peak_rss_mb", "MiB"),
];

/// Units the driver may treat as times: a layer never called must not
/// read as a constant there.
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(E2E.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        let units = E2E
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }
}
