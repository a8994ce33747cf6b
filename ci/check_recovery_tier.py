#!/usr/bin/env python3
"""Gate the tiered recovery ladder: peer RAM replicas before disk.

Reads three ucp-chaos-v1 reports from the chaos-smoke job:

  * a hot sweep (--hot-replicas K, one fault per cell) where every
    single-rank kill after the first save boundary MUST recover from the
    surviving peers' in-memory replicas ("peer"), never touching disk;
  * a multi-fault sweep (--faults-per-cell > K) where the lost set
    exceeds the replication factor, so every cell MUST fall back to the
    committed disk checkpoint ("disk") — still bitwise-equal;
  * the plain disk sweep (no hot tier) as the latency baseline.

Every cell must already be ok (bitwise-equal losses, fsck-clean tree,
exactly one restart) — the chaos tool fails cells that recover from the
wrong tier, and this gate re-asserts the per-cell source so a report
regression cannot slip through. On top of that it checks the tier's
point: the median peer recovery must be faster than the median disk
recovery, because the RAM path skips the convert pass: the disk tier
still converts a sync-native step and fsyncs its atoms before it resumes
from them (in RAM, so neither tier reads checkpoint atoms back). The
table also reports the margin, disk median minus peer median; it is
reported only, the assertion above is the gate.

The companion metrics reports prove the supervisor's counters agree with
the journal-derived reports: the hot sweep counts only
recovery/source_peer, the multi-fault sweep only recovery/fallback_disk,
and no replica was ever rejected for a CRC mismatch.

Usage: check_recovery_tier.py HOT_report HOT_metrics MULTI_report \
           MULTI_metrics DISK_report table.md
"""

import json
import statistics
import sys


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    assert report["schema"] == "ucp-chaos-v1", f"{path}: bad schema tag"
    assert report["cells"], f"{path}: empty cell matrix"
    assert report["failed"] == 0, f"{path}: {report['failed']} chaos cell(s) failed"
    return report


def load_counters(path):
    with open(path) as f:
        metrics = json.load(f)
    assert metrics["schema"] == "ucp-metrics-v1", f"{path}: bad schema tag"
    return {c["name"]: c["value"] for c in metrics["counters"]}


def check_cells(report, path, want_source, want_faults):
    """Assert every cell recovered once, correctly, from `want_source`."""
    times = []
    for cell in report["cells"]:
        label = f"{path}: step {cell['kill_step']} {cell['kind']} -> {cell['target']}"
        assert cell["ok"], f"{label}: not ok: {cell.get('error')}"
        assert cell["restarts"] == 1, f"{label}: expected exactly one restart"
        assert cell["bitwise_equal"], f"{label}: recovered losses diverged"
        assert cell["fsck_clean"], f"{label}: checkpoint tree not fsck-clean"
        assert cell["faults"] == want_faults, \
            f"{label}: expected {want_faults} fault(s), got {cell['faults']}"
        assert cell["recovery_source"] == want_source, \
            f"{label}: recovered from {cell['recovery_source']}, want {want_source}"
        assert cell["recovery_ms"] is not None, f"{label}: no recovery_ms"
        times.append(cell["recovery_ms"])
    return times


def main(hot_report_path, hot_metrics_path, multi_report_path,
         multi_metrics_path, disk_report_path, table_path):
    hot = load_report(hot_report_path)
    multi = load_report(multi_report_path)
    disk = load_report(disk_report_path)

    k = hot["hot_replicas"]
    assert k is not None and k >= 1, f"{hot_report_path}: hot tier not armed"
    assert multi["hot_replicas"] == k, f"{multi_report_path}: hot tier not armed"
    assert multi["faults_per_cell"] > k, (
        f"{multi_report_path}: {multi['faults_per_cell']} fault(s) per cell does "
        f"not exceed K={k}; nothing forces the disk fallback")
    assert disk["hot_replicas"] is None, \
        f"{disk_report_path}: baseline must run without the hot tier"

    hot_ms = check_cells(hot, hot_report_path, "peer", hot["faults_per_cell"])
    multi_ms = check_cells(multi, multi_report_path, "disk", multi["faults_per_cell"])
    disk_ms = check_cells(disk, disk_report_path, "disk", disk["faults_per_cell"])

    # The supervisor's counters must tell the same story as the journals.
    hot_counters = load_counters(hot_metrics_path)
    assert hot_counters.get("recovery/source_peer", 0) == len(hot_ms), \
        f"{hot_metrics_path}: recovery/source_peer != {len(hot_ms)} cells"
    assert hot_counters.get("recovery/fallback_disk", 0) == 0, \
        f"{hot_metrics_path}: a hot cell silently fell back to disk"
    for name in ("hot/replica_rejected", "hot/replica_errors"):
        assert hot_counters.get(name, 0) == 0, \
            f"{hot_metrics_path}: {name} = {hot_counters.get(name)}"
    multi_counters = load_counters(multi_metrics_path)
    assert multi_counters.get("recovery/fallback_disk", 0) == len(multi_ms), \
        f"{multi_metrics_path}: recovery/fallback_disk != {len(multi_ms)} cells"
    assert multi_counters.get("recovery/source_peer", 0) == 0, \
        f"{multi_metrics_path}: a beyond-K lost set recovered from peers"

    hot_med = statistics.median(hot_ms)
    disk_med = statistics.median(disk_ms)
    multi_med = statistics.median(multi_ms)

    rows = [
        "| sweep | cells | faults/cell | source | median recovery (ms) | worst (ms) |",
        "|---|---|---|---|---|---|",
        f"| hot tier (K={k}) | {len(hot_ms)} | {hot['faults_per_cell']} | peer "
        f"| {hot_med:.0f} | {max(hot_ms)} |",
        f"| beyond-K fallback (K={k}) | {len(multi_ms)} | {multi['faults_per_cell']} "
        f"| disk | {multi_med:.0f} | {max(multi_ms)} |",
        f"| disk baseline (no hot tier) | {len(disk_ms)} | {disk['faults_per_cell']} "
        f"| disk | {disk_med:.0f} | {max(disk_ms)} |",
        f"| disk baseline minus hot tier (reported, not gated) | | | "
        f"| {disk_med - hot_med:+.0f} | |",
    ]
    with open(table_path, "w") as f:
        f.write("\n".join(rows) + "\n")

    print(f"peer recovery median {hot_med:.0f} ms over {len(hot_ms)} cell(s); "
          f"disk baseline median {disk_med:.0f} ms; "
          f"beyond-K fallback median {multi_med:.0f} ms")
    assert hot_med < disk_med, (
        f"peer-memory recovery ({hot_med:.0f} ms median) is not faster than the "
        f"disk path it shadows ({disk_med:.0f} ms median): the hot tier is not "
        f"pulling its weight")
    print("recovery-tier gate ok")


if __name__ == "__main__":
    main(*sys.argv[1:7])
