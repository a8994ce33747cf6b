#!/usr/bin/env python3
"""Gate read amplification on the ranged load path (Fig. 13).

Reads the ucp-metrics-v1 report the load-scaling bench writes, checks
every target's ranged path reads at most 1.15x the bytes it needs, at most
1.05x the tree's payload bytes (each atom once per session — the first
ratio counts cache hits as needed bytes and cannot see a re-read) and
strictly less than the full path, and that DP-replica targets hit the
session atom cache. All of these are exact counts: they do not depend on
the runner. Writes a per-target markdown table (second argument)
for the CI job summary.

Usage: check_amplification.py BENCH_load.json fig13_table.md
"""

import json
import sys


def main(report_path: str, table_path: str) -> None:
    with open(report_path) as f:
        report = json.load(f)
    assert report["schema"] == "ucp-metrics-v1", "bad schema tag"
    counters = {c["name"]: c["value"] for c in report["counters"]}
    targets = sorted({n.split("/")[1] for n in counters if n.startswith("load/")})
    assert targets, f"{report_path} has no load targets"

    rows = ["| target | ranged read | needed | amplification | tree | read / tree | full read |",
            "|---|---|---|---|---|---|---|"]
    for t in targets:
        read = counters[f"load/{t}/ranged_bytes_read"]
        needed = counters[f"load/{t}/ranged_bytes_needed"]
        full = counters[f"load/{t}/full_bytes_read"]
        tree = counters[f"load/{t}/tree_bytes"]
        ratio = read / max(needed, 1)
        once = read / max(tree, 1)
        rows.append(f"| {t} | {read} B | {needed} B | {ratio:.3f}x | {tree} B "
                    f"| {once:.3f}x | {full} B |")
        print(f"{t}: ranged reads {read} B for {needed} B needed ({ratio:.3f}x) "
              f"of a {tree} B tree ({once:.3f}x), full path reads {full} B")
        assert ratio <= 1.15, \
            f"{t}: ranged path reads {ratio:.3f}x the needed bytes (gate: 1.15)"
        assert once <= 1.05, \
            f"{t}: ranged path reads {once:.3f}x the tree (gate: 1.05, each atom once)"
        assert read < full, \
            f"{t}: ranged path ({read} B) should read less than full ({full} B)"
    dp_heavy = [t for t in targets if counters[f"load/{t}/tp"] == 1]
    for t in dp_heavy:
        assert counters[f"load/{t}/cache_hits"] > 0, \
            f"{t}: DP replicas should hit the session atom cache"

    with open(table_path, "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"read-amplification gate ok over {len(targets)} targets")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
