#!/usr/bin/env python3
"""Gate the end-to-end benchmark's exact counts against the committed set.

Reads a ucp-e2e-v1 set (`ucp-e2e suite --seeds 1 --layers --out e2e_ci.json`)
and the newest committed results/BENCH_e2e_pr<N>_change.json (highest <N>
in the file name), and holds the readings that do not depend on the runner
to it, per workload, within 1e-3 relative:

  end to end   write_amp, read_amp — each seed's reading against the
               committed reading *for that seed* (the sets' `seeds` and
               per-metric `values`): a count can depend on the seed (MoE
               routing picks which expert sub-atoms a save rewrites), so
               a ten-seed median is not what seed 1 should read
  per layer    storage.commit_points_per_save, core.fresh_bytes_per_save,
               core.atoms_linked_per_save
  checks       failed == 0 with run > 0 (how many checks run follows how
               many timed passes fit in the run, so it is not compared)

A reading that moved the wrong way fails the job. One that moved the right
way passes and prints "improved — commit a new set": the gate moves only
when a PR commits the set that shows the move. Every timing, end to end
and per layer, goes into the markdown summary (third argument) next to the
committed reading — reported, not gated: a shared runner cannot resolve
them.

Usage: check_e2e_counts.py e2e_ci.json results/ [summary.md]
       check_e2e_counts.py --self-test
"""

import copy
import json
import os
import re
import sys

REL_TOL = 1e-3
# Metric -> +1 when lower is better, -1 when higher is better.
GATED_E2E = {"write_amp": 1, "read_amp": 1}
GATED_LAYER = {"storage.commit_points_per_save": 1,
               "core.fresh_bytes_per_save": 1,
               "core.atoms_linked_per_save": -1}
SET_NAME = re.compile(r"BENCH_e2e_pr(\d+)_change\.json$")


def load(path):
    with open(path) as f:
        data = json.load(f)
    assert data["schema"] == "ucp-e2e-v1", f"{path}: bad schema tag"
    return data


def newest_set(results_dir):
    sets = [(int(m.group(1)), name) for name in os.listdir(results_dir)
            if (m := SET_NAME.match(name))]
    assert sets, f"{results_dir}: no BENCH_e2e_pr<N>_change.json"
    return os.path.join(results_dir, max(sets)[1])


def compare(current, committed):
    """Returns (failures, improvements), each a list of lines naming the
    workload and the metric."""
    failures, improvements = [], []
    for w in committed["end_to_end"]:
        if w not in current["end_to_end"] or w not in current["checks"]:
            failures.append(f"{w}: workload missing from the current set")
            continue
        checks = current["checks"][w]
        if checks["failed"] != 0 or checks["run"] <= 0:
            failures.append(f"{w} checks: {checks['failed']} failed of {checks['run']} run")
        readings = []
        for m, sign in GATED_E2E.items():
            now = current["end_to_end"][w].get(m, {}).get("values")
            if now is None:
                readings.append((m, sign, None, None))
                continue
            then = dict(zip(committed["seeds"], committed["end_to_end"][w][m]["values"]))
            for seed, value in zip(current["seeds"], now):
                if seed not in then:
                    failures.append(f"{w} {m}: seed {seed} is not in the committed set")
                else:
                    readings.append((f"{m} (seed {seed})", sign, value, then[seed]))
        readings += [(m, sign, current["per_layer"].get(w, {}).get(m, {}).get("value"),
                      committed["per_layer"][w][m]["value"])
                     for m, sign in GATED_LAYER.items()]
        for metric, sign, now, then in readings:
            if now is None:
                failures.append(f"{w} {metric}: missing from the current set")
            elif abs(now - then) > REL_TOL * abs(then):
                line = f"{w} {metric}: {then:g} committed, {now:g} now"
                if (now - then) * sign > 0:
                    failures.append(line)
                else:
                    improvements.append(line)
    return failures, improvements


def summary(current, committed, committed_name):
    """Markdown: every end-to-end and per-layer reading, current vs committed."""
    gated = set(GATED_E2E) | set(GATED_LAYER)
    workloads = [w for w in committed["end_to_end"] if w in current["end_to_end"]]
    rows = [f"Committed set: `{committed_name}` ({committed['git_rev']}); "
            "exact counts are gated, timings are reported only.", "",
            "| workload | metric | committed | current | |", "|---|---|---|---|---|"]
    for w in workloads:
        for m, row in current["end_to_end"][w].items():
            then = committed["end_to_end"][w].get(m, {}).get("median")
            rows.append(f"| {w} | {m} ({row['unit']}) | {then:.4f} | {row['median']:.4f} "
                        f"| {'gated' if m in gated else 'reported'} |")
        c = current["checks"][w]
        rows.append(f"| {w} | checks failed / run | 0 | {c['failed']} / {c['run']} | gated |")
    rows += ["", "Per layer (current, committed in parentheses):", "",
             "| metric | " + " | ".join(workloads) + " |",
             "|---|" + "---|" * len(workloads)]
    metrics = {}
    for w in workloads:
        for m, stat in current["per_layer"].get(w, {}).items():
            metrics.setdefault(m, stat["unit"])
    for m, unit in metrics.items():
        cells = []
        for w in workloads:
            now = current["per_layer"].get(w, {}).get(m, {}).get("value")
            then = committed["per_layer"].get(w, {}).get(m, {}).get("value")
            cells.append("–" if now is None else
                         f"{now:.4g}" + ("" if then is None else f" ({then:.4g})"))
        tag = " **gated**" if m in gated else ""
        rows.append(f"| {m} ({unit}){tag} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def main(current_path, results_dir, summary_path=None):
    committed_path = newest_set(results_dir)
    current, committed = load(current_path), load(committed_path)
    failures, improvements = compare(current, committed)
    if summary_path:
        with open(summary_path, "w") as f:
            f.write(summary(current, committed, os.path.basename(committed_path)))
    for line in improvements:
        print(f"improved — commit a new set: {line}")
    assert not failures, (f"exact counts moved against {committed_path}:\n  "
                          + "\n  ".join(failures))
    print(f"e2e exact-count gate ok against {committed_path} "
          f"({len(committed['end_to_end'])} workloads)")


def self_test():
    results = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "results")
    parent = load(os.path.join(results, "BENCH_e2e_pr21_parent.json"))
    change = load(os.path.join(results, "BENCH_e2e_pr21_change.json"))
    assert compare(parent, change) == ([], []), compare(parent, change)

    def doctored(edit):
        data = copy.deepcopy(parent)
        edit(data)
        return compare(data, change)

    def scale_write_amp(factor):
        def edit(data):
            row = data["end_to_end"]["moe_overlap_every1"]["write_amp"]
            row["median"] *= factor
            row["values"] = [v * factor for v in row["values"]]
        return edit

    failures, _ = doctored(scale_write_amp(1.01))
    assert len(failures) == len(parent["seeds"]), failures
    assert all(f.startswith("moe_overlap_every1 write_amp (seed ") for f in failures), failures
    failures, improvements = doctored(scale_write_amp(0.99))
    assert not failures and len(improvements) == len(parent["seeds"]), (failures, improvements)

    # A count that depends on the seed: each seed is held to its own
    # committed reading, not to the median of all of them. A set of one
    # seed, as CI makes it, that reads its own seed's value passes even
    # where that value is far from the median...
    def one_seed(data, seed, value):
        one = copy.deepcopy(data)
        for w in one["end_to_end"]:
            for row in one["end_to_end"][w].values():
                row["values"] = [row["values"][data["seeds"].index(seed)]]
                row["median"] = row["values"][0]
        one["seeds"] = [seed]
        if value is not None:
            row = one["end_to_end"]["moe_overlap_every1"]["write_amp"]
            row["values"], row["median"] = [value], value
        return one

    spread = copy.deepcopy(change)
    row = spread["end_to_end"]["moe_overlap_every1"]["write_amp"]
    row["values"] = [1.30 + 0.002 * i for i in range(len(spread["seeds"]))]
    row["median"] = sorted(row["values"])[len(row["values"]) // 2]
    seed = spread["seeds"][0]
    assert compare(one_seed(spread, seed, None), spread) == ([], []), \
        compare(one_seed(spread, seed, None), spread)
    # ...and one that reads the median instead of its own seed's value fails.
    failures, _ = compare(one_seed(spread, seed, row["median"]), spread)
    assert failures == [f"moe_overlap_every1 write_amp (seed {seed}): "
                        f"{row['values'][0]:g} committed, {row['median']:g} now"], failures
    # A seed the committed set does not hold cannot be judged.
    stranger = one_seed(spread, seed, None)
    stranger["seeds"] = [99]
    failures, _ = compare(stranger, spread)
    assert "moe_overlap_every1 write_amp: seed 99 is not in the committed set" in failures, failures
    failures, _ = doctored(lambda d: d["checks"]["dense_kill_recover"].update(failed=1))
    assert len(failures) == 1 and failures[0].startswith("dense_kill_recover checks:"), failures
    failures, _ = doctored(lambda d: d["end_to_end"].pop("reshard_load_fanout"))
    assert failures == ["reshard_load_fanout: workload missing from the current set"], failures
    # A higher-is-better count: fewer hard-linked atoms is the regression.
    failures, _ = doctored(lambda d: d["per_layer"]["moe_overlap_every1"]
                           ["core.atoms_linked_per_save"].update(value=5.0))
    assert len(failures) == 1 and "core.atoms_linked_per_save" in failures[0], failures
    assert summary(parent, change, "self-test").count("storage.crc32c_gbps") == 1
    print("self-test ok")


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    else:
        main(*sys.argv[1:4])
