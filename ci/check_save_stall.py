#!/usr/bin/env python3
"""Gate the training stall added by the born-universal save pipeline.

Reads two ucp-metrics-v1 reports from overlapped training runs — a
baseline with the universal save pipeline disabled (native checkpoints
only) and a run with the pipeline on — and compares the time training
actually blocks on checkpointing: the snapshot copy, the drain of the
previous background writer, and the marker publish. Atom assembly runs on
the background writer threads, so turning the pipeline on may grow the
blocking total by at most 10% plus an absolute noise slack.

Also sanity-checks that the pipeline run really ran the pipeline (its
assembly spans and atom counters are present and non-zero) and merges
both runs' stall numbers into BENCH_ci.json when asked.

With --cadence the script instead gates a BENCH_cadence.json sweep
(`figures --experiment cadence`): per-iteration checkpointing (--save-every 1)
must not stall training more per save than the coarsest cadence does
(same 10% + absolute slack budget), and the MoE run's steady-state
per-save exchange volume and written atom volume must each collapse below
half of a full-model save — the dirty filter really has to drop frozen
experts, and their sub-atoms really have to be hard-linked, not rewritten.

Usage: check_save_stall.py baseline.json pipeline.json table.md [BENCH_ci.json]
       check_save_stall.py --cadence BENCH_cadence.json table.md [BENCH_ci.json]
"""

import json
import sys

# Spans on the training critical path: everything else about a save runs
# on the background writer threads. The end-of-run writer join
# (save/final_drain) is shutdown latency — there is no training left to
# overlap with — so it is reported but not gated.
BLOCKING_SPANS = ("save/snapshot", "save/drain", "save/publish")
# Spans that prove the pipeline ran (all on the writer threads).
PIPELINE_SPANS = ("save/exchange", "save/assemble", "save/atoms", "save/manifest",
                  "save/publish_universal")
REL_SLACK = 1.10  # pipeline blocking may be at most 10% over baseline...
ABS_SLACK = 0.25  # ...plus this many seconds, since tiny CI runs are noise-bound
# --cadence: steady-state per-save exchange bytes, and written atom bytes,
# of the MoE every=1 run must each land below this fraction of one
# full-model save.
MOE_STEADY_MAX = 0.50


def load(path):
    with open(path) as f:
        report = json.load(f)
    assert report["schema"] == "ucp-metrics-v1", f"{path}: bad schema tag"
    spans = {s["path"]: s["total_secs"] for s in report["spans"]}
    counters = {c["name"]: c["value"] for c in report["counters"]}
    return report, spans, counters


def blocking_total(spans, path):
    missing = [s for s in BLOCKING_SPANS if s not in spans]
    assert not missing, f"{path}: missing blocking spans {missing}"
    return sum(spans[s] for s in BLOCKING_SPANS)


def cadence_cells(spans, counters):
    """Per-(model, cadence) cells of a BENCH_cadence.json report."""
    cells = {}
    for name, value in counters.items():
        parts = name.split("/")
        if len(parts) != 4 or parts[0] != "cadence" or not parts[2].startswith("every"):
            continue
        model, every, field = parts[1], int(parts[2][len("every"):]), parts[3]
        cells.setdefault((model, every), {})[field] = value
    for (model, every), cell in cells.items():
        span = spans.get(f"cadence/{model}/every{every}/blocking")
        assert span is not None, f"missing blocking span for {model} every={every}"
        assert cell.get("saves", 0) > 0, f"{model} every={every}: no saves recorded"
        cell["blocking_per_save"] = span / cell["saves"]
        cell["bytes_per_save"] = cell["exchange_bytes"] / cell["saves"]
        cell["written_per_save"] = cell["universal_bytes"] / cell["saves"]
    return cells


def cadence_main(report_path, table_path, merge_path=None):
    _, raw_spans, counters = load(report_path)
    spans = {s: raw_spans[s] for s in raw_spans}
    cells = cadence_cells(spans, counters)
    models = sorted({m for m, _ in cells})
    assert "moe" in models and "dense" in models, f"models in sweep: {models}"

    rows = ["| model | every | saves | block/save (s) | bytes/save | written/save "
            "| mesh reuse | atoms skipped |",
            "|---|---|---|---|---|---|---|---|"]
    for model, every in sorted(cells):
        c = cells[(model, every)]
        rows.append(f"| {model} | {every} | {c['saves']} | {c['blocking_per_save']:.6f} "
                    f"| {c['bytes_per_save']:.0f} | {c['written_per_save']:.0f} "
                    f"| {c['mesh_reuse']} | {c['atoms_skipped']} |")

    failures = []
    for model in models:
        cadences = sorted(e for m, e in cells if m == model)
        assert cadences[0] == 1, f"{model}: sweep is missing the every=1 cell"
        tight, coarse = cells[(model, 1)], cells[(model, cadences[-1])]
        # Per-iteration saves reuse one persistent mesh; only the first
        # claim per rank builds endpoints.
        assert tight["mesh_reuse"] > 0, f"{model} every=1: persistent mesh never reused"
        budget = coarse["blocking_per_save"] * REL_SLACK + ABS_SLACK
        line = (f"{model}: block/save {tight['blocking_per_save']:.6f}s at every=1 vs "
                f"{coarse['blocking_per_save']:.6f}s at every={cadences[-1]} "
                f"(budget {budget:.6f}s)")
        print(line)
        if tight["blocking_per_save"] > budget:
            failures.append(line)

    # MoE incremental volume: the coarsest cadence takes exactly one save,
    # which exchanges and writes the full model (every block dirty after
    # the first optimizer steps). Subtract that first full save from the
    # every=1 total to get the steady-state incremental per-save volume.
    moe1 = cells[("moe", 1)]
    moe_full = cells[("moe", sorted(e for m, e in cells if m == "moe")[-1])]
    assert moe1["saves"] > 1, "moe every=1 took a single save; nothing incremental to gate"

    def steady_state(field, what, why):
        full_bytes = moe_full[field]
        steady = (moe1[field] - full_bytes) / (moe1["saves"] - 1)
        ratio = steady / full_bytes
        print(f"moe: steady-state {what} {steady:.0f} B/save vs full save {full_bytes} B "
              f"({ratio * 100:.1f}%, limit {MOE_STEADY_MAX * 100:.0f}%)")
        if ratio >= MOE_STEADY_MAX:
            failures.append(f"moe steady-state {what} is {ratio * 100:.1f}% of a full save "
                            f"(limit {MOE_STEADY_MAX * 100:.0f}%): {why}")
        return steady, full_bytes, f"**{steady:.0f} ({ratio * 100:.1f}% of full)**"

    steady, full_bytes, exchange_cell = steady_state(
        "exchange_bytes", "exchange", "the dirty filter is not dropping frozen experts")
    _, _, written_cell = steady_state(
        "universal_bytes", "written atom volume",
        "clean experts' sub-atoms are rewritten, not hard-linked")
    rows.append(f"| **moe steady-state** | 1 | — | — | {exchange_cell} | {written_cell} | — | — |")
    if moe1["atoms_skipped"] == 0:
        failures.append("moe every=1 never hard-linked a clean atom")

    with open(table_path, "w") as f:
        f.write("\n".join(rows) + "\n")
    assert not failures, "cadence gate failed:\n  " + "\n  ".join(failures)

    if merge_path:
        with open(merge_path) as f:
            merged = json.load(f)
        merged["counters"].extend([
            {"name": "cadence/moe_steady_bytes_per_save", "value": int(steady)},
            {"name": "cadence/moe_full_save_bytes", "value": int(full_bytes)},
            {"name": "cadence/every1_blocking_usecs",
             "value": int(cells[("dense", 1)]["blocking_per_save"] * 1e6)},
        ])
        with open(merge_path, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)
        print(f"merged cadence summary into {merge_path}")
    print("cadence gate ok")


def main(baseline_path, pipeline_path, table_path, merge_path=None):
    _, base_spans, _ = load(baseline_path)
    _, pipe_spans, pipe_counters = load(pipeline_path)

    for span in PIPELINE_SPANS:
        assert span in pipe_spans, f"{pipeline_path}: pipeline span {span} missing"
    for name in ("save/universal_atoms", "save/universal_bytes"):
        assert pipe_counters.get(name, 0) > 0, f"counter {name} missing or zero"

    base_total = blocking_total(base_spans, baseline_path)
    pipe_total = blocking_total(pipe_spans, pipeline_path)
    budget = base_total * REL_SLACK + ABS_SLACK

    rows = ["| span | baseline (native only) | pipeline (born-universal) |",
            "|---|---|---|"]
    for s in BLOCKING_SPANS:
        rows.append(f"| {s} | {base_spans[s]:.4f}s | {pipe_spans[s]:.4f}s |")
    rows.append(f"| **blocking total** | **{base_total:.4f}s** | **{pipe_total:.4f}s** |")
    background = sum(pipe_spans[s] for s in PIPELINE_SPANS)
    rows.append(f"| assembly (background) | — | {background:.4f}s |")
    rows.append(f"| final drain (shutdown) | {base_spans.get('save/final_drain', 0):.4f}s "
                f"| {pipe_spans.get('save/final_drain', 0):.4f}s |")
    with open(table_path, "w") as f:
        f.write("\n".join(rows) + "\n")

    print(f"blocking: baseline {base_total:.4f}s, pipeline {pipe_total:.4f}s "
          f"(budget {budget:.4f}s); assembly off-path {background:.4f}s, "
          f"{pipe_counters['save/universal_atoms']} atoms / "
          f"{pipe_counters['save/universal_bytes']} B published at save time")
    assert pipe_total <= budget, (
        f"born-universal pipeline stalls training: blocking went "
        f"{base_total:.4f}s -> {pipe_total:.4f}s (budget {budget:.4f}s = "
        f"{REL_SLACK}x + {ABS_SLACK}s)")

    if merge_path:
        with open(merge_path) as f:
            merged = json.load(f)
        delta_pct = 0 if base_total == 0 else (pipe_total / base_total - 1) * 100
        merged["counters"].extend([
            {"name": "save_stall/baseline_blocking_usecs",
             "value": int(base_total * 1e6)},
            {"name": "save_stall/pipeline_blocking_usecs",
             "value": int(pipe_total * 1e6)},
            {"name": "save_stall/delta_pct", "value": round(delta_pct)},
        ])
        with open(merge_path, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)
        print(f"merged save-stall delta ({delta_pct:+.1f}%) into {merge_path}")
    print("save-stall gate ok")


if __name__ == "__main__":
    if sys.argv[1] == "--cadence":
        cadence_main(*sys.argv[2:5])
    else:
        main(*sys.argv[1:5])
