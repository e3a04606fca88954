"""Run the benchmark on two commits in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --trace-seed SEED --out BENCH_16.json

PARENT and CHANGE are git revisions of this repository.  Each is exported
with ``git archive`` into its own temporary directory, and every run is
``perfbench/run.py`` from that checkout, with the run length named in
``BENCHMARK.json``.  For each workload, PAIRS pairs at seed SEED run the two
sides once each with tracing off, alternating which side runs first.  The
file holds each side's runs, median and quartiles of every end-to-end
metric, the failed share, and the pairs the change won.  Under ``unscaled``
each side also keeps what a run prints on its ``unscaled:`` line, not scaled
by the reference loop: the median round, the median set-up and the speed
factor, with their medians.  TRACED_PAIRS pairs of traced runs of every
workload at ``--trace-seed``, again alternating which side runs first, add
the per-layer metrics under ``traced`` by workload, and the trace file's
median self time of each layer on each instance under
``self_time_by_instance``: each side keeps every value's traced runs and
their median, so that a layer's change can be told from host drift that
moves every layer.  The trace seed has no default: pick one the change was
not tuned on, so its per-layer numbers are not the ones it was built
against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_PAIRS = 3
SEED = 0
UNSCALED = re.compile(r"unscaled: median round ([\d.]+) s, "
                      r"median set-up ([\d.]+) s; speed factor ([\d.]+)")


def export(revision: str, into: Path) -> str:
    """Extract the revision's committed files into ``into``; its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", revision],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one benchmark run, with its unscaled timings added
    under ``unscaled``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    values = map(float, UNSCALED.search(out).groups())
    result["unscaled"] = dict(zip(("round_s", "setup_s", "speed_factor"), values))
    return result


def traced(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics of one traced run, and each instance's median
    self time per layer from the trace file the run writes."""
    result = run(checkout, workload, seed, seconds, trace=1)
    trace = checkout / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json"
    record = {name: m["value"] for name, m in result["metrics"].items()}
    record["self_time_by_instance"] = json.loads(trace.read_text())["self_time_by_instance"]
    return record


def runs_median(values: list[float]) -> dict:
    return {"median": statistics.median(values), "runs": values}


def traced_summary(records: list[dict]) -> dict:
    """Each layer's traced runs and their median for one side, and the same for
    each instance's self time of each layer."""
    times = [r.pop("self_time_by_instance") for r in records]
    side = {name: runs_median([r[name] for r in records]) for name in records[0]}
    side["self_time_by_instance"] = {
        instance: {layer: runs_median([t[instance][layer] for t in times]) for layer in layers}
        for instance, layers in times[0].items()}
    return side


def summary(results: list[dict], metrics: list[str]) -> dict:
    """One side's runs, median and quartiles of each metric, its failed share and
    its unscaled timings."""
    side = {}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        side[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    side.update(attempted=attempted, failed=failed, failed_share=failed / attempted,
                all_correct=all(r["correct"] for r in results))
    side["unscaled"] = {}
    for name in results[0]["unscaled"]:
        side["unscaled"][name] = runs_median([r["unscaled"][name] for r in results])
    return side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace-seed", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts, commits = {}, {}
        for side, revision in (("parent", args.parent), ("change", args.change)):
            checkouts[side] = Path(tmp) / side
            commits[side] = export(revision, checkouts[side])
        names = [w["name"] for w in spec["workloads"]]
        workloads = {}
        for workload in names:
            results = {"parent": [], "change": []}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(run(checkouts[side], workload, SEED,
                                             seconds, trace=0))
                    print(f"{workload} pair {pair} {side}: "
                          f"{json.dumps(results[side][-1]['metrics'])}", flush=True)
            entry = {side: summary(results[side], list(metrics)) for side in results}
            entry["change_won"] = {
                name: sum((c < p) if better == "lower" else (c > p)
                          for p, c in zip(entry["parent"][name]["runs"],
                                          entry["change"][name]["runs"]))
                for name, better in metrics.items()}
            workloads[workload] = entry
        layers = {}
        for workload in names:
            records = {"parent": [], "change": []}
            for pair in range(TRACED_PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    records[side].append(traced(checkouts[side], workload,
                                                args.trace_seed, seconds))
                    print(f"{workload} traced pair {pair} {side}", flush=True)
            layers[workload] = {side: traced_summary(records[side]) for side in records}

    record = {
        "parent": commits["parent"], "commit": commits["change"],
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "run_seconds": seconds, "seed": SEED,
        "pairs": PAIRS, "workloads": workloads,
        "trace_seed": args.trace_seed, "traced_pairs": TRACED_PAIRS, "traced": layers,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
