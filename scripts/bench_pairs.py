"""Run the benchmark on two commits in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --trace-seed SEED --out BENCH_16.json

PARENT and CHANGE are git revisions of this repository.  Each is exported
with ``git archive`` into its own temporary directory, and every run is
``perfbench/run.py`` from that checkout, with the run length named in
``BENCHMARK.json``.  For each workload, PAIRS pairs at seed SEED run the two
sides once each with tracing off, alternating which side runs first.  The
file holds each side's runs, median and quartiles of every end-to-end
metric, the failed share, and the pairs the change won.  One traced run of
every workload per side at ``--trace-seed`` adds the per-layer metrics,
under ``traced`` by workload.  The trace seed has no default: pick one the
change was not tuned on, so its per-layer numbers are not the ones it was
built against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 0


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
    """The result line of one benchmark run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(results: list[dict], metrics: list[str]) -> dict:
    """One side's runs, median and quartiles of each metric, and its failed share."""
    side = {}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        side[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    side.update(attempted=attempted, failed=failed, failed_share=failed / attempted,
                all_correct=all(r["correct"] for r in results))
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
        traced = {workload: {side: {name: m["value"] for name, m in
                                    run(checkouts[side], workload, args.trace_seed,
                                        seconds, trace=1)["metrics"].items()}
                             for side in checkouts}
                  for workload in names}

    record = {
        "parent": commits["parent"], "commit": commits["change"],
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "run_seconds": seconds, "seed": SEED,
        "pairs": PAIRS, "workloads": workloads,
        "trace_seed": args.trace_seed, "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
