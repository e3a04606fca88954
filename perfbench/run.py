#!/usr/bin/env python3
"""Benchmark of the MDP -> QUBO -> anneal pipeline (see README.md beside this file).

    python3 perfbench/run.py --workload anneal --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``.
It repeats whole rounds of the workload for about ``--seconds`` seconds,
checks every round against the benchmark's own references, and prints one
JSON object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("anneal", "qubo-build", "k-search")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is timed in this process and in fresh ones, one after each round and
# more at the end until there are this many; setup_s is their median
SETUP_SAMPLES = 7
# The speed of a shared host drifts by a third within minutes (README).  A fixed
# piece of interpreter work, timed before the first round and after every
# round, tracks it, and the times reported are scaled to the speed at which
# that work takes REFERENCE_S seconds.
REFERENCE_S = 0.4

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mdp.build_s": "s",
    "compiler.compile_s": "s",
    "compiler.objective_terms": "count",
    "compiler.kmin_s": "s",
    "compiler.kmin_slowest_s": "s",
    "pseudoboolean.enumerate_s": "s",
    "quadratize.reduce_s": "s",
    "quadratize.ancillas": "count",
    "quadratize.qubo_terms": "count",
    "quadratize.export_s": "s",
    "resources.logical_variables": "count",
    "resources.coefficients": "count",
    "anneal.beta_range_s": "s",
    "anneal.sa_s": "s",
    "anneal.flips_per_s.small": "flips/s",
    "anneal.flips_per_s.large": "flips/s",
    "anneal.sa_flips_per_s": "flips/s",
    "anneal.tts99_s": "s",
    "anneal.p_success": "hits/reads",
    "anneal.p_success_reads": "count",
    "dp.value_iteration_s": "s",
    "trace.wall_s": "s",
}
# per-layer times are the self time of the spans of this name
SPAN_METRICS = {"mdp.build_s": "mdp.build",
                "compiler.compile_s": "compiler.compile",
                "compiler.kmin_s": "compiler.kmin",
                "pseudoboolean.enumerate_s": "pseudoboolean.enumerate",
                "quadratize.reduce_s": "quadratize.reduce",
                "quadratize.export_s": "quadratize.export",
                "anneal.beta_range_s": "anneal.beta_range",
                "anneal.sa_s": "anneal.sa",
                "dp.value_iteration_s": "dp.value_iteration"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare() -> None:
    """One BLAS/OpenMP thread, and the library from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mdpspin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {SRC / 'mdpspin'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def timed_setup(workload: str, seed: int, tracer):
    """Import numpy and the library, build the workload's MDPs; time it all."""
    start = time.perf_counter()
    import workloads
    mdps = workloads.setup(workload, seed, tracer)
    return workloads, mdps, time.perf_counter() - start


def time_reference() -> float:
    """Seconds of fixed work of the kinds the library's hot loops do, none of
    it from the library: Metropolis flips over a 120-bit mask with uniforms
    read from a numpy array (as the annealer), float sums in dicts under tuple
    keys, and dicts under frozenset keys (as the compiler and the
    quadratizer).  It holds well under 1 MB at once and leaves numpy.random
    unloaded, so that it does not raise the process's peak_rss_mb."""
    import numpy as np      # imported by the set-up already, which times it

    start = time.perf_counter()
    n = 120
    neighbours = [[((1 << (v * 7 + k) % n) | (1 << (v * 13 + 3 * k) % n), (k - 2.5) / 10)
                   for k in range(6)] for v in range(n)]
    uniform_rows = (np.arange(64 * n) * 0.6180339887498949 % 1.0).reshape(64, n)
    mask = 0
    for sweep in range(1000):
        beta = 0.1 + sweep / 2000
        uniforms = uniform_rows[sweep % 64]
        for v in range(n):
            field = 0.0
            for others, coeff in neighbours[v]:
                if mask & others == others:
                    field += coeff
            delta = -field if (mask >> v) & 1 else field
            if delta <= 0.0 or uniforms[v] < math.exp(-beta * delta):
                mask ^= 1 << v
    weights = [(i * 2654435761 % 1000) / 1000 for i in range(64)]
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(330_000):
        key = (i & 63, (i >> 6) & 7)
        table[key] = table.get(key, 0.0) + weights[i & 63]
        total += weights[i * 7 & 63] / 2
    for _ in range(100):
        terms: dict[frozenset, float] = {}
        for a, b, c in itertools.combinations(range(24), 3):
            key = frozenset((a, b, c % 17))
            terms[key] = terms.get(key, 0.0) + (a - b) / 100
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Median over rounds of each layer's self time (set-up spans: their sum)."""
    per_round = [defaultdict(float) for _ in range(rounds)]
    per_cell = [defaultdict(float) for _ in range(rounds)]
    in_setup: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, tracing.self_times(spans)):
        if span["round"] is None:
            in_setup[span["name"]] += own
            continue
        per_round[span["round"]][span["name"]] += own
        if span["name"] == "compiler.kmin":
            per_cell[span["round"]][span["instance"]] += own
    out = {metric: in_setup[name] + statistics.median(r[name] for r in per_round)
           for metric, name in SPAN_METRICS.items()}
    out["compiler.kmin_slowest_s"] = statistics.median(
        max(cells.values(), default=0.0) for cells in per_cell)
    return out


def write_trace(args, spans: list[dict], rounds: int) -> Path:
    """Spans plus each instance's median self time per layer."""
    by_instance: dict[tuple, list[float]] = defaultdict(lambda: [0.0] * rounds)
    for span, own in zip(spans, tracing.self_times(spans)):
        if span["round"] is not None:
            by_instance[span["instance"], span["name"]][span["round"]] += own
    breakdown: dict[str, dict[str, float]] = defaultdict(dict)
    for (instance, name), values in sorted(by_instance.items()):
        breakdown[instance][name] = statistics.median(values)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "rounds": rounds, "self_time_by_instance": breakdown,
                                "spans": spans}, indent=1))
    for instance, layers in breakdown.items():
        print(f"  {instance}: " + ", ".join(f"{k} {v:.4f}s" for k, v in layers.items()))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workloads, mdps, own_setup = timed_setup(args.workload, args.seed, tracer)

    walls: list[float] = []
    laps: list[float] = []     # round, checks and set-up probe together
    measures: list[dict] = []
    ops = []
    setups = [own_setup]
    started = time.perf_counter()
    refs = [time_reference()]
    # start a round only if a typical lap still ends within --seconds, so that
    # a run takes --seconds and not up to a round more
    while not laps or (time.perf_counter() - started + statistics.median(laps)
                       <= args.seconds):
        lap_start = time.perf_counter()
        tracer.round = len(walls)
        start = time.perf_counter()
        result = workloads.run_round(args.workload, mdps, args.seed, tracer)
        walls.append(time.perf_counter() - start)
        tracer.round = None
        refs.append(time_reference())
        measures.append(result.measures)
        ops.extend(workloads.check(args.workload, mdps, result))
        del result
        if not args.trace:
            # spread the set-up samples over the run rather than taking them in a burst
            setups.append(probe_setup(args.workload, args.seed))
        laps.append(time.perf_counter() - lap_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(args.workload, args.seed))

    failed = [op for op in ops if op.failed]
    correct = all(op.correct for op in ops)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} rounds, {len(ops)} operations attempted, {len(failed)} failed")
    print("  round walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    print("  reference loop (s): " + " ".join(f"{r:.3f}" for r in refs))
    print("  set-up samples (s): " + " ".join(f"{s:.3f}" for s in setups))
    # each round against the mean of the reference loops on either side of it
    scaled_walls = [REFERENCE_S * wall / ((before + after) / 2)
                    for wall, before, after in zip(walls, refs, refs[1:])]
    speed = REFERENCE_S / statistics.median(refs)
    print(f"  unscaled: median round {statistics.median(walls):.4f} s, "
          f"median set-up {statistics.median(setups):.4f} s; speed factor {speed:.3f}")
    for op in {op.name: op for op in failed}.values():
        kind = "known fault" if op.correct else "WRONG OUTPUT"
        print(f"  failed {op.name} ({kind}): {', '.join(op.failures)}")

    if args.trace:
        # a layer the workload never calls reads 0
        values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
        values.update(workloads.summarize(args.workload, measures))
        values.update(layer_metrics(tracer.spans, len(walls)))
        values["trace.wall_s"] = statistics.median(scaled_walls)
        units = PER_LAYER
        print(f"  spans written to {write_trace(args, tracer.spans, len(walls))}")
    else:
        values = {"setup_s": statistics.median(setups) * speed,
                  "wall_s": statistics.median(scaled_walls),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if not math.isfinite(value):
            correct = False
            value = None
        print(f"  {name} = {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
