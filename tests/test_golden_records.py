"""Golden records: every experiment runner and the ``anneal`` subcommand must
keep writing the same bytes.

Each case runs a tiny configuration into a fresh directory and compares every
written file with ``tests/golden_records.json``; the directory path, which the
JSON records embed as ``out_dir``, is masked.  To regenerate after an intended
output change, run ``PYTHONPATH=src python tests/test_golden_records.py``.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from mdpspin.cli import main
from mdpspin.experiments import (ExperimentConfig, run_k_heatmap, run_oracle_compare,
                                 run_resources, run_solve, run_tts_sweep)

GOLDEN = Path(__file__).with_name("golden_records.json")
MASK = "<out_dir>"


def _config(out_dir, **overrides):
    base = dict(num_reads=40, num_sweeps=8, num_qlearning_seeds=2,
                qlearning_episodes=500, seed=0, out_dir=out_dir)
    base.update(overrides)
    return ExperimentConfig(**base)


CASES = {
    "solve_k3": lambda d: run_solve(_config(d, truncation=3), 6, 0.99),
    "solve_auto_k": lambda d: run_solve(_config(d), 5, 0.8),
    "oracle_compare": lambda d: run_oracle_compare(
        _config(d, truncation=3), 5, 0.9),
    "tts_sweep": lambda d: run_tts_sweep(_config(
        d, sizes=(4, 6), gammas=(0.6, 0.9), k_max=2,
        sweep_grid=(1, 3), num_reads=30)),
    "resources": lambda d: run_resources(_config(
        d, sizes=(4, 5, 6), gammas=(0.9,), k_max=2)),
    "k_heatmap": lambda d: run_k_heatmap(_config(
        d, sizes=(4, 6), gammas=(0.6, 0.9), k_max=2)),
    "anneal_cli": lambda d: main([
        "anneal", "--hallway", "5", "--gamma", "0.9", "--truncation", "3",
        "--sweeps", "5", "--reads", "12", "--seed", "3", "--out", d]),
    "oracle_cli": lambda d: main([
        "oracle", "--hallway", "6", "--gamma", "0.9", "--exhaustive", "--qlearning",
        "--episodes", "300", "--seed", "1", "--out", d]),
    "quadratize_cli": lambda d: main([
        "quadratize", "--hallway", "8", "--gamma", "0.9", "--truncation", "4",
        "--out", d]),
}


def _written(case: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out_dir:
        CASES[case](out_dir)
        return {name: Path(out_dir, name).read_text().replace(out_dir, MASK)
                for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_record(case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert _written(case) == expected


if __name__ == "__main__":
    records = {case: _written(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
