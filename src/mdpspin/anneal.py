"""Ground-state solvers and time-to-solution estimation.

Exhaustive search and the Metropolis annealer both read a polynomial of any
degree through its ``TermTable``: the search scans every assignment as one
product between two halves' term activities, and the annealer advances all
reads in lockstep with a per-read count of each term's zero variables.  Time
to solution follows the standard repeated-trial formula

    TTS(t) = t * ln(1 - p_d) / ln(1 - p_s)

with effort t = n_sweeps * n_variables / f for simulated annealing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError
from .pseudoboolean import (PseudoBooleanPolynomial, TermTable, all_assignment_energies,
                           bit_rows, variable_count)

ENERGY_MATCH_TOL = 1e-9
EXHAUSTIVE_MAX_VARIABLES = 24
EXHAUSTIVE_MAX_MINIMIZERS = 65536


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear inverse-temperature ramp over a fixed number of sweeps."""

    num_sweeps: int
    beta_start: float
    beta_end: float
    num_reads: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.num_reads < 1:
            raise ValueError("need at least one read")
        if not (0 < self.beta_start <= self.beta_end):
            raise ValueError("need beta_end >= beta_start > 0")

    def betas(self) -> np.ndarray:
        if self.num_sweeps == 1:
            return np.array([self.beta_end])
        return np.linspace(self.beta_start, self.beta_end, self.num_sweeps)


def default_beta_range(poly: PseudoBooleanPolynomial) -> tuple[float, float]:
    """Hot start accepting the largest single-flip move half the time, cold
    end accepting the smallest one percent of the time."""
    table = TermTable(poly)
    magnitudes = np.abs(table.coeffs[table.sizes > 0])
    if not magnitudes.size:
        return 0.1, 1.0
    d_max = float((table.incidence @ np.abs(table.coeffs)).max())
    d_min = max(float(magnitudes.min()), 1e-3 * d_max)
    return math.log(2.0) / d_max, math.log(100.0) / d_min


@dataclass(frozen=True)
class SaRead:
    assignment: np.ndarray
    energy: float


def simulated_anneal(poly: PseudoBooleanPolynomial, schedule: AnnealSchedule,
                     num_variables: int | None = None,
                     debug_check: bool = False) -> list[SaRead]:
    """Metropolis single-spin-flip annealing, all reads in lockstep.

    The reads are the rows of one (reads, n) array.  Each starts from a random
    assignment and runs ``num_sweeps`` sweeps at linearly interpolated beta,
    attempting a flip of every variable per sweep in fixed index order.
    ``missing[r, t]`` counts the variables of term t that are 0 in read r, so
    the field of v sums the coefficients of v's terms with
    ``missing == 1 - x_v``.  One generator seeded with ``rng_seed`` draws the
    starts, then a (reads, n) block of uniforms per sweep: a run is
    reproducible from ``(rng_seed, num_reads)``.
    """
    table = TermTable(poly, num_variables)
    var_terms = [(ts, table.coeffs[ts]) for ts in map(np.flatnonzero, table.incidence)]
    rng = np.random.default_rng(schedule.rng_seed)
    x = rng.integers(0, 2, size=(schedule.num_reads, len(var_terms)), dtype=np.int8)
    missing = table.sizes - x @ table.incidence
    for beta in schedule.betas():
        uniforms = rng.random(x.shape)
        for v, (ts, coeffs) in enumerate(var_terms):
            xv = x[:, v]
            field = (missing[:, ts] == (1 - xv)[:, None]) @ coeffs
            delta = np.where(xv, -field, field)
            if debug_check:
                flipped = x.copy()
                flipped[:, v] ^= 1
                np.testing.assert_allclose(
                    delta, table.energies(flipped) - table.energies(x), rtol=0, atol=1e-9,
                    err_msg=f"incremental dE != full re-evaluation for variable {v}")
            rows = np.flatnonzero(uniforms[:, v] < np.exp(-beta * np.maximum(delta, 0.0)))
            missing[np.ix_(rows, ts)] += 2 * xv[rows, None] - 1
            x[rows, v] ^= 1
    return [SaRead(assignment=a, energy=float(e)) for a, e in zip(x, table.energies(x))]


def exhaustive_ground_state(poly: PseudoBooleanPolynomial,
                            num_variables: int | None = None
                            ) -> tuple[list[np.ndarray], float]:
    """All global minimizers (within 1e-9 of the minimum) by full enumeration."""
    n = variable_count(poly, num_variables)
    if n > EXHAUSTIVE_MAX_VARIABLES:
        raise InstanceTooLargeError(
            f"{n} variables exceed the exhaustive limit of {EXHAUSTIVE_MAX_VARIABLES}"
        )
    energies = all_assignment_energies(poly, n)
    best = float(energies.min())
    idx = np.flatnonzero(energies <= best + ENERGY_MATCH_TOL)
    if idx.size > EXHAUSTIVE_MAX_MINIMIZERS:
        raise InstanceTooLargeError(
            f"{idx.size} degenerate minimizers; refusing to materialize them"
        )
    return list(bit_rows(idx, n)), best


def success_probability(reads: Sequence[SaRead], ground_energy: float,
                        match_rule: str = "energy",
                        target_bits: np.ndarray | None = None,
                        base_count: int | None = None) -> tuple[float, float]:
    """Fraction of successful reads with its binomial standard error.

    ``energy`` counts a read as a success when it attains the ground energy
    within tolerance; ``policy`` compares the first ``base_count`` bits
    against ``target_bits`` (the reference original-variable assignment).
    """
    if not reads:
        raise ValueError("success probability needs at least one read")
    if match_rule == "energy":
        hits = sum(1 for r in reads if abs(r.energy - ground_energy) <= ENERGY_MATCH_TOL)
    elif match_rule == "policy":
        if target_bits is None or base_count is None:
            raise ValueError("policy matching needs target_bits and base_count")
        ref = np.asarray(target_bits, dtype=np.int8)[:base_count]
        hits = sum(
            1 for r in reads if np.array_equal(r.assignment[:base_count], ref)
        )
    else:
        raise ValueError(f"unknown match rule {match_rule!r}")
    p = hits / len(reads)
    stderr = math.sqrt(p * (1.0 - p) / len(reads))
    return p, stderr


@dataclass(frozen=True)
class TtsEstimate:
    success_probability: float
    std_error: float
    effort: float
    desired_probability: float
    value: float
    status: str  # "finite" | "undefined-all-success" | "undefined-no-success"

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"


def tts(success_prob: float, effort: float, desired_probability: float = 0.99,
        std_error: float = 0.0) -> TtsEstimate:
    """Repeated-trial time to solution; degenerate cases carry a status flag."""
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError("success probability must be in [0, 1]")
    if not (0.0 < desired_probability < 1.0):
        raise ValueError("desired probability must be in (0, 1)")
    if success_prob == 0.0:
        return TtsEstimate(success_prob, std_error, effort, desired_probability,
                           math.inf, "undefined-no-success")
    if success_prob == 1.0:
        return TtsEstimate(success_prob, std_error, effort, desired_probability,
                           math.nan, "undefined-all-success")
    value = effort * math.log(1.0 - desired_probability) / math.log(1.0 - success_prob)
    return TtsEstimate(success_prob, std_error, effort, desired_probability,
                       value, "finite")


def tts_std_error(estimate: TtsEstimate) -> float:
    """First-order propagation of the binomial error through the TTS formula."""
    p = estimate.success_probability
    if not estimate.is_finite or estimate.std_error == 0.0:
        return math.nan if not estimate.is_finite else 0.0
    log_term = math.log(1.0 - p)
    deriv = (estimate.effort * math.log(1.0 - estimate.desired_probability)
             / ((1.0 - p) * log_term * log_term))
    return abs(deriv) * estimate.std_error


@dataclass(frozen=True)
class TtsSweepRow:
    num_sweeps: int
    estimate: TtsEstimate


@dataclass(frozen=True)
class TtsSweepResult:
    rows: tuple[TtsSweepRow, ...]
    optimal: TtsSweepRow | None

    @property
    def optimal_num_sweeps(self) -> int | None:
        return self.optimal.num_sweeps if self.optimal else None


def tts_sweep(poly: PseudoBooleanPolynomial, ground_energy: float,
              sweep_grid: Sequence[int], num_reads: int,
              desired_probability: float = 0.99, rng_seed: int = 0,
              num_variables: int | None = None,
              flip_frequency: float = 1.0) -> TtsSweepResult:
    """Anneal at each sweep count and report TTS with effort n_s * N / f."""
    n = variable_count(poly, num_variables)
    b0, b1 = default_beta_range(poly)
    rows: list[TtsSweepRow] = []
    for ns in sweep_grid:
        schedule = AnnealSchedule(num_sweeps=int(ns), beta_start=b0, beta_end=b1,
                                  num_reads=num_reads, rng_seed=rng_seed)
        reads = simulated_anneal(poly, schedule, num_variables=n)
        p, err = success_probability(reads, ground_energy)
        effort = ns * n / flip_frequency
        rows.append(TtsSweepRow(int(ns), tts(p, effort, desired_probability, err)))
    finite = [r for r in rows if r.estimate.is_finite]
    optimal = min(finite, key=lambda r: r.estimate.value) if finite else None
    return TtsSweepResult(rows=tuple(rows), optimal=optimal)
