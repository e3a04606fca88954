"""Ground-state solvers and time-to-solution estimation.

Exhaustive search scans every assignment with vectorized bitmask evaluation;
the Metropolis annealer works directly on polynomials of any degree via
per-variable adjacency lists and incremental energy updates.  Time to
solution follows the standard repeated-trial formula

    TTS(t) = t * ln(1 - p_d) / ln(1 - p_s)

with effort t = n_sweeps * n_variables / f for simulated annealing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError
from .pseudoboolean import PseudoBooleanPolynomial, all_assignment_energies

ENERGY_MATCH_TOL = 1e-9


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
    per_var: dict[int, float] = {}
    smallest = math.inf
    for mono, coeff in poly.terms.items():
        if not mono:
            continue
        smallest = min(smallest, abs(coeff))
        for v in mono:
            per_var[v] = per_var.get(v, 0.0) + abs(coeff)
    if not per_var:
        return 0.1, 1.0
    d_max = max(per_var.values())
    d_min = max(smallest, 1e-3 * d_max)
    return math.log(2.0) / d_max, math.log(100.0) / d_min


@dataclass(frozen=True)
class SaRead:
    assignment: np.ndarray
    energy: float


def simulated_anneal(poly: PseudoBooleanPolynomial, schedule: AnnealSchedule,
                     num_variables: int | None = None,
                     debug_check: bool = False) -> list[SaRead]:
    """Metropolis single-spin-flip annealing, one entry per read.

    Each read starts from a fresh random assignment and runs ``num_sweeps``
    sweeps at linearly interpolated beta, attempting a flip of every variable
    per sweep in fixed index order.  Per-read generators are seeded as
    (rng_seed, read_index) so reads are independent and the whole run is
    reproducible.
    """
    n = num_variables if num_variables is not None else poly.num_variables
    if n < poly.num_variables:
        raise ValueError("num_variables smaller than the polynomial's variable span")
    # adjacency: variable -> [(bitmask of the other variables in the term, coeff)]
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for mono, coeff in poly.terms.items():
        full_mask = 0
        for v in mono:
            full_mask |= 1 << v
        for v in mono:
            adjacency[v].append((full_mask & ~(1 << v), coeff))
    betas = schedule.betas()
    reads: list[SaRead] = []

    for read_index in range(schedule.num_reads):
        rng = np.random.default_rng((schedule.rng_seed, read_index))
        bits = rng.integers(0, 2, size=n, dtype=np.int8)
        mask = 0
        for v in range(n):
            if bits[v]:
                mask |= 1 << v
        for beta in betas:
            uniforms = rng.random(n)
            for v in range(n):
                field_sum = 0.0
                for others, coeff in adjacency[v]:
                    if (mask & others) == others:
                        field_sum += coeff
                on = (mask >> v) & 1
                delta = -field_sum if on else field_sum
                if debug_check:
                    before = poly.evaluate_packed(mask)
                    after = poly.evaluate_packed(mask ^ (1 << v))
                    if abs((after - before) - delta) > 1e-9:
                        raise AssertionError(
                            f"incremental dE {delta} != full re-evaluation "
                            f"{after - before} for variable {v}"
                        )
                if delta <= 0.0 or uniforms[v] < math.exp(-beta * delta):
                    mask ^= 1 << v
        final = np.array([(mask >> v) & 1 for v in range(n)], dtype=np.int8)
        reads.append(SaRead(assignment=final, energy=poly.evaluate_packed(mask)))
    return reads


def exhaustive_ground_state(poly: PseudoBooleanPolynomial,
                            num_variables: int | None = None,
                            max_variables: int = 24) -> tuple[list[np.ndarray], float]:
    """All global minimizers (within 1e-9 of the minimum) by full enumeration."""
    n = num_variables if num_variables is not None else poly.num_variables
    if n > max_variables:
        raise InstanceTooLargeError(
            f"{n} variables exceed the exhaustive limit of {max_variables}"
        )
    energies = all_assignment_energies(poly, n)
    best = float(energies.min())
    idx = np.flatnonzero(energies <= best + ENERGY_MATCH_TOL)
    if idx.size > 65536:
        raise InstanceTooLargeError(
            f"{idx.size} degenerate minimizers; refusing to materialize them"
        )
    shifts = np.arange(n, dtype=np.uint64)
    minimizers = [((np.uint64(i) >> shifts) & np.uint64(1)).astype(np.int8) for i in idx]
    return minimizers, best


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
              beta_range: tuple[float, float] | None = None,
              flip_frequency: float = 1.0) -> TtsSweepResult:
    """Anneal at each sweep count and report TTS with effort n_s * N / f."""
    n = num_variables if num_variables is not None else poly.num_variables
    b0, b1 = beta_range if beta_range is not None else default_beta_range(poly)
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
