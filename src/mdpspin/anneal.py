"""Ground-state solvers and time-to-solution estimation.

Exhaustive search and the Metropolis annealer both read a polynomial of any
degree through its ``TermTable``: the search scans every assignment as one
product between two halves' term activities, and the annealer advances all
reads in lockstep with a per-read count of each term's zero variables.  The
annealer's state is term-major, one row per term or variable and one column
per read, and a sweep updates one dependency level of variables per numpy
step.  The levels come from a plan built once per call: variables that share
a term of any degree are neighbours, and a variable's level is one more than
the highest level among its earlier-index neighbours.  A level's variables
thus share no term and see every earlier neighbour already updated, so the
level sweep is the index-order sweep, read for read.  Time to solution
follows the standard repeated-trial formula

    TTS(t) = t * ln(1 - p_d) / ln(1 - p_s)

with effort t = n_sweeps * n_variables, in sweep-variable units, for
simulated annealing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class _Level(NamedTuple):
    """One dependency level of the sweep: its variables, the concatenated ids
    of their terms, the position in ``variables`` that owns each term and the
    (variables, terms) block holding each term's coefficient in its owner's row."""

    variables: np.ndarray
    terms: np.ndarray
    owner: np.ndarray
    coeffs: np.ndarray


def _level_plan(table: TermTable) -> list[_Level]:
    """Group the variables into dependency levels for the sweep.

    Two variables are neighbours when they share a term of any degree.  A
    variable's level is one more than the highest level among its
    earlier-index neighbours (0 when it has none), so no two variables of a
    level share a term and every earlier neighbour of a variable sits in a
    lower level.  ``top[t]`` is the highest level assigned so far to a
    variable of term t.
    """
    var_terms = [np.flatnonzero(row) for row in table.incidence]
    level = np.zeros(len(var_terms), dtype=np.intp)
    top = np.full(table.coeffs.size, -1, dtype=np.intp)
    for v, ts in enumerate(var_terms):
        level[v] = top[ts].max(initial=-1) + 1
        top[ts] = level[v]
    plan = []
    for lvl in range(level.max(initial=-1) + 1):
        variables = np.flatnonzero(level == lvl)
        counts = [var_terms[v].size for v in variables]
        terms = np.concatenate([var_terms[v] for v in variables])
        owner = np.repeat(np.arange(variables.size), counts)
        coeffs = np.zeros((variables.size, terms.size))
        coeffs[owner, np.arange(terms.size)] = table.coeffs[terms]
        plan.append(_Level(variables, terms, owner, coeffs))
    return plan


def simulated_anneal(poly: PseudoBooleanPolynomial, schedule: AnnealSchedule,
                     num_variables: int | None = None,
                     debug_check: bool = False) -> list[SaRead]:
    """Metropolis single-spin-flip annealing, all reads in lockstep.

    Each read starts from a random assignment and runs ``num_sweeps`` sweeps at
    linearly interpolated beta, attempting a flip of every variable per sweep
    in fixed index order.  The state is term-major: ``x[v, r]`` is variable v
    in read r and ``missing[t, r]`` counts the variables of term t that are 0
    in read r, so the field of v sums the coefficients of v's terms with
    ``missing == 1 - x_v``.  A sweep updates one level of ``_level_plan``
    per numpy step.  A level's variables share no term and each one's
    earlier-index neighbours sit in lower levels, so every variable sees the
    state that the one-variable-at-a-time index-order sweep would show it.
    One generator seeded with ``rng_seed`` draws the (reads, n) starts, then
    a (reads, n) block of uniforms per sweep, of which variable v reads
    column v: a run is reproducible from ``(rng_seed, num_reads)``.
    ``debug_check`` compares each flip energy of a level with a full
    re-evaluation at the level's starting state.
    """
    table = TermTable(poly, num_variables)
    plan = _level_plan(table)
    rng = np.random.default_rng(schedule.rng_seed)
    n = table.incidence.shape[0]
    starts = rng.integers(0, 2, size=(schedule.num_reads, n), dtype=np.int8)
    missing = np.ascontiguousarray((table.sizes - table.set_counts(starts)).T)
    x = np.ascontiguousarray(starts.T)
    for beta in schedule.betas():
        uniforms = np.ascontiguousarray(rng.random((schedule.num_reads, n)).T)
        for level in plan:
            xl = x[level.variables]
            xo = xl[level.owner]
            field = level.coeffs @ (missing[level.terms] == 1 - xo)
            delta = np.where(xl, -field, field)
            if debug_check:
                # the level's variables share no term: each delta is a single flip's
                base = table.energies(x.T)
                for i, v in enumerate(level.variables):
                    flipped = x.copy()
                    flipped[v] ^= 1
                    np.testing.assert_allclose(
                        delta[i], table.energies(flipped.T) - base, rtol=0, atol=1e-9,
                        err_msg=f"incremental dE != full re-evaluation for variable {v}")
            accept = uniforms[level.variables] < np.exp(-beta * np.maximum(delta, 0.0))
            missing[level.terms] += (2 * xo - 1) * accept[level.owner]
            x[level.variables] ^= accept
    reads = np.ascontiguousarray(x.T)
    return [SaRead(assignment=a, energy=float(e)) for a, e in zip(reads, table.energies(reads))]


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
              num_variables: int | None = None) -> TtsSweepResult:
    """Anneal at each sweep count and report TTS with effort n_s * N."""
    n = variable_count(poly, num_variables)
    b0, b1 = default_beta_range(poly)
    rows: list[TtsSweepRow] = []
    for ns in sweep_grid:
        schedule = AnnealSchedule(num_sweeps=int(ns), beta_start=b0, beta_end=b1,
                                  num_reads=num_reads, rng_seed=rng_seed)
        reads = simulated_anneal(poly, schedule, num_variables=n)
        p, err = success_probability(reads, ground_energy)
        rows.append(TtsSweepRow(int(ns), tts(p, float(ns * n), desired_probability, err)))
    finite = [r for r in rows if r.estimate.is_finite]
    optimal = min(finite, key=lambda r: r.estimate.value) if finite else None
    return TtsSweepResult(rows=tuple(rows), optimal=optimal)
