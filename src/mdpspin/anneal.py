"""Simulated annealing and time-to-solution estimation.

The Metropolis annealer reads a polynomial of any degree through its
``TermTable``.  It advances all reads in lockstep and splits each variable's
field in two: the degree-1 and degree-2 terms give one product of a dense
coupling matrix with the state, and only the terms of degree 3 or more keep
a per-read count of their zero variables.  A sweep updates one dependency
level of variables per numpy step.  The levels come from a plan built once
per call: variables that share a term of any degree are neighbours, and a
variable's level is one more than the highest level among its earlier-index
neighbours.  A level's variables thus share no term and see every earlier
neighbour already updated, so the level sweep is the index-order sweep, read
for read.  The state holds the variables in level order, so that a level is
a slice of it.  A move is accepted when ``u < exp(field * (x * 2 beta - beta))``,
one exponent per level: for x in {0, 1}, ``x * 2 beta - beta`` is exactly
``-beta * (1 - 2x)`` and the flip energy is ``delta = field * (1 - 2x)``, so
where delta > 0 the exponent is ``-beta * delta`` to the bit, and where
delta <= 0 it is >= 0 and exp gives at least 1 > u.  That is the Metropolis
rule ``u < exp(-beta * max(delta, 0))`` for every finite beta.
Time to solution follows the standard repeated-trial formula

    TTS(t) = t * ln(1 - p_d) / ln(1 - p_s)

with effort t = n_sweeps * n_variables, in sweep-variable units, for
simulated annealing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .pseudoboolean import PseudoBooleanPolynomial, TermTable, energies_match

DESIRED_PROBABILITY = 0.99  # the p_d of TTS99


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
        if not (math.isfinite(self.beta_start) and math.isfinite(self.beta_end)):
            raise ValueError(f"betas must be finite, got [{self.beta_start!r}, {self.beta_end!r}]")
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
    d_max = float(np.einsum("vt,t->v", table.incidence, np.abs(table.coeffs)).max())
    d_min = max(float(magnitudes.min()), 1e-3 * d_max)
    return math.log(2.0) / d_max, math.log(100.0) / d_min


class SaRead(NamedTuple):
    assignment: np.ndarray
    energy: float


class _Level(NamedTuple):
    """One dependency level of the sweep.  ``rows`` is its slice of the
    level-ordered state and ``coupling`` the same rows of the plan's coupling
    matrix.  ``terms`` are the rows of ``missing`` (terms of degree 3 or more)
    that its variables own, ``owner`` the position in ``rows`` owning each, and
    ``coeffs`` the (variables, terms) block holding each term's coefficient in
    its owner's row."""

    rows: slice
    coupling: np.ndarray
    terms: np.ndarray
    owner: np.ndarray
    coeffs: np.ndarray


def _level_plan(table: TermTable) -> tuple[np.ndarray, np.ndarray, list[_Level]]:
    """The variables in level order, the ids of the terms of degree 3 or more
    and the sweep's dependency levels.

    Two variables are neighbours when they share a term of any degree.  A
    variable's level is one more than the highest level among its
    earlier-index neighbours (0 when it has none), so no two variables of a
    level share a term and every earlier neighbour of a variable sits in a
    lower level.  ``top[t]`` is the highest level assigned so far to a
    variable of term t.  The coupling matrix is (n, n + 1) in level order:
    row p holds, for the variable at position p, the coefficient of each
    degree-2 term in the column of its other variable and the coefficient of
    its degree-1 term in the last column.
    """
    n = table.incidence.shape[0]
    level = np.zeros(n, dtype=np.intp)
    top = np.full(table.coeffs.size, -1, dtype=np.intp)
    for v, row in enumerate(table.incidence):
        ts = np.flatnonzero(row)
        level[v] = top[ts].max(initial=-1) + 1
        top[ts] = level[v]
    order = np.argsort(level, kind="stable")
    rank = np.argsort(order)
    coupling = np.zeros((n, n + 1))
    linear = np.flatnonzero(table.sizes == 1)
    coupling[rank[np.nonzero(table.incidence[:, linear].T)[1]], n] = table.coeffs[linear]
    # a degree-2 term's two variables, in the order np.nonzero lists them
    pairs = np.flatnonzero(table.sizes == 2)
    u, w = rank[np.nonzero(table.incidence[:, pairs].T)[1].reshape(-1, 2).T]
    coupling[u, w] = coupling[w, u] = table.coeffs[pairs]
    high = np.flatnonzero(table.sizes >= 3)
    high_incidence = table.incidence[np.ix_(order, high)]
    bounds = np.searchsorted(level[order], np.arange(level.max(initial=-1) + 2))
    levels = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        owner, terms = np.nonzero(high_incidence[start:stop])
        coeffs = np.zeros((stop - start, terms.size))
        coeffs[owner, np.arange(terms.size)] = table.coeffs[high[terms]]
        levels.append(_Level(slice(start, stop), coupling[start:stop], terms, owner, coeffs))
    return order, high, levels


def simulated_anneal(poly: PseudoBooleanPolynomial, schedule: AnnealSchedule,
                     num_variables: int | None = None,
                     debug_check: bool = False) -> list[SaRead]:
    """Metropolis single-spin-flip annealing, all reads in lockstep.

    Each read starts from a random assignment and runs ``num_sweeps`` sweeps at
    linearly interpolated beta, attempting a flip of every variable per sweep
    in fixed index order.  The state ``x`` is float64 (n + 1, reads), its
    rows the variables in the plan's level order and its last row all ones.
    A level's fields are ``level.coupling @ x``, the degree-1 and degree-2
    terms, plus the terms of degree 3 or more: ``missing[t, r]`` counts the
    variables of such a term t that are 0 in read r, and v gains the
    coefficient of each of its terms with ``missing == 1 - x_v``.  A level
    with no such term skips that part, as every level of a QUBO does.  A
    level flips where ``u < exp(field * (x * 2 beta - beta))``, which is
    ``u < exp(-beta * max(delta, 0))`` bit for bit (see the module
    docstring); exp overflows to inf only where delta < 0, a move that both
    rules accept.  The flip is an xor into the level's rows of ``x``.  A
    sweep updates one level of ``_level_plan`` per numpy step.  A level's
    variables share no term and each one's earlier-index neighbours sit in
    lower levels, so every variable sees the state that the
    one-variable-at-a-time index-order sweep would show it.  One generator
    seeded with ``rng_seed`` draws the (reads, n) starts, then a (reads, n)
    block of uniforms per sweep, of which variable v reads column v: a run
    is reproducible from ``(rng_seed, num_reads)``.  ``debug_check``
    compares each flip energy of a level with a full re-evaluation, in the
    original variable order, at the level's starting state.
    """
    table = TermTable(poly, num_variables)
    order, high, levels = _level_plan(table)
    rng = np.random.default_rng(schedule.rng_seed)
    n, reads = order.size, schedule.num_reads
    starts = rng.integers(0, 2, size=(reads, n), dtype=np.int8)
    x = np.ones((n + 1, reads))
    x[:n] = starts.T[order]
    missing = np.ascontiguousarray((table.sizes[high] - table.set_counts(starts, high)).T)
    rank = np.argsort(order)  # x[rank] is the state in variable order
    with np.errstate(over="ignore"):  # exp overflows to inf only on accepted moves
        for beta in schedule.betas():
            uniforms = rng.random((reads, n)).T[order]
            for level in levels:
                xl = x[level.rows]
                field = level.coupling @ x
                if level.terms.size:
                    xo = xl.astype(np.int8)[level.owner]
                    field += level.coeffs @ (missing[level.terms] == 1 - xo)
                if debug_check:
                    # the level's variables share no term: each delta is a single flip's
                    delta = field * (1.0 - 2.0 * xl)
                    state = x[rank].astype(np.int8)
                    base = table.energies(state.T)
                    for i, v in enumerate(order[level.rows]):
                        flipped = state.copy()
                        flipped[v] ^= 1
                        np.testing.assert_allclose(
                            delta[i], table.energies(flipped.T) - base, rtol=0, atol=1e-9,
                            err_msg=f"incremental dE != full re-evaluation for variable {v}")
                # for x in {0, 1}, x * 2 beta - beta is -beta * (1 - 2x) to the bit
                flip = uniforms[level.rows] < np.exp(field * (xl * (2.0 * beta) - beta))
                if level.terms.size:
                    missing[level.terms] -= (1 - 2 * xo) * flip[level.owner]
                np.logical_xor(xl, flip, out=xl, casting="unsafe")
    state = np.ascontiguousarray(x[rank].T, dtype=np.int8)
    return list(map(tuple.__new__, repeat(SaRead), zip(state, table.energies(state).tolist())))


def success_probability(reads: Sequence[SaRead], ground_energy: float) -> tuple[float, float]:
    """Fraction of successful reads with its binomial standard error.

    A read succeeds when it attains the ground energy within ENERGY_MATCH_TOL.
    """
    if not reads:
        raise ValueError("success probability needs at least one read")
    energies = np.fromiter((r.energy for r in reads), np.float64, len(reads))
    hits = int(np.count_nonzero(energies_match(energies, ground_energy)))
    p = hits / len(reads)
    stderr = math.sqrt(p * (1.0 - p) / len(reads))
    return p, stderr


@dataclass(frozen=True)
class TtsEstimate:
    success_probability: float
    std_error: float
    effort: float
    value: float
    value_std_error: float
    status: str  # "finite" | "undefined-all-success" | "undefined-no-success"

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"


def tts(success_prob: float, effort: float, desired_probability: float = DESIRED_PROBABILITY,
        std_error: float = 0.0) -> TtsEstimate:
    """Repeated-trial time to solution and its first-order error, the binomial
    ``std_error`` propagated through the formula; degenerate cases carry a
    status flag and a NaN error."""
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError("success probability must be in [0, 1]")
    if not (0.0 < desired_probability < 1.0):
        raise ValueError("desired probability must be in (0, 1)")
    if success_prob == 0.0:
        return TtsEstimate(success_prob, std_error, effort, math.inf, math.nan,
                           "undefined-no-success")
    if success_prob == 1.0:
        return TtsEstimate(success_prob, std_error, effort, math.nan, math.nan,
                           "undefined-all-success")
    scale = effort * math.log(1.0 - desired_probability)
    log_term = math.log(1.0 - success_prob)
    deriv = scale / ((1.0 - success_prob) * log_term * log_term)
    return TtsEstimate(success_prob, std_error, effort, scale / log_term,
                       0.0 if std_error == 0.0 else abs(deriv) * std_error, "finite")
