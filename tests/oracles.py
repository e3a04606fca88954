"""Brute-force oracles that only the tests call.

Each is a direct, slow statement of a quantity the library computes another
way: a chain's walk weight and the dict-frontier walk sum (the compiler's
walk sum), the state-major Bellman rollout (the compiler's pair-major
rollout), the Bellman residual of a Q table (value iteration), the
consistent ancilla values, the QUBO minimum over ancillas and the
dict-rewriting reduction (order reduction), the whole-vector dense
enumeration and ground state (blocked dense enumeration and the blocked
ground-state match), the one-product term-table energies (row-blocked
``TermTable.energies``), the inverse of ``flat_index``, the sweep loop over
the polynomial (``run_tts_sweep``'s loop over ``_anneal``) and the TTS error
read off an estimate (the error ``tts`` computes).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from mdpspin.anneal import (AnnealSchedule, TtsEstimate, default_beta_range, simulated_anneal,
                            success_probability, tts)
from mdpspin.errors import InstanceTooLargeError
from mdpspin.mdp import Mdp
from mdpspin.pseudoboolean import (EXHAUSTIVE_MAX_MINIMIZERS, PseudoBooleanPolynomial, TermTable,
                                   _half_on, all_assignment_energies, bit_rows,
                                   check_exhaustive_size, energies_match, variable_count)
from mdpspin.quadratize import (REDUCTION_PENALTY, AncillaRegistry, QuboProblem,
                                rosenberg_penalty)


def coupling_coefficient(mdp: Mdp, chain: Sequence[tuple[int, int]]) -> float:
    """Ordered-walk weight of a chain of (state, action) pairs, order k = len(chain)."""
    if not chain:
        raise ValueError("chain must contain at least one (state, action) pair")
    P = mdp.transition
    for s, a in chain:
        if not (0 <= s < mdp.num_states and 0 <= a < mdp.num_actions):
            raise IndexError(f"pair ({s}, {a}) out of range")
    in_weight = P.sum(axis=(0, 1))
    er = mdp.expected_reward()
    weight = in_weight[chain[0][0]]
    for (s1, a1), (s2, _) in zip(chain, chain[1:]):
        weight *= P[s1, a1, s2]
        if weight == 0.0:
            return 0.0
    s_k, a_k = chain[-1]
    return (mdp.discount ** len(chain)) * weight * er[s_k, a_k]


def bellman_residual(mdp: Mdp, q: np.ndarray) -> float:
    """Sup-norm distance of a Q table from one optimality backup of itself."""
    pr = mdp.expected_reward()
    backed = pr + mdp.discount * (mdp.transition @ q.max(axis=1))
    return float(np.abs(backed - q).max())


def lift(assignment, registry: AncillaRegistry) -> np.ndarray:
    """Extend an original-variable assignment with consistent ancilla values."""
    x = np.asarray(assignment, dtype=np.int8)
    if x.shape[0] < registry.base_count:
        raise ValueError(
            f"assignment covers {x.shape[0]} variables, need {registry.base_count}"
        )
    full = np.zeros(registry.total_variables, dtype=np.int8)
    full[: registry.base_count] = x[: registry.base_count]
    for z, a, b in registry.entries:
        full[z] = full[a] & full[b]
    return full


def minimized_over_ancillas(qubo: QuboProblem) -> np.ndarray:
    """Per-original-assignment minimum of the QUBO over all ancilla settings.

    Entry i is min_z QUBO(x=i, z) where bit v of i is original variable v.
    This is the quantity that must reproduce the unreduced polynomial's
    values for the reduction to be exact.
    """
    reg = qubo.registry
    energies = all_assignment_energies(qubo.polynomial, reg.total_variables)
    if reg.num_ancillas == 0:
        return energies
    # ancilla ids are the high bits, so a reshape exposes them as the rows
    grid = energies.reshape(1 << reg.num_ancillas, 1 << reg.base_count)
    return grid.min(axis=0)


def one_block_assignment_energies(poly: PseudoBooleanPolynomial,
                                  num_variables: int) -> np.ndarray:
    """``all_assignment_energies`` with each half as one block: the whole-vector
    enumeration.

    It holds the (2^(n // 2), terms) float32 counts and float64 products of
    every low-half assignment at once, where the library builds its weight
    table a fixed block of low-half assignments at a time.  It groups the
    terms by ``np.unique`` over the high-half incidence columns, where the
    library sorts integer keys.  And it takes the energies as one product
    of the whole (2^(n - n // 2), groups) high-half table, cast to float64,
    with the weight table, where the library takes that product a fixed
    block of high-half assignments at a time into the output's rows.
    """
    table = TermTable(poly, variable_count(poly, num_variables))
    lo, hi = np.split(table.incidence, [table.incidence.shape[0] // 2])
    groups, group_of = np.unique(hi, axis=1, return_inverse=True)
    group_of = group_of.reshape(-1)  # numpy 2.0.0 shapes it (1, terms)
    order = np.argsort(group_of, kind="stable")
    starts = np.searchsorted(group_of[order], np.arange(groups.shape[1]))
    weights = np.add.reduceat(_half_on(lo[:, order]) * table.coeffs[order], starts, axis=1)
    return (_half_on(groups) @ weights.T).reshape(-1)


def whole_vector_ground_state(poly: PseudoBooleanPolynomial
                              ) -> tuple[list[np.ndarray], float]:
    """``exhaustive_ground_state`` over the whole 2^n energy vector.

    It takes the minimum of all the energies of
    ``one_block_assignment_energies`` and matches every energy against it
    2^16 at a time, where the library keeps each block's matches of its own
    minimum and matches only those against the global one.
    """
    n = poly.num_variables
    check_exhaustive_size(n)
    energies = one_block_assignment_energies(poly, n)
    best = float(energies.min())
    idx = np.flatnonzero([energies_match(row, best)
                          for row in energies.reshape(-1, min(energies.size, 1 << 16))])
    if idx.size > EXHAUSTIVE_MAX_MINIMIZERS:
        raise InstanceTooLargeError(
            f"{idx.size} degenerate minimizers; refusing to materialize them"
        )
    return list(bit_rows(idx, n)), best


def one_product_energies(table: TermTable, assignments) -> np.ndarray:
    """``TermTable.energies`` of every row at once: one float64 einsum over
    the whole (rows, terms) on-term table, where the library takes a fixed
    block of rows at a time."""
    return np.einsum("rt,t->r", table.set_counts(assignments) == table.sizes, table.coeffs)


def unflatten_index(flat_id: int, num_actions: int) -> tuple[int, int]:
    """Inverse of ``flat_index``."""
    return divmod(flat_id, num_actions)


def dict_walk_sum(mdp: Mdp, truncation_order: int) -> PseudoBooleanPolynomial:
    """The walk-sum objective built over a ``{(last pair, visited mask): weight}`` dict.

    The compiler's frontier pass, one Python loop iteration per frontier
    state and successor: coefficients accumulate per visited bitmask in
    generation order, and each mask's set bits are added as one monomial.
    """
    P = mdp.transition
    na = mdp.num_actions
    er = mdp.expected_reward()
    er_flat = er.reshape(-1).tolist()
    succ = [[(sp, p) for sp, p in enumerate(row) if p > 0.0]
            for row in P.reshape(mdp.num_pairs, -1).tolist()]
    frontier = {(pair, 1 << pair): w
                for s, w in enumerate(P.sum(axis=(0, 1)).tolist()) if w != 0.0
                for pair in range(s * na, (s + 1) * na)}
    coeffs: dict[int, float] = {}
    for depth in range(1, truncation_order + 1):
        scale = -mdp.discount ** depth
        for (pair, visited), weight in frontier.items():
            if er_flat[pair] != 0.0:
                coeffs[visited] = coeffs.get(visited, 0.0) + scale * weight * er_flat[pair]
        if depth == truncation_order:
            break
        nxt: dict[tuple[int, int], float] = {}
        for (pair, visited), weight in frontier.items():
            for sp, p in succ[pair]:
                w = weight * p
                for nxt_pair in range(sp * na, (sp + 1) * na):
                    key = (nxt_pair, visited | 1 << nxt_pair)
                    nxt[key] = nxt.get(key, 0.0) + w
        frontier = nxt
    poly = PseudoBooleanPolynomial(mdp.num_pairs)
    for visited, coeff in coeffs.items():
        poly.add_term([v for v in range(mdp.num_pairs) if visited >> v & 1], coeff)
    return poly


def state_major_rollout(mdp: Mdp, actions: np.ndarray) -> Iterator[np.ndarray]:
    """The truncated action values of each policy row as (rows, |S|, |A|) tables.

    The compiler's rollout held state-major: each order gathers the chosen
    values by a three-index fancy gather and adds the reward to a fresh,
    scaled ``np.einsum("sat,mt->msa")`` product, whose policy axis is the
    fastest in memory.
    """
    er = mdp.expected_reward()
    rows = np.arange(actions.shape[0])[:, None]
    states = np.arange(actions.shape[1])[None, :]
    q = np.repeat(er[None], actions.shape[0], axis=0)
    while True:
        yield q
        chosen = q[rows, states, actions]
        q = er + mdp.discount * np.einsum("sat,mt->msa", mdp.transition, chosen)


def dict_quadratize(poly: PseudoBooleanPolynomial,
                    reduction_penalty: float = REDUCTION_PENALTY,
                    num_variables: int | None = None) -> QuboProblem:
    """The pair-substitution reduction over a copy of the term dict.

    Each round rewrites every holder of the chosen pair in place: the
    holder's tuple is sliced, popped and re-inserted at the end of the dict,
    and the gadget's (x, y) term goes through ``add_term``.  The pair counts
    are the library's dense matrix, kept up to date by row and column
    corrections; ``order[j]`` is the term-order place of the monomial in
    column j of the incidence.
    """
    if reduction_penalty <= 0:
        raise ValueError("reduction penalty must be positive")
    base = variable_count(poly, num_variables)
    work = poly.copy()
    terms = work.terms
    # the gadget over x=0, y=1, z=2, less any coefficient within DROP_TOL
    gadget = list(rosenberg_penalty(0, 1, 2, reduction_penalty).terms.items())
    monos = [m for m in terms if len(m) >= 3]
    order = np.arange(len(monos))
    stamp = len(monos)
    capacity = base + 1
    incidence = np.zeros((capacity, len(monos)), dtype=bool)
    incidence[[v for m in monos for v in m], np.repeat(order, [len(m) for m in monos])] = True
    counts = np.zeros((capacity, capacity), dtype=np.int32)
    # the float32 product is exact: every count is below 2^24
    high = incidence[:base].astype(np.float32)
    counts[:base, :base] = high @ high.T
    np.fill_diagonal(counts, 0)
    entries: list[tuple[int, int, int]] = []
    z = base
    while True:
        if z == capacity:
            grown = np.zeros((2 * capacity, len(monos)), dtype=bool)
            grown[:capacity] = incidence
            incidence = grown
            counts = np.pad(counts, (0, capacity))
            capacity *= 2
        # rows from z on are zero; row z keeps the slice nonempty at base 0
        x, y = divmod(int(counts[:z + 1].argmax()), capacity)
        if counts[x, y] == 0:
            break
        entries.append((z, x, y))

        cols = np.flatnonzero(incidence[x] & incidence[y])
        cols = cols[np.argsort(order[cols])]
        held = incidence[:z, cols]
        kept = held.sum(axis=0) > 3  # the holders still of degree >= 3 once rewritten
        lost = held.sum(axis=1, dtype=np.int32)
        gained = held[:, kept].sum(axis=1, dtype=np.int32)
        lost[x] = lost[y] = gained[x] = gained[y] = 0
        for v in (x, y):
            counts[v, :z] -= lost
            counts[:z, v] -= lost
        counts[x, y] = counts[y, x] = 0
        counts[z, :z] = counts[:z, z] = gained
        incidence[x, cols] = incidence[y, cols] = False
        incidence[:z, cols[~kept]] = False
        incidence[z, cols[kept]] = True
        for j in cols.tolist():
            # z is the largest id so far, so the rewrite is sorted and new
            mono = monos[j]
            i, k = mono.index(x), mono.index(y)
            monos[j] = mono[:i] + mono[i + 1:k] + mono[k + 1:] + (z,)
            terms[monos[j]] = terms.pop(mono)
        order[cols] = np.arange(stamp, stamp + len(cols))
        stamp += len(cols)
        ids = (x, y, z)
        for mono, coeff in gadget:
            mono = tuple(ids[v] for v in mono)
            if mono == (x, y):
                work.add_term(mono, coeff)  # the one gadget term that can be stored
            else:
                terms[mono] = coeff
        z += 1

    work.num_variables = z
    registry = AncillaRegistry(base_count=base, entries=tuple(entries))
    return QuboProblem(polynomial=work, registry=registry)


def tts_sweep(poly: PseudoBooleanPolynomial, ground_energy: float,
              sweep_grid: Sequence[int], num_reads: int, desired_probability: float,
              rng_seed: int) -> tuple[list[tuple[int, TtsEstimate]],
                                      tuple[int, TtsEstimate] | None]:
    """(sweeps, TTS estimate) rows and the first least finite one, annealing
    the polynomial itself with effort n_s * N, N being its ``num_variables``.

    It builds each schedule and scores its reads directly, where the runner
    anneals and scores each sweep count through ``_anneal``; both take the
    beta range once.
    """
    n = poly.num_variables
    b0, b1 = default_beta_range(poly)
    rows = []
    for ns in sweep_grid:
        schedule = AnnealSchedule(num_sweeps=int(ns), beta_start=b0, beta_end=b1,
                                  num_reads=num_reads, rng_seed=rng_seed)
        reads = simulated_anneal(poly, schedule)
        p, err = success_probability(reads, ground_energy)
        rows.append((int(ns), tts(p, float(ns * n), desired_probability, err)))
    finite = [r for r in rows if r[1].is_finite]
    return rows, (min(finite, key=lambda r: r[1].value) if finite else None)


def tts_std_error(estimate: TtsEstimate, desired_probability: float) -> float:
    """First-order propagation of the binomial error through the TTS formula,
    from the estimate's fields, where ``tts`` computes it with the value."""
    p = estimate.success_probability
    if not estimate.is_finite or estimate.std_error == 0.0:
        return math.nan if not estimate.is_finite else 0.0
    log_term = math.log(1.0 - p)
    deriv = (estimate.effort * math.log(1.0 - desired_probability)
             / ((1.0 - p) * log_term * log_term))
    return abs(deriv) * estimate.std_error
