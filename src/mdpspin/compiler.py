"""Truncated K-spin cost-function compiler for tabular MDPs.

The action-value function of a fixed policy expands into a series over
probability-weighted walks through state-action space.  Truncating that
series at order K and summing (negated) over every starting pair yields a
degree-K pseudo-Boolean objective in the policy bits; adding a quadratic
one-action-per-state penalty of strength M gives the full cost function
whose feasible ground state encodes the recovered policy.

The order-k coupling coefficient of an ordered chain ((s1,a1),...,(sk,ak))
is

    gamma^k * sum_{s0,a0,s_{k+1}} P[s0,a0,s1] * P[s1,a1,s2] * ...
              * P[s_{k-1},a_{k-1},s_k] * P[sk,ak,s_{k+1}] * R[sk,ak,s_{k+1}]

i.e. all walks that traverse the chain, closing with an expected reward at
the final pair.  Chains visiting a pair twice merge onto a lower-degree
monomial (x^2 = x).  The k = 0 term is policy-independent and is kept as a
separate constant offset.  The Bellman quantities it is checked against,
truncated evaluation and the least-K search among them, live in ``dp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError
from .mdp import Mdp, flat_index
from .pseudoboolean import DROP_TOL, PseudoBooleanPolynomial, check_penalty

# merged states of one walk frontier.  A compile's peak RSS grows by about
# 220 B per state of its largest merged frontier (hallway(12, 0.9): 6.4 MiB
# for 29,748 states at K=8, 27.2 MiB for 131,202 at K=10), which counts the
# unmerged extension of one order (about 4x the frontier it extends, 2x the
# merged result) and the coefficient rows; so about 220 MB at the limit
FRONTIER_LIMIT = 1_000_000
# rows of one order's unmerged extension, refused before it is built.
# Extending and merging peak at 82-98 B per row with one mask word (traced:
# 97 MB for the 1,179,648 rows of a dense random 8x3 model at K=5, 24 MB for
# the 248,392 of hallway(12, 0.9) at K=10), so about 200 MB at the limit
EXTENSION_LIMIT = 2_000_000


@dataclass(frozen=True)
class CompilerConfig:
    truncation_order: int
    penalty_strength: float = 3.0

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ValueError("truncation order must be >= 1")
        check_penalty("penalty strength", self.penalty_strength)


@dataclass(frozen=True)
class CompiledHamiltonian:
    """Compiled cost function over |S x A| policy bits.

    ``objective`` holds the truncated walk-sum terms (orders 1..K) and
    ``polynomial`` their sum with the expanded one-action-per-state penalty
    (including its constant).  ``constant_offset`` is the order-0 term, kept
    out of the polynomial, and ``num_variables`` is |S x A|.
    """

    objective: PseudoBooleanPolynomial
    polynomial: PseudoBooleanPolynomial
    constant_offset: float
    num_variables: int


def _penalty_polynomial(mdp: Mdp, strength: float) -> PseudoBooleanPolynomial:
    """M * sum_s (sum_a x_sa - 1)^2 expanded to multilinear form."""
    na = mdp.num_actions
    pen = PseudoBooleanPolynomial(mdp.num_pairs)
    for s in range(mdp.num_states):
        pen.add_term((), strength)
        for a in range(na):
            pen.add_term((flat_index(s, a, na),), -strength)
        for a in range(na):
            for a2 in range(a + 1, na):
                pen.add_term((flat_index(s, a, na), flat_index(s, a2, na)), 2.0 * strength)
    return pen


def _merge(masks: np.ndarray, weights: np.ndarray,
           pair: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First row of each group of equal keys, and the group's weight sum.

    A row's key is its mask words, and its last pair when ``pair`` is given.
    Groups come in the order in which a dict keyed by the rows would first
    have seen them: the lexsort is stable, so each sorted run starts at its
    group's first row.  It sorts the words as 16-bit digits, which numpy
    radix-sorts.  ``np.bincount`` adds the weights in stable-sorted order,
    which is row order within a group, from 0.0, so each sum equals
    ``d[key] = d.get(key, 0.0) + w`` over the rows.
    """
    keys = list(masks.view(np.uint16).T)
    if pair is not None:
        keys.append(pair.astype(np.min_scalar_type(pair.max(initial=0))))
    order = np.lexsort(keys)
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([k[1:] != k[:-1] for k in (key[order] for key in keys)], axis=0)
    starts = order[new]
    rank = np.argsort(starts)
    return starts[rank], np.bincount(np.cumsum(new) - 1, weights=weights[order])[rank]


def _monomials(masks: np.ndarray) -> list[tuple[int, ...]]:
    """The set bits of each row of mask words, ascending, as variable ids.

    Each little-endian word is read as 8 bytes, each byte unpacked low bit
    first, so bit b of byte j of word w is variable 64w + 8j + b.
    """
    octets = masks.astype("<u8", copy=False).view(np.uint8)
    rows, ids = np.nonzero(np.unpackbits(octets, axis=1, bitorder="little"))
    ends = np.cumsum(np.bincount(rows, minlength=masks.shape[0])).tolist()
    ids = ids.tolist()
    return [tuple(ids[start:end]) for start, end in zip([0] + ends, ends)]


def _successor_table(mdp: Mdp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair's successor pairs as one flat table.

    A pair's successors are pruned to nonzero probabilities and ordered by
    successor state, then action.  Returns each pair's start and count in
    the table, and the table's pairs and transition probabilities.
    """
    na = mdp.num_actions
    flat = mdp.transition.reshape(mdp.num_pairs, -1)
    src, sp = np.nonzero(flat > 0.0)
    count = np.bincount(src, minlength=mdp.num_pairs) * na
    return (np.cumsum(count) - count, count,
            (sp[:, None] * na + np.arange(na)).reshape(-1), np.repeat(flat[src, sp], na))


def _set_bit(mask: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """``mask`` with each row's bit ``pair`` set, in place."""
    mask[np.arange(pair.size), pair >> 6] |= np.uint64(1) << (pair & 63).astype(np.uint64)
    return mask


def _extend(pair: np.ndarray, weight: np.ndarray, mask: np.ndarray,
            table: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each frontier row followed by every successor pair in the table.

    Rows come out in frontier order, each row's successors in table order:
    the order in which a dict frontier generates them.
    """
    start, count, succ_pair, succ_prob = table
    counts = count[pair]
    row = np.repeat(np.arange(pair.size), counts)
    slot = np.arange(row.size) + np.repeat(start[pair] - np.cumsum(counts) + counts, counts)
    nxt = succ_pair[slot]
    return nxt, weight[row] * succ_prob[slot], _set_bit(mask[row], nxt)


def compile_hamiltonian(mdp: Mdp, config: CompilerConfig) -> CompiledHamiltonian:
    """Sum all nonzero walks up to order K and assemble the cost function.

    One pass per depth over a frontier of (last pair, visited pairs, weight)
    rows, the visited pairs as uint64 mask words: walks that end at the same
    pair having visited the same pairs share their monomial and their
    future, so they are summed before extending.  Each depth extends every
    row by its pruned successors at once and merges equal keys in the order
    a dict would first have seen them, summing in generation order, so
    every coefficient is the one that dict accumulation gives.  Raises
    InstanceTooLargeError, before extending, when an extension would pass
    EXTENSION_LIMIT rows, and when a merged frontier passes FRONTIER_LIMIT
    states.
    """
    na = mdp.num_actions
    n = mdp.num_pairs
    er = mdp.expected_reward()
    er_flat = er.reshape(-1)
    table = _successor_table(mdp)
    in_weight = mdp.transition.sum(axis=(0, 1))
    pair = np.flatnonzero(np.repeat(in_weight != 0.0, na))
    weight = in_weight[pair // na]
    mask = _set_bit(np.zeros((pair.size, (n + 63) // 64), dtype=np.uint64), pair)

    coeff_masks, coeff_values = [], []
    for depth in range(1, config.truncation_order + 1):
        scale = -mdp.discount ** depth
        rewarded = er_flat[pair] != 0.0
        coeff_masks.append(mask[rewarded])
        coeff_values.append(scale * weight[rewarded] * er_flat[pair[rewarded]])
        if depth == config.truncation_order:
            break
        rows = table[1][pair].sum()
        if rows > EXTENSION_LIMIT:
            raise InstanceTooLargeError(f"walk extension of {rows} rows passes the limit of "
                                        f"{EXTENSION_LIMIT} at order {depth + 1}")
        pair, weight, mask = _extend(pair, weight, mask, table)
        first, weight = _merge(mask, weight, pair)
        if first.size > FRONTIER_LIMIT:
            raise InstanceTooLargeError(
                f"walk frontier passed {FRONTIER_LIMIT} states at order {depth + 1}")
        pair, mask = pair[first], mask[first]

    masks = np.concatenate(coeff_masks)
    first, coeffs = _merge(masks, np.concatenate(coeff_values))
    kept = np.abs(coeffs) > DROP_TOL
    objective = PseudoBooleanPolynomial(n)
    objective.terms = dict(zip(_monomials(masks[first[kept]]), coeffs[kept].tolist()))
    return CompiledHamiltonian(
        objective=objective,
        polynomial=objective.add(_penalty_polynomial(mdp, config.penalty_strength)),
        constant_offset=-float(er.sum()),
        num_variables=n,
    )
