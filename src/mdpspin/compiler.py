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
separate constant offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .dp import policy_count, value_iteration
from .errors import InstanceTooLargeError, NoTruncationError
from .mdp import Mdp, PolicyAssignment, flat_index, policy_rows
from .pseudoboolean import DROP_TOL, PseudoBooleanPolynomial, energies_match

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
        if not 0 < self.penalty_strength < np.inf:
            raise ValueError(f"penalty strength must be finite and positive, "
                             f"got {self.penalty_strength!r}")


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


def _rollout(mdp: Mdp, actions: np.ndarray) -> Iterator[np.ndarray]:
    """Truncated action values of each policy row, at orders 0, 1, 2, ...

    ``actions`` holds one policy per row (the action of each state); the
    k-th array yielded is C-contiguous of shape (|S||A|, rows), column i
    holding row i's

        q_0 = r,   q_k(s, a) = r(s, a) + gamma * sum_s' P[s,a,s'] q_{k-1}(s', pi(s')),

    at flat pair s|A| + a: the expected discounted return of a (k+1)-step
    rollout that starts with action a in state s and follows the row's
    policy afterwards.  Pair-major, each order gathers the chosen values
    through one flat index, contracts them with the (|S||A|, |S|)
    transition matrix by ``np.einsum`` and updates the fresh product in
    place; a yielded array is never written again.
    """
    rows = actions.shape[0]
    r = mdp.expected_reward().reshape(-1, 1)
    walk = mdp.transition.reshape(mdp.num_pairs, mdp.num_states)
    pick = (np.arange(mdp.num_states)[:, None] * mdp.num_actions + actions.T) * rows \
        + np.arange(rows)
    q = np.repeat(r, rows, axis=1)
    while True:
        yield q
        q = np.einsum("pt,tm->pm", walk, q.reshape(-1)[pick])
        q *= mdp.discount
        q += r


def truncated_q_table(mdp: Mdp, policy: PolicyAssignment, order: int) -> np.ndarray:
    """Order-K action values under a fixed policy, by K Bellman substitutions.

    Base case is the immediate expected reward; each substitution extends the
    rollout by one step, so the result is the expected discounted return of a
    (K+1)-step rollout, as an (|S|, |A|) table: the rollout's single column
    reshaped.  Serves as the walk-sum oracle: the compiled objective at a
    policy's bit vector equals minus the sum of this table (plus the
    constant offset).  Raises ValueError when the policy's state or action
    count is not the model's.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if (policy.num_states, policy.num_actions) != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"a policy over {policy.num_states} states and {policy.num_actions} "
                         f"actions does not fit a model of {mdp.num_states} states and "
                         f"{mdp.num_actions} actions")
    rollout = _rollout(mdp, policy.actions()[None, :])
    return next(islice(rollout, order, None)).reshape(mdp.num_states, mdp.num_actions)


def minimal_truncation_order(mdp: Mdp, *, k_max: int = 8) -> int:
    """Least K whose compiled ground state recovers the DP-optimal policy.

    Scores all |A|^|S| deterministic policies (lexicographic, state 0 most
    significant) by one batched rollout, one Bellman substitution per K from
    1 to k_max; a policy's energy is minus the sum of its K-step truncated Q
    values, added over the pair-major rollout's pairs in order.  That is the
    compiled energy of the policy's bits: walk sum plus offset equals it
    (the oracle identity) and the one-hot penalty is zero on every feasible
    assignment, so the ranking is the compiled cost function's among
    feasible assignments at any penalty strength.  Nothing is compiled, so
    FRONTIER_LIMIT does not apply.

    A K qualifies when no other policy's energy matches the best's
    (``energies_match``), and the best's action at every state matches
    value iteration's greedy policy.  Just past a discount at which the
    optimal policy changes, the least qualifying K rises sharply, because the
    ground state must resolve a vanishing Q-gap between the two policies.
    Raises NoTruncationError when no K <= k_max qualifies, ValueError when
    k_max is below 1, and InstanceTooLargeError (``dp.policy_count``) past
    ENUMERATION_LIMIT policies.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    actions = policy_rows(mdp.num_states, mdp.num_actions, np.arange(policy_count(mdp)))
    target = value_iteration(mdp)[1].actions()
    rollout = _rollout(mdp, actions)
    next(rollout)                       # order 0 does not depend on the policy
    for k in range(1, k_max + 1):
        energies = -next(rollout).sum(axis=0)
        best = energies.argmin()
        # a single policy has no runner-up and is the unique ground state
        if np.count_nonzero(energies_match(energies, energies[best])) > 1:
            continue
        if np.array_equal(actions[best], target):
            return k
    raise NoTruncationError(f"no truncation order <= {k_max} recovers the optimal policy "
                            f"for |S|={mdp.num_states}, gamma={mdp.discount}")
