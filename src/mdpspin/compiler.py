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

from .anneal import EXHAUSTIVE_MAX_VARIABLES
from .dp import value_iteration
from .errors import InstanceTooLargeError
from .mdp import Mdp, PolicyAssignment, flat_index, policy_rows
from .pseudoboolean import DROP_TOL, PseudoBooleanPolynomial

UNIQUENESS_GAP = 1e-9
# states of one walk frontier, about 160 B each; two frontiers are alive at once
FRONTIER_LIMIT = 1_000_000


@dataclass(frozen=True)
class CompilerConfig:
    truncation_order: int
    penalty_strength: float = 3.0

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ValueError("truncation order must be >= 1")
        if self.penalty_strength <= 0:
            raise ValueError("penalty strength must be positive")


@dataclass(frozen=True)
class CompiledHamiltonian:
    """Compiled cost function over |S x A| policy bits.

    ``objective`` holds the truncated walk-sum terms (orders 1..K),
    ``penalty`` the expanded one-action-per-state terms (including its
    constant), and ``polynomial`` their sum.  ``constant_offset`` is the
    order-0 term, kept out of the polynomial.
    """

    objective: PseudoBooleanPolynomial
    penalty: PseudoBooleanPolynomial
    polynomial: PseudoBooleanPolynomial
    constant_offset: float
    config: CompilerConfig
    num_states: int
    num_actions: int
    discount: float

    @property
    def num_variables(self) -> int:
        return self.num_states * self.num_actions


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


def _mask_polynomial(coeffs: dict[int, float], num_variables: int) -> PseudoBooleanPolynomial:
    """The polynomial of ``{visited bitmask: coefficient}``, in the dict's order.

    The set bits of a mask, ascending, are its monomial, already sorted and
    distinct, and no two masks share one, so each term is stored as it is;
    coefficients within DROP_TOL are dropped as ``add_term`` would.
    """
    nbytes = (num_variables + 7) // 8
    packed = b"".join(visited.to_bytes(nbytes, "little") for visited in coeffs)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(-1, nbytes),
                         axis=1, bitorder="little")
    ids = np.nonzero(bits)[1].tolist()
    ends = np.cumsum(bits.sum(axis=1)).tolist()
    poly = PseudoBooleanPolynomial(num_variables)
    poly.terms = {tuple(ids[start:end]): coeff
                  for start, end, coeff in zip([0] + ends, ends, coeffs.values())
                  if abs(coeff) > DROP_TOL}
    return poly


def compile_hamiltonian(mdp: Mdp, config: CompilerConfig) -> CompiledHamiltonian:
    """Sum all nonzero walks up to order K and assemble the cost function.

    One pass per depth over a frontier {(last pair, visited pairs): weight}:
    walks that end at the same pair having visited the same pairs share
    their monomial and their future, so they are summed before extending.
    Raises InstanceTooLargeError once the next frontier passes FRONTIER_LIMIT
    states; the check follows each extended state, so it overshoots by at
    most one state's |S||A| successors.
    """
    P = mdp.transition
    na = mdp.num_actions
    er = mdp.expected_reward()
    er_flat = er.reshape(-1).tolist()
    # successor lists pruned to nonzero probabilities
    succ = [[(sp, p) for sp, p in enumerate(row) if p > 0.0]
            for row in P.reshape(mdp.num_pairs, -1).tolist()]

    frontier = {(pair, 1 << pair): w
                for s, w in enumerate(P.sum(axis=(0, 1)).tolist()) if w != 0.0
                for pair in range(s * na, (s + 1) * na)}
    coeffs: dict[int, float] = {}
    for depth in range(1, config.truncation_order + 1):
        scale = -mdp.discount ** depth
        for (pair, visited), weight in frontier.items():
            if er_flat[pair] != 0.0:
                coeffs[visited] = coeffs.get(visited, 0.0) + scale * weight * er_flat[pair]
        if depth == config.truncation_order:
            break
        nxt: dict[tuple[int, int], float] = {}
        for (pair, visited), weight in frontier.items():
            for sp, p in succ[pair]:
                w = weight * p
                for nxt_pair in range(sp * na, (sp + 1) * na):
                    key = (nxt_pair, visited | 1 << nxt_pair)
                    nxt[key] = nxt.get(key, 0.0) + w
            if len(nxt) > FRONTIER_LIMIT:
                raise InstanceTooLargeError(
                    f"walk frontier passed {FRONTIER_LIMIT} states at order {depth + 1}")
        frontier = nxt

    objective = _mask_polynomial(coeffs, mdp.num_pairs)

    penalty = _penalty_polynomial(mdp, config.penalty_strength)
    offset = -float(er.sum())
    return CompiledHamiltonian(
        objective=objective,
        penalty=penalty,
        polynomial=objective.add(penalty),
        constant_offset=offset,
        config=config,
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
        discount=mdp.discount,
    )


def _rollout(mdp: Mdp, actions: np.ndarray) -> Iterator[np.ndarray]:
    """Truncated action values of each policy row, at orders 0, 1, 2, ...

    ``actions`` holds one policy per row (the action of each state); the
    k-th table yielded has shape (rows, |S|, |A|) and is

        q_0 = r,   q_k(s, a) = r(s, a) + gamma * sum_s' P[s,a,s'] q_{k-1}(s', pi(s')),

    the expected discounted return of a (k+1)-step rollout that starts with
    action a in state s and follows the row's policy afterwards.
    """
    er = mdp.expected_reward()
    rows = np.arange(actions.shape[0])[:, None]
    states = np.arange(actions.shape[1])[None, :]
    q = np.repeat(er[None], actions.shape[0], axis=0)
    while True:
        yield q
        chosen = q[rows, states, actions]
        q = er + mdp.discount * np.einsum("sat,mt->msa", mdp.transition, chosen)


def truncated_q_table(mdp: Mdp, policy: PolicyAssignment, order: int) -> np.ndarray:
    """Order-K action values under a fixed policy, by K Bellman substitutions.

    Base case is the immediate expected reward; each substitution extends the
    rollout by one step, so the result is the expected discounted return of a
    (K+1)-step rollout.  Serves as the walk-sum oracle: the compiled objective
    at a policy's bit vector equals minus the sum of this table (plus the
    constant offset).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    rollout = _rollout(mdp, policy.actions()[None, :])
    return next(islice(rollout, order, None))[0]


def minimal_truncation_order(mdp: Mdp, *, k_max: int = 8) -> int | None:
    """Least K whose compiled ground state recovers the DP-optimal policy.

    Scores all |A|^|S| deterministic policies (lexicographic, state 0 most
    significant) by one batched rollout, one Bellman substitution per K from
    1 to k_max; a policy's energy is minus the sum of its K-step truncated Q
    table.  That is the compiled energy of the policy's bits: walk sum plus
    offset equals it (the oracle identity) and the one-hot penalty is zero
    on every feasible assignment, so the ranking is the compiled cost
    function's among feasible assignments at any penalty strength.  Nothing
    is compiled, so FRONTIER_LIMIT does not apply.

    A K qualifies when the best policy beats the runner-up by more than the
    uniqueness gap, or is the only policy, and its interior actions match
    value iteration's greedy policy; returns None when no K <= k_max
    qualifies.  Just past a discount at which the optimal policy changes, the
    least qualifying K rises sharply, because the ground state must resolve a
    vanishing Q-gap between the two policies.  Raises InstanceTooLargeError
    above EXHAUSTIVE_MAX_VARIABLES state-action pairs.
    """
    if mdp.num_pairs > EXHAUSTIVE_MAX_VARIABLES:
        raise InstanceTooLargeError(f"{mdp.num_pairs} policy bits exceed the "
                                    f"exhaustive-search limit of {EXHAUSTIVE_MAX_VARIABLES}")
    _, greedy = value_iteration(mdp)
    target = greedy.interior_actions()
    actions = policy_rows(mdp.num_states, mdp.num_actions,
                          np.arange(mdp.num_actions ** mdp.num_states))
    rollout = _rollout(mdp, actions)
    next(rollout)                       # order 0 does not depend on the policy
    for k in range(1, k_max + 1):
        energies = -next(rollout).sum(axis=(1, 2))
        order_idx = np.argsort(energies, kind="stable")
        best = order_idx[0]
        # a single policy has no runner-up and is the unique ground state
        if len(order_idx) > 1 and energies[order_idx[1]] - energies[best] <= UNIQUENESS_GAP:
            continue
        if np.array_equal(actions[best, 1:-1], target):
            return k
    return None
