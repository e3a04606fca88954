"""Exact and learning-based classical baselines.

Value iteration and exact policy evaluation are the ground-truth solvers the
compiled cost functions are checked against; exhaustive policy search scores
every deterministic policy by its exact action-value sum, a batch of policies
per stacked solve; tabular Q-learning provides the sampled-experience baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InstanceTooLargeError
from .mdp import Mdp, PolicyAssignment, policy_rows

ENUMERATION_LIMIT = 1 << 24
TIE_TOL = 1e-9
_BATCH_FLOATS = 1 << 21    # system entries per batch of best_policy_exhaustive, 16 MB


def value_iteration(mdp: Mdp, tol: float = 1e-12,
                    max_iters: int = 1_000_000) -> tuple[np.ndarray, PolicyAssignment]:
    """Iterate the optimality backup to a fixed point.

    Q[s,a] <- sum_s' P[s,a,s'] (R[s,a,s'] + gamma * max_a' Q[s',a']), stopping
    when the sup-norm change drops below ``tol``.  The greedy policy breaks
    ties toward the lowest action index.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    P, gamma = mdp.transition, mdp.discount
    q = np.zeros((mdp.num_states, mdp.num_actions))
    pr = mdp.expected_reward()
    for _ in range(max_iters):
        v = q.max(axis=1)
        q_next = pr + gamma * (P @ v)
        if np.abs(q_next - q).max() < tol:
            greedy = PolicyAssignment.from_actions(q_next.argmax(axis=1), mdp.num_actions)
            return q_next, greedy
        q = q_next
    raise RuntimeError(f"value iteration did not converge within {max_iters} iterations")


def _exact_q(mdp: Mdp, actions: np.ndarray) -> np.ndarray:
    """Exact Q^pi, shape (rows, |S|, |A|), of each policy row of ``actions`` (an
    action per state): one stacked solve of the rows' |S x A| fixed-point systems."""
    rows, nv = actions.shape[0], mdp.num_pairs
    picked = actions[:, None, None, :, None] == np.arange(mdp.num_actions)
    walk = (mdp.transition[..., None] * picked).reshape(rows, nv, nv)
    rhs = np.broadcast_to(mdp.expected_reward().reshape(1, nv, 1), (rows, nv, 1))
    try:
        q = np.linalg.solve(np.eye(nv) - mdp.discount * walk, rhs)
    except np.linalg.LinAlgError as e:  # cannot occur for gamma < 1; guarded anyway
        raise RuntimeError(f"policy evaluation system is singular: {e}") from e
    return q.reshape(rows, mdp.num_states, mdp.num_actions)


def policy_evaluation_exact(mdp: Mdp, policy: PolicyAssignment) -> np.ndarray:
    """Exact Q^pi by solving the |S x A|-dimensional linear fixed-point system."""
    return _exact_q(mdp, policy.actions()[None])[0]


def best_policy_exhaustive(mdp: Mdp
                           ) -> tuple[PolicyAssignment, float, list[PolicyAssignment]]:
    """Policy maximizing the exact action-value sum over all pairs.

    Returns the winner, its objective value, and any other policies tied
    within ``TIE_TOL``, first maximum and ties in lexicographic order.  This
    objective is exactly minus the untruncated cost functional, so the winner
    is what the compiled ground state should converge to as the truncation
    order grows.
    """
    n, na = mdp.num_states, mdp.num_actions
    count = na ** n
    if count > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(
            f"{count} deterministic policies exceed the enumeration limit"
        )
    batch = max(1, _BATCH_FLOATS // mdp.num_pairs ** 2)
    totals = np.concatenate([
        _exact_q(mdp, policy_rows(n, na, np.arange(lo, min(lo + batch, count))))
        .reshape(-1, mdp.num_pairs).sum(axis=1)
        for lo in range(0, count, batch)])
    best = int(totals.argmax())
    tied = np.flatnonzero(np.abs(totals - totals[best]) <= TIE_TOL)
    best_pol, *ties = [PolicyAssignment.from_actions(row, na)
                       for row in policy_rows(n, na, np.r_[best, tied[tied != best]])]
    return best_pol, float(totals[best]), ties


@dataclass(frozen=True)
class QLearningConfig:
    learning_rate: float = 0.1
    epsilon: float = 0.1
    num_episodes: int = 20_000
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning rate must be in (0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if self.num_episodes < 0:
            raise ValueError("episode count must be non-negative")


def q_learning(mdp: Mdp, config: QLearningConfig,
               terminal: Iterable[int] = ()) -> tuple[np.ndarray, PolicyAssignment]:
    """Tabular Q-learning with epsilon-greedy exploration on the model tensors.

    Episodes start uniformly over non-terminal states and end on reaching a
    terminal state or after 10 * |S| steps.  Transitions are
    sampled from the transition tensor with the seeded generator.
    """
    rng = np.random.default_rng(config.rng_seed)
    n, na = mdp.num_states, mdp.num_actions
    terminal_set = frozenset(int(t) for t in terminal)
    starts = np.array([s for s in range(n) if s not in terminal_set], dtype=int)
    if starts.size == 0:
        raise ValueError("every state is terminal; nothing to learn")
    cum_p = mdp.transition.cumsum(axis=2)
    q = np.zeros((n, na))
    alpha, eps, gamma = config.learning_rate, config.epsilon, mdp.discount

    for _ in range(config.num_episodes):
        state = int(starts[rng.integers(starts.size)])
        for _ in range(10 * n):
            if rng.random() < eps:
                action = int(rng.integers(na))
            else:
                action = int(q[state].argmax())
            nxt = int(np.searchsorted(cum_p[state, action], rng.random(), side="right"))
            nxt = min(nxt, n - 1)
            reward = mdp.reward[state, action, nxt]
            target = reward + gamma * q[nxt].max()
            q[state, action] += alpha * (target - q[state, action])
            if nxt in terminal_set:
                break
            state = nxt

    greedy = PolicyAssignment.from_actions(q.argmax(axis=1), na)
    return q, greedy
