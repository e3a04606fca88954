"""Exact and learning-based classical baselines.

Value iteration and exact policy evaluation are the ground-truth solvers the
compiled cost functions are checked against; exhaustive policy search scores
every deterministic policy by its exact action-value sum; tabular Q-learning
provides the sampled-experience baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InstanceTooLargeError
from .mdp import Mdp, PolicyAssignment, enumerate_policy_assignments

ENUMERATION_LIMIT = 1 << 24
TIE_TOL = 1e-9


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


def bellman_residual(mdp: Mdp, q: np.ndarray) -> float:
    """Sup-norm distance of a Q table from one optimality backup of itself."""
    pr = mdp.expected_reward()
    backed = pr + mdp.discount * (mdp.transition @ q.max(axis=1))
    return float(np.abs(backed - q).max())


def policy_evaluation_exact(mdp: Mdp, policy: PolicyAssignment) -> np.ndarray:
    """Exact Q^pi by solving the |S x A|-dimensional linear fixed-point system."""
    if not policy.is_feasible():
        raise ValueError("exact evaluation requires a feasible policy")
    n, na = mdp.num_states, mdp.num_actions
    actions = policy.actions()
    pr = mdp.expected_reward()
    nv = n * na
    system = np.eye(nv)
    for s in range(n):
        for a in range(na):
            row = s * na + a
            for sp in range(n):
                p = mdp.transition[s, a, sp]
                if p:
                    system[row, sp * na + actions[sp]] -= mdp.discount * p
    try:
        q_flat = np.linalg.solve(system, pr.reshape(-1))
    except np.linalg.LinAlgError as e:  # cannot occur for gamma < 1; guarded anyway
        raise RuntimeError(f"policy evaluation system is singular: {e}") from e
    return q_flat.reshape(n, na)


def enumerate_policies(mdp: Mdp) -> Iterator[PolicyAssignment]:
    """All |A|^|S| deterministic policies (guarded against blow-up)."""
    count = mdp.num_actions ** mdp.num_states
    if count > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(
            f"{count} deterministic policies exceed the enumeration limit"
        )
    return enumerate_policy_assignments(mdp.num_states, mdp.num_actions)


def best_policy_exhaustive(mdp: Mdp
                           ) -> tuple[PolicyAssignment, float, list[PolicyAssignment]]:
    """Policy maximizing the exact action-value sum over all pairs.

    Returns the winner, its objective value, and any other policies tied
    within ``TIE_TOL``.  This objective is exactly minus the untruncated
    cost functional, so the winner is what the compiled ground state should
    converge to as the truncation order grows.
    """
    best_val = -np.inf
    best_pol: PolicyAssignment | None = None
    scored: list[tuple[float, PolicyAssignment]] = []
    for pol in enumerate_policies(mdp):
        total = float(policy_evaluation_exact(mdp, pol).sum())
        scored.append((total, pol))
        if total > best_val:
            best_val, best_pol = total, pol
    ties = [p for v, p in scored
            if abs(v - best_val) <= TIE_TOL and p.bits is not best_pol.bits]
    return best_pol, best_val, ties


@dataclass(frozen=True)
class QLearningConfig:
    learning_rate: float = 0.1
    epsilon: float = 0.1
    num_episodes: int = 20_000
    max_steps_per_episode: int | None = None  # None -> 10 * |S|
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
    terminal state or after the per-episode step cap.  Transitions are
    sampled from the transition tensor with the seeded generator.
    """
    rng = np.random.default_rng(config.rng_seed)
    n, na = mdp.num_states, mdp.num_actions
    terminal_set = frozenset(int(t) for t in terminal)
    starts = np.array([s for s in range(n) if s not in terminal_set], dtype=int)
    if starts.size == 0:
        raise ValueError("every state is terminal; nothing to learn")
    max_steps = config.max_steps_per_episode or 10 * n
    cum_p = mdp.transition.cumsum(axis=2)
    q = np.zeros((n, na))
    alpha, eps, gamma = config.learning_rate, config.epsilon, mdp.discount

    for _ in range(config.num_episodes):
        state = int(starts[rng.integers(starts.size)])
        for _ in range(max_steps):
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
