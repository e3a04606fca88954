"""The Bellman side: exact, truncated, optimal and learned action values.

Value iteration and exact policy evaluation are the ground truth the
compiled cost functions are checked against, and truncated evaluation is
the walk-sum oracle.  Both searches of the |A|^|S| policy grid (``policy_rows``
order, ``ENUMERATION_LIMIT``) live here: exhaustive policy search by exact
action-value sums, a batch per stacked solve, and the least-K search by one
batched truncated rollout.  Tabular Q-learning is the sampled baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .errors import InstanceTooLargeError, NoTruncationError
from .mdp import Mdp, PolicyAssignment
from .pseudoboolean import energies_match

ENUMERATION_LIMIT = 1 << 16  # deterministic policies of one policy-grid search
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


def _fitted_actions(mdp: Mdp, policy: PolicyAssignment) -> np.ndarray:
    """The policy's action per state; ValueError when its state or action count
    is not the model's, which a flat gather or a broadcast would not catch."""
    if (policy.num_states, policy.num_actions) != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"a policy over {policy.num_states} states and {policy.num_actions} "
                         f"actions does not fit a model of {mdp.num_states} states and "
                         f"{mdp.num_actions} actions")
    return policy.actions()


def policy_evaluation_exact(mdp: Mdp, policy: PolicyAssignment) -> np.ndarray:
    """Exact Q^pi by solving the |S x A|-dimensional linear fixed-point system.
    Raises ValueError when the policy's state or action count is not the model's."""
    return _exact_q(mdp, _fitted_actions(mdp, policy)[None])[0]


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
    rollout = _rollout(mdp, _fitted_actions(mdp, policy)[None, :])
    return next(islice(rollout, order, None)).reshape(mdp.num_states, mdp.num_actions)


def policy_rows(num_states: int, num_actions: int, indices: np.ndarray) -> np.ndarray:
    """Actions ``rows[i, s]`` of the policies at lexicographic ``indices``.

    Row i holds the base-|A| digits of ``indices[i]``, state 0 most
    significant, decoded in int32 (|A|^|S| below 2^31), so unlike
    ``np.indices`` it takes any number of states.  The rows are a transposed
    state-major array, so ``rows.T`` is the C-contiguous (|S|, rows) array
    from which the pair-major ``_rollout`` builds its flat gather index.
    """
    place = num_actions ** np.arange(num_states - 1, -1, -1, dtype=np.int32)
    return (np.asarray(indices, dtype=np.int32) // place[:, None] % num_actions).T


def policy_count(mdp: Mdp) -> int:
    """|A|^|S|, the size of the policy grid; InstanceTooLargeError past ENUMERATION_LIMIT."""
    count = mdp.num_actions ** mdp.num_states
    if count > ENUMERATION_LIMIT:
        raise InstanceTooLargeError(f"{count} deterministic policies exceed the "
                                    f"enumeration limit of {ENUMERATION_LIMIT}")
    return count


def best_policy_exhaustive(mdp: Mdp
                           ) -> tuple[PolicyAssignment, float, list[PolicyAssignment]]:
    """Policy maximizing the exact action-value sum over all pairs.

    Returns the winner, its objective value, and any other policies tied
    within ``ENERGY_MATCH_TOL``, first maximum and ties in lexicographic
    order.  This objective is exactly minus the untruncated cost functional,
    so the winner is what the compiled ground state should converge to as
    the truncation order grows.
    """
    n, na, count = mdp.num_states, mdp.num_actions, policy_count(mdp)
    batch = max(1, _BATCH_FLOATS // mdp.num_pairs ** 2)
    totals = np.concatenate([
        _exact_q(mdp, policy_rows(n, na, np.arange(lo, min(lo + batch, count))))
        .reshape(-1, mdp.num_pairs).sum(axis=1)
        for lo in range(0, count, batch)])
    best = int(totals.argmax())
    tied = np.flatnonzero(energies_match(totals, totals[best]))
    best_pol, *ties = [PolicyAssignment.from_actions(row, na)
                       for row in policy_rows(n, na, np.r_[best, tied[tied != best]])]
    return best_pol, float(totals[best]), ties


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
    ``compiler.FRONTIER_LIMIT`` does not apply.

    A K qualifies when no other policy's energy matches the best's
    (``energies_match``), and the best's action at every state matches
    value iteration's greedy policy.  Just past a discount at which the
    optimal policy changes, the least qualifying K rises sharply, because the
    ground state must resolve a vanishing Q-gap between the two policies.
    Raises NoTruncationError when no K <= k_max qualifies, ValueError when
    k_max is below 1, and InstanceTooLargeError (``policy_count``) past
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
