"""Reference computations that the benchmark checks the library against.

Everything here is written with numpy alone and imports nothing from
``mdpspin``, so a fault in the library cannot also hide in the check that is
meant to catch it.  They follow the library's documented conventions:
state-action pair (s, a) is variable ``s * |A| + a``, a policy is a row of
actions, and the compiled energy of a policy is minus the sum of its K-step
truncated action values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def evaluate_terms(monomials: Sequence[Sequence[int]], coeffs: Sequence[float],
                   assignments) -> np.ndarray:
    """Value of ``sum_t c_t * prod_{v in t} x_v`` at each row of a 0/1 matrix.

    A monomial is any sequence of variable ids; repeated ids count once
    (x * x = x), and the empty monomial is the constant term.
    """
    x = np.atleast_2d(np.asarray(assignments, dtype=np.float64))
    num_vars = x.shape[1]
    incidence = np.zeros((num_vars, len(monomials)))
    degree = np.zeros(len(monomials))
    for t, mono in enumerate(monomials):
        ids = sorted(set(int(v) for v in mono))
        if ids and (ids[0] < 0 or ids[-1] >= num_vars):
            raise ValueError(f"monomial {tuple(mono)} outside {num_vars} variables")
        incidence[ids, t] = 1.0
        degree[t] = len(ids)
    # a term is on exactly when all of its variables are: its count of ones
    # equals its degree (small integers, so the float comparison is exact)
    active = (x @ incidence) == degree[None, :]
    return active.astype(np.float64) @ np.asarray(coeffs, dtype=np.float64)


def expected_reward(transition: np.ndarray, reward: np.ndarray) -> np.ndarray:
    """r(s, a) = sum_s' P(s, a, s') R(s, a, s')."""
    return np.einsum("sat,sat->sa", transition, reward)


def all_policies(num_states: int, num_actions: int) -> np.ndarray:
    """Every deterministic policy as a row of actions, state 0 most significant."""
    grid = np.indices((num_actions,) * num_states)
    return grid.reshape(num_states, -1).T.copy()


def policy_bits(actions: np.ndarray, num_actions: int) -> np.ndarray:
    """One-hot pair bits of each policy row: bit s*|A| + a is set when pi(s) = a."""
    actions = np.atleast_2d(actions)
    rows, num_states = actions.shape
    bits = np.zeros((rows, num_states * num_actions), dtype=np.int8)
    cols = np.arange(num_states)[None, :] * num_actions + actions
    bits[np.arange(rows)[:, None], cols] = 1
    return bits


def truncated_rollout_q(transition: np.ndarray, reward: np.ndarray, gamma: float,
                        actions: np.ndarray, order: int) -> np.ndarray:
    """Action values of a (K+1)-step rollout under each policy row, shape (m, S, A).

    q_0 = r;  q_{j+1}(s, a) = r(s, a) + gamma * sum_s' P(s, a, s') q_j(s', pi(s')).
    """
    r = expected_reward(transition, reward)
    actions = np.atleast_2d(actions)
    rows = np.arange(actions.shape[0])[:, None]
    states = np.arange(actions.shape[1])[None, :]
    q = np.broadcast_to(r, (actions.shape[0],) + r.shape).copy()
    for _ in range(order):
        chosen = q[rows, states, actions]
        q = r[None] + gamma * np.einsum("sat,mt->msa", transition, chosen)
    return q


def compiled_energy(transition: np.ndarray, reward: np.ndarray, gamma: float,
                    actions: np.ndarray, order: int) -> np.ndarray:
    """Order-K compiled energy (offset included) of each policy row."""
    q = truncated_rollout_q(transition, reward, gamma, actions, order)
    return -q.sum(axis=(1, 2))


def value_iteration(transition: np.ndarray, reward: np.ndarray, gamma: float,
                    tol: float = 1e-12, max_iters: int = 1_000_000
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal Q table and its greedy actions (ties to the lowest action)."""
    r = expected_reward(transition, reward)
    q = np.zeros_like(r)
    for _ in range(max_iters):
        q_next = r + gamma * np.einsum("sat,t->sa", transition, q.max(axis=1))
        if np.abs(q_next - q).max() < tol:
            return q_next, q_next.argmax(axis=1)
        q = q_next
    raise RuntimeError(f"value iteration did not converge in {max_iters} iterations")


def minimal_order(transition: np.ndarray, reward: np.ndarray, gamma: float,
                  k_max: int, gap: float = 1e-9) -> int | None:
    """Least K whose best policy wins by more than ``gap`` and matches value
    iteration's interior actions (states 1..|S|-2); None if no K <= k_max."""
    num_states, num_actions = transition.shape[:2]
    actions = all_policies(num_states, num_actions)
    _, greedy = value_iteration(transition, reward, gamma)
    for k in range(1, k_max + 1):
        energy = compiled_energy(transition, reward, gamma, actions, k)
        order = np.argsort(energy, kind="stable")
        if energy[order[1]] - energy[order[0]] <= gap:
            continue
        if np.array_equal(actions[order[0], 1:-1], greedy[1:-1]):
            return k
    return None


def fill_ancillas(base_bits, entries: Sequence[tuple[int, int, int]],
                  total_variables: int) -> np.ndarray:
    """Extend rows of original-variable bits with z = x_a AND x_b per entry
    (ancilla z, parents a and b), in the order the entries are given."""
    base = np.atleast_2d(np.asarray(base_bits, dtype=np.int8))
    full = np.zeros((base.shape[0], total_variables), dtype=np.int8)
    full[:, :base.shape[1]] = base
    for z, a, b in entries:
        full[:, z] = full[:, a] & full[:, b]
    return full


def read_qubo_text(text: str) -> tuple[int, list[tuple[int, ...]], list[float]]:
    """Parse the coordinate-list QUBO export.

    The format is a ``c constant offset <value>`` comment, a
    ``p qubo 0 <variables> <diagonal> <off-diagonal>`` header and one
    ``i j coeff`` line per nonzero with i <= j.  Returns the variable count
    and the terms, the constant as the empty monomial.  Raises ValueError
    when a line has more than two indices, an index is out of range or
    repeated, or the header counts disagree with the lines.
    """
    header = None
    constant = 0.0
    monomials: list[tuple[int, ...]] = []
    coeffs: list[float] = []
    seen: set[tuple[int, int]] = set()
    diagonal = off_diagonal = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "c":
            if parts[1:3] == ["constant", "offset"]:
                constant = float(parts[3])
            continue
        if parts[0] == "p":
            if header is not None or parts[1:3] != ["qubo", "0"] or len(parts) != 6:
                raise ValueError(f"line {lineno}: bad header {raw!r}")
            header = tuple(int(p) for p in parts[3:])
            continue
        if header is None:
            raise ValueError(f"line {lineno}: coefficient before the header")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j coeff', got {raw!r}")
        i, j, coeff = int(parts[0]), int(parts[1]), float(parts[2])
        if not 0 <= i <= j < header[0]:
            raise ValueError(f"line {lineno}: indices ({i}, {j}) out of order or range")
        if (i, j) in seen:
            raise ValueError(f"line {lineno}: repeated coordinate ({i}, {j})")
        seen.add((i, j))
        if i == j:
            diagonal += 1
            monomials.append((i,))
        else:
            off_diagonal += 1
            monomials.append((i, j))
        coeffs.append(coeff)
    if header is None:
        raise ValueError("no 'p qubo' header")
    if header[1:] != (diagonal, off_diagonal):
        raise ValueError(f"header counts {header[1:]} but the lines give "
                         f"{(diagonal, off_diagonal)}")
    return header[0], [()] + monomials, [constant] + coeffs
