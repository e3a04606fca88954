"""Brute-force oracles that only the tests call.

Each is a direct, slow statement of a quantity the library computes another
way: a chain's walk weight (the compiler's walk sum), the Bellman residual
of a Q table (value iteration), the consistent ancilla values and the QUBO
minimum over ancillas (order reduction), and the inverse of ``flat_index``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mdpspin.mdp import Mdp
from mdpspin.pseudoboolean import all_assignment_energies
from mdpspin.quadratize import AncillaRegistry, QuboProblem


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


def unflatten_index(flat_id: int, num_actions: int) -> tuple[int, int]:
    """Inverse of ``flat_index``."""
    return divmod(flat_id, num_actions)
