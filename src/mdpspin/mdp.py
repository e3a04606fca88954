"""Tabular MDP model: validation, (de)serialization, and the hallway environment.

A model is the 5-tuple (S, A, P, R, gamma) with dense transition and reward
tensors indexed ``[s][a][s']``.  State-action pairs are flattened to single
variable ids via ``flat_index``; deterministic policies are binary vectors
over those ids (one bit per pair, exactly one action set per state).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
HALLWAY_SLIP = 0.04


class ValidationError(ValueError):
    """Raised when an MDP document or tensor set violates the model contract."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(ValueError):
    """Raised when an MDP document cannot be parsed against the schema."""


@dataclass(frozen=True)
class Mdp:
    """Discrete, finite, discounted MDP with dense tensors.

    Attributes:
        transition: shape (|S|, |A|, |S|), each row ``transition[s, a]`` a
            probability distribution over next states.
        reward: shape (|S|, |A|, |S|), finite reward collected on the
            corresponding transition.
        discount: discount factor in (0, 1).
        name: optional label carried through serialization.

    Raises ValidationError, listing every violation, when the tensors or the
    discount break this contract.
    """

    transition: np.ndarray
    reward: np.ndarray
    discount: float
    name: str | None = None

    def __post_init__(self):
        # private copies so freezing them never touches caller-owned arrays
        t = np.array(self.transition, dtype=float)
        r = np.array(self.reward, dtype=float)
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)
        violations = _violations(self)
        if violations:
            raise ValidationError(violations)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def num_pairs(self) -> int:
        """Number of state-action pairs, |S x A|."""
        return self.num_states * self.num_actions

    def expected_reward(self) -> np.ndarray:
        """Immediate expected reward per pair: sum_s' P[s,a,s'] R[s,a,s']."""
        return (self.transition * self.reward).sum(axis=2)


def flat_index(state: int, action: int, num_actions: int) -> int:
    """Map (state, action) to its flat variable id ``state * |A| + action``."""
    return state * num_actions + action


def policy_rows(num_states: int, num_actions: int, indices: np.ndarray) -> np.ndarray:
    """Actions ``rows[i, s]`` of the policies at lexicographic ``indices``.

    Row i holds the base-|A| digits of ``indices[i]``, state 0 most
    significant, decoded in int32 (|A|^|S| below 2^31), so unlike
    ``np.indices`` it takes any number of states.  The rows are a transposed
    state-major array, so ``rows.T`` is the C-contiguous (|S|, rows) array
    from which the compiler's pair-major ``_rollout`` builds its flat gather
    index.
    """
    place = num_actions ** np.arange(num_states - 1, -1, -1, dtype=np.int32)
    return (np.asarray(indices, dtype=np.int32) // place[:, None] % num_actions).T


@dataclass
class PolicyAssignment:
    """Binary vector over state-action pairs, indexed by flat id.

    A feasible assignment selects exactly one action per state; infeasible
    bit patterns are representable because the solvers explore them.
    """

    bits: np.ndarray
    num_states: int
    num_actions: int

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.shape != (self.num_states * self.num_actions,):
            raise ValueError(
                f"expected {self.num_states * self.num_actions} bits, got {bits.shape}"
            )
        # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("policy bits must be 0 or 1")
        self.bits = bits.astype(np.int8, copy=False)

    @classmethod
    def from_actions(cls, actions: Sequence[int], num_actions: int) -> "PolicyAssignment":
        actions = np.asarray(actions)
        n = len(actions)
        bad = np.flatnonzero(~((actions >= 0) & (actions < num_actions)
                               & (actions == np.floor(actions))))
        if bad.size:
            raise ValueError(f"state {bad[0]} has action {actions[bad[0]]}, not an integer "
                             f"in [0, {num_actions})")
        bits = np.zeros(n * num_actions, dtype=np.int8)
        bits[np.arange(n) * num_actions + actions.astype(np.int64, copy=False)] = 1
        return cls(bits, n, num_actions)

    def is_feasible(self) -> bool:
        per_state = self.bits.reshape(self.num_states, self.num_actions).sum(axis=1)
        return bool((per_state == 1).all())

    def actions(self) -> np.ndarray:
        """Chosen action per state; requires feasibility."""
        if not self.is_feasible():
            raise ValueError("assignment is not a deterministic policy")
        return self.bits.reshape(self.num_states, self.num_actions).argmax(axis=1)

    def interior_actions(self) -> np.ndarray:
        """Actions at states 1..|S|-2 (the figure-comparison slice)."""
        return self.actions()[1:-1]


def _violations(mdp: Mdp) -> list[str]:
    """Every contract violation in the model; empty list means valid."""
    out: list[str] = []
    P, R = mdp.transition, mdp.reward
    if P.ndim != 3 or P.shape[0] != P.shape[2]:
        out.append(f"transition tensor has shape {P.shape}, expected (S, A, S)")
        return out
    for axis, name in ((0, "states"), (1, "actions")):
        if P.shape[axis] == 0:
            out.append(f"transition tensor has shape {P.shape}: no {name}")
    if R.shape != P.shape:
        out.append(f"reward shape {R.shape} does not match transition shape {P.shape}")
        return out
    if not (0.0 < mdp.discount < 1.0):
        out.append(f"discount {mdp.discount} outside (0, 1)")
    # NaN fails no comparison, so a non-finite entry is named on its own
    finite = np.isfinite(P)
    for s, a, sp in np.argwhere(~finite):
        out.append(f"P[{s}][{a}][{sp}] is not finite")
    for s, a, sp in np.argwhere(finite & ((P < 0.0) | (P > 1.0))):
        out.append(f"P[{s}][{a}][{sp}] = {P[s, a, sp]} outside [0, 1]")
    row_sums = P.sum(axis=2)
    bad_rows = np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    for s, a in bad_rows:
        out.append(f"P[{s}][{a}] row sums to {row_sums[s, a]!r}, expected 1")
    if not np.isfinite(R).all():
        for s, a, sp in np.argwhere(~np.isfinite(R)):
            out.append(f"R[{s}][{a}][{sp}] is not finite")
    return out


def build_hallway(num_states: int, gamma: float, slip: float = HALLWAY_SLIP) -> Mdp:
    """One-dimensional hallway with dirt piles at both ends.

    Two actions (0 = left, 1 = right).  Interior tiles move in the intended
    direction with probability ``1 - slip`` and in the opposite direction
    with probability ``slip``.  Steps between interior tiles cost -1.
    Reaching the left pile from tile 1 pays 3; reaching the right pile from
    tile N-2 pays 1.  Pushing outward at an end tile bounces off the wall
    (stays with ``1 - slip``, drifts to the inward neighbour with ``slip``)
    and is penalized -10, as is the outward drift at the opposite end.

    End tiles otherwise trap the robot: the inward action parks it in place
    deterministically with no reward, making each pile a zero-value resting
    state once reached.  This keeps the post-arrival continuation neutral,
    so the optimal plan is decided by travel costs and pile sizes alone.
    """
    if num_states < 4:
        raise ValueError("hallway needs at least 4 states (two piles plus interior)")
    if not (0.0 <= slip < 0.5):
        raise ValueError(f"slip {slip} outside [0, 0.5)")

    n = num_states
    last = n - 1
    P = np.zeros((n, 2, n))
    R = np.zeros((n, 2, n))

    for s in range(1, last):
        for a, d in ((0, -1), (1, +1)):
            P[s, a, s + d] = 1.0 - slip
            P[s, a, s - d] = slip
    # end tiles: outward push bounces with the usual slip, inward action parks
    P[0, 0, 0] = 1.0 - slip
    P[0, 0, 1] = slip
    P[0, 1, 0] = 1.0
    P[last, 1, last] = 1.0 - slip
    P[last, 1, last - 1] = slip
    P[last, 0, last] = 1.0

    for s in range(1, last):
        for a in (0, 1):
            for sp in (s - 1, s + 1):
                if 1 <= sp <= last - 1:
                    R[s, a, sp] = -1.0
    R[1, 0, 0] = 3.0
    R[last - 1, 1, last] = 1.0
    R[last, 0, last - 1] = -10.0
    R[last, 1, last] = -10.0
    R[0, 1, 1] = -10.0
    R[0, 0, 0] = -10.0

    return Mdp(P, R, float(gamma), name=f"hallway-{n}")


def terminal_states(mdp: Mdp) -> tuple[int, ...]:
    """End tiles of a hallway-style model (first and last state)."""
    return (0, mdp.num_states - 1)


_SCHEMA_FIELDS = ("num_states", "num_actions", "discount", "transition", "reward")


def save_mdp(mdp: Mdp) -> str:
    """Serialize to the JSON document schema (see README for field list)."""
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "discount": mdp.discount,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
    }
    if mdp.name is not None:
        doc["name"] = mdp.name
    return json.dumps(doc, indent=1)


def load_mdp(text: str) -> Mdp:
    """Parse an MDP document; inverse of :func:`save_mdp`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    missing = [f for f in _SCHEMA_FIELDS if f not in doc]
    if missing:
        raise ParseError(f"missing required field(s): {', '.join(missing)}")
    ns, na = doc["num_states"], doc["num_actions"]
    # JSON true and false load as bools, which are ints to isinstance
    if not all(isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in (ns, na)):
        raise ParseError("num_states and num_actions must be positive integers")
    try:
        P = np.asarray(doc["transition"], dtype=float)
        R = np.asarray(doc["reward"], dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(f"tensor field not numeric: {e}") from e
    if P.shape != (ns, na, ns):
        raise ParseError(f"field 'transition': shape {P.shape} != ({ns}, {na}, {ns})")
    if R.shape != (ns, na, ns):
        raise ParseError(f"field 'reward': shape {R.shape} != ({ns}, {na}, {ns})")
    if isinstance(doc["discount"], bool) or not isinstance(doc["discount"], (int, float)):
        raise ParseError("field 'discount': expected a number")
    return Mdp(P, R, float(doc["discount"]), name=doc.get("name"))
