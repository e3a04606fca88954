"""Counted and closed-form resource metrics for compiled problems.

Logical variable and coefficient counts come from the deterministic
quadratizer, so they track the O(|S x A| K) substitution scaling rather than
any particular vendor reduction.  The closed-form entries are the published
scaling fit and the gate-volume order-of-magnitude indicators for
circuit-model execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadratize import QuboProblem


@dataclass(frozen=True)
class GateVolume:
    """Order-of-magnitude gate count with an overflow-safe log2 companion."""

    value: float  # inf when 2**log2 overflows float64
    log2: float


@dataclass(frozen=True)
class ResourceReport:
    base_variables: int
    logical_variables: int
    coefficient_count: int
    truncation: int
    discount: float
    fit_value: float
    qaoa_gate_volume_worst: GateVolume
    qaoa_gate_volume_ancilla: GateVolume


def count_resources(qubo: QuboProblem, *, truncation: int, discount: float,
                    num_states: int, num_actions: int) -> ResourceReport:
    """Count used variables and nonzero terms, and fill the closed forms of the
    instance (K, gamma, |S|, |A|): the scaling fit and the gate volumes at QAOA
    depth 1."""
    used = {v for mono in qubo.polynomial.terms for v in mono}
    return ResourceReport(
        base_variables=qubo.registry.base_count,
        logical_variables=len(used),
        coefficient_count=sum(1 for m in qubo.polynomial.terms if m),
        truncation=truncation,
        discount=discount,
        fit_value=scaling_fit(num_states, num_actions, truncation, discount),
        qaoa_gate_volume_worst=qaoa_gate_volume(num_states, num_actions, truncation,
                                                1, "worst"),
        qaoa_gate_volume_ancilla=qaoa_gate_volume(num_states, num_actions, truncation,
                                                  1, "ancilla"),
    )


def scaling_fit(num_states: int, num_actions: int, truncation: int,
                discount: float) -> float:
    """Published logical-variable fit: 3 * gamma * |S x A| * K - 25 * gamma."""
    if num_states <= 0 or num_actions <= 0 or truncation <= 0:
        raise ValueError("sizes and truncation order must be positive")
    pairs = num_states * num_actions
    return 3.0 * discount * pairs * truncation - 25.0 * discount


def qaoa_gate_volume(num_states: int, num_actions: int, truncation: int,
                     depth: int, mode: str) -> GateVolume:
    """Two-qubit-gate volume indicators for a depth-p phase-separation layer.

    ``worst`` is the no-ancilla decomposition bound p * 2^(K * |S x A|^K);
    ``ancilla`` is the ancilla-assisted bound p * K * |S x A|.  These are
    upper-bound indicators, not compiled gate counts.
    """
    if min(num_states, num_actions, truncation, depth) <= 0:
        raise ValueError("all arguments must be positive")
    pairs = num_states * num_actions
    if mode == "ancilla":
        value = float(depth * truncation * pairs)
        return GateVolume(value=value, log2=math.log2(value))
    if mode == "worst":
        exponent = truncation * (pairs ** truncation)
        log2 = math.log2(depth) + exponent
        value = depth * (2.0 ** exponent) if exponent < 1000 else math.inf
        return GateVolume(value=value, log2=log2)
    raise ValueError(f"unknown mode {mode!r}")
