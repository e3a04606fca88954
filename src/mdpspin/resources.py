"""Counted |V| and |J| of an exported QUBO, beside the published scaling fit.

The counts come from the deterministic quadratizer, so they track the
O(|S x A| K) substitution scaling rather than any particular vendor reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadratize import QuboProblem


@dataclass(frozen=True)
class ResourceReport:
    """Resource counts of one instance, in the column order of ``resources.csv``."""

    truncation: int
    base_variables: int
    logical_variables: int
    coefficient_count: int
    fit_value: float


def count_resources(qubo: QuboProblem, *, truncation: int, discount: float,
                    num_states: int, num_actions: int) -> ResourceReport:
    """Count used variables and nonzero terms, and fill the scaling fit of the
    instance (K, gamma, |S|, |A|)."""
    used = {v for mono in qubo.polynomial.terms for v in mono}
    return ResourceReport(
        truncation=truncation,
        base_variables=qubo.registry.base_count,
        logical_variables=len(used),
        coefficient_count=sum(1 for m in qubo.polynomial.terms if m),
        fit_value=scaling_fit(num_states, num_actions, truncation, discount),
    )


def scaling_fit(num_states: int, num_actions: int, truncation: int,
                discount: float) -> float:
    """Published logical-variable fit: 3 * gamma * |S x A| * K - 25 * gamma."""
    if num_states <= 0 or num_actions <= 0 or truncation <= 0:
        raise ValueError("sizes and truncation order must be positive")
    pairs = num_states * num_actions
    return 3.0 * discount * pairs * truncation - 25.0 * discount
