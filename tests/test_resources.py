"""Resource-metric tests: counts, the scaling fit and the report's fields."""

import dataclasses

import pytest

from mdpspin.compiler import CompilerConfig, compile_hamiltonian
from mdpspin.mdp import build_hallway
from mdpspin.pseudoboolean import PseudoBooleanPolynomial
from mdpspin.quadratize import quadratize
from mdpspin.resources import ResourceReport, count_resources, scaling_fit


def test_count_small_quadratic():
    poly = PseudoBooleanPolynomial(3)
    poly.add_term([0], 1.0)
    poly.add_term([1, 2], -2.0)
    poly.add_term([0, 1], 0.5)
    report = count_resources(quadratize(poly, 5.0), truncation=2, discount=0.9,
                             num_states=3, num_actions=1)
    assert report.logical_variables == 3
    assert report.coefficient_count == 3
    assert report.base_variables == 3


def test_counts_include_ancillas_and_context_fields():
    mdp = build_hallway(6, 0.9)
    ham = compile_hamiltonian(mdp, CompilerConfig(3, 3.0))
    qubo = quadratize(ham.polynomial, 5.0, num_variables=12)
    report = count_resources(qubo, truncation=3, discount=0.9,
                             num_states=6, num_actions=2)
    assert report.logical_variables == 12 + qubo.registry.num_ancillas
    assert report.coefficient_count == sum(1 for m in qubo.polynomial.terms if m)
    assert report.fit_value == pytest.approx(scaling_fit(6, 2, 3, 0.9))


def test_report_fields_are_the_counted_columns():
    assert [f.name for f in dataclasses.fields(ResourceReport)] == [
        "truncation", "base_variables", "logical_variables", "coefficient_count", "fit_value"]


def test_scaling_fit_published_point():
    assert scaling_fit(6, 2, 3, 0.9) == pytest.approx(74.7)


def test_scaling_fit_linearities():
    assert scaling_fit(6, 2, 3, 0.0) == 0.0
    # doubling K doubles the leading term only
    k, gamma = 3, 0.8
    assert scaling_fit(6, 2, 2 * k, gamma) == pytest.approx(
        2 * scaling_fit(6, 2, k, gamma) + 25 * gamma)
    with pytest.raises(ValueError):
        scaling_fit(0, 2, 3, 0.9)


def _report(num_states, num_actions, truncation):
    """The report of a fixed small QUBO; the scaling fit reads only the sizes."""
    poly = PseudoBooleanPolynomial(2).add_term([0, 1], 1.0)
    return count_resources(quadratize(poly, 5.0), truncation=truncation, discount=0.9,
                           num_states=num_states, num_actions=num_actions)


class TestScalingFit:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            _report(6, 2, 0)


def test_counts_monotone_in_truncation_order():
    mdp = build_hallway(6, 0.9)
    previous_v = previous_j = 0
    for k in (1, 2, 3, 4):
        ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
        qubo = quadratize(ham.polynomial, 5.0, num_variables=12)
        report = count_resources(qubo, truncation=k, discount=0.9,
                                 num_states=6, num_actions=2)
        assert report.logical_variables >= previous_v
        assert report.coefficient_count >= previous_j
        previous_v, previous_j = report.logical_variables, report.coefficient_count
