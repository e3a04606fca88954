"""Order-reduction tests: gadget truth table, substitution, value preservation."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from mdpspin import CompilerConfig, Mdp, build_hallway, compile_hamiltonian
from mdpspin.pseudoboolean import PseudoBooleanPolynomial, all_assignment_energies
from mdpspin.quadratize import (AncillaRegistry, consistency_violations, project, quadratize,
                                rosenberg_penalty, to_qubo_text)
from oracles import lift, minimized_over_ancillas


@st.composite
def reducible_polynomials(draw):
    n = draw(st.integers(3, 8))
    poly = PseudoBooleanPolynomial(n)
    for _ in range(draw(st.integers(1, 10))):
        size = draw(st.integers(1, min(4, n)))
        mono = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        poly.add_term(mono, draw(st.floats(-5, 5, allow_nan=False)))
    return poly, n


@st.composite
def pair_sharing_polynomials(draw):
    """Monomials of degree <= 6 over <= 10 variables built from a few shared
    pairs, so that many pairs tie on their counts; small integer
    coefficients let gadget terms cancel stored ones."""
    n = draw(st.integers(3, 10))
    var = st.integers(0, n - 1)
    pool = draw(st.lists(st.tuples(var, var), min_size=1, max_size=4))
    poly = PseudoBooleanPolynomial(n)
    for _ in range(draw(st.integers(1, 16))):
        mono = {v for pair in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
                for v in pair}
        mono |= set(draw(st.lists(var, max_size=3)))
        poly.add_term(sorted(mono)[:6], draw(st.integers(-3, 3)))
    return poly, n


def recount_reference(poly, strength, num_variables):
    """Term items and registry entries of the reduction with every pair
    recounted over every degree >= 3 monomial in every round; an oracle for
    the pair rule and the term order."""
    work = poly.copy()
    entries = []
    while high := [m for m in work.terms if len(m) >= 3]:
        counts = {}
        for mono in high:
            for pair in itertools.combinations(mono, 2):
                counts[pair] = counts.get(pair, 0) + 1
        top = max(counts.values())
        x, y = min(p for p, c in counts.items() if c == top)
        z = num_variables + len(entries)
        entries.append((z, x, y))
        for mono in [m for m in high if x in m and y in m]:
            work.add_term((set(mono) - {x, y}) | {z}, work.terms.pop(mono))
        for mono, coeff in rosenberg_penalty(x, y, z, strength).terms.items():
            work.add_term(mono, coeff)
    return list(work.terms.items()), tuple(entries)


def assert_matches_reference(poly, strength, num_variables):
    qubo = quadratize(poly, strength, num_variables=num_variables)
    items, entries = recount_reference(poly, strength, num_variables)
    assert qubo.registry == AncillaRegistry(num_variables, entries)
    assert list(qubo.polynomial.terms.items()) == items
    return qubo


@given(pair_sharing_polynomials(), st.sampled_from([1.0, 2.0, 5.0]))
@settings(max_examples=200, deadline=None)
def test_matches_full_recount_reference(poly_n, strength):
    poly, n = poly_n
    assert_matches_reference(poly, strength, n)


def test_matches_full_recount_reference_on_deep_hallway():
    ham = compile_hamiltonian(build_hallway(8, 0.9), CompilerConfig(8))
    qubo = assert_matches_reference(ham.polynomial, 5.0, ham.num_variables)
    assert qubo.registry.num_ancillas == 279


def test_matches_full_recount_reference_on_random_mdp():
    # 6 states x 3 actions, each pair reaching 3 distinct states with
    # Dirichlet weights and normal rewards: no interval structure to the pairs
    rng = np.random.default_rng(3)
    P = np.zeros((6, 3, 6))
    R = np.zeros_like(P)
    for s in range(6):
        for a in range(3):
            nxt = rng.choice(6, size=3, replace=False)
            P[s, a, nxt] = rng.dirichlet(np.ones(3))
            R[s, a, nxt] = rng.normal(size=3)
    ham = compile_hamiltonian(Mdp(P, R, 0.9), CompilerConfig(4))
    qubo = assert_matches_reference(ham.polynomial, 5.0, ham.num_variables)
    assert qubo.registry.num_ancillas == 153


def test_matches_full_recount_reference_past_two_capacity_doublings():
    # every 4- and 5-subset of 6 variables; the pair counts start with room
    # for base + 1 variables and double when full, so 9 or more ancillas
    # (ids past 2 * 7) take at least two doublings
    poly = PseudoBooleanPolynomial(6)
    for size in (4, 5):
        for i, mono in enumerate(itertools.combinations(range(6), size)):
            poly.add_term(mono, (-1.0) ** i * (1.0 + i / 8))
    qubo = assert_matches_reference(poly, 5.0, 6)
    assert qubo.registry.total_variables > 2 * (6 + 1)


class TestPairIndexEdges:
    def test_cubic_rewrite_leaves_the_index(self):
        # (0,1,2) becomes the quadratic (2,6); were it still indexed, its pair
        # would tie with (3,4) and win as the smaller one
        poly = PseudoBooleanPolynomial(6).add_term([0, 1, 2], 1.5).add_term([3, 4, 5], 1.0)
        qubo = assert_matches_reference(poly, 5.0, 6)
        assert qubo.registry.entries == ((6, 0, 1), (7, 3, 4))
        assert qubo.polynomial.terms[(2, 6)] == 1.5

    def test_pair_whose_last_holder_is_rewritten_leaves_the_index(self):
        # round one rewrites the only holders of (0,2) and (0,3); a stale
        # entry would tie with (4,5) in round two and win as the smaller pair
        poly = PseudoBooleanPolynomial(7)
        for mono in ([0, 1, 2], [0, 1, 3], [4, 5, 6]):
            poly.add_term(mono, 1.0)
        qubo = assert_matches_reference(poly, 5.0, 7)
        assert qubo.registry.entries == ((7, 0, 1), (8, 4, 5))

    def test_high_degree_terms_that_cancel_give_no_rounds(self):
        poly = PseudoBooleanPolynomial(4)
        poly.add_term([0, 1, 2], 1.0).add_term([0, 1, 2, 3], 2.0).add_term([0, 1], 0.5)
        poly.add_term([2, 1, 0], -1.0).add_term([3, 2, 1, 0], -2.0)
        qubo = quadratize(poly, 5.0)
        assert qubo.registry == AncillaRegistry(4)
        assert qubo.polynomial.terms == {(0, 1): 0.5}


def test_gadget_truth_table():
    gadget = rosenberg_penalty(0, 1, 2, 5.0)
    for x, y, z in itertools.product((0, 1), repeat=3):
        value = gadget.evaluate([x, y, z])
        if z == x * y:
            assert value == 0.0
        else:
            assert value >= 5.0


def test_single_cubic_term():
    poly = PseudoBooleanPolynomial(3).add_term([0, 1, 2], 1.0)
    qubo = quadratize(poly, 5.0)
    assert qubo.registry.entries == ((3, 0, 1),)
    assert qubo.polynomial.degree() == 2
    # min over the ancilla reproduces x0*x1*x2 at all 8 original assignments
    mins = minimized_over_ancillas(qubo)
    for i in range(8):
        x = [(i >> v) & 1 for v in range(3)]
        assert mins[i] == pytest.approx(x[0] * x[1] * x[2], abs=1e-12)


def test_quadratic_input_is_identity():
    poly = PseudoBooleanPolynomial(3)
    poly.add_term([0, 1], 2.0)
    poly.add_term([2], -1.0)
    qubo = quadratize(poly, 5.0)
    assert qubo.registry.num_ancillas == 0
    assert qubo.polynomial.terms == poly.terms


def test_pair_selection_prefers_most_frequent_then_lexicographic():
    poly = PseudoBooleanPolynomial(4)
    poly.add_term([0, 1, 2], 1.0)
    poly.add_term([0, 1, 3], 1.0)  # pair (0,1) occurs twice, others once
    qubo = quadratize(poly, 5.0)
    assert qubo.registry.entries[0] == (4, 0, 1)

    tied = PseudoBooleanPolynomial(3).add_term([0, 1, 2], 1.0)
    assert quadratize(tied, 5.0).registry.entries[0] == (3, 0, 1)


def test_determinism():
    rng = np.random.default_rng(0)
    poly = PseudoBooleanPolynomial(6)
    for _ in range(12):
        poly.add_term(rng.integers(0, 6, size=rng.integers(1, 5)), rng.normal())
    before = dict(poly.terms)
    a = quadratize(poly, 5.0)
    assert a.registry.num_ancillas > 0
    assert poly.terms == before  # the reduction works on a copy
    b = quadratize(poly, 5.0)
    assert a.polynomial.terms == b.polynomial.terms
    assert a.registry == b.registry



def test_num_variables_below_the_span_is_refused():
    # ancilla ids start at num_variables, so a short count would reuse x2's id
    poly = PseudoBooleanPolynomial(4).add_term([0, 1, 3], 1.0).add_term([2], 1.0)
    with pytest.raises(ValueError, match="variable span"):
        quadratize(poly, 5.0, num_variables=2)

class TestLiftProject:
    REG = AncillaRegistry(base_count=3, entries=((3, 0, 1), (4, 3, 2)))

    def test_lift_products(self):
        np.testing.assert_array_equal(lift([1, 1, 0], self.REG), [1, 1, 0, 1, 0])
        np.testing.assert_array_equal(lift([1, 0, 1], self.REG), [1, 0, 1, 0, 0])

    def test_nested_chain(self):
        np.testing.assert_array_equal(lift([1, 1, 1], self.REG), [1, 1, 1, 1, 1])

    def test_lifted_assignment_is_consistent(self):
        for i in range(8):
            x = [(i >> v) & 1 for v in range(3)]
            assert consistency_violations(lift(x, self.REG), self.REG) == 0

    def test_flipped_ancilla_counts_once(self):
        full = lift([1, 1, 1], self.REG)
        full = full.copy()
        full[3] ^= 1
        # flipping z also breaks the nested ancilla's parent product
        assert consistency_violations(full, self.REG) == 2
        full[4] = full[3] & full[2]
        assert consistency_violations(full, self.REG) == 1

    def test_project_truncates(self):
        np.testing.assert_array_equal(project([1, 0, 1, 0, 0], self.REG), [1, 0, 1])


def test_lifted_assignment_has_zero_gadget_penalty():
    poly = PseudoBooleanPolynomial(4)
    poly.add_term([0, 1, 2, 3], 2.0)
    poly.add_term([1, 2, 3], -1.0)
    qubo = quadratize(poly, 5.0)
    for i in range(16):
        x = np.array([(i >> v) & 1 for v in range(4)], dtype=np.int8)
        full = lift(x, qubo.registry)
        assert qubo.polynomial.evaluate(full) == pytest.approx(poly.evaluate(x), abs=1e-12)


def adequate_gadget_strength(poly):
    """Sufficient penalty for exact per-assignment preservation: any set of
    lying ancillas gains at most the substituted coefficients' total mass."""
    return sum(abs(c) for m, c in poly.terms.items() if len(m) >= 3) + 1.0


@given(reducible_polynomials())
@settings(max_examples=60, deadline=None)
def test_value_preservation(poly_n):
    poly, n = poly_n
    qubo = quadratize(poly, adequate_gadget_strength(poly), num_variables=n)
    assert qubo.polynomial.degree() <= 2
    mins = minimized_over_ancillas(qubo)
    direct = all_assignment_energies(poly, n)
    np.testing.assert_allclose(mins, direct, atol=1e-9)


def test_weak_gadget_can_undercut_values_but_dips_stay_above_minimum():
    # with the penalty below a substituted coefficient, an inconsistent
    # ancilla is cheaper at the affected assignments
    poly = PseudoBooleanPolynomial(3).add_term([0, 1, 2], 2.0)
    qubo = quadratize(poly, 1.0)
    mins = minimized_over_ancillas(qubo)
    assert mins[7] == pytest.approx(1.0)  # honest value is 2
    assert mins.min() >= all_assignment_energies(poly, 3).min() - 1e-12


@given(reducible_polynomials())
# a coefficient equal to an absolute 1e-9 tolerance put x = 25 on its edge
@example((PseudoBooleanPolynomial(5).add_term([0, 3, 4], 1e-9), 5))
@settings(max_examples=30, deadline=None)
def test_argmin_preservation_with_large_penalty(poly_n):
    poly, n = poly_n
    direct = all_assignment_energies(poly, n)
    spread = float(direct.max() - direct.min())
    qubo = quadratize(poly, spread + 1.0, num_variables=n)
    energies = all_assignment_energies(qubo.polynomial, qubo.registry.total_variables)
    # rounding scales with the coefficients; each side's argmins at tol must
    # lie among the other's at 2 tol, so no value on the tolerance decides
    tol = 1e-12 * max(1.0, sum(abs(c) for c in qubo.polynomial.terms.values()))

    def argmins(values, tol):
        return {int(i) % (1 << n) for i in np.flatnonzero(values <= values.min() + tol)}

    assert argmins(energies, tol) <= argmins(direct, 2 * tol)
    assert argmins(direct, tol) <= argmins(energies, 2 * tol)


@given(reducible_polynomials())
@settings(max_examples=40, deadline=None)
def test_ancilla_count_bound(poly_n):
    poly, n = poly_n
    qubo = quadratize(poly, 5.0, num_variables=n)
    bound = sum(len(m) - 2 for m in poly.terms if len(m) >= 3)
    assert qubo.registry.num_ancillas <= bound


def test_registry_well_founded():
    poly = PseudoBooleanPolynomial(6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        poly.add_term(rng.integers(0, 6, size=4), rng.normal())
    reg = quadratize(poly, 5.0).registry
    for i, (z, a, b) in enumerate(reg.entries):
        assert z == reg.base_count + i
        for parent in (a, b):
            assert parent < z


def test_every_ancilla_has_gadget_terms():
    poly = PseudoBooleanPolynomial(5)
    poly.add_term([0, 1, 2, 3, 4], 1.0)
    qubo = quadratize(poly, 5.0)
    for z, a, b in qubo.registry.entries:
        assert qubo.polynomial.terms.get(tuple(sorted((a, z)))) is not None
        assert qubo.polynomial.terms.get(tuple(sorted((b, z)))) is not None
        assert qubo.polynomial.terms.get((z,)) is not None


class TestQuboText:
    def test_format(self):
        poly = PseudoBooleanPolynomial(3)
        poly.add_term([0, 1, 2], 1.0)
        poly.add_term([], 2.5)
        qubo = quadratize(poly, 5.0)
        text = to_qubo_text(qubo)
        lines = text.strip().splitlines()
        assert lines[0] == "c constant offset 2.5"
        assert lines[1].startswith("p qubo 0 4 ")
        for line in lines[2:]:
            i, j, _ = line.split()
            assert int(i) <= int(j)

    def test_rejects_higher_degree(self):
        from mdpspin.quadratize import QuboProblem

        poly = PseudoBooleanPolynomial(3).add_term([0, 1, 2], 1.0)
        fake = QuboProblem(poly, AncillaRegistry(3), 5.0)
        with pytest.raises(ValueError):
            to_qubo_text(fake)

    def test_round_trips_through_values(self):
        poly = PseudoBooleanPolynomial(2)
        poly.add_term([0], -1.5)
        poly.add_term([0, 1], 3.0)
        text = to_qubo_text(quadratize(poly, 5.0))
        parsed = {}
        offset = 0.0
        for line in text.splitlines():
            if line.startswith("c constant offset "):
                offset = float(line.rsplit(" ", 1)[1])
            elif not line.startswith(("c", "p")):
                i, j, c = line.split()
                parsed[(int(i), int(j))] = float(c)
        assert offset == 0.0
        assert parsed == {(0, 0): -1.5, (0, 1): 3.0}
