"""Polynomial algebra tests, including the exhaustive-sweep properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mdpspin import pseudoboolean
from mdpspin.anneal import SaRead, success_probability
from mdpspin.compiler import CompilerConfig, compile_hamiltonian, minimal_truncation_order
from mdpspin.dp import best_policy_exhaustive
from mdpspin.errors import InstanceTooLargeError, NoTruncationError
from mdpspin.experiments import ExperimentConfig, run_solve
from mdpspin.mdp import build_hallway
from mdpspin.pseudoboolean import (ENUMERATION_BLOCK, TERM_TABLE_ROWS, PseudoBooleanPolynomial,
                                   TermTable, all_assignment_energies, bit_rows,
                                   exhaustive_ground_state, normalize_monomial)
from mdpspin.quadratize import quadratize
from oracles import one_block_assignment_energies, one_product_energies


@st.composite
def polynomials(draw, max_vars=6, max_terms=8, max_degree=4):
    n = draw(st.integers(1, max_vars))
    num_terms = draw(st.integers(0, max_terms))
    poly = PseudoBooleanPolynomial(n)
    for _ in range(num_terms):
        size = draw(st.integers(0, min(max_degree, n)))
        mono = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        coeff = draw(st.floats(-10, 10, allow_nan=False))
        poly.add_term(mono, coeff)
    return poly, n


def bits_of(i, n):
    return np.array([(i >> v) & 1 for v in range(n)], dtype=np.int8)


def test_evaluate_simple():
    poly = PseudoBooleanPolynomial()
    poly.add_term([0, 1], 2.0)
    poly.add_term([], -1.0)
    assert poly.evaluate([1, 1]) == 1.0
    assert poly.evaluate([1, 0]) == -1.0


def test_all_zero_assignment_gives_constant():
    poly = PseudoBooleanPolynomial()
    poly.add_term([0, 2], 4.5)
    poly.add_term([1], -2.0)
    poly.add_term([], 7.25)
    assert poly.evaluate([0, 0, 0]) == 7.25


def test_evaluate_rejects_short_assignment():
    poly = PseudoBooleanPolynomial()
    poly.add_term([3], 1.0)
    with pytest.raises(ValueError):
        poly.evaluate([1, 0])


def test_add_term_dedups_and_sorts():
    poly = PseudoBooleanPolynomial()
    poly.add_term([1, 0, 1], 2.0)
    assert poly.terms == {(0, 1): 2.0}


def test_add_term_cancellation_removes_term():
    poly = PseudoBooleanPolynomial()
    poly.add_term([0, 1], 2.0)
    poly.add_term([1, 0], -2.0)
    assert poly.terms == {}


def test_constant_monomial():
    poly = PseudoBooleanPolynomial()
    poly.add_term([], 5.0)
    assert poly.constant() == 5.0
    assert poly.degree() == 0


def test_normalize_monomial():
    assert normalize_monomial([3, 1, 3, 0]) == (0, 1, 3)
    assert normalize_monomial([]) == ()


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_addition_matches_pointwise_sum(pq1, pq2):
    p, n1 = pq1
    q, n2 = pq2
    n = max(n1, n2)
    total = p.add(q)
    for i in range(1 << n):
        x = bits_of(i, n)
        assert total.evaluate(x) == pytest.approx(p.evaluate(x) + q.evaluate(x), abs=1e-9)


@given(polynomials(), st.integers(0, 63))
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_packed_for_every_input_dtype(pq, packed):
    poly, n = pq
    x = bits_of(packed, n)
    # the sum of the coefficients whose variables are all 1
    expected = pytest.approx(sum(c for mono, c in poly.terms.items()
                                 if all(x[v] for v in mono)), rel=1e-12, abs=1e-12)
    for dtype in (np.int8, np.int64, np.float64, bool):
        assert poly.evaluate(x.astype(dtype)) == expected
    assert poly.evaluate(x.tolist()) == expected


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_multilinearity_invariant(pq):
    poly, _ = pq
    for mono in poly.terms:
        assert list(mono) == sorted(set(mono))


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_no_stored_coefficient_below_drop_tolerance(pq1, pq2):
    p, _ = pq1
    q, _ = pq2
    assert all(abs(c) > 1e-12 for c in p.add(q).terms.values())


class TestTextFormat:
    def test_round_trip(self):
        poly = PseudoBooleanPolynomial()
        poly.add_term([0, 3], -2.25)
        poly.add_term([1], 0.5)
        poly.add_term([], 7.0)
        again = PseudoBooleanPolynomial.from_text(poly.to_text())
        assert again.terms == poly.terms

    def test_comment_and_blank_lines_are_skipped(self):
        poly = PseudoBooleanPolynomial.from_text("# header\n\n1.5 0\n")
        assert poly.terms == {(0,): 1.5}

    def test_constant_line_has_no_ids(self):
        poly = PseudoBooleanPolynomial().add_term([], 4.0)
        assert poly.to_text() == "4.0\n"

    def test_parse_error_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            PseudoBooleanPolynomial.from_text("1.0 0\nbogus x\n")

    def test_negative_id_reports_line(self):
        with pytest.raises(ValueError, match="line 2: variable ids must be non-negative, got -1"):
            PseudoBooleanPolynomial.from_text("2.0 0\n1.0 -1\n")

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_reports_line(self, coeff):
        with pytest.raises(ValueError, match=f"line 2: coefficient must be finite, got {coeff}$"):
            PseudoBooleanPolynomial.from_text(f"2.0 0\n{coeff} 1 2 3\n")


def test_equality_compares_terms_only():
    poly = PseudoBooleanPolynomial(1, {(0,): 1.0})
    assert poly == PseudoBooleanPolynomial(3, {(0,): 1.0})
    assert poly != PseudoBooleanPolynomial(1, {(0,): 2.0})
    assert poly != {(0,): 1.0}


def test_negative_variable_count_rejected():
    with pytest.raises(ValueError, match="non-negative, got -3"):
        PseudoBooleanPolynomial(-3)
    assert PseudoBooleanPolynomial(0).num_variables == 0


def test_add_term_rejects_negative_ids():
    poly = PseudoBooleanPolynomial(3)
    for ids in ([-1], [0, -3, 2], [-2, -2]):
        with pytest.raises(ValueError, match="non-negative"):
            poly.add_term(ids, 1.0)
    assert poly.terms == {} and poly.num_variables == 3


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), float("-inf")])
def test_add_term_rejects_non_finite_coefficients(coeff):
    poly = PseudoBooleanPolynomial(3).add_term([0], 1.0)
    for ids in ([], [4], [0, 1, 2]):
        with pytest.raises(ValueError, match=f"^coefficient must be finite, got {coeff}$"):
            poly.add_term(ids, coeff)
    assert poly.terms == {(0,): 1.0} and poly.num_variables == 3
    with pytest.raises(ValueError, match=f"^coefficient must be finite, got {coeff}$"):
        PseudoBooleanPolynomial(terms={(0,): coeff})


@given(polynomials(max_vars=8))
@settings(max_examples=40, deadline=None)
def test_all_assignment_energies_matches_evaluate(pq):
    poly, n = pq
    energies = all_assignment_energies(poly, n)
    for i in (0, 1, (1 << n) - 1, min(5, (1 << n) - 1)):
        assert energies[i] == pytest.approx(poly.evaluate(bits_of(i, n)), abs=1e-9)


def test_all_assignment_energies_full_agreement():
    rng = np.random.default_rng(3)
    poly = PseudoBooleanPolynomial(15)
    for _ in range(40):
        size = rng.integers(0, 5)
        poly.add_term(rng.integers(0, 15, size=size), rng.normal())
    energies = all_assignment_energies(poly, 15)
    for i in rng.integers(0, 1 << 15, size=50):
        assert energies[i] == pytest.approx(poly.evaluate(bits_of(int(i), 15)), abs=1e-9)


@given(polynomials(max_vars=8))
@settings(max_examples=40, deadline=None)
def test_term_table_energies_match_all_assignment_energies(pq):
    poly, n = pq
    rows = np.array([bits_of(i, n) for i in range(1 << n)])
    np.testing.assert_allclose(TermTable(poly, n).energies(rows),
                               all_assignment_energies(poly, n), rtol=0, atol=1e-9)
    with pytest.raises(ValueError, match="variable span"):
        TermTable(poly, poly.num_variables - 1)


def test_all_assignment_energies_split_edge_cases():
    # n = 0 leaves both halves empty; n = 1 an empty low half; an odd n unequal halves
    assert all_assignment_energies(PseudoBooleanPolynomial(), 0).tolist() == [0.0]
    constant = PseudoBooleanPolynomial().add_term([], 2.5)
    assert all_assignment_energies(constant, 0).tolist() == [2.5]
    assert all_assignment_energies(constant, 2).tolist() == [2.5] * 4
    one = PseudoBooleanPolynomial().add_term([0], -1.5).add_term([], 0.5)
    assert all_assignment_energies(one, 1).tolist() == [0.5, -1.0]
    rng = np.random.default_rng(11)
    poly = PseudoBooleanPolynomial(13)
    for _ in range(60):
        poly.add_term(rng.integers(0, 13, size=rng.integers(0, 6)), rng.normal())
    rows = np.array([bits_of(i, 13) for i in range(1 << 13)])
    np.testing.assert_allclose(all_assignment_energies(poly, 13),
                               TermTable(poly, 13).energies(rows), rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [13, 15])
def test_all_assignment_energies_groups_terms_by_high_half(n):
    # six high-half sets each shared by many terms, terms wholly in either half
    # and a constant: every row must match the term-by-term evaluation
    rng = np.random.default_rng(n)
    low, high = np.arange(n // 2), np.arange(n // 2, n)
    poly = PseudoBooleanPolynomial(n).add_term([], rng.normal())
    for _ in range(6):
        shared = rng.choice(high, size=rng.integers(1, 4), replace=False)
        for _ in range(12):
            poly.add_term([*rng.choice(low, size=rng.integers(0, 4), replace=False), *shared],
                          rng.normal())
    for _ in range(10):
        poly.add_term(rng.choice(low, size=rng.integers(1, 4), replace=False), rng.normal())
    high_parts = {tuple(v for v in mono if v >= n // 2) for mono in poly.terms}
    assert len(poly.terms) > 8 * len(high_parts)
    energies = all_assignment_energies(poly, n)
    atol = 1e-12 * max(1.0, sum(abs(c) for c in poly.terms.values()))
    np.testing.assert_allclose(energies, TermTable(poly, n).energies(bit_rows(np.arange(1 << n), n)),
                               rtol=0, atol=atol)
    assert energies.tobytes() == all_assignment_energies(poly, n).tobytes()


@pytest.mark.parametrize("size, gamma, order, reduced", [
    (10, 0.9, 5, False), (6, 0.99, 3, False),
    # QUBOs of 8, 10, 15, 20 and 21 variables
    (4, 0.8, 2, True), (5, 0.9, 2, True), (4, 0.9, 3, True), (5, 0.9, 3, True),
    (4, 0.9, 4, True)])
def test_blocked_enumeration_matches_one_block_on_hallways(size, gamma, order, reduced):
    poly = compile_hamiltonian(build_hallway(size, gamma), CompilerConfig(order)).polynomial
    if reduced:
        poly = quadratize(poly).polynomial
    n = poly.num_variables
    assert (all_assignment_energies(poly, n).tobytes()
            == one_block_assignment_energies(poly, n).tobytes())


@pytest.mark.parametrize("span, extra, blocks", [(11, 1, 0.5), (13, 1, 1), (15, 3, 4),
                                                  (17, 4, 8)])
def test_blocked_enumeration_matches_one_block_on_random_polynomials(span, extra, blocks):
    # the low half holds half a block, one block or several, over a variable
    # count above the polynomial's span
    n = span + extra
    assert 1 << (n // 2) == blocks * ENUMERATION_BLOCK
    rng = np.random.default_rng(n)
    poly = PseudoBooleanPolynomial(span)
    for _ in range(120):
        poly.add_term(rng.integers(0, span, size=rng.integers(0, 6)), rng.normal())
    assert (all_assignment_energies(poly, n).tobytes()
            == one_block_assignment_energies(poly, n).tobytes())


def random_polynomial(n, rng, num_terms=60, variables=None):
    """``num_terms`` random terms of degree 0-5 over ``variables`` (all n by default)."""
    variables = np.arange(n) if variables is None else np.asarray(variables)
    poly = PseudoBooleanPolynomial(n)
    for _ in range(num_terms):
        size = min(int(rng.integers(0, 6)), variables.size)
        poly.add_term(rng.choice(variables, size=size, replace=False), rng.normal())
    return poly


def test_dense_enumeration_refuses_past_its_limit_before_building_a_table(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built a term table past the dense-enumeration limit")

    monkeypatch.setattr(pseudoboolean, "TermTable", fail)
    n = pseudoboolean.ENUMERATION_MAX_VARIABLES + 1
    with pytest.raises(InstanceTooLargeError,
                       match=f"^{n} variables is too many for dense enumeration$"):
        all_assignment_energies(PseudoBooleanPolynomial(n), n)


@pytest.mark.parametrize("n", range(1, 23))
def test_blocked_energy_product_matches_the_whole_vector(n):
    # up to 2^11 high-half rows: one partial block, one block and up to 16 blocks
    poly = random_polynomial(n, np.random.default_rng(n))
    assert (all_assignment_energies(poly, n).tobytes()
            == one_block_assignment_energies(poly, n).tobytes())


@pytest.mark.parametrize("n", [9, 16, 19])
@pytest.mark.parametrize("half", ["low", "high"])
def test_blocked_energy_product_matches_the_whole_vector_within_one_half(n, half):
    # every term inside one half: one high-half group, or one group per term
    variables = np.arange(n // 2) if half == "low" else np.arange(n // 2, n)
    poly = random_polynomial(n, np.random.default_rng(n), 40, variables)
    assert (all_assignment_energies(poly, n).tobytes()
            == one_block_assignment_energies(poly, n).tobytes())


@pytest.fixture(scope="module")
def hallway_20():
    """``hallway(10, 0.9)`` at K=5: 20 variables and 648 terms."""
    return compile_hamiltonian(build_hallway(10, 0.9), CompilerConfig(5))


@pytest.mark.parametrize("rows", [1, TERM_TABLE_ROWS - 1, TERM_TABLE_ROWS, TERM_TABLE_ROWS + 1,
                                  1023, 1024, 1025, 2049])
def test_row_blocked_term_table_energies_match_one_product(hallway_20, rows):
    table = TermTable(hallway_20.polynomial, 20)
    x = np.random.default_rng(rows).integers(0, 2, size=(rows, 20), dtype=np.int8)
    assert table.energies(x).tobytes() == one_product_energies(table, x).tobytes()


def traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


def test_all_assignment_energies_peak_memory(hallway_20):
    # the 2^20 float64 energies are 8 MiB; the tables and one block add the rest
    peak = traced_peak(lambda: all_assignment_energies(hallway_20.polynomial, 20))
    assert peak <= 8 * MIB + 2 * MIB


def test_exhaustive_ground_state_holds_less_than_the_energy_vector(hallway_20):
    peak = traced_peak(lambda: exhaustive_ground_state(hallway_20.polynomial))
    assert peak < 8 * MIB


def test_term_table_energies_peak_memory(hallway_20):
    # 2,000 reads: one product's float64 copy of the on-term table is 9.9 MiB
    table = TermTable(hallway_20.polynomial, 20)
    x = np.random.default_rng(0).integers(0, 2, size=(2000, 20), dtype=np.int8)
    assert traced_peak(lambda: table.energies(x)) < 11.14 * MIB / 2


def test_term_of_more_than_127_variables():
    poly = PseudoBooleanPolynomial().add_term(range(130), 2.0).add_term(range(127), 1.0)
    ones = np.ones(130, dtype=np.int8)
    assert poly.evaluate(ones) == 3.0
    ones[129] = 0
    assert poly.evaluate(ones) == 1.0


def test_energies_match_within_the_tolerance():
    matched = pseudoboolean.energies_match([0.0, 1e-9, 2e-9, -1e-9], 0.0)
    assert matched.tolist() == [True, True, False, True]


class TestOneEqualEnergyRule:
    """``energies_match`` is the one rule for equal energies: widening its
    tolerance makes every site treat every energy as equal."""

    @pytest.fixture(autouse=True)
    def every_energy_equal(self, monkeypatch):
        monkeypatch.setattr(pseudoboolean, "ENERGY_MATCH_TOL", 1e6)

    def test_ground_state_ties(self):
        poly = PseudoBooleanPolynomial(3, {(0,): 1.0, (1, 2): -2.0})
        minimizers, ground = exhaustive_ground_state(poly)
        assert len(minimizers) == 8 and ground == -2.0

    def test_annealer_hits(self):
        reads = [SaRead(np.zeros(2, dtype=np.int8), e) for e in (0.0, 1.0, 5.0)]
        assert success_probability(reads, 0.0) == (1.0, 0.0)

    def test_k_search_runner_up_gap(self):
        with pytest.raises(NoTruncationError, match="no truncation order <= "):
            minimal_truncation_order(build_hallway(6, 0.9))

    def test_policy_ties(self):
        _, _, ties = best_policy_exhaustive(build_hallway(4, 0.9))
        assert len(ties) == 15

    def test_solve_best_read_attains_ground(self):
        # one read of one sweep ends at 3.34 against a ground of -4.02
        record = run_solve(ExperimentConfig(truncation=2, num_reads=1, num_sweeps=1), 4, 0.9)
        assert record["sa"]["best_attains_ground"] is True
