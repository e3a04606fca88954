"""Solver tests: exhaustive scan, Metropolis annealing, TTS arithmetic."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from mdpspin.anneal import (AnnealSchedule, SaRead, _level_plan, default_beta_range,
                            simulated_anneal, success_probability, tts)
from mdpspin.compiler import CompilerConfig, compile_hamiltonian
from mdpspin.dp import policy_rows
from mdpspin.errors import InstanceTooLargeError
from mdpspin.mdp import Mdp, PolicyAssignment, build_hallway
from mdpspin.pseudoboolean import PseudoBooleanPolynomial, TermTable, exhaustive_ground_state
from mdpspin.quadratize import quadratize
from oracles import tts_std_error, whole_vector_ground_state


def single_negative_variable():
    return PseudoBooleanPolynomial(1).add_term([0], -1.0)


def integer_tie_polynomial(n=11, seed=5):
    """Swapping the variables of a pair (2g, 2g + 1) leaves it unchanged, so its
    minima tie exactly; with integer coefficients every sum is exact."""
    rng = np.random.default_rng(seed)
    poly = PseudoBooleanPolynomial(n)
    for a in range(0, 8, 2):
        b = a + 1
        poly.add_term([a, b], 4).add_term([a], -2).add_term([b], -2).add_term([], 2)
        for k in rng.choice(np.arange(8, n), size=2, replace=False):
            c = int(rng.integers(-2, 3))
            poly.add_term([a, k], c).add_term([b, k], c).add_term([a, b, k], c)
    for mono in ([8], [9, 10], [8, 9, 10], [8, 10]):
        poly.add_term(mono, int(rng.integers(-3, 4)))
    return poly


class TestExhaustive:
    def test_single_term(self):
        minimizers, energy = exhaustive_ground_state(single_negative_variable())
        assert energy == -1.0
        assert len(minimizers) == 1
        assert minimizers[0][0] == 1

    def test_penalty_only_minimizers_are_feasible_policies(self):
        # three-state, zero-reward model: only the penalty term remains
        P = np.zeros((3, 2, 3))
        P[:, :, 1] = 1.0
        mdp = Mdp(P, np.zeros_like(P), 0.9)
        ham = compile_hamiltonian(mdp, CompilerConfig(2, 3.0))
        minimizers, energy = exhaustive_ground_state(ham.polynomial)
        assert energy == 0.0
        found = {tuple(m) for m in minimizers}
        expected = {tuple(PolicyAssignment.from_actions(row, 2).bits)
                    for row in policy_rows(3, 2, np.arange(8))}
        assert found == expected

    def test_integer_ties_come_back_in_index_order(self):
        n = 11
        poly = integer_tie_polynomial(n)
        brute = [sum(c for mono, c in poly.terms.items() if all(i >> v & 1 for v in mono))
                 for i in range(1 << n)]
        ties = [i for i, e in enumerate(brute) if e == min(brute)]
        minimizers, energy = exhaustive_ground_state(poly)
        assert len(ties) > 1 and energy == min(brute)
        assert [sum(int(x) << v for v, x in enumerate(m)) for m in minimizers] == ties

    def test_variable_cap(self):
        poly = PseudoBooleanPolynomial(30).add_term([29], 1.0)
        with pytest.raises(InstanceTooLargeError):
            exhaustive_ground_state(poly)

    def test_minimizers_span_every_match_block(self):
        # x0 = x1 = 0 on 18 variables: every fourth assignment, across all four
        # blocks of 128 high-half rows
        poly = PseudoBooleanPolynomial(18, {(0,): 1.0, (1,): 1.0})
        minimizers, energy = exhaustive_ground_state(poly)
        assert energy == 0.0
        np.testing.assert_array_equal(np.array(minimizers) @ (1 << np.arange(18)),
                                      np.arange(0, 1 << 18, 4))

    def test_minimizer_cap(self):
        # the zero polynomial on 17 variables: every one of 2^17 assignments is a minimizer
        with pytest.raises(InstanceTooLargeError, match="131072 degenerate minimizers"):
            exhaustive_ground_state(PseudoBooleanPolynomial(17))


def ground_state_bytes(poly):
    """The minimizers and the ground energy of ``exhaustive_ground_state`` and of
    the whole-vector oracle, each as bytes."""
    return [(np.array(minimizers).tobytes(), np.float64(ground).tobytes())
            for minimizers, ground in (exhaustive_ground_state(poly),
                                       whole_vector_ground_state(poly))]


class TestBlockedGroundStateMatch:
    """The blocked match gives the whole-vector oracle's minimizers and ground
    energy to the bit."""

    @pytest.mark.parametrize("n, seed", [(11, 5), (15, 1), (19, 2)])
    def test_integer_ties(self, n, seed):
        poly = integer_tie_polynomial(n, seed)
        new, old = ground_state_bytes(poly)
        assert new == old and len(exhaustive_ground_state(poly)[0]) > 1

    @pytest.mark.parametrize("size, gamma, order", [(10, 0.9, 5), (6, 0.99, 3), (8, 0.9, 4),
                                                    (12, 0.9, 6)])
    def test_compiled_hallways(self, size, gamma, order):
        ham = compile_hamiltonian(build_hallway(size, gamma), CompilerConfig(order))
        new, old = ground_state_bytes(ham.polynomial)
        assert new == old

    @pytest.mark.parametrize("size, gamma, order", [(4, 0.9, 3), (5, 0.9, 3), (4, 0.9, 4)])
    def test_hallway_qubos(self, size, gamma, order):
        qubo = quadratize(compile_hamiltonian(build_hallway(size, gamma),
                                              CompilerConfig(order)).polynomial)
        new, old = ground_state_bytes(qubo.polynomial)
        assert new == old

    @pytest.mark.parametrize("n", [1, 2, 7, 14, 17, 20])
    def test_random_polynomials(self, n):
        rng = np.random.default_rng(n)
        poly = PseudoBooleanPolynomial(n)
        for _ in range(50):
            poly.add_term(rng.integers(0, n, size=rng.integers(0, 5)),
                          float(rng.integers(-3, 4)) / 4)
        new, old = ground_state_bytes(poly)
        assert new == old

    def test_the_same_minimizer_refusal(self):
        for solve in (exhaustive_ground_state, whole_vector_ground_state):
            with pytest.raises(InstanceTooLargeError,
                               match="^131072 degenerate minimizers; refusing to"):
                solve(PseudoBooleanPolynomial(17, {(): 1.5}))


class TestSimulatedAnneal:
    def test_greedy_limit_finds_single_variable_optimum(self):
        schedule = AnnealSchedule(1, 1e9, 1e9, num_reads=8, rng_seed=0)
        for read in simulated_anneal(single_negative_variable(), schedule):
            assert read.assignment[0] == 1
            assert read.energy == -1.0

    def test_energy_matches_evaluate(self):
        mdp = build_hallway(6, 0.6)
        ham = compile_hamiltonian(mdp, CompilerConfig(2, 3.0))
        schedule = AnnealSchedule(3, 0.05, 2.0, num_reads=20, rng_seed=3)
        for read in simulated_anneal(ham.polynomial, schedule, num_variables=12):
            assert read.energy == pytest.approx(ham.polynomial.evaluate(read.assignment))

    def test_seeded_determinism(self):
        poly = compile_hamiltonian(build_hallway(6, 0.6), CompilerConfig(2, 3.0)).polynomial
        schedule = AnnealSchedule(5, 0.05, 3.0, num_reads=10, rng_seed=42)
        a = simulated_anneal(poly, schedule, num_variables=12)
        b = simulated_anneal(poly, schedule, num_variables=12)
        assert [r.energy for r in a] == [r.energy for r in b]
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.assignment, rb.assignment)

    def test_incremental_delta_matches_full_reevaluation(self):
        rng = np.random.default_rng(11)
        poly = PseudoBooleanPolynomial(6)
        for _ in range(15):
            poly.add_term(rng.integers(0, 6, size=rng.integers(1, 4)), rng.normal())
        schedule = AnnealSchedule(4, 0.1, 2.0, num_reads=5, rng_seed=1)
        simulated_anneal(poly, schedule, num_variables=6, debug_check=True)

    def test_incremental_delta_matches_full_reevaluation_past_64_variables(self):
        # 123 QUBO variables: a read no longer fits in one machine word
        ham = compile_hamiltonian(build_hallway(10, 0.9), CompilerConfig(5, 3.0))
        qubo = quadratize(ham.polynomial, 5.0, num_variables=ham.num_variables)
        assert qubo.num_variables == 123
        b0, b1 = default_beta_range(qubo.polynomial)
        schedule = AnnealSchedule(3, b0, b1, num_reads=4, rng_seed=0)
        simulated_anneal(qubo.polynomial, schedule, num_variables=qubo.num_variables,
                         debug_check=True)

    def test_incremental_delta_matches_full_reevaluation_on_native_degree_three(self):
        ham = compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(3, 3.0))
        assert ham.polynomial.degree() == 3
        b0, b1 = default_beta_range(ham.polynomial)
        schedule = AnnealSchedule(3, b0, b1, num_reads=6, rng_seed=2)
        simulated_anneal(ham.polynomial, schedule, num_variables=ham.num_variables,
                         debug_check=True)

    def test_detailed_balance_two_variable_boltzmann(self):
        # fixed beta, long chain: final-state frequencies follow the Gibbs law
        poly = PseudoBooleanPolynomial(2)
        poly.add_term([0], 0.8)
        poly.add_term([1], -0.5)
        poly.add_term([0, 1], 0.6)
        beta = 0.7
        reads = simulated_anneal(poly, AnnealSchedule(40, beta, beta,
                                                      num_reads=4000, rng_seed=9))
        counts = np.zeros(4)
        for r in reads:
            counts[int(r.assignment[0]) + 2 * int(r.assignment[1])] += 1
        energies = np.array([poly.evaluate([i & 1, i >> 1]) for i in range(4)])
        weights = np.exp(-beta * energies)
        probs = weights / weights.sum()
        expected = probs * len(reads)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 3-sigma-equivalent critical value for 3 degrees of freedom
        assert chi2 < 14.16


def reference_anneal(poly, schedule, num_variables=None):
    """The one-variable-per-step index-order sweep that the level sweep replaced."""
    table = TermTable(poly, num_variables)
    var_terms = [(ts, table.coeffs[ts]) for ts in map(np.flatnonzero, table.incidence)]
    rng = np.random.default_rng(schedule.rng_seed)
    x = rng.integers(0, 2, size=(schedule.num_reads, len(var_terms)), dtype=np.int8)
    missing = table.sizes - x @ table.incidence
    for beta in schedule.betas():
        uniforms = rng.random(x.shape)
        for v, (ts, coeffs) in enumerate(var_terms):
            xv = x[:, v]
            field = (missing[:, ts] == (1 - xv)[:, None]) @ coeffs
            delta = np.where(xv, -field, field)
            rows = np.flatnonzero(uniforms[:, v] < np.exp(-beta * np.maximum(delta, 0.0)))
            missing[np.ix_(rows, ts)] += 2 * xv[rows, None] - 1
            x[rows, v] ^= 1
    return [SaRead(assignment=a, energy=float(e)) for a, e in zip(x, table.energies(x))]


def assert_same_reads(got, expected):
    assert len(got) == len(expected)
    assert [r.assignment.tobytes() for r in got] == [r.assignment.tobytes() for r in expected]
    assert [r.energy for r in got] == [r.energy for r in expected]


@st.composite
def integer_polynomials(draw):
    """Degree 1-4 terms with integer coefficients, so every field sum is exact
    in any order, over a variable count that may exceed the span."""
    span = draw(st.integers(1, 9))
    poly = PseudoBooleanPolynomial(span)
    for _ in range(draw(st.integers(1, 14))):
        mono = draw(st.lists(st.integers(0, span - 1), min_size=1, max_size=4))
        poly.add_term(mono, draw(st.integers(-6, 6)))
    return poly, poly.num_variables + draw(st.integers(0, 3))


class TestLevelSweep:
    @given(integer_polynomials(), st.integers(0, 2 ** 32 - 1), st.integers(1, 7),
           st.integers(1, 5), st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_index_order_sweep(self, case, seed, num_reads, num_sweeps, beta):
        poly, n = case
        schedule = AnnealSchedule(num_sweeps, beta, 2 * beta, num_reads=num_reads,
                                  rng_seed=seed)
        assert_same_reads(simulated_anneal(poly, schedule, num_variables=n),
                          reference_anneal(poly, schedule, num_variables=n))

    @pytest.mark.parametrize("size,gamma,order", [(6, 0.99, 3), (10, 0.9, 5)])
    def test_matches_the_index_order_sweep_on_hallway_qubos(self, size, gamma, order):
        ham = compile_hamiltonian(build_hallway(size, gamma), CompilerConfig(order, 3.0))
        qubo = quadratize(ham.polynomial, 5.0, num_variables=ham.num_variables)
        b0, b1 = default_beta_range(qubo.polynomial)
        for seed in range(3):
            schedule = AnnealSchedule(8, b0, b1, num_reads=30, rng_seed=seed)
            assert_same_reads(
                simulated_anneal(qubo.polynomial, schedule, num_variables=qubo.num_variables),
                reference_anneal(qubo.polynomial, schedule, num_variables=qubo.num_variables))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_index_order_sweep_on_a_native_degree_three_polynomial(self, seed):
        ham = compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(3, 3.0))
        assert ham.polynomial.degree() == 3
        b0, b1 = default_beta_range(ham.polynomial)
        schedule = AnnealSchedule(8, b0, b1, num_reads=30, rng_seed=seed)
        assert_same_reads(
            simulated_anneal(ham.polynomial, schedule, num_variables=ham.num_variables),
            reference_anneal(ham.polynomial, schedule, num_variables=ham.num_variables))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_index_order_sweep_with_only_degree_three_and_four_terms(self, seed):
        # no coupling at all: every field comes from the per-term counts
        rng = np.random.default_rng(seed)
        poly = PseudoBooleanPolynomial(9)
        for _ in range(12):
            mono = rng.choice(9, size=rng.integers(3, 5), replace=False)
            poly.add_term(mono, rng.normal())
        assert {len(mono) for mono in poly.terms} == {3, 4}
        schedule = AnnealSchedule(6, 0.2, 3.0, num_reads=25, rng_seed=seed)
        assert_same_reads(simulated_anneal(poly, schedule),
                          reference_anneal(poly, schedule))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [0, 5])
    def test_matches_the_index_order_sweep_with_no_variable_in_any_term(self, n, seed):
        poly = PseudoBooleanPolynomial(0, {(): -0.5})
        schedule = AnnealSchedule(3, 0.1, 1.0, num_reads=7, rng_seed=seed)
        assert_same_reads(simulated_anneal(poly, schedule, num_variables=n),
                          reference_anneal(poly, schedule, num_variables=n))

    @given(integer_polynomials())
    @settings(max_examples=60, deadline=None)
    def test_level_plan_orders_every_dependency(self, case):
        poly, n = case
        table = TermTable(poly, n)
        order, high, levels = _level_plan(table)
        # the level slices cover every variable once, in order
        assert sorted(order) == list(range(n))
        bounds = [0] + [lv.rows.stop for lv in levels]
        assert [lv.rows for lv in levels] == [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        assert bounds[-1] == n
        level = np.empty(n, dtype=int)
        for lvl, step in enumerate(levels):
            level[order[step.rows]] = lvl
            # no two variables of a level share a term
            assert (table.incidence[order[step.rows]].sum(axis=0) <= 1).all()
        shared = table.incidence.astype(int) @ table.incidence.T.astype(int) > 0
        for v in range(n):
            earlier = np.flatnonzero(shared[v, :v])
            assert (level[earlier] < level[v]).all()
        # the coupling holds the degree-1 and degree-2 terms in level order
        expected = np.zeros((n, n + 1))
        for (mono, coeff), size in zip(poly.terms.items(), table.sizes):
            if size == 1:
                expected[mono[0], n] = coeff
            elif size == 2:
                expected[mono[0], mono[1]] = expected[mono[1], mono[0]] = coeff
        columns = np.append(order, n)
        for step in levels:
            np.testing.assert_array_equal(step.coupling,
                                          expected[order[step.rows]][:, columns])
        # each owner's row of the degree-3-and-up block holds its terms' coefficients
        np.testing.assert_array_equal(high, np.flatnonzero(table.sizes >= 3))
        for step in levels:
            assert np.unique(step.terms).size == step.terms.size
            for i, v in enumerate(order[step.rows]):
                own = high[step.terms[step.owner == i]]
                np.testing.assert_array_equal(
                    own, np.flatnonzero(table.incidence[v] & (table.sizes >= 3)))
                np.testing.assert_array_equal(step.coeffs[i, step.owner == i],
                                              table.coeffs[own])
                assert not step.coeffs[i, step.owner != i].any()

    def test_matches_the_index_order_sweep_where_the_exponent_overflows(self):
        # fields near 1e3 at beta 1e3 put exp's argument near 1e6 on accepted moves
        rng = np.random.default_rng(0)
        poly = PseudoBooleanPolynomial(8)
        for _ in range(16):
            poly.add_term(rng.choice(8, size=rng.integers(1, 5), replace=False),
                          1000.0 * rng.integers(-3, 4))
        schedule = AnnealSchedule(6, 1.0, 1e3, num_reads=20, rng_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reads = simulated_anneal(poly, schedule)
        assert_same_reads(reads, reference_anneal(poly, schedule))

    def test_constant_only_polynomial(self):
        poly = PseudoBooleanPolynomial(0, {(): 1.5})
        schedule = AnnealSchedule(3, 0.1, 1.0, num_reads=4, rng_seed=0)
        reads = simulated_anneal(poly, schedule)
        assert [(r.assignment.shape, r.energy) for r in reads] == [((0,), 1.5)] * 4
        assert_same_reads(reads, reference_anneal(poly, schedule))

    def test_variables_in_no_term(self):
        # variables 0 and 2-4 occur in no term: every flip of theirs is accepted
        poly = PseudoBooleanPolynomial(0, {(1,): -1.0})
        schedule = AnnealSchedule(3, 0.1, 1.0, num_reads=6, rng_seed=0)
        reads = simulated_anneal(poly, schedule, num_variables=5)
        assert_same_reads(reads, reference_anneal(poly, schedule, num_variables=5))
        assert [r.energy for r in reads] == [-float(r.assignment[1]) for r in reads]


class TestSuccessProbability:
    def _reads(self, energies):
        return [type("R", (), {"energy": e, "assignment": np.zeros(1, dtype=np.int8)})()
                for e in energies]

    def test_all_and_none(self):
        reads = self._reads([1.0, 1.0, 1.0])
        assert success_probability(reads, 1.0) == (1.0, 0.0)
        assert success_probability(reads, 0.0)[0] == 0.0

    def test_binomial_arithmetic(self):
        reads = self._reads([0.0] * 37 + [1.0] * 63)
        p, err = success_probability(reads, 0.0)
        assert p == pytest.approx(0.37)
        assert err == pytest.approx(math.sqrt(0.37 * 0.63 / 100), abs=1e-12)

    def test_zero_reads_rejected(self):
        with pytest.raises(ValueError):
            success_probability([], 0.0)


class TestTts:
    @pytest.mark.parametrize("args, message", [
        ((1.5, 1.0), r"^success probability must be in \[0, 1\]$"),
        ((0.5, 1.0, 1.0), r"^desired probability must be in \(0, 1\)$"),
    ], ids=["success-probability", "desired-probability"])
    def test_probability_out_of_range_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            tts(*args)

    def test_fixed_point_at_desired_probability(self):
        est = tts(0.99, 1.0, 0.99)
        assert est.value == 1.0
        est = tts(0.37, 12.5, 0.37)
        assert est.value == 12.5

    def test_half_probability_value(self):
        est = tts(0.5, 1.0, 0.99)
        assert abs(est.value - math.log(0.01) / math.log(0.5)) < 1e-12

    def test_degenerate_statuses(self):
        assert tts(1.0, 1.0).status == "undefined-all-success"
        assert tts(0.0, 1.0).status == "undefined-no-success"
        assert tts(0.0, 1.0).value == math.inf

    @given(st.floats(0.01, 0.98), st.floats(0.011, 0.99))
    @settings(max_examples=50)
    def test_monotone_decreasing_in_success_probability(self, p1, p2):
        lo, hi = sorted((p1, p2))
        if hi - lo < 1e-9:
            return
        assert tts(hi, 1.0, 0.99).value < tts(lo, 1.0, 0.99).value

    def test_error_propagation_finite(self):
        est = tts(0.4, 2.0, 0.99, std_error=0.05)
        assert est.value_std_error > 0.0
        assert math.isnan(tts(1.0, 1.0).value_std_error)

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.25, 0.5, 0.99, 1.0])
    def test_value_std_error_is_the_first_order_propagation(self, p):
        for std_error in (0.0, 0.01, 0.2):
            for desired in (0.5, 0.99):
                est = tts(p, 37.0, desired, std_error)
                want = tts_std_error(est, desired)
                assert est.value_std_error == want or (math.isnan(want)
                                                       and math.isnan(est.value_std_error))


def test_native_higher_degree_annealing_matches_reduced():
    """SA runs directly on the degree-3 polynomial and on its QUBO; the best
    read of each attains the same exhaustive ground energy."""
    mdp = build_hallway(6, 0.99)
    ham = compile_hamiltonian(mdp, CompilerConfig(3, 3.0))
    _, ground = exhaustive_ground_state(ham.polynomial)

    b0, b1 = default_beta_range(ham.polynomial)
    native = simulated_anneal(ham.polynomial,
                              AnnealSchedule(30, b0, b1, num_reads=300, rng_seed=1),
                              num_variables=12)
    assert min(r.energy for r in native) == pytest.approx(ground, abs=1e-9)

    qubo = quadratize(ham.polynomial, 5.0, num_variables=12)
    qb0, qb1 = default_beta_range(qubo.polynomial)
    reduced = simulated_anneal(qubo.polynomial,
                               AnnealSchedule(30, qb0, qb1, num_reads=1000, rng_seed=1),
                               num_variables=qubo.num_variables)
    # reduction is argmin-preserving, so the QUBO ground energy is the same
    assert min(r.energy for r in reduced) == pytest.approx(ground, abs=1e-9)


def test_solver_attains_ground_across_hallway_family():
    """Best SA read matches the exhaustive ground energy on every quadratized
    small instance at its minimal truncation order, including the 58-variable
    near-degenerate one."""
    from mdpspin.dp import minimal_truncation_order
    from mdpspin.pseudoboolean import all_assignment_energies

    for size, gamma in ((4, 0.9), (5, 0.9), (6, 0.6), (6, 0.8), (6, 0.99), (6, 0.7)):
        mdp = build_hallway(size, gamma)
        k = minimal_truncation_order(mdp)
        ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
        ground = float(all_assignment_energies(ham.polynomial, ham.num_variables).min())
        qubo = quadratize(ham.polynomial, 5.0, num_variables=ham.num_variables)
        b0, b1 = default_beta_range(qubo.polynomial)
        schedule = AnnealSchedule(60, b0, b1, num_reads=1500, rng_seed=0)
        reads = simulated_anneal(qubo.polynomial, schedule,
                                 num_variables=qubo.num_variables)
        best = min(r.energy for r in reads)
        assert best == pytest.approx(ground, abs=1e-9), (size, gamma, k)


def test_default_beta_range_ordering():
    poly = compile_hamiltonian(build_hallway(6, 0.6), CompilerConfig(2, 3.0)).polynomial
    b0, b1 = default_beta_range(poly)
    assert 0 < b0 < b1


def test_default_beta_range_of_a_constant_polynomial():
    # no flip changes the energy, so there is no move size to scale by
    assert default_beta_range(PseudoBooleanPolynomial(2, {(): 3.0})) == (0.1, 1.0)


@given(st.sampled_from([0.0, 1.0]), st.floats(allow_nan=False, allow_infinity=False),
       st.floats(0.0, 1e300, exclude_min=True), st.floats(0.0, 1.0, exclude_max=True))
@example(0.0, 0.0, 1.0, 0.999).via("a zero field")
@example(1.0, -0.0, 1e300, 0.999).via("a negative zero field")
@example(0.0, -1e300, 1e300, 0.5).via("exp overflows on an accepted move")
@example(1.0, 1e300, 1e300, 0.0).via("exp overflows on an accepted move")
@example(0.0, 1e-300, 1e-300, 0.0).via("an exponent that underflows")
@settings(max_examples=300, deadline=None)
def test_one_exponent_accept_rule_is_the_metropolis_rule(x, field, beta, u):
    # the annealer's field * (x * 2 beta - beta) against the Metropolis rule
    # u < exp(-beta * max(delta, 0)) with delta = field * (1 - 2x)
    x, field, u = np.array([x]), np.array([field]), np.array([u])
    beta = np.float64(beta)
    with np.errstate(over="ignore"):
        delta = field * (1.0 - 2.0 * x)
        exponent = field * (x * (2.0 * beta) - beta)
        if delta[0] > 0:
            assert exponent.tobytes() == (-beta * delta).tobytes()
        else:
            assert exponent[0] >= 0
        old = u < np.exp(-beta * np.maximum(delta, 0.0))
        new = u < np.exp(exponent)
    assert old[0] == new[0]


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(0, 0.1, 1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        AnnealSchedule(1, 0.1, 1.0, num_reads=0)
    # an infinite beta makes the Metropolis rule's -beta * 0 a NaN
    for start, end in [(0.2, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.2, math.nan)]:
        with pytest.raises(ValueError, match="betas must be finite"):
            AnnealSchedule(3, start, end)
