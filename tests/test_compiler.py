"""Compiler tests: coupling coefficients, walk sums, and the rollout oracle."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mdpspin import compiler, dp
from mdpspin.compiler import CompilerConfig, compile_hamiltonian
from mdpspin.dp import (minimal_truncation_order, policy_evaluation_exact, policy_rows,
                        truncated_q_table, value_iteration)
from mdpspin.errors import InstanceTooLargeError, NoTruncationError
from mdpspin.mdp import Mdp, PolicyAssignment, ValidationError, build_hallway
from mdpspin.pseudoboolean import DROP_TOL, ENERGY_MATCH_TOL, all_assignment_energies
from oracles import coupling_coefficient, dict_walk_sum, state_major_rollout


def two_state_cycle(reward=5.0, gamma=0.9):
    """Deterministic 2-state, 1-action cycle with a single nonzero reward."""
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    R = np.zeros((2, 1, 2))
    R[1, 0, 0] = reward
    return Mdp(P, R, gamma)


class TestCouplingCoefficient:
    def test_deterministic_cycle_hand_trace(self):
        mdp = two_state_cycle(reward=5.0, gamma=0.9)
        # only state 0 feeds pair (1, 0); closing reward is 5
        assert coupling_coefficient(mdp, [(1, 0)]) == pytest.approx(0.9 * 5.0)
        # two-step chain (0,0) -> (1,0): in-weight of state 0 is P[1,0,0] = 1
        assert coupling_coefficient(mdp, [(0, 0), (1, 0)]) == pytest.approx(0.81 * 5.0)

    def test_broken_walk_is_zero(self):
        mdp = two_state_cycle()
        assert coupling_coefficient(mdp, [(0, 0), (0, 0)]) == 0.0

    def test_order_one_matches_tensor_contraction(self):
        mdp = build_hallway(6, 0.99)
        P, R = mdp.transition, mdp.reward
        for s1 in range(6):
            for a1 in range(2):
                expected = 0.99 * P[:, :, s1].sum() * (P[s1, a1] * R[s1, a1]).sum()
                assert coupling_coefficient(mdp, [(s1, a1)]) == pytest.approx(expected)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            coupling_coefficient(two_state_cycle(), [(2, 0)])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            coupling_coefficient(two_state_cycle(), [])


class TestCompile:
    def test_zero_rewards_leave_only_penalty(self):
        mdp = build_hallway(6, 0.9)
        zero = Mdp(mdp.transition, np.zeros_like(mdp.reward), 0.9)
        ham = compile_hamiltonian(zero, CompilerConfig(3, 3.0))
        assert len(ham.objective) == 0
        assert ham.constant_offset == 0.0
        for row in policy_rows(6, 2, np.arange(64)):
            assert ham.polynomial.evaluate(PolicyAssignment.from_actions(row, 2).bits) == 0.0

    def test_degree_bounded_by_truncation_order(self):
        mdp = build_hallway(6, 0.99)
        for k in (1, 2, 3, 4):
            ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
            assert ham.objective.degree() <= k
            assert ham.polynomial.degree() == max(2, ham.objective.degree())

    def test_variable_ids_are_flat_pair_ids(self):
        ham = compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(2, 3.0))
        used = {v for mono in ham.polynomial.terms for v in mono}
        assert used == set(range(12))

    def test_constant_offset_is_expected_reward_sum(self):
        mdp = build_hallway(6, 0.99)
        ham = compile_hamiltonian(mdp, CompilerConfig(1, 3.0))
        assert ham.constant_offset == pytest.approx(-mdp.expected_reward().sum())

    def test_budget_exceeded(self, monkeypatch):
        # hallway(6) frontiers hold 12, 44 and 140 states at orders 1, 2 and 3
        monkeypatch.setattr(compiler, "FRONTIER_LIMIT", 100)
        compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(2, 3.0))
        with pytest.raises(InstanceTooLargeError, match="at order 3"):
            compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(3, 3.0))

    def test_invalid_mdp_rejected(self):
        mdp = build_hallway(6, 0.99)
        P = mdp.transition.copy()
        P[0, 0, :] = 0.0
        with pytest.raises(ValidationError):
            compile_hamiltonian(Mdp(P, mdp.reward, 0.99), CompilerConfig(2, 3.0))

    @pytest.mark.parametrize("strength", [0.0, -1.0, float("nan"), float("inf")])
    def test_penalty_strength_must_be_finite_and_positive(self, strength):
        with pytest.raises(ValueError, match="penalty strength must be finite and positive"):
            CompilerConfig(2, strength)

    def test_truncation_order_must_be_positive(self):
        with pytest.raises(ValueError, match="^truncation order must be >= 1$"):
            CompilerConfig(0)


@st.composite
def small_sparse_mdps(draw):
    """3 states x 2 actions; each pair reaches 2 distinct states.  Integer
    rewards and probabilities in twentieths keep grouped coefficients either
    exactly cancelled or far above the drop tolerance."""
    P = np.zeros((3, 2, 3))
    R = np.zeros_like(P)
    for s in range(3):
        for a in range(2):
            nxt = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
            w = draw(st.integers(1, 19)) / 20
            P[s, a, nxt] = (w, 1.0 - w)
            R[s, a, nxt] = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    return Mdp(P, R, draw(st.floats(0.1, 0.99)))


@given(mdp=small_sparse_mdps(), k=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_walk_sum_matches_brute_force_chain_sum(mdp, k):
    """Minus the coupling coefficients of every chain up to length K, grouped
    by the chain's set of pairs, is the compiled objective."""
    pairs = [(s, a) for s in range(mdp.num_states) for a in range(mdp.num_actions)]
    expected: dict[tuple[int, ...], float] = {}
    scale = 0.0
    for length in range(1, k + 1):
        for chain in product(pairs, repeat=length):
            c = coupling_coefficient(mdp, chain)
            mono = tuple(sorted({s * mdp.num_actions + a for s, a in chain}))
            expected[mono] = expected.get(mono, 0.0) - c
            scale += abs(c)
    terms = compile_hamiltonian(mdp, CompilerConfig(k)).objective.terms
    assert set(terms) == {m for m, c in expected.items() if abs(c) > DROP_TOL}
    for mono, coeff in terms.items():
        assert coeff == pytest.approx(expected[mono], abs=1e-12 * scale)


@given(bits=st.lists(st.integers(0, 1), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_penalty_value_and_feasibility(bits):
    penalty = compiler._penalty_polynomial(build_hallway(6, 0.99), 3.0)
    x = np.array(bits, dtype=np.int8)
    per_state = x.reshape(6, 2).sum(axis=1)
    expected = 3.0 * ((per_state - 1) ** 2).sum()
    assert penalty.evaluate(x) == pytest.approx(expected, abs=1e-12)
    feasible = PolicyAssignment(x, 6, 2).is_feasible()
    assert (penalty.evaluate(x) == 0.0) == feasible


class TestTruncatedQ:
    def test_order_zero_is_immediate_reward(self):
        mdp = build_hallway(6, 0.99)
        pol = PolicyAssignment.from_actions([1, 0, 0, 0, 1, 0], 2)
        np.testing.assert_allclose(truncated_q_table(mdp, pol, 0),
                                   mdp.expected_reward())

    def test_vanishing_discount_kills_policy_dependence(self):
        mdp = build_hallway(6, 1e-9)
        q_a = truncated_q_table(mdp, PolicyAssignment.from_actions([0] * 6, 2), 3)
        q_b = truncated_q_table(mdp, PolicyAssignment.from_actions([1] * 6, 2), 3)
        np.testing.assert_allclose(q_a, q_b, atol=1e-7)

    def test_infeasible_policy_rejected(self):
        mdp = build_hallway(6, 0.99)
        bad = PolicyAssignment(np.zeros(12, dtype=np.int8), 6, 2)
        with pytest.raises(ValueError):
            truncated_q_table(mdp, bad, 2)

    @pytest.mark.parametrize("policy", [
        pytest.param(PolicyAssignment.from_actions([1] * 6, 3), id="three-action-policy"),
        pytest.param(PolicyAssignment.from_actions([2] * 6, 3), id="action-2"),
        pytest.param(PolicyAssignment.from_actions([1] * 5, 2), id="five-state-policy"),
    ])
    def test_mismatched_policy_rejected(self, policy):
        # a flat gather would read an out-of-range action from the next state's pair
        with pytest.raises(ValueError, match=rf"{policy.num_states} states and "
                                             rf"{policy.num_actions} actions .* 6 states and 2"):
            truncated_q_table(build_hallway(6, 0.9), policy, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            truncated_q_table(build_hallway(6, 0.9), PolicyAssignment.from_actions([0] * 6, 2), -1)

    def test_matches_exact_policy_evaluation_in_the_limit(self):
        mdp = build_hallway(6, 0.99)
        pol = PolicyAssignment.from_actions([1, 0, 0, 0, 1, 0], 2)
        exact = policy_evaluation_exact(mdp, pol)
        k = 40
        bound = (0.99 ** (k + 1)) * 10.0 / (1 - 0.99)
        assert np.abs(truncated_q_table(mdp, pol, k) - exact).max() < bound


def random_sparse_mdp(seed, num_states=6, num_actions=3, successors=3, gamma=0.9):
    """Each pair reaches ``successors`` distinct states with Dirichlet(1, ..., 1)
    weights and standard normal rewards."""
    rng = np.random.default_rng(seed)
    P = np.zeros((num_states, num_actions, num_states))
    R = np.zeros_like(P)
    for s in range(num_states):
        for a in range(num_actions):
            nxt = rng.choice(num_states, size=successors, replace=False)
            P[s, a, nxt] = rng.dirichlet(np.ones(successors))
            R[s, a, nxt] = rng.normal(size=successors)
    return Mdp(P, R, gamma)


def assert_oracle_identity(mdp, k):
    """Compiled objective + offset equals minus the rollout-oracle sum."""
    ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
    energies = all_assignment_energies(ham.objective, ham.num_variables)
    scale = sum(abs(c) for c in ham.objective.terms.values()) + abs(ham.constant_offset)
    weights = 1 << np.arange(ham.num_variables)
    n, na = mdp.num_states, mdp.num_actions
    for row in policy_rows(n, na, np.arange(na ** n)):
        pol = PolicyAssignment.from_actions(row, na)
        walk_side = energies[pol.bits @ weights] + ham.constant_offset
        oracle_side = -truncated_q_table(mdp, pol, k).sum()
        assert walk_side == pytest.approx(oracle_side, abs=1e-12 * scale)


def test_oracle_identity_feasible_policies():
    mdp = build_hallway(6, 0.99)
    for k in (1, 2, 3):
        assert_oracle_identity(mdp, k)


@pytest.mark.parametrize("seed, k", [
    pytest.param(seed, k, id=f"random{seed}-K{k}") for seed in (0, 1) for k in (1, 2, 3, 4)
])
def test_oracle_identity_random_sparse_mdp(seed, k):
    assert_oracle_identity(random_sparse_mdp(seed), k)


def tiny_reward_mdp():
    """random_sparse_mdp(2) with rewards scaled by 1e-11: many walk-sum
    coefficients fall within the drop tolerance."""
    mdp = random_sparse_mdp(2)
    return Mdp(mdp.transition, mdp.reward * 1e-11, mdp.discount)


@pytest.mark.parametrize("build, k", [
    *(pytest.param(lambda seed=seed: random_sparse_mdp(seed), 4, id=f"random{seed}-K4")
      for seed in (0, 1, 2)),
    pytest.param(lambda: build_hallway(6, 0.9), 9, id="hallway6-K9"),
    pytest.param(lambda: build_hallway(12, 0.9), 8, id="hallway12-K8"),
    pytest.param(tiny_reward_mdp, 4, id="random2-tiny-rewards-K4"),
    pytest.param(lambda: build_hallway(40, 0.9), 3, id="hallway40-K3-two-mask-words"),
])
def test_walk_sum_is_the_dict_build(build, k):
    """The array frontier gives the dict frontier's objective and cost
    function, term for term, in order, with equal coefficients."""
    mdp = build()
    ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
    expected = dict_walk_sum(mdp, k)
    assert list(ham.objective.terms.items()) == list(expected.terms.items())
    full = expected.add(compiler._penalty_polynomial(mdp, 3.0))
    assert list(ham.polynomial.terms.items()) == list(full.terms.items())
    assert ham.objective.num_variables == mdp.num_pairs


def test_tiny_rewards_drop_coefficients():
    """Scaling the rewards by 1e-11 drops coefficients: the same walks give
    fewer terms than at full scale, and every kept one is past DROP_TOL."""
    objective = compile_hamiltonian(tiny_reward_mdp(), CompilerConfig(4)).objective
    assert len(objective) < len(compile_hamiltonian(random_sparse_mdp(2), CompilerConfig(4)).objective)
    assert all(abs(c) > DROP_TOL for c in objective.terms.values())


def test_tail_of_series_is_discount_bounded():
    """Adjacent truncation orders differ by at most the geometric tail bound."""
    mdp = build_hallway(6, 0.5)
    pol = PolicyAssignment.from_actions([1, 0, 0, 0, 1, 0], 2)
    k = 25
    a = truncated_q_table(mdp, pol, k).sum()
    b = truncated_q_table(mdp, pol, k + 1).sum()
    bound = (0.5 ** (k + 1)) * 10.0 * 12 / (1 - 0.5)
    assert abs(b - a) < bound


def dense_random_mdp(seed):
    """3-6 states, 2-3 actions, Dirichlet(0.5) transition rows, standard
    normal rewards and a discount in [0.5, 0.95], all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    num_states, num_actions = int(rng.integers(3, 7)), int(rng.integers(2, 4))
    P = rng.dirichlet(np.full(num_states, 0.5), size=(num_states, num_actions))
    R = rng.normal(size=P.shape)
    return Mdp(P, R, float(rng.uniform(0.5, 0.95)))


def test_extension_past_the_row_limit_is_refused_before_it_is_built(monkeypatch):
    """A dense random 8x3 model extends 1,179,648 rows at K=5, which compiles,
    and 6,280,128 at K=6, which is refused before ``_extend`` builds them."""
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(8), size=(8, 3))
    mdp = Mdp(P, rng.normal(size=P.shape), 0.9)
    extend, rows = compiler._extend, []

    def spy(pair, weight, mask, table):
        rows.append(int(table[1][pair].sum()))
        assert rows[-1] <= compiler.EXTENSION_LIMIT, f"extended {rows[-1]} rows"
        return extend(pair, weight, mask, table)

    monkeypatch.setattr(compiler, "_extend", spy)
    compile_hamiltonian(mdp, CompilerConfig(5))
    assert max(rows) == 1_179_648
    with pytest.raises(InstanceTooLargeError, match="walk extension of 6280128 rows passes "
                                                    "the limit of 2000000 at order 6"):
        compile_hamiltonian(mdp, CompilerConfig(6))


class TestMinimalTruncationOrder:
    def test_six_states_intermediate_discount(self):
        assert minimal_truncation_order(build_hallway(6, 0.8)) == 3

    def test_four_states(self):
        assert minimal_truncation_order(build_hallway(4, 0.9)) == 2

    def test_none_when_cap_too_small(self):
        with pytest.raises(NoTruncationError, match="no truncation order <= "):
            minimal_truncation_order(build_hallway(6, 0.9), k_max=1)

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_order_cap_below_one_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            minimal_truncation_order(build_hallway(6, 0.9), k_max=k_max)

    def test_too_large_instance_rejected(self):
        with pytest.raises(InstanceTooLargeError):
            minimal_truncation_order(build_hallway(17, 0.9))

    @pytest.mark.parametrize("num_states, gamma, k", [(14, 0.6, 6), (14, 0.9, 7),
                                                      (16, 0.9, 8)])
    def test_past_twelve_states(self, num_states, gamma, k):
        # the policy limit admits 2^16 policies: K ~ |S|/2 - 1 goes on past 12 states
        assert minimal_truncation_order(build_hallway(num_states, gamma)) == k

    def test_random_mdp_past_the_walk_budget(self):
        # the search compiles nothing, so a deep order costs no walk enumeration
        assert minimal_truncation_order(random_sparse_mdp(149)) == 7

    def test_single_action_model_is_order_one(self):
        # deterministic 3-state cycle: the one policy has no runner-up
        P = np.zeros((3, 1, 3))
        for s in range(3):
            P[s, 0, (s + 1) % 3] = 1.0
        R = np.zeros_like(P)
        R[2, 0, 0] = 1.0
        assert minimal_truncation_order(Mdp(P, R, 0.9)) == 1

    def test_invalid_mdp_rejected(self):
        mdp = build_hallway(6, 0.99)
        P = mdp.transition.copy()
        P[0, 0, :] = 0.0
        with pytest.raises(ValidationError):
            minimal_truncation_order(Mdp(P, mdp.reward, 0.99))

    def test_ground_state_is_the_whole_greedy_policy(self):
        """Wherever value iteration's greedy policy is unique by more than
        ENERGY_MATCH_TOL, the returned K's ground state is that policy at
        every state, the first and last included."""
        checked = 0
        for seed in range(40):
            mdp = dense_random_mdp(seed)
            q, greedy = value_iteration(mdp)
            runner_up, top = np.sort(q, axis=1)[:, -2:].T
            if not (top - runner_up > ENERGY_MATCH_TOL).all():
                continue
            try:
                k = minimal_truncation_order(mdp)
            except NoTruncationError:
                continue
            rows = policy_rows(mdp.num_states, mdp.num_actions,
                               np.arange(mdp.num_actions ** mdp.num_states))
            energies = [-truncated_q_table(mdp, PolicyAssignment.from_actions(row, mdp.num_actions),
                                           k).sum() for row in rows]
            assert np.array_equal(rows[np.argmin(energies)], greedy.actions()), f"seed {seed}"
            checked += 1
        assert checked >= 30

    def test_degenerate_ties_never_qualify(self):
        # zero rewards: every feasible assignment is a ground state at every K
        mdp = build_hallway(5, 0.9)
        zero = Mdp(mdp.transition, np.zeros_like(mdp.reward), 0.9)
        with pytest.raises(NoTruncationError, match="no truncation order <= "):
            minimal_truncation_order(zero, k_max=3)


def state_major_minimal_order(mdp, k_max):
    """``minimal_truncation_order`` scored over the state-major rollout."""
    _, greedy = value_iteration(mdp)
    actions = policy_rows(mdp.num_states, mdp.num_actions,
                          np.arange(mdp.num_actions ** mdp.num_states))
    rollout = state_major_rollout(mdp, actions)
    next(rollout)
    for k in range(1, k_max + 1):
        energies = -next(rollout).sum(axis=(1, 2))
        order_idx = np.argsort(energies, kind="stable")
        if len(order_idx) > 1 and energies[order_idx[1]] - energies[order_idx[0]] <= ENERGY_MATCH_TOL:
            continue
        if np.array_equal(actions[order_idx[0]], greedy.actions()):
            return k
    return None


@pytest.mark.parametrize("build, k_max", [
    *(pytest.param(lambda n=n, gamma=gamma: [build_hallway(n, gamma)], 10,
                   id=f"hallway{n}-{gamma}") for n in range(4, 13)
      for gamma in (0.6, 0.69, 0.7, 0.9, 0.99)),
    pytest.param(lambda: [dense_random_mdp(seed) for seed in range(40)], 8, id="random0-39"),
])
def test_pair_major_rollout_is_the_state_major_one(build, k_max):
    """The pair-major rollout scores every policy with the state-major
    rollout's energies, bit for bit, at K = 1..k_max, and gives the same
    truncated Q tables and minimal K.

    Order 0 is left out of the energy comparison: the state-major order-0
    table is a contiguous copy of the rewards, which numpy sums pairwise,
    while every later state-major table and every pair-major one is summed
    over its pairs in sequence.  The search never reads order 0.
    """
    for mdp in build():
        actions = policy_rows(mdp.num_states, mdp.num_actions,
                              np.arange(mdp.num_actions ** mdp.num_states))
        pair_major = dp._rollout(mdp, actions)
        state_major = state_major_rollout(mdp, actions)
        for k in range(k_max + 1):
            q, expected = next(pair_major), next(state_major)
            assert q.flags.c_contiguous and q.shape == (mdp.num_pairs, actions.shape[0])
            if k:
                assert (-q.sum(axis=0)).tobytes() == (-expected.sum(axis=(1, 2))).tobytes(), k
        for row in (actions[0], actions[-1]):
            policy = PolicyAssignment.from_actions(row, mdp.num_actions)
            tables = state_major_rollout(mdp, row[None, :])
            for k in range(k_max + 1):
                assert truncated_q_table(mdp, policy, k).tobytes() == next(tables)[0].tobytes(), k
        assert minimal_truncation_order(mdp, k_max=k_max) == state_major_minimal_order(mdp, k_max)
