"""Dynamic-programming oracle tests."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mdpspin import dp
from mdpspin.dp import (ENUMERATION_LIMIT, TIE_TOL, QLearningConfig, best_policy_exhaustive,
                        policy_evaluation_exact, q_learning, value_iteration)
from mdpspin.errors import InstanceTooLargeError
from mdpspin.mdp import Mdp, PolicyAssignment, build_hallway, policy_rows, terminal_states
from oracles import bellman_residual


def test_value_iteration_recovers_known_policy():
    _, greedy = value_iteration(build_hallway(6, 0.99))
    assert list(greedy.interior_actions()) == [0, 0, 0, 1]


def test_value_iteration_residual_below_tolerance():
    mdp = build_hallway(6, 0.99)
    q, _ = value_iteration(mdp, tol=1e-12)
    assert bellman_residual(mdp, q) < 1e-10


def test_vanishing_discount_maximizes_immediate_reward():
    mdp = build_hallway(6, 1e-9)
    _, greedy = value_iteration(mdp)
    er = mdp.expected_reward()
    chosen = er[np.arange(6), greedy.actions()]
    # ties in immediate reward may break either way under the tiny lookahead
    np.testing.assert_allclose(chosen, er.max(axis=1), atol=1e-8)


def test_value_iteration_matches_exhaustive_search():
    for gamma in (0.7, 0.99):
        mdp = build_hallway(6, gamma)
        _, greedy = value_iteration(mdp)
        best, _, _ = best_policy_exhaustive(mdp)
        np.testing.assert_array_equal(best.interior_actions(), greedy.interior_actions())


def test_value_iteration_non_convergence_raises():
    with pytest.raises(RuntimeError):
        value_iteration(build_hallway(6, 0.99), tol=1e-12, max_iters=3)


def test_greedy_invariant_under_reward_scaling():
    mdp = build_hallway(6, 0.99)
    scaled = Mdp(mdp.transition, 7.0 * mdp.reward, mdp.discount)
    _, a = value_iteration(mdp)
    _, b = value_iteration(scaled)
    np.testing.assert_array_equal(a.bits, b.bits)


class TestPolicyEvaluation:
    def test_zero_rewards_give_zero_values(self):
        mdp = build_hallway(5, 0.9)
        zero = Mdp(mdp.transition, np.zeros_like(mdp.reward), 0.9)
        pol = PolicyAssignment.from_actions([0, 1, 0, 1, 0], 2)
        np.testing.assert_allclose(policy_evaluation_exact(zero, pol), 0.0)

    def test_single_state_geometric_series(self):
        P = np.ones((1, 1, 1))
        R = np.full((1, 1, 1), 2.0)
        mdp = Mdp(P, R, 0.9)
        pol = PolicyAssignment.from_actions([0], 1)
        q = policy_evaluation_exact(mdp, pol)
        assert q[0, 0] == pytest.approx(2.0 / (1 - 0.9))

    def test_satisfies_fixed_point_pointwise(self):
        mdp = build_hallway(6, 0.99)
        pol = PolicyAssignment.from_actions([1, 0, 0, 0, 1, 0], 2)
        q = policy_evaluation_exact(mdp, pol)
        actions = pol.actions()
        chosen = q[np.arange(6), actions]
        backed = (mdp.transition * (mdp.reward + 0.99 * chosen[None, None, :])).sum(axis=2)
        assert np.abs(backed - q).max() < 1e-9

    def test_infeasible_rejected(self):
        mdp = build_hallway(6, 0.99)
        with pytest.raises(ValueError):
            policy_evaluation_exact(mdp, PolicyAssignment(np.zeros(12, dtype=np.int8), 6, 2))


def reference_q(mdp, policy):
    """The per-pair loop that filled the |S x A| system before it was batched."""
    n, na = mdp.num_states, mdp.num_actions
    actions = policy.actions()
    system = np.eye(n * na)
    for s in range(n):
        for a in range(na):
            for sp in range(n):
                p = mdp.transition[s, a, sp]
                if p:
                    system[s * na + a, sp * na + actions[sp]] -= mdp.discount * p
    return np.linalg.solve(system, mdp.expected_reward().reshape(-1)).reshape(n, na)


def reference_best(mdp):
    """Scores one policy at a time in lexicographic order; first maximum wins."""
    n, na = mdp.num_states, mdp.num_actions
    best_val, best_pol, scored = -np.inf, None, []
    for idx in range(na ** n):
        digits = [idx // na ** (n - 1 - s) % na for s in range(n)]
        pol = PolicyAssignment.from_actions(digits, na)
        total = float(reference_q(mdp, pol).sum())
        scored.append((total, pol))
        if total > best_val:
            best_val, best_pol = total, pol
    ties = [p for v, p in scored if abs(v - best_val) <= TIE_TOL and p is not best_pol]
    return best_pol, best_val, ties


def assert_same_search(got, expected):
    (best, total, ties), (ref_best, ref_total, ref_ties) = got, expected
    np.testing.assert_array_equal(best.bits, ref_best.bits)
    assert total == ref_total
    assert [t.bits.tolist() for t in ties] == [t.bits.tolist() for t in ref_ties]


@st.composite
def small_mdps(draw):
    n, na = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.dirichlet(np.ones(n), size=(n, na))
    P[rng.random((n, na, n)) < 0.3] = 0.0      # sparse rows, renormalized below
    P[:, :, 0] += P.sum(axis=2) == 0.0
    P /= P.sum(axis=2, keepdims=True)
    R = rng.normal(size=(n, na, n)) * draw(st.sampled_from([0.0, 1.0]))
    return Mdp(P, R, draw(st.floats(0.05, 0.95)))


class TestExhaustiveSearch:
    def test_yields_all_policies(self):
        rows = policy_rows(6, 2, np.arange(64))
        assert len({tuple(r) for r in rows}) == 64
        # zero rewards: every policy ties, so the search returns all 64 in order
        mdp = build_hallway(6, 0.9)
        best, total, ties = best_policy_exhaustive(Mdp(mdp.transition, 0 * mdp.reward, 0.9))
        assert total == 0.0
        assert [p.actions().tolist() for p in [best, *ties]] == rows.tolist()

    def test_too_large_raises(self):
        P = np.zeros((25, 2, 25))
        P[:, :, 0] = 1.0
        with pytest.raises(InstanceTooLargeError, match="enumeration limit"):
            best_policy_exhaustive(Mdp(P, np.zeros_like(P), 0.9))
        assert ENUMERATION_LIMIT == 2 ** 24

    def test_single_action_past_the_grid_dimension_cap(self):
        # a deterministic 70-state cycle paying 1 per step: Q = 1 / (1 - 0.9) per state
        P = np.roll(np.eye(70), 1, axis=1)[:, None, :]
        best, total, ties = best_policy_exhaustive(Mdp(P, np.ones_like(P), 0.9))
        assert best.actions().tolist() == [0] * 70
        assert total == 700.0 and ties == []

    @given(small_mdps())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_policy_loop(self, mdp):
        expected = reference_best(mdp)
        assert_same_search(best_policy_exhaustive(mdp), expected)
        np.testing.assert_array_equal(policy_evaluation_exact(mdp, expected[0]),
                                      reference_q(mdp, expected[0]))

    @pytest.mark.parametrize("per_batch", [1, 3])
    def test_batches_do_not_change_the_result(self, monkeypatch, per_batch):
        hall = build_hallway(5, 0.9)
        for mdp in (hall, Mdp(hall.transition, 0 * hall.reward, 0.9)):
            whole = best_policy_exhaustive(mdp)
            monkeypatch.setattr(dp, "_BATCH_FLOATS", per_batch * mdp.num_pairs ** 2)
            assert_same_search(best_policy_exhaustive(mdp), whole)
            monkeypatch.undo()

    def test_objective_is_exact_action_value_sum(self):
        mdp = build_hallway(4, 0.9)
        best, total, _ = best_policy_exhaustive(mdp)
        assert total == pytest.approx(policy_evaluation_exact(mdp, best).sum())

    def test_matches_value_iteration_on_small_instance(self):
        mdp = build_hallway(4, 0.9)
        best, _, _ = best_policy_exhaustive(mdp)
        _, greedy = value_iteration(mdp)
        np.testing.assert_array_equal(best.interior_actions(), greedy.interior_actions())


class TestQLearning:
    def test_no_episodes_leaves_zero_table(self):
        mdp = build_hallway(6, 0.99)
        q, greedy = q_learning(mdp, QLearningConfig(num_episodes=0),
                               terminal=terminal_states(mdp))
        np.testing.assert_array_equal(q, 0.0)
        np.testing.assert_array_equal(greedy.actions(), 0)

    def test_seeded_determinism(self):
        mdp = build_hallway(6, 0.99)
        cfg = QLearningConfig(num_episodes=200, rng_seed=7)
        q1, _ = q_learning(mdp, cfg, terminal=terminal_states(mdp))
        q2, _ = q_learning(mdp, cfg, terminal=terminal_states(mdp))
        np.testing.assert_array_equal(q1, q2)

    def test_deterministic_hallway_learns_optimal_policy(self):
        mdp = build_hallway(6, 0.99, slip=0.0)
        cfg = QLearningConfig(num_episodes=5000, rng_seed=1)
        _, greedy = q_learning(mdp, cfg, terminal=terminal_states(mdp))
        _, vi_greedy = value_iteration(mdp)
        np.testing.assert_array_equal(greedy.interior_actions(),
                                      vi_greedy.interior_actions())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            QLearningConfig(epsilon=1.5)

    def test_all_terminal_rejected(self):
        mdp = build_hallway(4, 0.9)
        with pytest.raises(ValueError):
            q_learning(mdp, QLearningConfig(num_episodes=1), terminal=range(4))
