"""Tests for the tabular model, the hallway builder, and serialization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mdpspin.mdp import (Mdp, ParseError, PolicyAssignment, ValidationError,
                         build_hallway, flat_index, load_mdp, policy_rows, save_mdp)
from oracles import unflatten_index


def violations(*args) -> list[str]:
    """Every violation ``Mdp(*args)`` raises; empty when it builds."""
    try:
        Mdp(*args)
    except ValidationError as e:
        return e.violations
    return []


def test_hallway_passes_validation():
    mdp = build_hallway(6, 0.99)
    assert violations(mdp.transition, mdp.reward, mdp.discount) == []


def test_hallway_pinned_entries():
    mdp = build_hallway(6, 0.99)
    assert mdp.reward[1, 0, 0] == 3.0
    assert mdp.reward[4, 1, 5] == 1.0
    assert mdp.reward[0, 0, 0] == -10.0
    assert mdp.reward[5, 1, 5] == -10.0
    assert mdp.reward[0, 1, 1] == -10.0
    assert mdp.reward[5, 0, 4] == -10.0
    assert mdp.transition[2, 0, 1] == 0.96
    assert mdp.transition[0, 0, 0] == 0.96
    assert mdp.transition[5, 1, 5] == 0.96
    # interior step costs
    assert mdp.reward[2, 0, 1] == -1.0
    assert mdp.reward[3, 1, 4] == -1.0
    # untouched terminal-adjacent rewards default to zero
    assert mdp.reward[0, 0, 1] == 0.0
    assert mdp.reward[1, 1, 0] == 0.0


def test_hallway_zero_slip_is_deterministic():
    mdp = build_hallway(6, 0.99, slip=0.0)
    for s in range(6):
        for a in range(2):
            row = mdp.transition[s, a]
            assert (row == 1.0).sum() == 1
            assert row.sum() == 1.0


@given(n=st.integers(4, 10), gamma=st.floats(0.01, 0.99),
       slip=st.floats(0.0, 0.49))
@settings(max_examples=60, deadline=None)
def test_hallway_rows_sum_to_one_exactly(n, gamma, slip):
    mdp = build_hallway(n, gamma, slip)
    np.testing.assert_array_equal(mdp.transition.sum(axis=2), 1.0)


def test_hallway_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_hallway(3, 0.9)
    with pytest.raises(ValueError):
        build_hallway(6, 0.9, slip=0.5)
    with pytest.raises(ValueError, match="discount 1.0 outside"):
        build_hallway(6, 1.0)


def test_validate_reports_zero_row():
    mdp = build_hallway(6, 0.99)
    P = mdp.transition.copy()
    P[0, 0, :] = 0.0
    report = violations(P, mdp.reward, 0.99)
    assert len(report) == 1
    assert "P[0][0]" in report[0]


def test_validate_reports_bad_discount_and_rewards():
    mdp = build_hallway(6, 0.99)
    assert any("discount" in v for v in violations(mdp.transition, mdp.reward, 1.0))
    R = mdp.reward.copy()
    R[1, 0, 0] = np.inf
    assert any("not finite" in v for v in violations(mdp.transition, R, 0.99))


def test_validate_reports_nan_probabilities():
    # NaN is neither below 0, above 1 nor off in its row sum
    mdp = build_hallway(4, 0.9)
    P = mdp.transition.copy()
    P[1, 0, :] = np.nan
    assert violations(P, mdp.reward, 0.9) == [
        f"P[1][0][{sp}] is not finite" for sp in range(4)]


def test_validate_reports_out_of_range_probability():
    P = np.zeros((2, 1, 2))
    P[0, 0, 0] = 1.5
    P[0, 0, 1] = -0.5
    P[1, 0, 1] = 1.0
    report = violations(P, np.zeros((2, 1, 2)), 0.9)
    assert sum("outside [0, 1]" in v for v in report) == 2


@pytest.mark.parametrize("shape, missing", [((2, 0, 2), ["actions"]),
                                            ((0, 1, 0), ["states"]),
                                            ((0, 0, 0), ["states", "actions"])])
def test_validate_reports_an_empty_dimension(shape, missing):
    # an empty model would only fail later, inside a reduction over no entries
    assert violations(np.zeros(shape), np.zeros(shape), 0.9) == [
        f"transition tensor has shape {shape}: no {name}" for name in missing]


@pytest.mark.parametrize("transition, reward, report", [
    (np.ones((2, 2)), np.zeros((2, 2)),
     ["transition tensor has shape (2, 2), expected (S, A, S)"]),
    (np.full((2, 1, 2), 0.5), np.zeros((2, 1)),
     ["reward shape (2, 1) does not match transition shape (2, 1, 2)"]),
], ids=["rank-2-transition", "reward-shape"])
def test_validate_reports_a_malformed_shape(transition, reward, report):
    assert violations(transition, reward, 0.9) == report


@given(st.integers(0, 9), st.integers(0, 4), st.integers(1, 5))
def test_flat_index_round_trip(state, action, num_actions):
    action = action % num_actions
    fid = flat_index(state, action, num_actions)
    assert unflatten_index(fid, num_actions) == (state, action)


def test_flat_index_is_bijective():
    seen = {flat_index(s, a, 2) for s in range(6) for a in range(2)}
    assert seen == set(range(12))


class TestPolicyAssignment:
    def test_from_actions_and_feasibility(self):
        pol = PolicyAssignment.from_actions([0, 1, 0], 2)
        assert pol.is_feasible()
        assert list(pol.actions()) == [0, 1, 0]
        assert list(pol.interior_actions()) == [1]

    @pytest.mark.parametrize("actions, state", [([2, 0], 0), ([1, -1], 1), ([0.7, 1.9], 0)],
                             ids=["above-range", "negative", "fractional"])
    def test_from_actions_rejects_action_outside_range(self, actions, state):
        # an out-of-range action would set a bit of the next or previous state,
        # and truncating 0.7 and 1.9 would give the policy [0, 1]
        message = f"state {state} has action {actions[state]}, not an integer in [0, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolicyAssignment.from_actions(actions, 2)

    def test_infeasible_detection(self):
        pol = PolicyAssignment(np.array([1, 1, 0, 0, 0, 1], dtype=np.int8), 3, 2)
        assert not pol.is_feasible()
        with pytest.raises(ValueError):
            pol.actions()

    def test_rejects_non_binary(self):
        # an int8 cast would wrap 256 to 0 and truncate 0.5 to 0
        for bits in ([2, 0], [256, 1], [0.5, 1.0]):
            with pytest.raises(ValueError, match="^policy bits must be 0 or 1$"):
                PolicyAssignment(np.array(bits), 1, 2)

    def test_rejects_the_wrong_bit_count(self):
        with pytest.raises(ValueError, match=r"^expected 8 bits, got \(3,\)$"):
            PolicyAssignment(np.zeros(3, np.int8), 4, 2)

    def test_enumeration_counts(self):
        rows = policy_rows(6, 2, np.arange(64))
        assert rows.shape == (64, 6)
        # lexicographic, state 0 most significant: row i spells i in binary
        assert [int("".join(map(str, r)), 2) for r in rows] == list(range(64))
        assert policy_rows(3, 3, [5, 26]).tolist() == [[0, 1, 2], [2, 2, 2]]
        # more states than np.indices accepts dimensions
        assert policy_rows(70, 1, [0]).tolist() == [[0] * 70]


class TestSerialization:
    def test_round_trip_identity(self):
        mdp = build_hallway(6, 0.99)
        loaded = load_mdp(save_mdp(mdp))
        np.testing.assert_array_equal(loaded.transition, mdp.transition)
        np.testing.assert_array_equal(loaded.reward, mdp.reward)
        assert loaded.discount == mdp.discount
        assert loaded.name == mdp.name

    def test_missing_field_is_parse_error(self):
        import json

        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        del doc["discount"]
        with pytest.raises(ParseError, match="discount"):
            load_mdp(json.dumps(doc))

    def test_negative_probability_is_validation_error(self):
        import json

        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        doc["transition"][0][0][0] = -0.5
        with pytest.raises(ValidationError):
            load_mdp(json.dumps(doc))

    def test_nan_probability_is_validation_error(self):
        import json

        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        doc["transition"][1][0][2] = float("nan")
        text = json.dumps(doc)
        assert "NaN" in text
        with pytest.raises(ValidationError, match=r"P\[1\]\[0\]\[2\] is not finite"):
            load_mdp(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            load_mdp("{not json")

    @pytest.mark.parametrize("fields, message", [
        (None, "^document root must be an object$"),
        ({"transition": "abc"}, "^tensor field not numeric: "),
        ({"reward": [[0]]}, r"^field 'reward': shape \(1, 1\) != \(4, 2, 4\)$"),
    ], ids=["array-root", "non-numeric-tensor", "reward-shape"])
    def test_malformed_document_is_parse_error(self, fields, message):
        import json

        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        text = "[1, 2]" if fields is None else json.dumps({**doc, **fields})
        with pytest.raises(ParseError, match=message):
            load_mdp(text)

    def test_wrong_shape_is_parse_error(self):
        import json

        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        doc["num_states"] = 5
        with pytest.raises(ParseError, match="shape"):
            load_mdp(json.dumps(doc))


def test_mdp_tensors_are_immutable():
    mdp = build_hallway(6, 0.99)
    with pytest.raises(ValueError):
        mdp.transition[0, 0, 0] = 0.5
