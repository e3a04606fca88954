"""Hand-checked cases for the benchmark's reference computations.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import reference as ref
import run
import tracing


def hallway4():
    """hallway(4, gamma=0.9, slip=0.04) written out by hand."""
    P = np.zeros((4, 2, 4))
    R = np.zeros((4, 2, 4))
    P[0, 0, 0], P[0, 0, 1], P[0, 1, 0] = 0.96, 0.04, 1.0
    P[1, 0, 0], P[1, 0, 2], P[1, 1, 2], P[1, 1, 0] = 0.96, 0.04, 0.96, 0.04
    P[2, 0, 1], P[2, 0, 3], P[2, 1, 3], P[2, 1, 1] = 0.96, 0.04, 0.96, 0.04
    P[3, 1, 3], P[3, 1, 2], P[3, 0, 3] = 0.96, 0.04, 1.0
    R[1, :, 2] = R[2, :, 1] = -1.0
    R[1, 0, 0], R[2, 1, 3] = 3.0, 1.0
    R[0, 0, 0] = R[0, 1, 1] = R[3, 1, 3] = R[3, 0, 2] = -10.0
    return P, R, 0.9


def test_evaluate_terms_three_variable_truth_table():
    # 2 - x0 + 3 x0 x1 - 4 x0 x1 x2 + 0.5 x2 + 1.5 x1 x1
    monomials = [(), (0,), (0, 1), (0, 1, 2), (2,), (1, 1)]
    coeffs = [2.0, -1.0, 3.0, -4.0, 0.5, 1.5]
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    expected = [2.0, 1.0, 3.5, 5.5, 2.5, 1.5, 4.0, 2.0]
    assert ref.evaluate_terms(monomials, coeffs, rows).tolist() == expected


def test_evaluate_terms_rejects_out_of_range_variable():
    with pytest.raises(ValueError):
        ref.evaluate_terms([(0, 3)], [1.0], [(1, 1, 1)])


def test_hallway4_expected_reward_and_one_step_q():
    P, R, gamma = hallway4()
    assert np.allclose(ref.expected_reward(P, R),
                       [[-9.6, 0.0], [2.84, -0.96], [-0.96, 0.92], [0.0, -9.6]])
    policy = np.array([[1, 0, 1, 0]])
    q1 = ref.truncated_rollout_q(P, R, gamma, policy, 1)[0]
    assert np.allclose(q1, [[-9.49776, 0.0], [2.87312, -0.16512],
                            [1.49376, 1.02224], [0.0, -9.56688]])
    assert ref.compiled_energy(P, R, gamma, policy, 1) == pytest.approx([13.84064])
    q0 = ref.truncated_rollout_q(P, R, gamma, policy, 0)[0]
    assert np.allclose(q0, ref.expected_reward(P, R))


def test_value_iteration_single_state():
    # Q(a) = r_a + 0.5 * max Q: rewards 1 and 2 give Q = (3, 4)
    P = np.ones((1, 2, 1))
    R = np.array([[[1.0], [2.0]]])
    q, greedy = ref.value_iteration(P, R, 0.5)
    assert np.allclose(q, [[3.0, 4.0]])
    assert greedy.tolist() == [1]
    _, tied = ref.value_iteration(P, np.ones((1, 2, 1)), 0.5)
    assert tied.tolist() == [0]


def test_policies_and_bits():
    assert ref.all_policies(2, 3).tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1],
                                              [1, 2], [2, 0], [2, 1], [2, 2]]
    assert ref.policy_bits(np.array([[2, 0]]), 3).tolist() == [[0, 0, 1, 1, 0, 0]]


def test_fill_ancillas_chains_products():
    base = [(0, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)]
    full = ref.fill_ancillas(base, [(3, 0, 1), (4, 3, 2)], 5)
    assert full[:, 3].tolist() == [0, 1, 1, 0]
    assert full[:, 4].tolist() == [0, 0, 1, 0]


QUBO_TEXT = """c constant offset 1.5
p qubo 0 3 2 1
0 0 -2.0
2 2 0.5
0 1 4.0
"""


def test_read_qubo_text():
    num_variables, monomials, coeffs = ref.read_qubo_text(QUBO_TEXT)
    assert num_variables == 3
    assert monomials == [(), (0,), (2,), (0, 1)]
    assert coeffs == [1.5, -2.0, 0.5, 4.0]
    assert ref.evaluate_terms(monomials, coeffs, [(1, 1, 0)]).tolist() == [3.5]


@pytest.mark.parametrize("text", [
    QUBO_TEXT.replace("p qubo 0 3 2 1", "p qubo 0 3 2 2"),   # header count
    QUBO_TEXT + "0 1 2 4.0\n",                               # degree 3
    QUBO_TEXT.replace("2 2 0.5", "2 3 0.5"),                  # out of range
    QUBO_TEXT.replace("0 1 4.0", "1 0 4.0"),                  # i > j
    QUBO_TEXT.replace("p qubo 0 3 2 1\n", ""),                # no header
])
def test_read_qubo_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        ref.read_qubo_text(text)


def test_self_time_subtracts_the_union_of_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 2.0, "end": 4.0},
             {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},
             {"id": 3, "parent": 0, "start": 8.0, "end": 12.0}]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 4.0]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
