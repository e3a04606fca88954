"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact dynamic programming is the oracle every criterion answers to.
"""

import math
import time

import numpy as np
import pytest

from mdpspin.anneal import tts
from mdpspin.compiler import CompilerConfig, compile_hamiltonian
from mdpspin.dp import (best_policy_exhaustive, minimal_truncation_order,
                        policy_evaluation_exact, policy_rows, q_learning, QLearningConfig,
                        truncated_q_table, value_iteration)
from mdpspin.experiments import ExperimentConfig, run_tts_sweep
from mdpspin.mdp import PolicyAssignment, build_hallway, terminal_states
from mdpspin.pseudoboolean import (PseudoBooleanPolynomial, all_assignment_energies,
                                   exhaustive_ground_state)
from mdpspin.quadratize import quadratize, rosenberg_penalty
from oracles import bellman_residual, minimized_over_ancillas


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c01_policy_correctness_full_ground_state():
    """Ground state over all 4096 assignments at K=3, M=3 is the DP optimum."""
    start = time.time()
    mdp = build_hallway(6, 0.99)
    ham = compile_hamiltonian(mdp, CompilerConfig(3, 3.0))
    minimizers, _ = exhaustive_ground_state(ham.polynomial)
    _, greedy = value_iteration(mdp)
    policies = [PolicyAssignment(m, 6, 2) for m in minimizers]
    feasible = all(p.is_feasible() for p in policies)
    match = feasible and all(
        list(p.interior_actions()) == [0, 0, 0, 1] for p in policies)
    vi_match = list(greedy.interior_actions()) == [0, 0, 0, 1]
    elapsed = time.time() - start
    ok = feasible and match and vi_match and len(minimizers) == 1 and elapsed < 10
    report(1, ok, f"K=3 ground state feasible+optimal (interior [0,0,0,1]), "
                  f"{elapsed:.2f}s")
    assert feasible and match and vi_match
    assert len(minimizers) == 1
    assert elapsed < 10


def test_c02_premature_truncation_is_symmetric():
    """K=2 ground state is the symmetric policy, wrong at the third interior state."""
    mdp = build_hallway(6, 0.99)
    ham = compile_hamiltonian(mdp, CompilerConfig(2, 3.0))
    minimizers, _ = exhaustive_ground_state(ham.polynomial)
    policies = [PolicyAssignment(m, 6, 2) for m in minimizers]
    sym = all(p.is_feasible() and list(p.interior_actions()) == [0, 0, 1, 1]
              for p in policies)
    _, greedy = value_iteration(mdp)
    differs_at_state_3 = greedy.actions()[3] != policies[0].actions()[3]
    ok = sym and differs_at_state_3 and len(minimizers) == 1
    report(2, ok, "K=2 ground state symmetric [0,0,1,1], differs from DP at state 3")
    assert sym and differs_at_state_3
    assert len(minimizers) == 1


SYMMETRIC = [0, 0, 1, 1]
ASYMMETRIC = [0, 0, 0, 1]


def interior_q_gap(gamma: float) -> float:
    """Exact-DP Q*(3, left) - Q*(3, right) on hallway(6, gamma): > 0 means the far pile wins."""
    q, _ = value_iteration(build_hallway(6, gamma))
    return float(q[3, 0] - q[3, 1])


def policy_crossover(lo: float, hi: float, tol: float = 1e-9) -> float:
    """Discount at which the interior Q-gap changes sign, by bisection on [lo, hi]."""
    assert interior_q_gap(lo) < 0.0 < interior_q_gap(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if interior_q_gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dp_interior_policy(gamma: float) -> list[int]:
    _, greedy = value_iteration(build_hallway(6, gamma))
    return [int(a) for a in greedy.interior_actions()]


def test_c03_truncation_phase_transition():
    """Minimal order steps from 2 to 3 across the exact-DP policy crossover.

    Below the crossover discount gamma* (~0.698) the DP optimum is the
    symmetric interior policy and order 2 resolves it; well above it the
    far-pile policy is optimal and order 3 is needed.  Just past gamma* the
    DP Q-gap in favour of the far pile is vanishingly small, so the least
    qualifying order spikes before settling at 3: gamma = 0.7 sits 0.002
    past gamma*, where orders 2-4 still ground in the symmetric policy.
    """
    start = time.time()
    assert dp_interior_policy(0.6) == SYMMETRIC
    assert dp_interior_policy(0.8) == ASYMMETRIC
    gamma_star = policy_crossover(0.6, 0.8)
    below = gamma_star - 0.005
    assert dp_interior_policy(below) == SYMMETRIC

    k_low = minimal_truncation_order(build_hallway(6, 0.6))
    k_below = minimal_truncation_order(build_hallway(6, below))
    k_high = minimal_truncation_order(build_hallway(6, 0.8))

    # gamma = 0.7: DP prefers the far pile by a Q-gap the order-2 walk sums
    # cannot see, so the compiled order-2 ground state stays symmetric.
    gap_edge = interior_q_gap(0.7)
    ham = compile_hamiltonian(build_hallway(6, 0.7), CompilerConfig(2, 3.0))
    minimizers, _ = exhaustive_ground_state(ham.polynomial)
    order2_edge = [[int(a) for a in PolicyAssignment(m, 6, 2).interior_actions()]
                   for m in minimizers]
    dp_edge = dp_interior_policy(0.7)
    k_edge = minimal_truncation_order(build_hallway(6, 0.7))
    elapsed = time.time() - start

    ok = (k_low == 2 and k_below == 2 and k_high == 3
          and dp_edge == ASYMMETRIC and 0.0 < gap_edge < 5e-3
          and order2_edge == [SYMMETRIC] and k_edge is not None and k_edge > 3)
    report(3, ok, f"DP crossover gamma*={gamma_star:.4f}; minimal K at 0.6 -> {k_low} and "
                  f"gamma*-0.005 -> {k_below} (want 2), 0.8 -> {k_high} (want 3), "
                  f"0.7 -> {k_edge} (want >3, DP gap {gap_edge:.1e}), {elapsed:.2f}s")
    assert k_low == 2
    assert k_below == 2
    assert k_high == 3
    assert dp_edge == ASYMMETRIC
    assert 0.0 < gap_edge < 5e-3
    assert order2_edge == [SYMMETRIC]
    assert k_edge is not None and k_edge > 3


def test_c04_heatmap_trend_tracks_half_state_count():
    start = time.time()
    ks = {}
    for size in (4, 6, 8):
        ks[size] = minimal_truncation_order(build_hallway(size, 0.9))
    elapsed = time.time() - start
    values = [ks[4], ks[6], ks[8]]
    nondecreasing = values == sorted(values)
    within = all(abs(ks[s] - s / 2) <= 1 for s in (4, 6, 8))
    ok = nondecreasing and within and elapsed < 600
    report(4, ok, f"minimal K at gamma=0.9: {ks} (|S|/2 within +/-1), {elapsed:.1f}s")
    assert nondecreasing and within
    assert elapsed < 600


def test_c05_walk_sum_matches_bellman_rollout():
    """Objective value + offset equals minus the rollout sum for all 64 policies."""
    mdp = build_hallway(6, 0.99)
    worst = 0.0
    for k in (1, 2, 3):
        ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
        for row in policy_rows(6, 2, np.arange(64)):
            pol = PolicyAssignment.from_actions(row, 2)
            lhs = ham.objective.evaluate(pol.bits) + ham.constant_offset
            rhs = -truncated_q_table(mdp, pol, k).sum()
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    report(5, ok, f"worst |walk-sum - rollout| over 64 policies, K in 1..3: {worst:.2e}")
    assert worst < 1e-8


def adequate_gadget_strength(poly):
    return sum(abs(c) for m, c in poly.terms.items() if len(m) >= 3) + 1.0


def test_c06_quadratization_preserves_values_and_argmins():
    start = time.time()
    # hallway instance: 12 policy bits, reduced with an adequacy-derived
    # gadget strength for the per-assignment check
    ham = compile_hamiltonian(build_hallway(6, 0.99), CompilerConfig(3, 3.0))
    direct = all_assignment_energies(ham.polynomial, 12)
    qubo = quadratize(ham.polynomial, adequate_gadget_strength(ham.polynomial),
                      num_variables=12)
    mins = minimized_over_ancillas(qubo)
    hallway_values_ok = bool(np.abs(mins - direct).max() < 1e-9)
    qubo_energies = all_assignment_energies(qubo.polynomial, qubo.registry.total_variables)
    qubo_argmins = {int(i) % (1 << 12)
                    for i in np.flatnonzero(qubo_energies <= qubo_energies.min() + 1e-9)}
    original_argmins = {int(i)
                        for i in np.flatnonzero(direct <= direct.min() + 1e-9)}
    hallway_argmin_ok = qubo_argmins == original_argmins
    # the pipeline default gadget strength must still preserve the argmin set
    default_qubo = quadratize(ham.polynomial, 5.0, num_variables=12)
    default_energies = all_assignment_energies(default_qubo.polynomial,
                                               default_qubo.registry.total_variables)
    default_argmins = {int(i) % (1 << 12)
                       for i in np.flatnonzero(default_energies
                                               <= default_energies.min() + 1e-9)}
    default_ok = default_argmins == original_argmins

    rng = np.random.default_rng(2024)
    random_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 9))
        poly = PseudoBooleanPolynomial(n)
        for _ in range(int(rng.integers(2, 11))):
            size = int(rng.integers(1, 5))
            poly.add_term(rng.integers(0, n, size=size), float(rng.normal()) * 3)
        values = all_assignment_energies(poly, n)
        q = quadratize(poly, adequate_gadget_strength(poly), num_variables=n)
        per_x = minimized_over_ancillas(q)
        if np.abs(per_x - values).max() >= 1e-9:
            random_ok = False
            break
        q_energies = all_assignment_energies(q.polynomial, q.registry.total_variables)
        q_argmins = {int(i) % (1 << n)
                     for i in np.flatnonzero(q_energies <= q_energies.min() + 1e-9)}
        if q_argmins != {int(i) for i in np.flatnonzero(values <= values.min() + 1e-9)}:
            random_ok = False
            break
    elapsed = time.time() - start
    ok = (hallway_values_ok and hallway_argmin_ok and default_ok and random_ok
          and elapsed < 120)
    report(6, ok, f"reduction exact on hallway K=3 and 200 random polynomials, "
                  f"{elapsed:.1f}s")
    assert hallway_values_ok and hallway_argmin_ok and default_ok and random_ok
    assert elapsed < 120


def test_c07_substitution_gadget_truth_table():
    gadget = rosenberg_penalty(0, 1, 2, 5.0)
    zero_cases = sum(1 for x in range(2) for y in range(2)
                     if gadget.evaluate([x, y, x * y]) == 0.0)
    penal_cases = sum(1 for x in range(2) for y in range(2)
                      if gadget.evaluate([x, y, 1 - x * y]) >= 5.0)
    ok = zero_cases == 4 and penal_cases == 4
    report(7, ok, "gadget penalty 0 on 4 consistent triples, >= M_OR on 4 others")
    assert zero_cases == 4
    assert penal_cases == 4


def test_c08_annealer_competence_at_low_discount():
    [cell] = run_tts_sweep(ExperimentConfig(sizes=(6,), gammas=(0.6,),
                                            sweep_grid=(1, 2, 3, 5, 7, 10),
                                            num_reads=1000, seed=2718))
    p_s = dict(cell["rows"])[2].success_probability
    has_finite = cell["optimal"] is not None
    n_star = cell["optimal"][0] if has_finite else None
    ok = p_s > 0.05 and has_finite and n_star is not None and n_star <= 10
    report(8, ok, f"gamma=0.6 quadratized: p_s(n_s=2)={p_s:.3f} (>0.05), "
                  f"n_s*={n_star} (<=10), finite TTS={has_finite}")
    assert p_s > 0.05
    assert has_finite
    assert n_star <= 10


def test_c09_time_to_solution_formula():
    fixed_point = tts(0.99, 7.25, 0.99)
    half = tts(0.5, 1.0, 0.99)
    expected = math.log(0.01) / math.log(0.5)
    ok = fixed_point.value == 7.25 and abs(half.value - expected) < 1e-12
    report(9, ok, f"TTS fixed point exact, TTS(0.5)/effort={half.value:.6f} "
                  f"within 1e-12 of {expected:.6f}")
    assert fixed_point.value == 7.25
    assert abs(half.value - expected) < 1e-12


def test_c10_dynamic_programming_convergence_and_agreement():
    grid_ok = True
    residual_worst = 0.0
    fixed_point_worst = 0.0
    for size in (4, 5, 6, 7, 8):
        for gamma in (0.6, 0.7, 0.8, 0.9, 0.99):
            mdp = build_hallway(size, gamma)
            q, greedy = value_iteration(mdp, tol=1e-12)
            residual_worst = max(residual_worst, bellman_residual(mdp, q))
            exact = policy_evaluation_exact(mdp, greedy)
            actions = greedy.actions()
            chosen = exact[np.arange(size), actions]
            backed = (mdp.transition * (mdp.reward + gamma * chosen[None, None, :])).sum(axis=2)
            fixed_point_worst = max(fixed_point_worst, float(np.abs(backed - exact).max()))
            best, _, _ = best_policy_exhaustive(mdp)
            if list(best.interior_actions()) != list(greedy.interior_actions()):
                grid_ok = False
    ok = residual_worst < 1e-10 and fixed_point_worst < 1e-9 and grid_ok
    report(10, ok, f"residual {residual_worst:.1e} < 1e-10, fixed-point error "
                   f"{fixed_point_worst:.1e} < 1e-9, exhaustive agreement on 25 cells")
    assert residual_worst < 1e-10
    assert fixed_point_worst < 1e-9
    assert grid_ok


def test_c11_q_learning_matches_dp_across_seeds():
    start = time.time()
    mdp = build_hallway(6, 0.99)
    _, greedy = value_iteration(mdp)
    target = list(greedy.interior_actions())
    hits = 0
    seeds = 20
    for seed in range(seeds):
        cfg = QLearningConfig(learning_rate=0.1, epsilon=0.1, num_episodes=20_000,
                              rng_seed=seed)
        _, learned = q_learning(mdp, cfg, terminal=terminal_states(mdp))
        if list(learned.interior_actions()) == target:
            hits += 1
    elapsed = time.time() - start
    rate = hits / seeds
    ok = rate >= 0.95 and elapsed < 300
    report(11, ok, f"Q-learning agreement {hits}/{seeds} seeds ({rate:.0%}), "
                   f"{elapsed:.0f}s")
    assert rate >= 0.95
    assert elapsed < 300


def test_c12_variable_counts_fit_linear_scaling():
    points = []
    for gamma in (0.6, 0.9):
        for size in (4, 5, 6, 7, 8):
            mdp = build_hallway(size, gamma)
            k = minimal_truncation_order(mdp)
            ham = compile_hamiltonian(mdp, CompilerConfig(k, 3.0))
            qubo = quadratize(ham.polynomial, 5.0, num_variables=ham.num_variables)
            used = {v for mono in qubo.polynomial.terms for v in mono}
            points.append((size * 2 * k, len(used)))
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = r2 > 0.9
    report(12, ok, f"|V| vs |SxA|*K linear fit R^2 = {r2:.3f} over 10 instances")
    assert r2 > 0.9
