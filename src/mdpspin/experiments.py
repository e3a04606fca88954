"""Experiment runners: the end-to-end solve pipeline and the grid sweeps.

Every runner starts from ``prepare``, which picks the truncation order K and
carries an MDP through compile and quadratize; the runners differ only in
what they read off the prepared instance.  Every runner emits plain data (CSV tables, JSON records) with the full
configuration embedded so a record can be reproduced bit for bit.  Rows are
ordered by instance key (size, then discount) regardless of execution order.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator

from .anneal import (ENERGY_MATCH_TOL, AnnealSchedule, SaRead, default_beta_range,
                     exhaustive_ground_state, simulated_anneal, success_probability,
                     tts_std_error, tts_sweep)
from .compiler import (CompiledHamiltonian, CompilerConfig, compile_hamiltonian,
                       minimal_truncation_order)
from .dp import QLearningConfig, best_policy_exhaustive, q_learning, value_iteration
from .errors import InstanceTooLargeError
from .mdp import HALLWAY_SLIP, Mdp, PolicyAssignment, build_hallway, terminal_states
from .quadratize import (REDUCTION_PENALTY, QuboProblem, consistency_violations, project,
                         quadratize)
from .resources import count_resources

EXPERIMENTS = ("solve", "k-heatmap", "tts-sweep", "resources", "oracle-compare")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "solve"
    sizes: tuple[int, ...] = (4, 5, 6, 7, 8)
    gammas: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9)
    slip: float = HALLWAY_SLIP
    truncation: int | None = None  # None -> minimal order per instance
    k_max: int = 8
    penalty_strength: float = CompilerConfig.penalty_strength
    reduction_penalty: float = REDUCTION_PENALTY
    num_sweeps: int = 20
    num_reads: int = 1000
    sweep_grid: tuple[int, ...] = (1, 2, 3, 5, 7, 10, 15, 20, 30, 50)
    desired_probability: float = 0.99
    seed: int = 0
    num_qlearning_seeds: int = 20
    qlearning_episodes: int = QLearningConfig.num_episodes
    match_rule: str = "energy"
    out_dir: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {', '.join(EXPERIMENTS)}")
        if self.match_rule not in ("energy", "policy"):
            raise ValueError("match_rule must be 'energy' or 'policy'")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _interior(policy: PolicyAssignment) -> list[int] | None:
    """Interior actions of a policy; None for an infeasible assignment."""
    return [int(a) for a in policy.interior_actions()] if policy.is_feasible() else None


@dataclass(frozen=True)
class Instance:
    """An MDP compiled at truncation order K and reduced to QUBO form."""

    mdp: Mdp
    truncation: int
    ham: CompiledHamiltonian
    qubo: QuboProblem

    def policy(self, assignment) -> PolicyAssignment:
        """The policy bits of a full QUBO assignment."""
        return PolicyAssignment(project(assignment, self.qubo.registry),
                                self.mdp.num_states, self.mdp.num_actions)


def prepare(mdp: Mdp, config: ExperimentConfig) -> Instance | None:
    """Pick K, compile, quadratize.

    K is ``config.truncation``, or the minimal order that recovers the
    DP-optimal policy when that is None; None is returned when no
    K <= ``config.k_max`` does.
    """
    k = config.truncation
    if k is None:
        k = minimal_truncation_order(mdp, k_max=config.k_max)
        if k is None:
            return None
    ham = compile_hamiltonian(mdp, CompilerConfig(k, config.penalty_strength))
    qubo = quadratize(ham.polynomial, config.reduction_penalty,
                      num_variables=ham.num_variables)
    return Instance(mdp, k, ham, qubo)


def _grid(config: ExperimentConfig) -> Iterator[tuple[int, float]]:
    """(size, gamma) cells in instance-key order."""
    for size in sorted(config.sizes):
        for gamma in sorted(config.gammas):
            yield size, gamma


def _anneal(inst: Instance, config: ExperimentConfig,
            betas: tuple[float, float] | None = None
            ) -> tuple[AnnealSchedule, list[SaRead], SaRead]:
    """SA on the QUBO: schedule, reads and lowest-energy read.  ``betas`` is the
    (start, end) ramp; the QUBO's ``default_beta_range`` when None."""
    beta0, beta1 = betas or default_beta_range(inst.qubo.polynomial)
    schedule = AnnealSchedule(config.num_sweeps, beta0, beta1,
                              num_reads=config.num_reads, rng_seed=config.seed)
    reads = simulated_anneal(inst.qubo.polynomial, schedule,
                             num_variables=inst.qubo.num_variables)
    return schedule, reads, min(reads, key=lambda r: r.energy)


def _write(out_dir: str | None, filename: str, text: str) -> str | None:
    """Write to ``out_dir/filename`` and return the path; None without a directory."""
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run_solve(config: ExperimentConfig, num_states: int, gamma: float) -> dict:
    """compile -> quadratize -> (exhaustive + SA) -> project -> DP comparison.

    Exhaustive search runs on the unreduced polynomial (policy bits only);
    its minimum also serves as the QUBO ground energy because the reduction
    preserves the minimum.  Agreement requires every exhaustive minimizer to
    be feasible with interior actions equal to value iteration's.
    """
    mdp = build_hallway(num_states, gamma, config.slip)
    inst = prepare(mdp, config)
    if inst is None:
        raise ValueError(f"no truncation order <= {config.k_max} recovers the "
                         f"optimal policy for |S|={num_states}, gamma={gamma}")
    k, ham, qubo = inst.truncation, inst.ham, inst.qubo
    _, greedy = value_iteration(mdp)
    vi_interior = _interior(greedy)

    minimizers, ground = exhaustive_ground_state(ham.polynomial, ham.num_variables)
    policies = [PolicyAssignment(m, num_states, mdp.num_actions) for m in minimizers]

    schedule, reads, best = _anneal(inst, config)
    best_policy = inst.policy(best.assignment)
    if config.match_rule == "energy":
        p_s, p_err = success_probability(reads, ground)
    else:
        target = minimizers[0] if len(minimizers) == 1 else None
        if target is None:
            p_s, p_err = math.nan, math.nan
        else:
            p_s, p_err = success_probability(reads, ground, match_rule="policy",
                                             target_bits=target,
                                             base_count=ham.num_variables)
    record = {
        "experiment": "solve",
        "config": config.as_dict(),
        "instance": {"num_states": num_states, "gamma": gamma, "slip": config.slip,
                     "truncation": k, "penalty_strength": config.penalty_strength,
                     "reduction_penalty": config.reduction_penalty},
        "compile": {"objective_terms": len(ham.objective), "degree": ham.polynomial.degree(),
                    "constant_offset": ham.constant_offset},
        "qubo": {"variables": qubo.num_variables,
                 "ancillas": qubo.registry.num_ancillas,
                 "terms": len(qubo.polynomial)},
        "oracle": {"vi_interior": vi_interior},
        "exhaustive": {"ground_energy": ground,
                       "num_minimizers": len(minimizers),
                       "all_feasible": all(p.is_feasible() for p in policies),
                       "interior": _interior(policies[0]),
                       "agreement": all(_interior(p) == vi_interior for p in policies)},
        "sa": {"num_reads": config.num_reads, "num_sweeps": config.num_sweeps,
               "beta_start": schedule.beta_start, "beta_end": schedule.beta_end,
               "best_energy": best.energy,
               "best_attains_ground": bool(abs(best.energy - ground) <= ENERGY_MATCH_TOL),
               "best_feasible": best_policy.is_feasible(),
               "best_consistency_violations":
                   consistency_violations(best.assignment, qubo.registry),
               "best_interior": _interior(best_policy),
               "success_probability": p_s,
               "success_std_error": p_err},
    }
    _write(config.out_dir, f"solve_s{num_states}_g{gamma}_k{k}.json",
           json.dumps(record, indent=1))
    return record


def run_k_heatmap(config: ExperimentConfig) -> list[dict]:
    """Minimal truncation order per (|S|, gamma) cell."""
    rows: list[dict] = []
    for size, gamma in _grid(config):
        mdp = build_hallway(size, gamma, config.slip)
        cell: dict = {"num_states": size, "gamma": gamma}
        try:
            k = minimal_truncation_order(mdp, k_max=config.k_max)
            cell["minimal_k"] = k
            cell["status"] = "ok" if k is not None else "not-found"
        except InstanceTooLargeError as e:
            cell["minimal_k"] = None
            cell["status"] = f"unavailable: {e}"
        rows.append(cell)
    table = _csv_text(
        ["num_states", "gamma", "minimal_k", "status"],
        [[r["num_states"], r["gamma"],
          "" if r["minimal_k"] is None else r["minimal_k"], r["status"]] for r in rows],
    )
    _write(config.out_dir, "k_heatmap.csv", table)
    _write(config.out_dir, "k_heatmap_config.json", json.dumps(config.as_dict(), indent=1))
    return rows


def run_tts_sweep(config: ExperimentConfig) -> list[dict]:
    """Sweep-count scan per instance, reporting TTS rows and the optimum.

    A cell with no qualifying K is marked ``no-truncation``, one too large
    for the K search or the exhaustive ground state ``unavailable: <reason>``;
    neither gets TTS rows.
    """
    out: list[dict] = []
    for size, gamma in _grid(config):
        try:
            inst = prepare(build_hallway(size, gamma, config.slip), config)
            if inst is None:
                out.append({"num_states": size, "gamma": gamma, "status": "no-truncation"})
                continue
            ham, qubo = inst.ham, inst.qubo
            # ground energy of the QUBO equals the unreduced minimum
            ground = exhaustive_ground_state(ham.polynomial, ham.num_variables)[1]
        except InstanceTooLargeError as e:
            out.append({"num_states": size, "gamma": gamma, "status": f"unavailable: {e}"})
            continue
        result = tts_sweep(qubo.polynomial, ground, config.sweep_grid,
                           config.num_reads, config.desired_probability,
                           rng_seed=config.seed, num_variables=qubo.num_variables)
        out.append({"num_states": size, "gamma": gamma, "truncation": inst.truncation,
                    "variables": qubo.num_variables, "ground_energy": ground,
                    "result": result, "status": "ok"})
    rows = []
    for item in out:
        if item["status"] != "ok":
            continue
        for row in item["result"].rows:
            est = row.estimate
            rows.append([item["num_states"], item["gamma"], item["truncation"],
                         item["variables"], row.num_sweeps,
                         est.success_probability, est.std_error, est.effort,
                         est.value, tts_std_error(est), est.status])
    table = _csv_text(
        ["num_states", "gamma", "truncation", "variables", "num_sweeps",
         "p_s", "p_s_stderr", "effort", "tts", "tts_stderr", "status"], rows)
    _write(config.out_dir, "tts_sweep.csv", table)
    summary = _csv_text(
        ["num_states", "gamma", "optimal_num_sweeps", "optimal_tts"],
        [[i["num_states"], i["gamma"],
          i["result"].optimal_num_sweeps if i["status"] == "ok" else "",
          i["result"].optimal.estimate.value
          if i["status"] == "ok" and i["result"].optimal else ""]
         for i in out])
    _write(config.out_dir, "tts_sweep_summary.csv", summary)
    _write(config.out_dir, "tts_sweep_config.json", json.dumps(config.as_dict(), indent=1))
    return out


def run_resources(config: ExperimentConfig) -> list[dict]:
    """Counted |V| and |J| per instance, one CSV row each.

    Cells with no qualifying K, or too large for the K search, are skipped.
    """
    rows: list[dict] = []
    for size, gamma in _grid(config):
        try:
            inst = prepare(build_hallway(size, gamma, config.slip), config)
        except InstanceTooLargeError:
            continue
        if inst is None:
            continue
        report = count_resources(inst.qubo, truncation=inst.truncation, discount=gamma,
                                 num_states=size, num_actions=inst.mdp.num_actions)
        rows.append({"num_states": size, "gamma": gamma, "report": report})
    table = _csv_text(
        ["num_states", "gamma", "truncation", "base_variables",
         "logical_variables", "coefficient_count", "fit_value",
         "qaoa_ancilla", "qaoa_worst_log2"],
        [[r["num_states"], r["gamma"], r["report"].truncation,
          r["report"].base_variables, r["report"].logical_variables,
          r["report"].coefficient_count, r["report"].fit_value,
          r["report"].qaoa_gate_volume_ancilla.value,
          r["report"].qaoa_gate_volume_worst.log2] for r in rows])
    _write(config.out_dir, "resources.csv", table)
    _write(config.out_dir, "resources_config.json", json.dumps(config.as_dict(), indent=1))
    return rows


def run_oracle_compare(config: ExperimentConfig, num_states: int, gamma: float) -> dict:
    """Pairwise interior-policy agreement across every solver family."""
    mdp = build_hallway(num_states, gamma, config.slip)
    inst = prepare(mdp, config)
    if inst is None:
        raise ValueError("no suitable truncation order; pass one explicitly")
    _, greedy = value_iteration(mdp)
    vi = _interior(greedy)
    best_pol, _, _ = best_policy_exhaustive(mdp)
    exhaustive_dp = _interior(best_pol)

    minimizers, ground = exhaustive_ground_state(inst.ham.polynomial,
                                                 inst.ham.num_variables)
    _, _, best = _anneal(inst, config)

    terminals = terminal_states(mdp)
    q_hits = 0
    for i in range(config.num_qlearning_seeds):
        cfg = QLearningConfig(num_episodes=config.qlearning_episodes,
                              rng_seed=config.seed + i)
        _, q_greedy = q_learning(mdp, cfg, terminal=terminals)
        if _interior(q_greedy) == vi:
            q_hits += 1
    q_rate = q_hits / config.num_qlearning_seeds

    columns = {
        "value_iteration": vi,
        "exhaustive_policy_search": exhaustive_dp,
        "hamiltonian_ground_state": _interior(
            PolicyAssignment(minimizers[0], num_states, mdp.num_actions)),
        "simulated_annealing": _interior(inst.policy(best.assignment)),
    }
    agreement = {
        f"{a}|{b}": (columns[a] is not None and columns[a] == columns[b])
        for a in columns for b in columns if a < b
    }
    record = {
        "experiment": "oracle-compare",
        "config": config.as_dict(),
        "instance": {"num_states": num_states, "gamma": gamma, "slip": config.slip,
                     "truncation": inst.truncation},
        "interior_policies": columns,
        "agreement": agreement,
        "qlearning": {"seeds": config.num_qlearning_seeds,
                      "episodes": config.qlearning_episodes,
                      "agreement_rate_vs_vi": q_rate},
        "energies": {"hamiltonian_ground": ground,
                     "sa_best": best.energy},
    }
    _write(config.out_dir, f"oracle_compare_s{num_states}_g{gamma}.json",
           json.dumps(record, indent=1))
    return record

