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
import os
from dataclasses import dataclass
from typing import Callable

from .anneal import (DESIRED_PROBABILITY, AnnealSchedule, SaRead, default_beta_range,
                     simulated_anneal, success_probability, tts)
from .compiler import CompiledHamiltonian, CompilerConfig, compile_hamiltonian
from .dp import (QLearningConfig, best_policy_exhaustive, minimal_truncation_order,
                 q_learning, value_iteration)
from .errors import InstanceTooLargeError, NoTruncationError
from .mdp import HALLWAY_SLIP, Mdp, PolicyAssignment, build_hallway, terminal_states
from .pseudoboolean import (check_exhaustive_size, check_penalty, energies_match,
                           exhaustive_ground_state)
from .quadratize import (REDUCTION_PENALTY, QuboProblem, consistency_violations, project,
                         quadratize)
from .resources import ResourceReport, count_resources


@dataclass(frozen=True)
class ExperimentConfig:
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
    seed: int = 0
    num_qlearning_seeds: int = 20
    qlearning_episodes: int = QLearningConfig.num_episodes
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("sizes", "gammas", "sweep_grid", "out_dir"):
            if getattr(self, name) in ((), ""):
                raise ValueError(f"{name} must not be empty")
        for name in ("k_max", "num_qlearning_seeds", "num_reads", "num_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if min(self.sweep_grid) < 1:
            raise ValueError(f"sweep_grid must hold counts >= 1, got {self.sweep_grid}")
        if min(self.sizes) < 4:
            raise ValueError(f"sizes must hold state counts >= 4, got {self.sizes}")
        if not all(0.0 < g < 1.0 for g in self.gammas):
            raise ValueError(f"gammas must hold discounts in (0, 1), got {self.gammas}")
        for name in ("sizes", "gammas", "sweep_grid"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
        check_penalty("penalty strength", self.penalty_strength)
        check_penalty("reduction penalty", self.reduction_penalty)

    def as_dict(self, experiment: str) -> dict:
        """The fields, after the name of the ``experiment`` that ran them."""
        return {"experiment": experiment, **dataclasses.asdict(self)}


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


def prepare(mdp: Mdp, config: ExperimentConfig) -> Instance:
    """Pick K, compile, quadratize.

    K is ``config.truncation``, or the minimal order that recovers the
    DP-optimal policy when that is None (NoTruncationError when no
    K <= ``config.k_max`` does).
    """
    k = config.truncation
    if k is None:
        k = minimal_truncation_order(mdp, k_max=config.k_max)
    ham = compile_hamiltonian(mdp, CompilerConfig(k, config.penalty_strength))
    qubo = quadratize(ham.polynomial, config.reduction_penalty)
    return Instance(mdp, k, ham, qubo)


def _prepare_exhaustive(mdp: Mdp, config: ExperimentConfig) -> tuple[Instance, list, float]:
    """``prepare`` past the exhaustive limit's refusal, with the minimizers and
    minimum of the unreduced polynomial: the QUBO's ground energy on the rule that
    the reduction keeps it, false at ``M_OR=5`` on ``hallway(10, 0.9)`` K=5."""
    check_exhaustive_size(mdp.num_pairs)
    inst = prepare(mdp, config)
    return (inst, *exhaustive_ground_state(inst.ham.polynomial))


def _cells(config: ExperimentConfig, step: Callable[[Mdp], dict]) -> list[dict]:
    """One dict per grid hallway in instance-key order: its size, discount and
    ``status``, then ``step(mdp)``'s fields.  The status is ``ok``, or
    ``no-truncation`` or, past a size limit of the step, ``unavailable: <reason>``."""
    cells = []
    for size in sorted(config.sizes):
        for gamma in sorted(config.gammas):
            cell: dict = {"num_states": size, "gamma": gamma, "status": "ok"}
            try:
                cell.update(step(build_hallway(size, gamma, config.slip)))
            except InstanceTooLargeError as e:
                cell["status"] = f"unavailable: {e}"
            except NoTruncationError:
                cell["status"] = "no-truncation"
            cells.append(cell)
    return cells


def _anneal(inst: Instance, ground: float, config: ExperimentConfig,
            betas: tuple[float, float] | None = None
            ) -> tuple[AnnealSchedule, list[SaRead], SaRead, float, float]:
    """SA on the QUBO: schedule, reads, lowest-energy read, and the share of
    reads attaining ``ground`` with its standard error.  ``betas`` is the
    (start, end) ramp; the QUBO's ``default_beta_range`` when None."""
    beta0, beta1 = betas or default_beta_range(inst.qubo.polynomial)
    schedule = AnnealSchedule(config.num_sweeps, beta0, beta1,
                              num_reads=config.num_reads, rng_seed=config.seed)
    reads = simulated_anneal(inst.qubo.polynomial, schedule)
    return (schedule, reads, min(reads, key=lambda r: r.energy),
            *success_probability(reads, ground))


def _write(out_dir: str | None, filename: str, text: str) -> str | None:
    """Write to ``out_dir/filename`` and return the path; None without a directory."""
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_tables(config: ExperimentConfig, experiment: str,
                  tables: dict[str, tuple[list[str], list[list]]]) -> None:
    """Write each ``filename: (header, rows)`` CSV table, then the config JSON
    ``<experiment>_config.json``, to ``config.out_dir``; nothing without one."""
    files = {}
    for filename, (header, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        files[filename] = buf.getvalue()
    files[f"{experiment.replace('-', '_')}_config.json"] = json.dumps(
        config.as_dict(experiment), indent=1)
    for filename, text in files.items():
        _write(config.out_dir, filename, text)


def run_solve(config: ExperimentConfig, num_states: int, gamma: float) -> dict:
    """compile -> quadratize -> (exhaustive + SA) -> project -> DP comparison.

    Exhaustive search runs on the unreduced polynomial (``_prepare_exhaustive``).
    Agreement requires every exhaustive minimizer to be value iteration's
    greedy policy: feasible, with the same action at every state.  The
    ``interior`` fields show states 1..|S|-2 only.
    """
    inst, minimizers, ground = _prepare_exhaustive(
        build_hallway(num_states, gamma, config.slip), config)
    mdp, k, ham, qubo = inst.mdp, inst.truncation, inst.ham, inst.qubo
    _, greedy = value_iteration(mdp)
    vi_interior = _interior(greedy)
    policies = [PolicyAssignment(m, num_states, mdp.num_actions) for m in minimizers]

    schedule, _, best, p_s, p_err = _anneal(inst, ground, config)
    best_policy = inst.policy(best.assignment)
    record = {
        "experiment": "solve",
        "config": config.as_dict("solve"),
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
                       "agreement": all((p.bits == greedy.bits).all() for p in policies)},
        "sa": {"num_reads": config.num_reads, "num_sweeps": config.num_sweeps,
               "beta_start": schedule.beta_start, "beta_end": schedule.beta_end,
               "best_energy": best.energy,
               "best_attains_ground": bool(energies_match(best.energy, ground)),
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
    """Minimal truncation order per (|S|, gamma) cell; ``_cells`` marks a cell
    with none ``no-truncation``."""
    def step(mdp: Mdp) -> dict:
        return {"minimal_k": minimal_truncation_order(mdp, k_max=config.k_max)}

    rows = _cells(config, step)
    for r in rows:
        r.setdefault("minimal_k", None)
    _write_tables(config, "k-heatmap", {"k_heatmap.csv": (
        ["num_states", "gamma", "minimal_k", "status"],
        [[r["num_states"], r["gamma"],
          "" if r["minimal_k"] is None else r["minimal_k"], r["status"]] for r in rows])})
    return rows


def run_tts_sweep(config: ExperimentConfig) -> list[dict]:
    """Sweep-count scan per instance: ``rows`` of (sweeps, TTS estimate) and the
    ``optimal`` row, the first least finite TTS in grid order (None without one).

    Each sweep count anneals through ``_anneal`` on the cell's one
    ``default_beta_range``, and its effort is sweeps times the QUBO's
    variables.  A cell with no qualifying K is marked ``no-truncation``, one
    too large for the K search or the exhaustive ground state
    ``unavailable: <reason>``; neither gets TTS rows.
    """
    def step(mdp: Mdp) -> dict:
        inst, _, ground = _prepare_exhaustive(mdp, config)
        betas = default_beta_range(inst.qubo.polynomial)
        rows = []
        for ns in config.sweep_grid:
            *_, p, err = _anneal(inst, ground, dataclasses.replace(config, num_sweeps=ns), betas)
            rows.append((ns, tts(p, float(ns * inst.qubo.num_variables),
                                 DESIRED_PROBABILITY, err)))
        optimal = min((r for r in rows if r[1].is_finite), key=lambda r: r[1].value,
                      default=None)
        return {"truncation": inst.truncation, "variables": inst.qubo.num_variables,
                "ground_energy": ground, "rows": rows, "optimal": optimal}

    out = _cells(config, step)
    rows = [[i["num_states"], i["gamma"], i["truncation"], i["variables"], ns,
             est.success_probability, est.std_error, est.effort, est.value,
             est.value_std_error, est.status]
            for i in out if i["status"] == "ok" for ns, est in i["rows"]]
    summary = []
    for i in out:
        ns, est = i.get("optimal") or ("", None)
        summary.append([i["num_states"], i["gamma"], ns, est.value if est else ""])
    _write_tables(config, "tts-sweep", {
        "tts_sweep.csv": (["num_states", "gamma", "truncation", "variables", "num_sweeps",
                           "p_s", "p_s_stderr", "effort", "tts", "tts_stderr", "status"],
                          rows),
        "tts_sweep_summary.csv": (["num_states", "gamma", "optimal_num_sweeps",
                                   "optimal_tts"], summary)})
    return out


def run_resources(config: ExperimentConfig) -> list[dict]:
    """Counted |V| and |J| per instance.

    Every cell comes back with its status, as in ``run_tts_sweep``; only the
    ``ok`` cells get a ``report`` and a row of ``resources.csv``.
    """
    def step(mdp: Mdp) -> dict:
        inst = prepare(mdp, config)
        return {"report": count_resources(inst.qubo, truncation=inst.truncation,
                                          discount=mdp.discount, num_states=mdp.num_states,
                                          num_actions=mdp.num_actions)}

    out = _cells(config, step)
    _write_tables(config, "resources", {"resources.csv": (
        ["num_states", "gamma", *(f.name for f in dataclasses.fields(ResourceReport))],
        [[r["num_states"], r["gamma"], *dataclasses.astuple(r["report"])]
         for r in out if r["status"] == "ok"])})
    return out


def run_oracle_compare(config: ExperimentConfig, num_states: int, gamma: float) -> dict:
    """Pairwise interior-policy agreement across every solver family."""
    inst, minimizers, ground = _prepare_exhaustive(
        build_hallway(num_states, gamma, config.slip), config)
    mdp = inst.mdp
    _, greedy = value_iteration(mdp)
    vi = _interior(greedy)
    best_pol, _, _ = best_policy_exhaustive(mdp)
    exhaustive_dp = _interior(best_pol)
    _, _, best, _, _ = _anneal(inst, ground, config)

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
        "config": config.as_dict("oracle-compare"),
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

