"""The benchmark's three workloads: set-up, one timed round, and its checks.

A round calls the library's public functions in the order the experiment
runners chain them, wrapping each call in a tracer span.  Every round
attempts the same operations, so the share of failed operations is the same
in every run.  The checks compare each round's outputs with ``reference``,
which shares no code with the library; they run outside the timed round.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from mdpspin import (AnnealSchedule, CompiledHamiltonian, CompilerConfig, Mdp,
                     PolicyAssignment, QuboProblem, ResourceReport, TtsEstimate,
                     all_assignment_energies, build_hallway, compile_hamiltonian,
                     count_resources, default_beta_range, minimal_truncation_order,
                     quadratize, simulated_anneal, success_probability, to_qubo_text,
                     tts, value_iteration)

import reference as ref

K_MAX = 8
DESIRED_PROBABILITY = 0.99
# energies match when they differ by at most this share of the sum of |coefficients|
REL_TOL = 1e-9


@dataclass(frozen=True)
class AnnealCase:
    label: str
    num_states: int
    gamma: float
    order: int
    reads: int
    sweeps: tuple[int, ...]
    in_tts: bool            # part of the sweep grid that tts99_s minimises over
    rng_seed: int | None    # None: the run's --seed
    known_fault: bool


ANNEAL_CASES = (
    # 25 QUBO variables, p_s ~ 0.25 at 5 sweeps: TTS is finite, and at 2000
    # reads the binomial error of p_s moves tts99_s by about 4.5% (README)
    AnnealCase("small", 6, 0.99, 3, 2000, (3, 5, 10), True, None, False),
    # 123 QUBO variables.  Its unreduced minimum is an infeasible assignment and
    # reads fall below that minimum (CHANGES.md FOUND lines), so this batch fails
    # its checks; a fixed annealer seed makes it fail on every run.  With seed 0
    # the first read below the minimum is read 135; 150 reads keep it and keep
    # the round short enough for a run to time about ten of them
    AnnealCase("large", 10, 0.9, 5, 150, (40,), False, 0, True),
)
# the two faults on the large case show only as these checks failing
FAULT_SYMPTOMS = frozenset({"ground_is_best_policy", "minimiser_matches_vi",
                            "no_read_below_unreduced_min"})

# compile dominates the deep hallway, quadratize the random MDP
QUBO_CASES = (("deep", 9), ("random", 4))
RANDOM_SHAPE = (6, 3, 3)    # states, actions, successors per pair
RANDOM_GAMMA = 0.9

# both sides of each size's policy crossover, with the costly cells just past it
KSEARCH_CELLS = ((6, 0.69), (6, 0.7), (6, 0.8), (8, 0.69), (8, 0.7), (8, 0.8),
                 (10, 0.69), (10, 0.72), (10, 0.8))


@dataclass
class Operation:
    """One checked unit of work and the names of the checks it failed."""

    name: str
    failures: list[str]
    known_fault: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def correct(self) -> bool:
        """False when a check outside the known fault's symptoms failed."""
        allowed = FAULT_SYMPTOMS if self.known_fault else frozenset()
        return set(self.failures) <= allowed


@dataclass
class RoundResult:
    outputs: dict
    measures: dict[str, float] = field(default_factory=dict)


def random_mdp(seed: int, tracer) -> Mdp:
    """Sparse random MDP: each pair reaches a few distinct successors with
    Dirichlet weights and standard normal rewards."""
    num_states, num_actions, successors = RANDOM_SHAPE
    rng = np.random.default_rng(seed)
    transition = np.zeros((num_states, num_actions, num_states))
    reward = np.zeros_like(transition)
    for s in range(num_states):
        for a in range(num_actions):
            nxt = rng.choice(num_states, size=successors, replace=False)
            transition[s, a, nxt] = rng.dirichlet(np.ones(successors))
            reward[s, a, nxt] = rng.normal(size=successors)
    with tracer.span("mdp.build", "random"):
        return Mdp(transition, reward, RANDOM_GAMMA, name=f"random-seed{seed}")


def setup(workload: str, seed: int, tracer) -> dict[str, Mdp]:
    """Build the workload's MDPs; everything the timed rounds take as input."""
    specs = {
        "anneal": [(c.label, c.num_states, c.gamma) for c in ANNEAL_CASES],
        "qubo-build": [("deep", 6, 0.9)],
        "k-search": [(f"hallway({n},{g})", n, g) for n, g in KSEARCH_CELLS],
    }[workload]
    mdps = {}
    for label, num_states, gamma in specs:
        with tracer.span("mdp.build", label):
            mdps[label] = build_hallway(num_states, gamma)
    if workload == "qubo-build":
        mdps["random"] = random_mdp(seed, tracer)
    return mdps


# ---------------------------------------------------------------- anneal

class Batch(NamedTuple):
    sweeps: int
    reads: list
    seconds: float
    estimate: TtsEstimate


class AnnealOutput(NamedTuple):
    ham: CompiledHamiltonian
    qubo: QuboProblem
    ground: float
    ground_index: int
    greedy: PolicyAssignment
    batches: list[Batch]


def _anneal_round(mdps: dict[str, Mdp], seed: int, tracer) -> RoundResult:
    outputs = {}
    for case in ANNEAL_CASES:
        mdp, label = mdps[case.label], case.label
        with tracer.span("compiler.compile", label):
            ham = compile_hamiltonian(mdp, CompilerConfig(case.order))
        with tracer.span("quadratize.reduce", label):
            qubo = quadratize(ham.polynomial, num_variables=ham.num_variables)
        with tracer.span("pseudoboolean.enumerate", label):
            energies = all_assignment_energies(ham.polynomial, ham.num_variables)
            ground_index = int(energies.argmin())
            ground = float(energies[ground_index])
        del energies
        with tracer.span("dp.value_iteration", label):
            _, greedy = value_iteration(mdp)
        with tracer.span("anneal.beta_range", label):
            beta_start, beta_end = default_beta_range(qubo.polynomial)
        rng_seed = seed if case.rng_seed is None else case.rng_seed
        batches = []
        for sweeps in case.sweeps:
            schedule = AnnealSchedule(sweeps, beta_start, beta_end,
                                      num_reads=case.reads, rng_seed=rng_seed)
            with tracer.span("anneal.sa", label):
                start = perf_counter()
                reads = simulated_anneal(qubo.polynomial, schedule,
                                         num_variables=qubo.num_variables)
                seconds = perf_counter() - start
            with tracer.span("anneal.success", label):
                p_s, std_error = success_probability(reads, ground)
            # effort is the measured seconds per read, i.e. sweeps * variables
            # over the measured flip rate
            with tracer.span("anneal.tts", label):
                estimate = tts(p_s, seconds / case.reads, DESIRED_PROBABILITY, std_error)
            batches.append(Batch(sweeps, reads, seconds, estimate))
        outputs[label] = AnnealOutput(ham, qubo, ground, ground_index, greedy, batches)

    values = outputs.values()
    measures: dict[str, float] = {
        "compiler.objective_terms": sum(len(o.ham.objective) for o in values),
        "quadratize.ancillas": sum(o.qubo.registry.num_ancillas for o in values),
        "quadratize.qubo_terms": sum(len(o.qubo.polynomial) for o in values),
    }
    total_flips = total_seconds = 0.0
    for case in ANNEAL_CASES:
        out = outputs[case.label]
        flips = sum(case.reads * b.sweeps * out.qubo.num_variables for b in out.batches)
        seconds = sum(b.seconds for b in out.batches)
        measures[f"anneal.flips_per_s.{case.label}"] = flips / seconds
        total_flips += flips
        total_seconds += seconds
        if case.in_tts:
            for b in out.batches:
                measures[f"tts_s@{b.sweeps}"] = b.estimate.value
                measures[f"p_success@{b.sweeps}"] = b.estimate.success_probability
    measures["anneal.sa_flips_per_s"] = total_flips / total_seconds
    return RoundResult(outputs, measures)


def _check_anneal(mdps: dict[str, Mdp], result: RoundResult) -> list[Operation]:
    ops = []
    for case in ANNEAL_CASES:
        ham, qubo, ground, ground_index, greedy, batches = result.outputs[case.label]
        mdp = mdps[case.label]
        P, R, gamma = mdp.transition, mdp.reward, mdp.discount
        num_states, num_actions = mdp.num_states, mdp.num_actions
        tol = REL_TOL * _scale(ham.polynomial)
        actions = ref.all_policies(num_states, num_actions)
        # the polynomial leaves out the order-0 offset, -sum r(s, a)
        best = (ref.compiled_energy(P, R, gamma, actions, case.order).min()
                + ref.expected_reward(P, R).sum())
        _, ref_greedy = ref.value_iteration(P, R, gamma)

        failures = []
        if abs(ground - best) > tol:
            failures.append("ground_is_best_policy")
        rows = ((ground_index >> np.arange(num_states * num_actions)) & 1).reshape(
            num_states, num_actions)
        if not ((rows.sum(axis=1) == 1).all()
                and np.array_equal(rows.argmax(axis=1)[1:-1], ref_greedy[1:-1])):
            failures.append("minimiser_matches_vi")
        if not np.array_equal(greedy.bits.reshape(num_states, num_actions).argmax(axis=1),
                              ref_greedy):
            failures.append("value_iteration_matches")

        monomials, coeffs = _terms(qubo.polynomial)
        qubo_tol = REL_TOL * _scale(qubo.polynomial)
        for batch in batches:
            batch_failures = list(failures)
            assignments = np.array([r.assignment for r in batch.reads])
            energies = np.array([r.energy for r in batch.reads])
            if (assignments.shape[1] != qubo.num_variables
                    or np.abs(ref.evaluate_terms(monomials, coeffs, assignments)
                              - energies).max() > qubo_tol):
                batch_failures.append("read_energy")
            if energies.min() < ground - tol:
                batch_failures.append("no_read_below_unreduced_min")
            if case.in_tts and not batch.estimate.is_finite:
                batch_failures.append("tts_finite")
            ops.append(Operation(f"{case.label}@{batch.sweeps}", batch_failures,
                                 case.known_fault))
    return ops


def _summarize_anneal(measures: list[dict]) -> dict[str, float]:
    """tts99_s is the least, over the sweep grid, of the median TTS; p_success
    is the success probability at that sweep count."""
    grid = sorted(int(k.split("@")[1]) for k in measures[0] if k.startswith("tts_s@"))
    medians = {ns: statistics.median(m[f"tts_s@{ns}"] for m in measures) for ns in grid}
    finite = [ns for ns in grid if np.isfinite(medians[ns])]
    best = min(finite, key=medians.get) if finite else grid[0]
    reads = next(c.reads for c in ANNEAL_CASES if c.in_tts)
    return {"anneal.tts99_s": medians[best],
            "anneal.p_success": measures[0][f"p_success@{best}"],
            "anneal.p_success_reads": reads}


# ---------------------------------------------------------------- qubo-build

class QuboOutput(NamedTuple):
    order: int
    ham: CompiledHamiltonian
    qubo: QuboProblem
    text: str
    report: ResourceReport


def _qubo_round(mdps: dict[str, Mdp], seed: int, tracer) -> RoundResult:
    outputs = {}
    for label, order in QUBO_CASES:
        mdp = mdps[label]
        with tracer.span("compiler.compile", label):
            ham = compile_hamiltonian(mdp, CompilerConfig(order))
        with tracer.span("quadratize.reduce", label):
            qubo = quadratize(ham.polynomial, num_variables=ham.num_variables)
        with tracer.span("quadratize.export", label):
            text = to_qubo_text(qubo)
        with tracer.span("resources.count", label):
            report = count_resources(qubo, truncation=order, discount=mdp.discount,
                                     num_states=mdp.num_states,
                                     num_actions=mdp.num_actions)
        outputs[label] = QuboOutput(order, ham, qubo, text, report)
    values = outputs.values()
    return RoundResult(outputs, {
        "compiler.objective_terms": sum(len(o.ham.objective) for o in values),
        "quadratize.ancillas": sum(o.qubo.registry.num_ancillas for o in values),
        "quadratize.qubo_terms": sum(len(o.qubo.polynomial) for o in values),
        "resources.logical_variables": sum(o.report.logical_variables for o in values),
        "resources.coefficients": sum(o.report.coefficient_count for o in values),
    })


def _check_qubo(mdps: dict[str, Mdp], result: RoundResult) -> list[Operation]:
    ops = []
    for label, _ in QUBO_CASES:
        order, ham, qubo, text, report = result.outputs[label]
        mdp = mdps[label]
        P, R, gamma = mdp.transition, mdp.reward, mdp.discount
        actions = ref.all_policies(mdp.num_states, mdp.num_actions)
        bits = ref.policy_bits(actions, mdp.num_actions)
        expected = ref.compiled_energy(P, R, gamma, actions, order)
        unreduced = expected + ref.expected_reward(P, R).sum()
        tol = REL_TOL * max(_scale(ham.polynomial), float(np.abs(expected).max()))

        failures = []
        compiled = ref.evaluate_terms(*_terms(ham.polynomial), bits) + ham.constant_offset
        if np.abs(compiled - expected).max() > tol:
            failures.append("compiled_matches_rollout")
        try:
            num_variables, monomials, coeffs = ref.read_qubo_text(text)
        except ValueError:
            failures.append("export_well_formed")
        else:
            if num_variables != qubo.num_variables:
                failures.append("export_well_formed")
            else:
                full = ref.fill_ancillas(bits, qubo.registry.entries, num_variables)
                exported = ref.evaluate_terms(monomials, coeffs, full)
                if np.abs(exported - unreduced).max() > tol:
                    failures.append("export_preserves_value")
            used = {v for m in monomials for v in m}
            if (report.logical_variables != len(used)
                    or report.coefficient_count != len(monomials) - 1):
                failures.append("resources_match_export")
        ops.append(Operation(label, failures))
    return ops


# ---------------------------------------------------------------- k-search

def _ksearch_round(mdps: dict[str, Mdp], seed: int, tracer) -> RoundResult:
    outputs = {}
    for label, mdp in mdps.items():
        with tracer.span("compiler.kmin", label):
            outputs[label] = minimal_truncation_order(mdp, k_max=K_MAX)
    return RoundResult(outputs)


def _check_ksearch(mdps: dict[str, Mdp], result: RoundResult) -> list[Operation]:
    ops = []
    for label, found in result.outputs.items():
        mdp = mdps[label]
        expected = ref.minimal_order(mdp.transition, mdp.reward, mdp.discount, K_MAX)
        ops.append(Operation(label, [] if found == expected else ["minimal_k_matches"]))
    return ops


# ---------------------------------------------------------------- dispatch

def _scale(poly) -> float:
    return max(1.0, sum(abs(c) for c in poly.terms.values()))


def _terms(poly) -> tuple[list, list]:
    return list(poly.terms), list(poly.terms.values())


def run_round(workload: str, mdps: dict[str, Mdp], seed: int, tracer) -> RoundResult:
    runner = {"anneal": _anneal_round, "qubo-build": _qubo_round,
              "k-search": _ksearch_round}[workload]
    return runner(mdps, seed, tracer)


def check(workload: str, mdps: dict[str, Mdp], result: RoundResult) -> list[Operation]:
    checker = {"anneal": _check_anneal, "qubo-build": _check_qubo,
               "k-search": _check_ksearch}[workload]
    return checker(mdps, result)


def summarize(workload: str, measures: list[dict]) -> dict[str, float]:
    """Per-layer metrics that come from the rounds' outputs rather than spans:
    the median over rounds of each measure; a count that repeats exactly is
    reported as it is."""
    out = {}
    for name in measures[0]:
        if "@" not in name:
            values = [m[name] for m in measures]
            out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    if workload == "anneal":
        out.update(_summarize_anneal(measures))
    return out
