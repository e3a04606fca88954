"""Command-line interface.

Subcommands: compile, quadratize, anneal, oracle, validate, resources,
solve, k-heatmap, tts-sweep, oracle-compare.  Options may come from a flat
``key = value`` config file (lists comma-separated); command-line flags
override file values, which override defaults.  Exit codes: 0 success,
2 validation/parse error, 3 size-limit error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing

from .anneal import exhaustive_ground_state, success_probability
from .compiler import CompilerConfig, compile_hamiltonian
from .dp import QLearningConfig, best_policy_exhaustive, q_learning, value_iteration
from .errors import InstanceTooLargeError
from .experiments import (ExperimentConfig, _anneal, _write, prepare, run_k_heatmap,
                          run_oracle_compare, run_resources, run_solve,
                          run_tts_sweep)
from .mdp import (HALLWAY_SLIP, Mdp, ParseError, ValidationError, build_hallway, load_mdp,
                  terminal_states)
from .pseudoboolean import PseudoBooleanPolynomial
from .quadratize import consistency_violations, quadratize, to_qubo_text


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' comments; lists comma-separated.  A key is an
    ``ExperimentConfig`` field but ``experiment``, read as its field's type."""
    hints = typing.get_type_hints(ExperimentConfig)
    del hints["experiment"]  # the subcommand names the experiment
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in hints:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            hint = hints[key]
            # a tuple field's element type, an optional field's non-None type
            cast = next(t for t in typing.get_args(hint) + (hint,)
                        if t not in (type(None), Ellipsis))
            try:
                values[key] = (tuple(cast(v.strip()) for v in val.split(",") if v.strip())
                               if typing.get_origin(hint) is tuple else cast(val))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {key}: {e}") from None
    return values


def _given(args, cls) -> dict:
    """The fields of dataclass ``cls`` that the command line set, lists as tuples."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return {key: tuple(val) if isinstance(val, list) else val
            for key, val in values.items() if val is not None}


def _experiment_config(args) -> ExperimentConfig:
    """The ``--config`` file's values, overridden by the flags that were given."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    return ExperimentConfig(**{**values, **_given(args, ExperimentConfig)})


def _load_instance(args) -> Mdp:
    if getattr(args, "mdp", None):
        with open(args.mdp) as fh:
            return load_mdp(fh.read())
    if getattr(args, "hallway", None):
        return build_hallway(args.hallway, args.gamma, args.slip)
    raise ValidationError(["no instance given: pass --mdp FILE or --hallway N"])


def _emit(args, text: str, filename: str) -> None:
    path = _write(args.out_dir, filename, text)
    if path:
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mdp", help="MDP document (JSON) to load")
    p.add_argument("--hallway", type=int, metavar="N",
                   help="build an N-state hallway instead of loading a document")
    p.add_argument("--gamma", type=float, default=0.99, help="discount factor (hallway)")
    p.add_argument("--slip", type=float, default=HALLWAY_SLIP,
                   help="slip probability (hallway)")


def _cmd_compile(args) -> int:
    mdp = _load_instance(args)
    config = CompilerConfig(args.truncation, **_given(args, CompilerConfig))
    ham = compile_hamiltonian(mdp, config)
    print(f"num_terms={len(ham.polynomial)} objective_terms={len(ham.objective)} "
          f"degree={ham.polynomial.degree()} constant_offset={ham.constant_offset!r}")
    _emit(args, ham.polynomial.to_text(), "hamiltonian.txt")
    return 0


def _cmd_quadratize(args) -> int:
    config = _experiment_config(args)
    if args.poly:
        with open(args.poly) as fh:
            poly = PseudoBooleanPolynomial.from_text(fh.read())
        qubo = quadratize(poly, config.reduction_penalty, num_variables=poly.num_variables)
    else:
        qubo = prepare(_load_instance(args), config).qubo
    print(f"variables={qubo.num_variables} ancillas={qubo.registry.num_ancillas} "
          f"terms={len(qubo.polynomial)}")
    _emit(args, to_qubo_text(qubo), "problem.qubo")
    return 0


def _cmd_anneal(args) -> int:
    if (args.beta_start is None) != (args.beta_end is None):
        missing = "--beta-start" if args.beta_start is None else "--beta-end"
        raise ValueError(f"{missing} is missing: give both beta flags or neither")
    config = _experiment_config(args)
    inst = prepare(_load_instance(args), config)
    _, ground = exhaustive_ground_state(inst.ham.polynomial, inst.ham.num_variables)
    betas = None if args.beta_start is None else (args.beta_start, args.beta_end)
    schedule, reads, _ = _anneal(inst, config, betas)
    p_s, p_err = success_probability(reads, ground)
    lines = ["read,energy,feasible,consistent,policy_bits"]
    for i, read in enumerate(reads):
        pol = inst.policy(read.assignment)
        bits = "".join(str(int(b)) for b in pol.bits)
        lines.append(f"{i},{read.energy!r},{int(pol.is_feasible())},"
                     f"{int(not consistency_violations(read.assignment, inst.qubo.registry))},"
                     f"{bits}")
    lines.append(f"# summary: reads={config.num_reads} sweeps={config.num_sweeps} "
                 f"beta=[{schedule.beta_start!r},{schedule.beta_end!r}] "
                 f"ground_energy={ground!r} p_s={p_s!r} stderr={p_err!r}")
    _emit(args, "\n".join(lines) + "\n", "anneal.csv")
    return 0


def _q_rows(method: str, q) -> list[str]:
    return [f"{method},{s},{a},{float(q[s, a])!r}"
            for s in range(q.shape[0]) for a in range(q.shape[1])]


def _policy_line(label: str, policy) -> str:
    return f"# {label} policy: " + " ".join(str(int(a)) for a in policy.actions())


def _cmd_oracle(args) -> int:
    mdp = _load_instance(args)
    q, greedy = value_iteration(mdp)
    lines = ["method,state,action,value"] + _q_rows("value_iteration", q)
    if args.exhaustive:
        best, total, ties = best_policy_exhaustive(mdp)
        lines.append(f"# exhaustive best action-value sum: {total!r} ties: {len(ties)}")
        lines.append(_policy_line("exhaustive", best))
    if args.qlearning:
        ql, ql_greedy = q_learning(mdp, QLearningConfig(**_given(args, QLearningConfig)),
                                   terminal=terminal_states(mdp))
        lines += _q_rows("q_learning", ql)
        lines.append(_policy_line("q-learning greedy", ql_greedy))
    lines.append(_policy_line("value-iteration greedy", greedy))
    _emit(args, "\n".join(lines) + "\n", "oracle.csv")
    return 0


def _cmd_validate(args) -> int:
    _load_instance(args)
    print("valid")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdpspin",
        description="Compile MDPs to truncated spin cost functions, reduce to "
                    "QUBO, solve, and cross-check against exact DP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an MDP to polynomial form")
    _add_instance_flags(p)
    p.add_argument("--truncation", "-K", type=int, required=True)
    p.add_argument("--penalty", "-M", type=float, dest="penalty_strength")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("quadratize", help="reduce to QUBO form")
    _add_instance_flags(p)
    p.add_argument("--poly", help="polynomial text file (alternative to an instance)")
    p.add_argument("--truncation", "-K", type=int, default=3)
    p.add_argument("--penalty", "-M", type=float, dest="penalty_strength")
    p.add_argument("--m-or", type=float, dest="reduction_penalty")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_quadratize)

    p = sub.add_parser("anneal", help="simulated annealing on the QUBO")
    _add_instance_flags(p)
    p.add_argument("--truncation", "-K", type=int, default=3)
    p.add_argument("--penalty", "-M", type=float, dest="penalty_strength")
    p.add_argument("--m-or", type=float, dest="reduction_penalty")
    p.add_argument("--sweeps", type=int, dest="num_sweeps")
    p.add_argument("--reads", type=int, dest="num_reads")
    p.add_argument("--beta-start", type=float)
    p.add_argument("--beta-end", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_anneal)

    p = sub.add_parser("oracle", help="exact DP and Q-learning baselines")
    _add_instance_flags(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="also run exhaustive policy search")
    p.add_argument("--qlearning", action="store_true")
    p.add_argument("--alpha", type=float, dest="learning_rate")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--episodes", type=int, dest="num_episodes")
    p.add_argument("--seed", type=int, dest="rng_seed")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check an MDP document")
    _add_instance_flags(p)
    p.set_defaults(func=_cmd_validate)

    for name in ("solve", "oracle-compare", "k-heatmap", "tts-sweep", "resources"):
        single = name in ("solve", "oracle-compare")
        p = sub.add_parser(name, help=f"run the {name} pipeline on one instance" if single
                           else f"run the {name} grid experiment")
        p.add_argument("--config", help="flat key = value config file")
        if single:
            p.add_argument("--num-states", type=int, default=6)
            p.add_argument("--gamma", type=float, default=0.99)
            p.add_argument("--num-sweeps", type=int, dest="num_sweeps")
        else:
            p.add_argument("--sizes", type=int, nargs="+")
            p.add_argument("--gammas", type=float, nargs="+")
            p.add_argument("--k-max", type=int, dest="k_max")
            p.add_argument("--sweep-grid", type=int, nargs="+", dest="sweep_grid")
        p.add_argument("--truncation", type=int)
        p.add_argument("--penalty-strength", type=float, dest="penalty_strength")
        p.add_argument("--reduction-penalty", type=float, dest="reduction_penalty")
        p.add_argument("--num-reads", type=int, dest="num_reads")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.set_defaults(func=_cmd_single if single else _cmd_grid, experiment=name)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        # ValidationError and ParseError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


def _cmd_single(args) -> int:
    config = _experiment_config(args)
    runner = run_solve if config.experiment == "solve" else run_oracle_compare
    record = runner(config, args.num_states, args.gamma)
    print(json.dumps(record, indent=1, default=str))
    return 0


def _cmd_grid(args) -> int:
    config = _experiment_config(args)
    if config.experiment == "k-heatmap":
        rows = run_k_heatmap(config)
        for r in rows:
            print(f"|S|={r['num_states']} gamma={r['gamma']}: "
                  f"K={r['minimal_k']} ({r['status']})")
    elif config.experiment == "tts-sweep":
        items = run_tts_sweep(config)
        for item in items:
            if item["status"] != "ok":
                print(f"|S|={item['num_states']} gamma={item['gamma']}: {item['status']}")
                continue
            opt = item["result"].optimal
            print(f"|S|={item['num_states']} gamma={item['gamma']}: "
                  f"n_s*={item['result'].optimal_num_sweeps} "
                  f"TTS*={opt.estimate.value if opt else math.nan:.6g}")
    else:
        rows = run_resources(config)
        for r in rows:
            rep = r["report"]
            print(f"|S|={r['num_states']} gamma={r['gamma']}: K={rep.truncation} "
                  f"|V|={rep.logical_variables} |J|={rep.coefficient_count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
