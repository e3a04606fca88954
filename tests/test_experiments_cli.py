"""Experiment-runner and CLI surface tests (small, fast configurations)."""

import dataclasses
import json
import math

import pytest

from mdpspin import cli, compiler, experiments
from mdpspin.anneal import DESIRED_PROBABILITY, AnnealSchedule, simulated_anneal
from mdpspin.cli import main, parse_config_file
from mdpspin.compiler import CompilerConfig
from mdpspin.dp import QLearningConfig, minimal_truncation_order
from mdpspin.dp import value_iteration as dp_value_iteration
from mdpspin.errors import NoTruncationError
from mdpspin.experiments import (ExperimentConfig, prepare, run_k_heatmap,
                                 run_oracle_compare, run_resources, run_solve,
                                 run_tts_sweep)
from mdpspin.mdp import HALLWAY_SLIP, ParseError, PolicyAssignment, build_hallway, save_mdp
from mdpspin.quadratize import REDUCTION_PENALTY
from oracles import tts_sweep


def fast_config(**overrides):
    base = dict(num_reads=60, num_sweeps=10, num_qlearning_seeds=2,
                qlearning_episodes=2000, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunSolve:
    def test_correct_truncation_agrees(self, tmp_path):
        config = fast_config(truncation=3, out_dir=str(tmp_path))
        record = run_solve(config, 6, 0.99)
        assert record["exhaustive"]["agreement"] is True
        assert record["exhaustive"]["all_feasible"] is True
        assert record["exhaustive"]["interior"] == [0, 0, 0, 1]
        assert record["oracle"]["vi_interior"] == [0, 0, 0, 1]
        written = json.loads((tmp_path / "solve_s6_g0.99_k3.json").read_text())
        assert written["config"]["seed"] == 0  # full config embedded

    def test_premature_truncation_recovers_symmetric_policy(self):
        record = run_solve(fast_config(truncation=2), 6, 0.99)
        assert record["exhaustive"]["agreement"] is False
        assert record["exhaustive"]["interior"] == [0, 0, 1, 1]

    def test_auto_truncation_uses_minimal_order(self):
        record = run_solve(fast_config(), 6, 0.8)
        assert record["instance"]["truncation"] == 3

    def test_intermediate_discount_low_order_recovers_symmetric_policy(self):
        record = run_solve(fast_config(truncation=2), 6, 0.8)
        assert record["exhaustive"]["all_feasible"] is True
        assert record["exhaustive"]["interior"] == [0, 0, 1, 1]

    def test_agreement_compares_every_state(self, monkeypatch):
        # value iteration's greedy policy, changed only at the right end tile
        def value_iteration(mdp):
            q, greedy = dp_value_iteration(mdp)
            actions = greedy.actions()
            actions[-1] = 1 - actions[-1]
            return q, PolicyAssignment.from_actions(actions, mdp.num_actions)

        monkeypatch.setattr(experiments, "value_iteration", value_iteration)
        record = run_solve(fast_config(truncation=3), 6, 0.99)
        assert record["exhaustive"]["interior"] == record["oracle"]["vi_interior"]
        assert record["exhaustive"]["agreement"] is False


def test_run_k_heatmap_written_and_ordered(tmp_path):
    config = fast_config(sizes=(5, 4), gammas=(0.9, 0.6), out_dir=str(tmp_path))
    rows = run_k_heatmap(config)
    keys = [(r["num_states"], r["gamma"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["status"] == "ok" for r in rows)
    text = (tmp_path / "k_heatmap.csv").read_text()
    assert text.splitlines()[0] == "num_states,gamma,minimal_k,status"
    assert (tmp_path / "k_heatmap_config.json").exists()


def test_run_k_heatmap_marks_oversized_cells():
    rows = run_k_heatmap(fast_config(sizes=(17,), gammas=(0.9,)))
    assert rows[0]["minimal_k"] is None
    assert rows[0]["status"].startswith("unavailable")


def test_run_tts_sweep_deterministic(tmp_path):
    config = fast_config(sizes=(4,), gammas=(0.6,), sweep_grid=(1, 2, 4),
                         num_reads=150, out_dir=str(tmp_path))
    a = run_tts_sweep(config)
    first = (tmp_path / "tts_sweep.csv").read_text()
    b = run_tts_sweep(config)
    second = (tmp_path / "tts_sweep.csv").read_text()
    assert first == second
    assert a[0]["rows"] == b[0]["rows"]
    assert (tmp_path / "tts_sweep_summary.csv").exists()


class TestRunTtsSweepRows:
    def test_rows_equal_the_reference_loop(self):
        # at three reads and seed 1 only hallway(4, 0.6) has a finite optimum;
        # every p_s of hallway(4, 0.9) is 0 or 1
        config = fast_config(sizes=(4, 6), gammas=(0.6, 0.9), sweep_grid=(1, 10, 50),
                             num_reads=3, seed=1)
        cells = run_tts_sweep(config)
        assert [c["status"] for c in cells] == ["ok"] * 4
        for cell in cells:
            inst = prepare(build_hallway(cell["num_states"], cell["gamma"], config.slip),
                           config)
            rows, optimal = tts_sweep(
                inst.qubo.polynomial, cell["ground_energy"], config.sweep_grid,
                config.num_reads, DESIRED_PROBABILITY, config.seed)
            assert [ns for ns, _ in cell["rows"]] == [ns for ns, _ in rows]
            for (_, est), (_, ref) in zip(cell["rows"], rows):
                for got, want in zip(dataclasses.astuple(est), dataclasses.astuple(ref)):
                    assert got == want or (math.isnan(got) and math.isnan(want))
            assert cell["optimal"] == optimal
        assert [c["optimal"] is not None for c in cells] == [True, False, False, False]
        assert [est.success_probability for _, est in cells[1]["rows"]] == [0.0, 1.0, 1.0]

    def _rows(self, sweep_grid, num_reads, seed):
        [cell] = run_tts_sweep(fast_config(sizes=(6,), gammas=(0.6,), truncation=2,
                                           sweep_grid=sweep_grid, num_reads=num_reads,
                                           seed=seed))
        return cell, [est for _, est in cell["rows"]]

    def test_effort_scales_with_sweeps_and_variables(self):
        cell, rows = self._rows((2, 4), 50, seed=1)
        assert [est.effort for est in rows] == [2 * cell["variables"], 4 * cell["variables"]]

    def test_success_probability_roughly_monotone_in_sweeps(self):
        _, (lo, hi) = self._rows((2, 30), 400, seed=2)
        slack = 2 * (lo.std_error + hi.std_error)
        assert hi.success_probability >= lo.success_probability - slack


def test_run_resources_rows(tmp_path):
    config = fast_config(sizes=(4, 6), gammas=(0.9,), out_dir=str(tmp_path))
    rows = run_resources(config)
    assert [r["num_states"] for r in rows] == [4, 6]
    assert all(r["report"].coefficient_count > 0 for r in rows)
    header = (tmp_path / "resources.csv").read_text().splitlines()[0]
    assert header.startswith("num_states,gamma,truncation")


def test_resources_prints_a_cell_with_no_truncation(tmp_path, capsys):
    # no K <= 2 recovers the optimal policy of hallway(6, 0.7)
    assert main(["resources", "--sizes", "6", "--gammas", "0.7", "--k-max", "2",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "|S|=6 gamma=0.7: no-truncation\n"
    assert (tmp_path / "resources.csv").read_text().count("\n") == 1


def test_k_heatmap_marks_a_cell_with_no_truncation(tmp_path, capsys):
    # no K <= 2 recovers the optimal policy of hallway(6, 0.9), which needs K = 3
    assert main(["k-heatmap", "--sizes", "6", "--gammas", "0.9", "--k-max", "2",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "|S|=6 gamma=0.9: no-truncation\n"
    assert (tmp_path / "k_heatmap.csv").read_text().splitlines()[1:] == ["6,0.9,,no-truncation"]


def test_prepare_refuses_an_instance_with_no_qualifying_order():
    with pytest.raises(NoTruncationError,
                       match=r"^no truncation order <= 2 recovers the optimal policy "
                             r"for \|S\|=6, gamma=0\.9$") as refusal:
        prepare(build_hallway(6, 0.9), ExperimentConfig(k_max=2))
    assert isinstance(refusal.value, ValueError)


RUNNERS = {"solve": lambda config: run_solve(config, 4, 0.6),
           "oracle-compare": lambda config: run_oracle_compare(config, 4, 0.6),
           "k-heatmap": run_k_heatmap, "tts-sweep": run_tts_sweep,
           "resources": run_resources}


@pytest.mark.parametrize("name", RUNNERS)
def test_each_runner_names_itself_in_its_config(tmp_path, name):
    # called from Python, so no subcommand sets the name
    RUNNERS[name](fast_config(sizes=(4,), gammas=(0.6,), truncation=2, k_max=2,
                              num_reads=10, sweep_grid=(1,), out_dir=str(tmp_path)))
    (path,) = tmp_path.glob("*.json")
    written = json.loads(path.read_text())
    if name in ("solve", "oracle-compare"):
        assert written["experiment"] == name
        written = written["config"]
    assert written["experiment"] == name


def test_run_oracle_compare_all_agree():
    record = run_oracle_compare(fast_config(num_reads=400, num_sweeps=30, truncation=3),
                                6, 0.99)
    cols = record["interior_policies"]
    assert cols["value_iteration"] == cols["exhaustive_policy_search"]
    assert cols["value_iteration"] == cols["hamiltonian_ground_state"]
    assert 0.0 <= record["qlearning"]["agreement_rate_vs_vi"] <= 1.0


def test_run_oracle_compare_premature_truncation_disagrees():
    record = run_oracle_compare(fast_config(num_reads=100, truncation=2), 6, 0.99)
    assert not record["agreement"]["hamiltonian_ground_state|value_iteration"]


def test_solve_heatmap_consistency_cross_check():
    # solve agrees with DP at K exactly when K >= the heatmap's minimal K
    config = fast_config(num_reads=30, k_max=4)
    minimal = minimal_truncation_order(build_hallway(6, 0.9, config.slip),
                                       k_max=config.k_max)
    assert minimal == 3
    for k in range(1, config.k_max + 1):
        record = run_solve(dataclasses.replace(config, truncation=k), 6, 0.9)
        assert record["exhaustive"]["agreement"] == (k >= minimal), k


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment grid\n"
            "gammas = 0.6, 0.9\n"
            "sizes = 4\n"
            "num_reads = 33\n"
            "seed = 4\n"
        )
        values = parse_config_file(str(path))
        assert values == {"gammas": (0.6, 0.9), "sizes": (4,), "num_reads": 33,
                          "seed": 4}

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                             ids=lambda f: f.name)
    def test_each_field_reads_back_as_its_type(self, tmp_path, field):
        # the fields whose default is None take a sample value of their type
        value = {"truncation": 3, "out_dir": "records"}.get(field.name, field.default)
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        path = tmp_path / "exp.cfg"
        path.write_text(f"{field.name} = {text}\n")
        parsed = parse_config_file(str(path))
        assert parsed == {field.name: value}
        assert type(parsed[field.name]) is type(value)
        if isinstance(value, tuple):
            assert [type(v) for v in parsed[field.name]] == [type(v) for v in value]

    @pytest.mark.parametrize("line, message", [
        ("sizes = 4, x", "sizes: invalid literal for int() with base 10: 'x'"),
        ("truncation =", "truncation: invalid literal for int() with base 10: ''"),
    ], ids=["list", "scalar"])
    def test_bad_value_names_its_file_and_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"gammas = 0.9\n{line}\n")
        assert main(["k-heatmap", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"

    @pytest.mark.parametrize("command, line", [
        ("k-heatmap", "sizes ="),
        ("k-heatmap", "gammas ="),
        ("k-heatmap", "k_max = -1"),
        ("tts-sweep", "sweep_grid ="),
        ("k-heatmap", "out_dir ="),
        ("oracle-compare", "num_qlearning_seeds = 0"),
        ("tts-sweep", "num_reads = 0"),
        ("solve", "num_sweeps = 0"),
        ("k-heatmap", "sweep_grid = 3, 0"),
        ("tts-sweep", "gammas = 0.6, 1.5"),
        pytest.param("k-heatmap", "sizes = 1, 4", id="k-heatmap-sizes-below-4"),
        pytest.param("k-heatmap", "sizes = 4, 4", id="k-heatmap-sizes-repeated"),
        pytest.param("k-heatmap", "gammas = 0.6, 0.6", id="k-heatmap-gammas-repeated"),
        pytest.param("tts-sweep", "sweep_grid = 2, 2", id="tts-sweep-sweep_grid-repeated"),
    ], ids=lambda v: v.split()[0] if "=" in v else v)
    def test_out_of_range_value_names_its_field(self, tmp_path, capsys, command, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\n")
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {line.split()[0]} must ")

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\nnum_reads 20\n")
        with pytest.raises(ParseError, match="bad.cfg:2: expected 'key = value'$"):
            parse_config_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 3\n")
        with pytest.raises(ParseError):
            parse_config_file(str(path))

    @pytest.mark.parametrize("line", ["match_rule = policy", "desired_probability = 0.9"],
                             ids=lambda line: line.split()[0])
    def test_removed_key_rejected(self, tmp_path, capsys, line):
        # a read is a hit when it attains the ground energy, and p_d is 0.99
        path = tmp_path / "old.cfg"
        path.write_text(f"{line}\n")
        assert main(["tts-sweep", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}:1: unknown key {line.split()[0]!r}\n"

    def test_experiment_key_rejected(self, tmp_path, capsys):
        # the subcommand names the experiment; a file cannot override it
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = solve\nsizes = 4\n")
        assert main(["k-heatmap", "--config", str(path)]) == 2
        assert "unknown key 'experiment'" in capsys.readouterr().err

    def test_cli_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("sizes = 4\ngammas = 0.9\nnum_reads = 10\nseed = 1\n")
        code = main(["k-heatmap", "--config", str(path), "--sizes", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|S|=5" in out
        assert "|S|=4" not in out


class TestCli:
    def test_compile_stats_and_output(self, tmp_path, capsys):
        code = main(["compile", "--hallway", "6", "--gamma", "0.99",
                     "--truncation", "3", "--out", str(tmp_path)])
        assert code == 0
        assert "degree=3" in capsys.readouterr().out
        assert (tmp_path / "hamiltonian.txt").exists()

    @pytest.mark.parametrize("command, defaults", [
        (["compile", "--hallway", "5", "--gamma", "0.9", "--truncation", "2"],
         ["--penalty", repr(CompilerConfig.penalty_strength), "--slip", repr(HALLWAY_SLIP)]),
        (["quadratize", "--hallway", "6", "--gamma", "0.9"],
         ["--penalty", repr(ExperimentConfig.penalty_strength),
          "--m-or", repr(REDUCTION_PENALTY)]),
        (["anneal", "--hallway", "5", "--gamma", "0.9", "--reads", "20"],
         ["--penalty", repr(ExperimentConfig.penalty_strength),
          "--m-or", repr(ExperimentConfig.reduction_penalty),
          "--sweeps", str(ExperimentConfig.num_sweeps), "--seed", str(ExperimentConfig.seed)]),
        (["oracle", "--hallway", "4", "--gamma", "0.9", "--qlearning"],
         ["--alpha", repr(QLearningConfig.learning_rate),
          "--epsilon", repr(QLearningConfig.epsilon),
          "--episodes", str(QLearningConfig.num_episodes),
          "--seed", str(QLearningConfig.rng_seed)]),
    ], ids=["compile", "quadratize", "anneal", "oracle"])
    def test_omitted_value_flags_take_the_library_defaults(self, capsys, command, defaults):
        assert main(command) == 0
        omitted = capsys.readouterr().out
        assert main(command + defaults) == 0
        assert capsys.readouterr().out == omitted

    def test_quadratize_from_polynomial_file(self, tmp_path, capsys):
        main(["compile", "--hallway", "6", "--gamma", "0.99", "--truncation", "3",
              "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["quadratize", "--poly", str(tmp_path / "hamiltonian.txt"),
                     "--m-or", "5", "--out", str(tmp_path)])
        assert code == 0
        assert "ancillas=" in capsys.readouterr().out
        text = (tmp_path / "problem.qubo").read_text()
        assert text.splitlines()[1].startswith("p qubo 0 ")

    def test_quadratize_rejects_a_negative_variable_id(self, tmp_path, capsys):
        path = tmp_path / "negative.txt"
        path.write_text("1.0 -1 0 2\n2.0 -3\n")
        code = main(["quadratize", "--poly", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "line 1: variable ids must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "problem.qubo").exists()

    def test_anneal_csv(self, tmp_path):
        code = main(["anneal", "--hallway", "6", "--gamma", "0.6",
                     "--truncation", "2", "--sweeps", "5", "--reads", "20",
                     "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "anneal.csv").read_text().splitlines()
        assert lines[0] == "read,energy,feasible,consistent,policy_bits"
        assert len([l for l in lines if not l.startswith("#")]) == 21
        assert lines[-1].startswith("# summary:")

    def test_anneal_with_explicit_betas_anneals_that_schedule(self, tmp_path):
        code = main(["anneal", "--hallway", "5", "--gamma", "0.9", "--truncation", "2",
                     "--sweeps", "3", "--reads", "8", "--seed", "1",
                     "--beta-start", "0.2", "--beta-end", "4.0", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "anneal.csv").read_text().splitlines()
        assert " beta=[0.2,4.0] " in lines[-1]
        qubo = prepare(build_hallway(5, 0.9), ExperimentConfig(truncation=2)).qubo
        reads = simulated_anneal(qubo.polynomial,
                                 AnnealSchedule(3, 0.2, 4.0, num_reads=8, rng_seed=1),
                                 num_variables=qubo.num_variables)
        energies = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert energies == [read.energy for read in reads]

    @pytest.mark.parametrize("given, missing", [("--beta-start", "--beta-end"),
                                                 ("--beta-end", "--beta-start")])
    def test_anneal_rejects_a_lone_beta_flag(self, capsys, given, missing):
        code = main(["anneal", "--hallway", "5", "--gamma", "0.9", "--truncation", "2",
                     "--sweeps", "2", "--reads", "3", given, "7.5"])
        assert code == 2
        assert f"{missing} is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("start, end, message", [
        ("0.2", "inf", "betas must be finite"), ("nan", "4", "betas must be finite"),
        ("inf", "inf", "betas must be finite"), ("2", "1", "need beta_end >= beta_start > 0"),
    ], ids=["0.2-inf", "nan-4", "inf-inf", "2-1"])
    def test_anneal_rejects_a_non_finite_beta(self, capsys, monkeypatch, start, end, message):
        def fail(*args, **kwargs):
            raise AssertionError("took the ground state before refusing the betas")

        monkeypatch.setattr(cli, "_prepare_exhaustive", fail)
        code = main(["anneal", "--hallway", "4", "--gamma", "0.9", "--truncation", "2",
                     "--sweeps", "3", "--reads", "5", "--beta-start", start, "--beta-end", end])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_oracle_output(self, capsys):
        code = main(["oracle", "--hallway", "6", "--gamma", "0.99", "--exhaustive"])
        assert code == 0
        out = capsys.readouterr().out
        assert "value_iteration,0,0," in out
        assert "# value-iteration greedy policy:" in out
        assert "# exhaustive policy:" in out

    def test_oracle_value_cells_are_plain_floats(self, capsys):
        assert main(["oracle", "--hallway", "5", "--gamma", "0.9", "--qlearning",
                     "--episodes", "100"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
                if not line.startswith("#")]
        assert {row[0] for row in rows} == {"value_iteration", "q_learning"}
        for row in rows:
            float(row[3])

    def test_oracle_qlearning_flags(self, capsys):
        code = main(["oracle", "--hallway", "5", "--gamma", "0.9", "--qlearning",
                     "--episodes", "500", "--seed", "2"])
        assert code == 0
        assert "q_learning,0,0," in capsys.readouterr().out

    def test_oracle_qlearning_on_a_loaded_model_has_no_terminal_states(self, tmp_path,
                                                                        capsys):
        # action 1 earns +1 by staying in state 0 or 2, action 0 leads toward state 1;
        # treating the end states as terminal would stop every episode before a reward
        transition = [[[0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 1]],
                      [[0, 1, 0], [0, 0, 1]]]
        reward = [[[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 1]]]
        doc = tmp_path / "loop.json"
        doc.write_text(json.dumps({"num_states": 3, "num_actions": 2, "discount": 0.9,
                                   "transition": transition, "reward": reward}))
        assert main(["oracle", "--mdp", str(doc), "--qlearning", "--episodes", "3000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# q-learning greedy policy: 1 0 1" in lines
        assert "# value-iteration greedy policy: 1 0 1" in lines

    def test_solve_subcommand(self, capsys):
        code = main(["solve", "--num-states", "6", "--gamma", "0.99",
                     "--truncation", "3", "--num-reads", "50", "--num-sweeps", "10"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["exhaustive"]["agreement"] is True

    def test_validate_good_and_bad_documents(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(save_mdp(build_hallway(4, 0.9)))
        assert main(["validate", "--mdp", str(good)]) == 0
        doc = json.loads(good.read_text())
        doc["transition"][0][0][0] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--mdp", str(bad)]) == 2

    def test_validate_hallway_prints_valid(self, capsys):
        assert main(["validate", "--hallway", "6"]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_validate_refuses_a_nan_probability(self, tmp_path, capsys):
        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        doc["transition"][1][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--mdp", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "P[1][0][0] is not finite" in err

    def test_validate_names_every_violation_on_stderr(self, tmp_path, capsys):
        doc = json.loads(save_mdp(build_hallway(6, 0.9)))
        doc["transition"][0][0][0] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--mdp", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "outside [0, 1]" in err and "row sums to" in err

    def test_exit_code_2_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["validate", "--mdp", str(path)]) == 2

    @pytest.mark.parametrize("fields, message", [
        ({"num_states": True, "num_actions": True, "transition": [[[1.0]]],
          "reward": [[[0.0]]]}, "num_states and num_actions must be positive integers"),
        ({"discount": True}, "field 'discount': expected a number"),
    ], ids=["counts", "discount"])
    def test_json_booleans_are_parse_errors(self, tmp_path, capsys, fields, message):
        doc = json.loads(save_mdp(build_hallway(4, 0.9)))
        doc.update(fields)
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--mdp", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_exit_code_2_when_no_instance(self, capsys):
        assert main(["compile", "--truncation", "2"]) == 2

    def test_exit_code_3_on_size_limit(self, capsys):
        # 15-state hallway: 30 policy bits exceed the exhaustive cap
        code = main(["anneal", "--hallway", "15", "--gamma", "0.6",
                     "--truncation", "1", "--reads", "2", "--sweeps", "1"])
        assert code == 3

    def test_exit_code_3_past_the_walk_frontier_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(compiler, "FRONTIER_LIMIT", 100)
        code = main(["compile", "--hallway", "6", "--gamma", "0.99", "--truncation", "3"])
        assert code == 3
        assert "walk frontier passed 100 states" in capsys.readouterr().err

    def test_exit_code_3_past_the_policy_enumeration_limit(self, tmp_path, capsys):
        # 25 states: 2^25 policies exceed the exhaustive search's 2^24
        assert main(["oracle", "--hallway", "25", "--exhaustive"]) == 3
        assert "enumeration limit" in capsys.readouterr().err
        doc = tmp_path / "wide.json"
        doc.write_text(save_mdp(build_hallway(25, 0.9)))
        assert main(["oracle", "--mdp", str(doc), "--exhaustive"]) == 3
        assert "enumeration limit" in capsys.readouterr().err

    def test_exit_code_3_past_the_exhaustive_ground_state_limit(self, capsys):
        # 13 states at a fixed K: 26 polynomial variables exceed the cap of 24
        assert main(["solve", "--num-states", "13", "--gamma", "0.6", "--truncation", "1"]) == 3
        assert "exhaustive limit of 24" in capsys.readouterr().err

    @pytest.mark.parametrize("command, table, reason", [
        ("tts-sweep", "tts_sweep.csv", "34 variables exceed the exhaustive limit of 24"),
        ("resources", "resources.csv",
         "131072 deterministic policies exceed the enumeration limit of 65536"),
        ("k-heatmap", "k_heatmap.csv",
         "131072 deterministic policies exceed the enumeration limit of 65536")])
    def test_grid_survives_a_cell_too_large_for_the_k_search(self, tmp_path, capsys,
                                                             command, table, reason):
        # 17 states: 2^17 policies exceed the K search's limit of 2^16; tts-sweep
        # takes the ground state of the 34 variables, so it reports that limit first
        args = [command, "--sizes", "4", "17", "--gammas", "0.6", "--out", str(tmp_path)]
        if command == "tts-sweep":
            args += ["--num-reads", "20", "--sweep-grid", "1"]
        assert main(args) == 0
        rows = (tmp_path / table).read_text().splitlines()[1:]
        # only k_heatmap.csv has a status column, so only it keeps the cell
        others = [row for row in rows if not row.startswith("4,0.6,")]
        assert len(others) < len(rows)
        assert others == ([f"17,0.6,,unavailable: {reason}"] if command == "k-heatmap" else [])
        assert f"|S|=17 gamma=0.6: unavailable: {reason}\n" in capsys.readouterr().out

    def test_grid_marks_a_cell_too_large_for_the_exhaustive_ground_state(self, tmp_path,
                                                                         capsys):
        # 13 states at a fixed K: 26 polynomial variables exceed the cap of 24
        assert main(["tts-sweep", "--sizes", "4", "13", "--gammas", "0.6",
                     "--truncation", "1", "--num-reads", "5", "--sweep-grid", "1",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "tts_sweep.csv").read_text().splitlines()[1:]
        assert rows and all(row.startswith("4,0.6,") for row in rows)
        assert ("|S|=13 gamma=0.6: unavailable: 26 variables exceed the exhaustive "
                "limit of 24") in capsys.readouterr().out

    def test_anneal_refuses_past_the_exhaustive_limit_before_annealing(self, monkeypatch,
                                                                       capsys):
        def fail(*args, **kwargs):
            raise AssertionError("annealed before the ground-state check")

        monkeypatch.setattr(experiments, "simulated_anneal", fail)
        assert main(["anneal", "--hallway", "13", "--gamma", "0.6", "--truncation", "1",
                     "--reads", "2", "--sweeps", "1"]) == 3
        assert "exhaustive limit of 24" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "oracle-compare"])
    def test_single_instance_past_both_limits_reports_the_exhaustive_one(self, command,
                                                                        capsys):
        # 17 states: 2^17 policies pass the K search's limit, and 34 variables the
        # ground state's, which is checked first
        assert main([command, "--num-states", "17", "--gamma", "0.6"]) == 3
        assert capsys.readouterr().err == "error: 34 variables exceed the exhaustive limit of 24\n"

    @pytest.mark.parametrize("command", [
        ["solve", "--num-states", "16", "--gamma", "0.9"],
        ["oracle-compare", "--num-states", "16", "--gamma", "0.9"],
        ["tts-sweep", "--sizes", "16", "--gammas", "0.9"],
        ["anneal", "--hallway", "16", "--gamma", "0.9", "--truncation", "8"],
    ], ids=["solve", "oracle-compare", "tts-sweep", "anneal"])
    def test_runners_refuse_past_the_exhaustive_limit_before_they_spend(self, monkeypatch,
                                                                       capsys, command):
        # 32 variables: neither the K search nor the compile may run
        def fail(*args, **kwargs):
            raise AssertionError("spent on an instance past the exhaustive limit")

        monkeypatch.setattr(experiments, "minimal_truncation_order", fail)
        monkeypatch.setattr(experiments, "compile_hamiltonian", fail)
        code = main(command)
        out, err = capsys.readouterr()
        message = "32 variables exceed the exhaustive limit of 24"
        if command[0] == "tts-sweep":
            assert code == 0 and out == f"|S|=16 gamma=0.9: unavailable: {message}\n"
        else:
            assert code == 3 and err == f"error: {message}\n"

    @pytest.mark.parametrize("field", ["penalty_strength", "reduction_penalty"])
    @pytest.mark.parametrize("command", [
        ["solve", "--num-states", "6", "--gamma", "0.9"],
        ["oracle-compare", "--num-states", "6", "--gamma", "0.9"],
        ["tts-sweep", "--sizes", "6", "--gammas", "0.9"],
        ["resources", "--sizes", "16", "--gammas", "0.9"],
        ["k-heatmap", "--sizes", "6", "--gammas", "0.9"],
    ], ids=["solve", "oracle-compare", "tts-sweep", "resources", "k-heatmap"])
    def test_runners_refuse_a_bad_penalty_before_the_k_search(self, tmp_path, monkeypatch,
                                                              capsys, command, field):
        def fail(*args, **kwargs):
            raise AssertionError("spent on a penalty that the config refuses")

        monkeypatch.setattr(experiments, "minimal_truncation_order", fail)
        monkeypatch.setattr(experiments, "compile_hamiltonian", fail)
        if command[0] == "k-heatmap":  # no penalty flag, but the config file may set one
            path = tmp_path / "exp.cfg"
            path.write_text(f"{field} = 0\n")
            command = command + ["--config", str(path)]
        else:
            command = command + ["--" + field.replace("_", "-"), "0"]
        assert main(command) == 2
        name = field.replace("_", " ")
        assert capsys.readouterr() == ("", f"error: {name} must be finite and positive, got 0.0\n")

    @pytest.mark.parametrize("command", ["solve", "oracle-compare", "k-heatmap",
                                         "tts-sweep", "resources"])
    def test_every_experiment_flag_reaches_the_config(self, tmp_path, capsys, command):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("num_qlearning_seeds = 1\nqlearning_episodes = 50\n")
        out = tmp_path / "out"
        args = [command, "--config", str(config_file), "--out", str(out)]
        expected = dict(num_qlearning_seeds=1, qlearning_episodes=50, out_dir=str(out))
        if command != "k-heatmap":
            args += ["--truncation", "2", "--penalty-strength", "3.5",
                     "--reduction-penalty", "6.5"]
            expected.update(truncation=2, penalty_strength=3.5, reduction_penalty=6.5)
        if command not in ("k-heatmap", "resources"):
            args += ["--num-reads", "4", "--seed", "7"]
            expected.update(num_reads=4, seed=7)
        single = command in ("solve", "oracle-compare")
        if single:
            args += ["--num-states", "5", "--gamma", "0.9", "--num-sweeps", "2"]
            expected.update(num_sweeps=2)
        else:
            args += ["--sizes", "4", "5", "--gammas", "0.6", "--k-max", "3"]
            expected.update(sizes=(4, 5), gammas=(0.6,), k_max=3)
        if command == "tts-sweep":
            args += ["--sweep-grid", "1", "2"]
            expected.update(sweep_grid=(1, 2))
        assert main(args) == 0
        (path,) = out.glob("*.json")
        written = json.loads(path.read_text())
        if single:
            assert written["instance"]["num_states"] == 5
            assert written["instance"]["gamma"] == 0.9
            written = written["config"]
        assert written == json.loads(json.dumps(ExperimentConfig(**expected).as_dict(command)))

    @pytest.mark.parametrize("command, flag", [
        ("k-heatmap", "--truncation"), ("k-heatmap", "--penalty-strength"),
        ("k-heatmap", "--reduction-penalty"), ("k-heatmap", "--num-reads"),
        ("k-heatmap", "--seed"), ("k-heatmap", "--sweep-grid"),
        ("resources", "--num-reads"), ("resources", "--seed"), ("resources", "--sweep-grid"),
    ])
    def test_a_grid_refuses_a_flag_its_runner_does_not_read(self, tmp_path, capsys,
                                                            command, flag):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--sizes", "4", "--gammas", "0.6", flag, "1",
                  "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["solve", "oracle-compare"])
    def test_single_instance_without_a_qualifying_order_names_k_max(self, tmp_path, capsys,
                                                                     command):
        # hallway(6, 0.7) needs K = 5
        path = tmp_path / "exp.cfg"
        path.write_text("k_max = 3\n")
        assert main([command, "--config", str(path), "--num-states", "6",
                     "--gamma", "0.7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: no truncation order <= 3 recovers the optimal policy "
                       "for |S|=6, gamma=0.7\n")

    @pytest.mark.parametrize("command, message", [
        (["compile", "--truncation", "2", "--penalty", "nan"], "penalty strength"),
        (["quadratize", "--truncation", "3", "--m-or", "inf"], "reduction penalty"),
        (["anneal", "--truncation", "3", "--m-or", "nan", "--reads", "5", "--sweeps", "2",
          "--beta-start", "0.1", "--beta-end", "1"], "reduction penalty"),
    ], ids=["compile", "quadratize", "anneal"])
    def test_a_non_finite_penalty_strength_exits_2(self, tmp_path, capsys, command, message):
        code = main(command + ["--hallway", "5", "--gamma", "0.9", "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message} must be finite and positive, got ")
        assert not list(tmp_path.iterdir())
