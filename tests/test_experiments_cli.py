"""Experiment-runner and CLI surface tests (small, fast configurations)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from mdpspin import compiler, experiments
from mdpspin.anneal import AnnealSchedule, simulated_anneal
from mdpspin.cli import main, parse_config_file
from mdpspin.compiler import CompilerConfig, minimal_truncation_order
from mdpspin.dp import QLearningConfig
from mdpspin.experiments import (ExperimentConfig, prepare, run_k_heatmap,
                                 run_oracle_compare, run_resources, run_solve,
                                 run_tts_sweep)
from mdpspin.mdp import HALLWAY_SLIP, ParseError, build_hallway, save_mdp
from mdpspin.quadratize import REDUCTION_PENALTY


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

    def test_policy_match_rule_counts_at_least_the_energy_hits(self):
        # a read that attains the ground energy projects onto the unique
        # ground-state policy, so the policy rule can only count more reads
        energy = run_solve(fast_config(truncation=3), 6, 0.99)
        policy = run_solve(fast_config(truncation=3, match_rule="policy"), 6, 0.99)
        assert energy["exhaustive"]["num_minimizers"] == 1
        assert policy["config"]["match_rule"] == "policy"
        assert (policy["sa"]["success_probability"]
                >= energy["sa"]["success_probability"])


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
    rows = run_k_heatmap(fast_config(sizes=(13,), gammas=(0.9,)))
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
    assert a[0]["result"] == b[0]["result"]
    assert (tmp_path / "tts_sweep_summary.csv").exists()


def test_run_resources_rows(tmp_path):
    config = fast_config(sizes=(4, 6), gammas=(0.9,), out_dir=str(tmp_path))
    rows = run_resources(config)
    assert [r["num_states"] for r in rows] == [4, 6]
    assert all(r["report"].coefficient_count > 0 for r in rows)
    header = (tmp_path / "resources.csv").read_text().splitlines()[0]
    assert header.startswith("num_states,gamma,truncation")


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

    @pytest.mark.parametrize("field", [f for f in dataclasses.fields(ExperimentConfig)
                                       if f.name != "experiment"], ids=lambda f: f.name)
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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 3\n")
        with pytest.raises(ParseError):
            parse_config_file(str(path))

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

    @pytest.mark.parametrize("command, table", [("tts-sweep", "tts_sweep.csv"),
                                                ("resources", "resources.csv")])
    def test_grid_survives_a_cell_too_large_for_the_k_search(self, tmp_path, capsys,
                                                             command, table):
        # 13 states: 26 policy bits exceed the K search's limit of 24
        args = [command, "--sizes", "4", "13", "--gammas", "0.6", "--out", str(tmp_path)]
        if command == "tts-sweep":
            args += ["--num-reads", "20", "--sweep-grid", "1"]
        assert main(args) == 0
        rows = (tmp_path / table).read_text().splitlines()[1:]
        assert rows and all(row.startswith("4,0.6,") for row in rows)
        out = capsys.readouterr().out
        if command == "tts-sweep":
            assert "|S|=13 gamma=0.6: unavailable: 26 policy bits" in out
        else:
            assert "|S|=13" not in out

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
    def test_single_instance_too_large_for_the_k_search_exits_3(self, command, capsys):
        assert main([command, "--num-states", "13", "--gamma", "0.6"]) == 3

    @pytest.mark.parametrize("command", ["solve", "oracle-compare", "k-heatmap",
                                         "tts-sweep", "resources"])
    def test_every_experiment_flag_reaches_the_config(self, tmp_path, capsys, command):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("num_qlearning_seeds = 1\nqlearning_episodes = 50\n")
        out = tmp_path / "out"
        args = [command, "--config", str(config_file), "--truncation", "2",
                "--penalty-strength", "3.5", "--reduction-penalty", "6.5",
                "--num-reads", "4", "--seed", "7", "--out", str(out)]
        expected = dict(experiment=command, truncation=2, penalty_strength=3.5,
                        reduction_penalty=6.5, num_reads=4, seed=7,
                        num_qlearning_seeds=1, qlearning_episodes=50, out_dir=str(out))
        single = command in ("solve", "oracle-compare")
        if single:
            args += ["--num-states", "5", "--gamma", "0.9", "--num-sweeps", "2"]
            expected.update(num_sweeps=2)
        else:
            args += ["--sizes", "4", "5", "--gammas", "0.6", "--k-max", "3",
                     "--sweep-grid", "1", "2"]
            expected.update(sizes=(4, 5), gammas=(0.6,), k_max=3, sweep_grid=(1, 2))
        assert main(args) == 0
        (path,) = out.glob("*.json")
        written = json.loads(path.read_text())
        if single:
            assert written["instance"]["num_states"] == 5
            assert written["instance"]["gamma"] == 0.9
            written = written["config"]
        assert written == json.loads(json.dumps(ExperimentConfig(**expected).as_dict()))
