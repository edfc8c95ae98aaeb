import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import platform
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import nlspsa_ik
from nlspsa_ik.artifacts import read_trace_csv
from nlspsa_ik import cli
from nlspsa_ik.baseline import PsoParams, pso_solve
from nlspsa_ik.cli import main
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.kinematics import ChainModel
from nlspsa_ik.objective import LossEvaluator, default_r_ee
from nlspsa_ik.optimizer import SolverParams, solve, solve_many
from nlspsa_ik.scenarios import Scenario, builtin, load_scenario, save_scenario
from nlspsa_ik.svgplot import convergence_svg, posture_svg
from oracle import combined_loss, read_compare_csv, read_sweep_csv


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: a pool that records its size and runs
    each chunk in-process. Returns the list of sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def set_cpus(monkeypatch, usable, total=None):
    """Make this process see ``total`` CPUs (default ``usable``), of which
    its affinity mask allows ``usable``."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: total or usable)
    monkeypatch.setattr(
        cli.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False
    )


class TestRunCommand:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        code = run_cli(
            "run", "--scenario", "1.1", "--seed", "7", "--n-max", "300",
            "--out", tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.1401" in out
        csv_path = tmp_path / "run_1.1_seed7.csv"
        json_path = tmp_path / "run_1.1_seed7.json"
        assert csv_path.exists() and json_path.exists()
        iterations, losses = read_trace_csv(csv_path)
        doc = json.loads(json_path.read_text())
        assert iterations[0] == 0
        assert losses[0] == doc["initial_loss"]
        assert losses[-1] == doc["final_loss"]
        assert doc["evaluations"] == 600

    def test_unknown_scenario_exit_code_and_ids(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "9.9", "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "9.9" in err and "1.1" in err and "2.3" in err

    def test_singular_start_completes(self, tmp_path):
        code = run_cli(
            "run", "--scenario", "1.7", "--seed", "3", "--n-max", "400",
            "--out", tmp_path,
        )
        assert code == 0
        doc = json.loads((tmp_path / "run_1.7_seed3.json").read_text())
        assert np.isfinite(doc["final_loss"])
        assert all(np.isfinite(v) for v in doc["final_q_deg"])

    def test_solver_fault_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "run", "--scenario", "1.1", "--d", "inf", "--a", "1e200",
            "--n-max", "60", "--out", tmp_path,
        )
        assert code == 5
        assert "solver fault" in capsys.readouterr().err

    def test_scenario_from_file(self, tmp_path):
        from nlspsa_ik.scenarios import builtin, save_scenario

        path = tmp_path / "custom.json"
        save_scenario(builtin("1.2"), path)
        code = run_cli(
            "run", "--scenario", path, "--n-max", "100", "--out", tmp_path
        )
        assert code == 0
        assert (tmp_path / "run_1.2_seed0.json").exists()

    def test_weight_override_changes_loss(self, tmp_path):
        run_cli("run", "--scenario", "1.5", "--n-max", "50", "--out", tmp_path)
        base = json.loads((tmp_path / "run_1.5_seed0.json").read_text())
        run_cli(
            "run", "--scenario", "1.5", "--n-max", "50", "--w-jmc", "10",
            "--out", tmp_path,
        )
        heavy = json.loads((tmp_path / "run_1.5_seed0.json").read_text())
        assert heavy["initial_loss"] != base["initial_loss"]
        assert heavy["w_jmc"] == 10.0

    def test_end_effector_weight_override_changes_loss(self, tmp_path):
        run_cli("run", "--scenario", "1.5", "--n-max", "50", "--out", tmp_path)
        base = json.loads((tmp_path / "run_1.5_seed0.json").read_text())
        run_cli(
            "run", "--scenario", "1.5", "--n-max", "50", "--w-ee", "10",
            "--out", tmp_path,
        )
        heavy = json.loads((tmp_path / "run_1.5_seed0.json").read_text())
        assert heavy["initial_loss"] != base["initial_loss"]
        assert heavy["w_ee"] == 10.0
        assert heavy["w_jmc"] == base["w_jmc"]

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run")  # --scenario missing
        assert excinfo.value.code == 2

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "1.1", "--seed", "-1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_every_solver_field_is_a_solver_option(command):
    # _solver_params reads the options named after SolverParams' fields; an
    # option not given is None and keeps the field's default
    subparsers = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    groups = subparsers.choices[command]._action_groups
    options = next(g for g in groups if g.title == "solver parameters")._group_actions
    assert sorted(a.dest for a in options) == sorted(
        f.name for f in dataclasses.fields(SolverParams)
    )
    assert all(a.default is None for a in options)


def _edited_scenario_file(tmp_path, **fields):
    """1.1 saved to a file, with ``fields`` set in its JSON document."""
    path = tmp_path / "edited.json"
    save_scenario(builtin("1.1"), path)
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("expected_initial_loss", None, ""),
        ("expected_initial_loss", "abc", ""),
        ("reported_final_loss", [1], ""),
        ("reported_final_loss", "abc", ""),
        ("expected_initial_loss", float("nan"), "expected_initial_loss is nan"),
        ("reported_final_loss", float("nan"), "reported_final_loss is nan"),
        # the reference's own check fails, not q_jmc's shape check
        ("q0_deg", None, "reference configuration"),
    ],
)
def test_ill_typed_scenario_field_is_a_scenario_error(
    tmp_path, capsys, field, value, named
):
    path = _edited_scenario_file(tmp_path, **{field: value})
    assert run_cli("run", "--scenario", path, "--n-max", "5", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and str(path) in err and named in err


# a string, a bool or a float id, each of which float() or str() used to take
@pytest.mark.parametrize(
    "field, value, named",
    [
        ("link_lengths", "11111111", "link_lengths must be a list of numbers"),
        ("joint_limits", {"q_min": "00000000", "q_max": [180.0] * 8},
         "q_min must be a list of numbers"),
        ("w_ee", "50", "w_ee must be a number"),
        ("w_jmc", True, "w_jmc must be a number"),
        ("target", {"x": "4", "y": 3.0, "theta_deg": 180.0}, "x must be a number"),
        ("q0_deg", [False, 0.0, 0.0, 0.0, 90.0, 0.0, 0.0, 90.0], "q0_deg"),
        ("reported_final_loss", True, "reported_final_loss must be a number"),
        ("id", 1.1, "id must be a string"),
    ],
)
def test_scenario_field_that_is_not_a_json_number_is_a_scenario_error(
    tmp_path, capsys, field, value, named
):
    path = _edited_scenario_file(tmp_path, **{field: value})
    assert run_cli("run", "--scenario", path, "--n-max", "5", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path}: ") and named in err
    assert list(tmp_path.glob("run_*")) == []


def test_scenario_file_that_is_not_utf8_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run_cli("run", "--scenario", path, "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and str(path) in err


def test_nan_joint_limit_in_a_scenario_file_is_a_scenario_error(tmp_path, capsys):
    limits = {"q_min": [float("nan")] + [-180.0] * 7, "q_max": [180.0] * 8}
    path = _edited_scenario_file(tmp_path, joint_limits=limits)
    assert run_cli("run", "--scenario", path, "--n-max", "5", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and "NaN" in err


# the loss weights and the real solver settings; the bound d may be inf
@pytest.mark.parametrize(
    "value, option",
    [
        (value, option)
        for value in ("nan", "inf")
        for option in ("--w-jmc", "--w-ee", "--a", "--A", "--c", "--alpha", "--gamma", "--d")
        if (value, option) != ("inf", "--d")
    ],
)
def test_non_finite_weight_is_a_usage_error(option, value, tmp_path, capsys):
    code = run_cli("run", "--scenario", "1.1", option, value, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    name = option[2:].replace("-", "_")
    must = "positive" if name == "d" else "finite"
    assert err.startswith(f"error: {name} must be {must}") and f"got {value}" in err
    assert list(tmp_path.iterdir()) == []


def test_negative_infinite_bound_is_a_usage_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", "1.1", "--d=-inf", "--out", tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "error: d must be positive, got -inf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_variant_is_not_an_option(command, tmp_path, capsys):
    # plain SPSA is --d inf
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command, "--scenario", "1.1", "--variant", "spsa", "--out", tmp_path)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --variant spsa" in capsys.readouterr().err


def test_unlimited_bound_runs_plain_spsa(tmp_path, capsys):
    assert run_cli("run", "--scenario", "1.1", "--d", "inf", "--n-max", "200",
                   "--out", tmp_path) == 0
    assert capsys.readouterr().out.startswith("run 1.1 seed 0 [nlspsa]: ")
    doc = json.loads((tmp_path / "run_1.1_seed0.json").read_text())
    scenario = builtin("1.1")
    record = solve(scenario.spec, scenario.chain, SolverParams(d=float("inf"), n_max=200))
    assert doc["final_q_deg"] == record.final_iterate.tolist()
    # the default bound would have clipped the largest step
    assert doc["max_step_inf"] == record.max_step_inf > SolverParams().d


def strict_json(path):
    """The document at ``path``, parsed as strict JSON: NaN and Infinity,
    which the json module writes and reads by default, are errors."""
    def reject(constant):
        raise ValueError(f"{path}: non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_plain_spsa_artifacts_are_strict_json(tmp_path):
    faulting = ("--scenario", "1.1", "--d", "inf", "--a", "1e200", "--n-max", "60")
    assert run_cli("run", "--scenario", "1.1", "--d", "inf", "--n-max", "200",
                   "--out", tmp_path) == 0
    assert run_cli("sweep", *faulting, "--seeds", "3", "--out", tmp_path) == 0
    assert run_cli("compare", *faulting, "--seeds", "2", "--out", tmp_path) == 0
    run = strict_json(tmp_path / "run_1.1_seed0.json")
    assert run["params"]["d"] is None and "variant" not in run
    sweep = strict_json(tmp_path / "sweep_1.1.json")
    assert sweep["stats"]["failed"] == 3 and sweep["params"]["d"] is None
    compare = strict_json(tmp_path / "compare_1.1.json")
    assert compare["nlspsa_losses"] == [None, None] and compare["winner"] is None
    assert compare["params"]["d"] is None


def _unbounded_scenario() -> Scenario:
    """1.1 with every lower joint limit at -inf and the first upper one at
    +inf."""
    base = builtin("1.1")
    limits = ((-math.inf,) * 8, (math.inf,) + (180.0,) * 7)
    chain = ChainModel(base.chain.link_lengths, joint_limits=limits)
    return dataclasses.replace(base, chain=chain)


def test_infinite_joint_limits_are_strict_json(tmp_path):
    # null stands for -inf in q_min and +inf in q_max
    scenario = _unbounded_scenario()
    path = tmp_path / "unbounded.json"
    save_scenario(scenario, path)
    assert strict_json(path)["joint_limits"] == {
        "q_min": [None] * 8, "q_max": [None] + [180.0] * 7,
    }
    assert load_scenario(path) == scenario
    assert run_cli("run", "--scenario", path, "--n-max", "30", "--out", tmp_path) == 0
    assert run_cli("sweep", "--scenario", path, "--n-max", "30", "--seeds", "2",
                   "--out", tmp_path) == 0
    for name in ("run_1.1_seed0.json", "sweep_1.1.json"):
        doc = strict_json(tmp_path / name)
        assert doc["joint_limits"] == strict_json(path)["joint_limits"]
        assert load_scenario(tmp_path / name).chain == scenario.chain


def test_infinite_joint_limits_written_as_infinity_still_load(tmp_path):
    scenario = _unbounded_scenario()
    path = tmp_path / "old.json"
    save_scenario(scenario, path)
    doc = json.loads(path.read_text())
    doc["joint_limits"] = {"q_min": [-math.inf] * 8, "q_max": [math.inf] + [180.0] * 7}
    path.write_text(json.dumps(doc))
    assert "-Infinity" in path.read_text()
    assert load_scenario(path) == scenario


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("seeds, scenario", [(0, "1.1"), (-3, "1.1"), (0, "no-such")])
def test_seeds_below_one_is_a_usage_error(command, seeds, scenario, tmp_path, capsys):
    # checked before the scenario is resolved: an unknown one would exit 3
    code = run_cli(
        command, "--scenario", scenario, "--seeds", seeds, "--n-max", "20",
        "--out", tmp_path,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --seeds must be at least 1, got {seeds}\n"
    assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_report_and_determinism(self, tmp_path, capsys):
        args = (
            "sweep", "--scenario", "1.1", "--seeds", "3", "--n-max", "200",
            "--out", tmp_path / "a",
        )
        assert run_cli(*args) == 0
        again = (
            "sweep", "--scenario", "1.1", "--seeds", "3", "--n-max", "200",
            "--out", tmp_path / "b",
        )
        assert run_cli(*again) == 0
        cols_a = read_sweep_csv(tmp_path / "a" / "sweep_1.1.csv")
        cols_b = read_sweep_csv(tmp_path / "b" / "sweep_1.1.csv")
        # identical apart from wall-time, which is inherently nondeterministic
        assert cols_a["seeds"] == cols_b["seeds"]
        for key in ("final_losses", "pos_errors", "theta_errors", "displacements"):
            assert np.array_equal(cols_a[key], cols_b[key]), key

    def test_single_seed_sweep_equals_run(self, tmp_path):
        run_cli(
            "run", "--scenario", "1.3", "--seed", "0", "--n-max", "150",
            "--trace-every", "150", "--out", tmp_path,
        )
        run_cli(
            "sweep", "--scenario", "1.3", "--seeds", "1", "--n-max", "150",
            "--out", tmp_path,
        )
        run_doc = json.loads((tmp_path / "run_1.3_seed0.json").read_text())
        cols = read_sweep_csv(tmp_path / "sweep_1.3.csv")
        assert cols["final_losses"][0] == run_doc["final_loss"]

    def test_stats_recompute_from_csv(self, tmp_path):
        run_cli(
            "sweep", "--scenario", "1.2", "--seeds", "4", "--n-max", "150",
            "--out", tmp_path,
        )
        cols = read_sweep_csv(tmp_path / "sweep_1.2.csv")
        doc = json.loads((tmp_path / "sweep_1.2.json").read_text())
        assert doc["stats"]["median_final_loss"] == np.median(cols["final_losses"])
        assert doc["stats"]["completed"] == 4

    def test_parallel_jobs_flag(self, tmp_path):
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "4", "--n-max", "100",
            "--jobs", "2", "--out", tmp_path,
        )
        assert code == 0
        assert len(read_sweep_csv(tmp_path / "sweep_1.1.csv")["seeds"]) == 4

    def test_worker_count_is_clamped(self, monkeypatch, inline_pool):
        monkeypatch.setattr(cli, "solve_many", lambda spec, chain, params, seeds: seeds)

        def workers(jobs, n_seeds):
            """Workers a sweep of n_seeds starts: one runs without a pool."""
            inline_pool.clear()
            seeds = list(range(n_seeds))
            assert cli._sweep_outcomes(None, None, None, seeds, jobs) == seeds
            return inline_pool[0] if inline_pool else 1

        assert workers(10**6, 10**6) == cli._usable_cpus()
        set_cpus(monkeypatch, 4)
        assert workers(64, 20) == 4
        assert workers(8, 3) == 3
        assert workers(1, 20) == 1
        assert workers(4, 0) == 1
        for jobs in (0, -3):
            with pytest.raises(ValueError):
                workers(jobs, 20)
        # Under taskset -c 0 a 4-CPU host leaves one usable CPU: no pool.
        set_cpus(monkeypatch, 1, total=4)
        assert workers(64, 20) == 1
        assert inline_pool == []

    def test_usable_cpus_without_an_affinity_mask_counts_all_cpus(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._usable_cpus() == 4
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_jobs_below_one_is_a_usage_error(self, tmp_path):
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "4", "--n-max", "10",
            "--jobs", "0", "--out", tmp_path,
        )
        assert code == 2

    def test_pool_never_exceeds_the_clamp(self, tmp_path, monkeypatch, inline_pool):
        set_cpus(monkeypatch, 2, total=8)
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "3", "--n-max", "20",
            "--jobs", "1000", "--out", tmp_path,
        )
        assert code == 0
        assert inline_pool == [2]
        assert len(read_sweep_csv(tmp_path / "sweep_1.1.csv")["seeds"]) == 3

    def test_two_process_sweep_matches_one_process(self, tmp_path, monkeypatch):
        # A real pool of two workers: each worker's seeds give the same
        # results as in the one-process batch.
        set_cpus(monkeypatch, 2)
        per_seed = {}
        for jobs in (2, 1):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "sweep", "--scenario", "1.1", "--seeds", "4", "--n-max", "50",
                "--jobs", jobs, "--out", out,
            )
            assert code == 0
            per_seed[jobs] = json.loads((out / "sweep_1.1.json").read_text())["per_seed"]
        assert [s["seed"] for s in per_seed[2]] == [0, 1, 2, 3]
        for two, one in zip(per_seed[2], per_seed[1], strict=True):
            assert two["final_loss"] == one["final_loss"]
            assert two["dq"] == one["dq"]

    def test_fault_pickles_with_its_iteration(self):
        fault = pickle.loads(pickle.dumps(SolverFault("non-finite loss", iteration=7)))
        assert type(fault) is SolverFault
        assert (str(fault), fault.iteration) == ("non-finite loss", 7)

    def test_two_process_sweep_keeps_each_fault(self, tmp_path, monkeypatch):
        # Faults cross the process pool as pickles, and come back as the
        # one-process sweep reports them.
        set_cpus(monkeypatch, 2)
        faults = {}
        for jobs in (2, 1):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "sweep", "--scenario", "1.1", "--d", "inf", "--a", "1e200",
                "--n-max", "60", "--seeds", "4", "--jobs", jobs, "--out", out,
            )
            assert code == 0
            per_seed = json.loads((out / "sweep_1.1.json").read_text())["per_seed"]
            faults[jobs] = [s["fault"] for s in per_seed]
        assert all(faults[1])
        assert faults[2] == faults[1]

    def test_total_wall_ms_is_measured_wall_time(self, tmp_path, monkeypatch):
        # Per-seed times share out a batch's time; the total is measured and
        # also covers faulted seeds.
        scenario = builtin("1.1")
        record = dataclasses.replace(
            solve(scenario.spec, scenario.chain, SolverParams(n_max=20)),
            elapsed=0.0,
        )

        def slow_solve_many(spec, chain, params, seeds):
            time.sleep(0.05)
            return [record, SolverFault("non-finite loss at iteration 1", iteration=1)]

        monkeypatch.setattr(cli, "solve_many", slow_solve_many)
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "2", "--n-max", "20",
            "--out", tmp_path,
        )
        assert code == 0
        stats = json.loads((tmp_path / "sweep_1.1.json").read_text())["stats"]
        assert (stats["completed"], stats["failed"]) == (1, 1)
        assert stats["median_wall_ms"] == 0.0
        assert stats["total_wall_ms"] >= 50

    def test_csv_and_json_agree_seed_for_seed(self, tmp_path, monkeypatch):
        # both come from one table: the faulted middle seed is nan in the
        # CSV, null in the JSON and in no median
        scenario = builtin("1.1")
        records = solve_many(scenario.spec, scenario.chain, SolverParams(n_max=20), [0, 2])
        fault = SolverFault("non-finite loss at iteration 1", iteration=1)

        def faulting_solve_many(spec, chain, params, seeds):
            return [records[0], fault, records[1]]

        monkeypatch.setattr(cli, "solve_many", faulting_solve_many)
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "3", "--n-max", "20",
            "--out", tmp_path,
        )
        assert code == 0
        cols = read_sweep_csv(tmp_path / "sweep_1.1.csv")
        doc = json.loads((tmp_path / "sweep_1.1.json").read_text())
        assert cols["seeds"] == [entry["seed"] for entry in doc["per_seed"]] == [0, 1, 2]
        for i, entry in enumerate(doc["per_seed"]):
            csv_row = [
                *(cols[k][i] for k in ("final_losses", "pos_errors", "theta_errors", "wall_ms")),
                *cols["displacements"][i],
            ]
            json_row = [
                *(entry[k] for k in ("final_loss", "pos_err", "theta_err", "wall_ms")),
                *(entry["dq"] or [None] * scenario.chain.n),
            ]
            assert [None if math.isnan(v) else v for v in csv_row] == json_row
        assert [entry["fault"] for entry in doc["per_seed"]] == [None, str(fault), None]
        stats = doc["stats"]
        assert (stats["completed"], stats["failed"]) == (2, 1)
        losses = [r.final_loss for r in records]
        assert stats["median_final_loss"] == (losses[0] + losses[1]) / 2
        assert (stats["min_final_loss"], stats["max_final_loss"]) == (min(losses), max(losses))
        assert stats["median_displacement"] == (
            np.median(cols["displacements"][[0, 2]], axis=0).tolist()
        )

    def test_all_faulted_marked(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--scenario", "1.1", "--seeds", "2", "--n-max", "60",
            "--d", "inf", "--a", "1e200", "--out", tmp_path,
        )
        assert code == 0  # sweep completes, marking failures
        doc = json.loads((tmp_path / "sweep_1.1.json").read_text())
        assert doc["stats"]["failed"] == 2
        assert all(seed["fault"] for seed in doc["per_seed"])


class TestCompareCommand:
    def test_emits_csv_and_winner(self, tmp_path, capsys):
        code = run_cli(
            "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "1500",
            "--out", tmp_path,
        )
        assert code == 0
        cols = read_compare_csv(tmp_path / "compare_1.1.csv")
        assert cols["seeds"] == [0, 1]
        assert np.isfinite(cols["nlspsa_losses"]).all()
        assert np.isfinite(cols["pso_losses"]).all()
        doc = json.loads((tmp_path / "compare_1.1.json").read_text())
        assert doc["winner"] in ("nlspsa", "pso")
        assert doc["eval_budget"] == 3000

    def test_all_nlspsa_seeds_faulted_means_no_winner(self, tmp_path, capsys, monkeypatch):
        def faulting_solve_many(spec, chain, params, seeds):
            return [SolverFault("non-finite loss at iteration 1", iteration=1) for _ in seeds]

        monkeypatch.setattr(cli, "solve_many", faulting_solve_many)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "100",
                "--out", tmp_path,
            )
        assert code == 0
        assert "no winner" in capsys.readouterr().out
        doc = json.loads((tmp_path / "compare_1.1.json").read_text())
        assert doc["winner"] is None
        assert doc["nlspsa_median"] is None
        assert doc["nlspsa_losses"] == [None, None]
        assert doc["pso_median"] is not None

    def test_all_pso_seeds_faulted_means_no_winner(self, tmp_path, capsys, monkeypatch):
        # A NaN in every PSO population (100 rows; NLSPSA measures 2 rows
        # and traces at most 4).
        evaluate_many = LossEvaluator.evaluate_many

        def nan_for_pso(self, configs, out=None):
            values = evaluate_many(self, configs, out=out)
            if len(configs) == 100:
                values[0] = np.nan
            return values

        monkeypatch.setattr(LossEvaluator, "evaluate_many", nan_for_pso)
        code = run_cli(
            "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "100",
            "--out", tmp_path,
        )
        assert code == 0
        assert "no winner" in capsys.readouterr().out
        doc = json.loads((tmp_path / "compare_1.1.json").read_text())
        assert doc["winner"] is None
        assert doc["pso_losses"] == [None, None]
        assert doc["pso_median"] is None
        assert doc["nlspsa_median"] is not None
        cols = read_compare_csv(tmp_path / "compare_1.1.csv")
        assert np.isnan(cols["pso_losses"]).all()

    def test_one_faulted_seed_per_solver(self, tmp_path, capsys, monkeypatch):
        # NLSPSA faults on seed 1 and PSO on seed 1: only those slots are
        # missing, and each median is its solver's one finished loss.
        solve_many, pso_solve = cli.solve_many, cli.pso_solve
        pso_seeds = []

        def half_faulting_solve_many(spec, chain, params, seeds):
            assert seeds == [0, 1]
            record = solve_many(spec, chain, params, [0])[0]
            return [record, SolverFault("non-finite loss at iteration 3", iteration=3)]

        def half_faulting_pso_solve(spec, chain, params, seed):
            pso_seeds.append(seed)
            if seed == 1:
                raise SolverFault("non-finite loss at generation 2")
            return pso_solve(spec, chain, params, seed)

        monkeypatch.setattr(cli, "solve_many", half_faulting_solve_many)
        monkeypatch.setattr(cli, "pso_solve", half_faulting_pso_solve)
        code = run_cli(
            "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "100",
            "--out", tmp_path,
        )
        assert code == 0
        assert pso_seeds == [0, 1]
        cols = read_compare_csv(tmp_path / "compare_1.1.csv")
        nl_loss, pso_loss = cols["nlspsa_losses"][0], cols["pso_losses"][0]
        assert np.isfinite([nl_loss, pso_loss]).all()
        assert np.isnan(cols["nlspsa_losses"][1]) and np.isnan(cols["pso_losses"][1])
        doc = json.loads((tmp_path / "compare_1.1.json").read_text())
        assert doc["nlspsa_losses"] == [nl_loss, None]
        assert doc["pso_losses"] == [pso_loss, None]
        assert (doc["nlspsa_median"], doc["pso_median"]) == (nl_loss, pso_loss)
        assert doc["winner"] == ("nlspsa" if nl_loss < pso_loss else "pso")
        assert f"{doc['winner']} wins" in capsys.readouterr().out

    def test_budget_is_twice_n_max(self, tmp_path, monkeypatch):
        # An odd n-max too: both solvers get the same even budget.
        calls = []
        solve_many, pso_solve = cli.solve_many, cli.pso_solve

        def recording_solve_many(spec, chain, params, seeds):
            calls.append(("nlspsa", params.n_max, params.trace_every))
            return solve_many(spec, chain, params, seeds)

        def recording_pso_solve(spec, chain, params, seed):
            calls.append(("pso", params.eval_budget))
            return pso_solve(spec, chain, params, seed)

        monkeypatch.setattr(cli, "solve_many", recording_solve_many)
        monkeypatch.setattr(cli, "pso_solve", recording_pso_solve)
        code = run_cli(
            "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "101",
            "--out", tmp_path,
        )
        assert code == 0
        assert calls == [("nlspsa", 101, 101), ("pso", 202), ("pso", 202)]
        doc = json.loads((tmp_path / "compare_1.1.json").read_text())
        assert doc["eval_budget"] == 202

    def test_bad_pso_settings_fail_before_any_seed_is_solved(
        self, tmp_path, capsys, monkeypatch
    ):
        # the 2 * n-max budget is below the swarm of 100
        solved = []
        monkeypatch.setattr(cli, "solve_many", lambda *args: solved.append(args) or [])
        code = run_cli(
            "compare", "--scenario", "2.1", "--n-max", "40", "--seeds", "2",
            "--out", tmp_path,
        )
        assert code == 2
        assert solved == []
        assert capsys.readouterr().err == (
            "error: eval_budget (80) must cover one evaluation pass of the "
            "population (100)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "option", [["--population", "30"], ["--init-spread", "5"]], ids=lambda o: o[0]
    )
    def test_swarm_is_not_an_option(self, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("compare", "--scenario", "1.1", *option, "--out", tmp_path)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_budget_equal_population_still_valid(self, tmp_path):
        code = run_cli(
            "compare", "--scenario", "1.1", "--seeds", "2", "--n-max", "50",
            "--out", tmp_path,
        )
        assert code == 0
        cols = read_compare_csv(tmp_path / "compare_1.1.csv")
        assert np.isfinite(cols["pso_losses"]).all()


class TestPlotCommand:
    def _make_run(self, tmp_path, n_max=120):
        run_cli(
            "run", "--scenario", "1.7", "--seed", "1", "--n-max", n_max,
            "--out", tmp_path,
        )
        return tmp_path / "run_1.7_seed1.json"

    def test_writes_svgs(self, tmp_path):
        result = self._make_run(tmp_path)
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 0
        posture = tmp_path / "posture_1.7_seed1.svg"
        conv = tmp_path / "convergence_1.7_seed1.svg"
        assert posture.exists() and conv.exists()
        for path in (posture, conv):
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_posture_has_blue_initial_magenta_final_green_target(self, tmp_path):
        result = self._make_run(tmp_path)
        run_cli("plot", "--run", result, "--out", tmp_path)
        svg = (tmp_path / "posture_1.7_seed1.svg").read_text()
        assert 'stroke="blue"' in svg
        assert 'stroke="magenta"' in svg
        assert 'fill="green"' in svg

    def test_missing_artifact_exit_code(self, tmp_path, capsys):
        assert run_cli("plot", "--run", tmp_path / "nope.json") == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_joint_limits_exit_code(self, tmp_path, capsys):
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        doc["joint_limits"] = [[0.0], [1.0]]
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_corrupt_artifact_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run_cli("plot", "--run", bad) == 4

    @pytest.mark.parametrize(
        "row, message",
        [
            ("7", "line 3: 1 cells, expected 2"),
            ("7,oops", "line 3: could not convert string to float: 'oops'"),
            ("7.5,0.25", "line 3: invalid literal for int()"),
        ],
    )
    def test_malformed_trace_row_exit_code(self, tmp_path, capsys, row, message):
        result = self._make_run(tmp_path)
        trace = tmp_path / "run_1.7_seed1.csv"
        lines = trace.read_text().splitlines()
        lines[2] = row
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert "i/o error" in err and f"{trace}, {message}" in err

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_trace_loss_exit_code(self, tmp_path, capsys, cell):
        result = self._make_run(tmp_path)
        trace = tmp_path / "run_1.7_seed1.csv"
        lines = trace.read_text().splitlines()
        lines[2] = f"1,{cell}"
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {trace}, line 3: non-finite loss {cell}\n"
        )
        assert list(tmp_path.glob("*.svg")) == []

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("x", float("nan"), "Pose.x must be finite, got nan"),
            ("theta_deg", 400.0, "Pose.theta_deg must lie in [0, 360), got 400.0"),
        ],
        ids=["nan x", "theta 400"],
    )
    def test_invalid_target_exit_code(self, tmp_path, capsys, key, value, message):
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        doc["target"][key] = value
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {result}: malformed run artifact: ")
        assert message in err
        assert list(tmp_path.glob("*.svg")) == []

    def test_empty_trace_exit_code(self, tmp_path, capsys):
        result = self._make_run(tmp_path)
        (tmp_path / "run_1.7_seed1.csv").write_text("iteration,loss\n")
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        assert "empty loss trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target", {"x": 1.0}),
            ("link_lengths", []),
            ("q0_deg", [0.0]),
            ("final_q_deg", None),
            ("trace_csv", 3),
        ],
    )
    def test_malformed_run_json_exit_code(self, tmp_path, capsys, field, value):
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        doc[field] = value
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert "i/o error" in err and "malformed run artifact" in err

    def test_final_q_deg_that_is_not_json_numbers_exit_code(self, tmp_path, capsys):
        # true used to plot as 1 degree
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        doc["final_q_deg"][0] = True
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {result}: malformed run artifact: ")
        assert "final_q_deg must be a number" in err
        assert list(tmp_path.glob("*.svg")) == []

    @pytest.mark.parametrize(
        "field",
        ["id", "seed", "link_lengths", "q0_deg", "target", "w_jmc", "q_jmc_diag",
         "final_q_deg", "trace_csv"],
    )
    def test_missing_run_json_field_exit_code(self, tmp_path, capsys, field):
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        del doc[field]
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {result}: malformed run artifact: ")
        # a missing diagonal is read as a missing full matrix
        assert repr(field.removesuffix("_diag")) in err
        assert list(tmp_path.glob("*.svg")) == []

    @pytest.mark.parametrize(
        "seed, problem",
        [
            (True, f"be an integer, got {True!r}"),
            (1.5, f"be an integer, got {1.5!r}"),
            ("x y", f"be an integer, got {'x y'!r}"),
            ("a/b", f"be an integer, got {'a/b'!r}"),
            (-1, "be nonnegative, got -1"),
            (2**64, f"be below 2**64, got {2**64}"),
        ],
        ids=["True", "1.5", "x y", "a/b", "-1", "2**64"],
    )
    def test_seed_that_is_not_an_integer_exit_code(self, tmp_path, capsys, seed, problem):
        # the run command's seed rule: an int in [0, 2**64), not bool
        result = self._make_run(tmp_path)
        doc = json.loads(result.read_text())
        doc["seed"] = seed
        result.write_text(json.dumps(doc))
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        message = ValueError(f"seed must {problem}")
        assert capsys.readouterr().err == (
            f"i/o error: {result}: malformed run artifact: {message!r}\n"
        )
        assert list(tmp_path.rglob("*.svg")) == []

    def test_run_json_that_is_not_an_object_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        assert run_cli("plot", "--run", bad, "--out", tmp_path) == 4
        assert "not a JSON object" in capsys.readouterr().err

    def test_run_json_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert run_cli("plot", "--run", bad, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(bad) in err

    def test_trace_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        result = self._make_run(tmp_path)
        trace = tmp_path / "run_1.7_seed1.csv"
        trace.write_bytes(b"iteration,loss\n0,\xff\n")
        assert run_cli("plot", "--run", result, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(trace) in err


class TestSvgRendering:
    def test_zero_iteration_polylines_coincide(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        svg = posture_svg(pts, pts, (1.5, 0.5))
        root = ET.fromstring(svg)
        polylines = [
            el.get("points") for el in root.iter()
            if el.tag.endswith("polyline")
        ]
        assert len(polylines) == 2
        assert polylines[0] == polylines[1]

    def test_straight_chain_renders_horizontal_polyline(self):
        from nlspsa_ik.kinematics import ChainModel, joint_positions

        pts = joint_positions(ChainModel.unit_links(8), np.zeros(8))
        svg = posture_svg(pts, pts, (5.0, 0.0))
        root = ET.fromstring(svg)
        first = next(el for el in root.iter() if el.tag.endswith("polyline"))
        ys = {pair.split(",")[1] for pair in first.get("points").split()}
        assert len(ys) == 1  # all vertices share one pixel row

    def test_convergence_first_point_is_initial_loss(self):
        losses = np.array([0.5, 0.1, 0.01])
        svg = convergence_svg(np.array([0, 1, 2]), losses)
        root = ET.fromstring(svg)
        line = next(el for el in root.iter() if el.tag.endswith("polyline"))
        first_x = float(line.get("points").split()[0].split(",")[0])
        assert first_x == 56.0  # left margin == iteration 0

    def test_convergence_deterministic_bytes(self):
        losses = np.geomspace(1.0, 1e-4, 40)
        a = convergence_svg(np.arange(40), losses)
        b = convergence_svg(np.arange(40), losses)
        assert a == b

    def test_convergence_rejects_empty(self):
        with pytest.raises(ValueError):
            convergence_svg(np.array([]), np.array([]))

    def test_convergence_flat_trace_spans_one_decade(self):
        # Every loss is 1e0, so the axis would span no decade at all.
        root = ET.fromstring(convergence_svg(np.arange(3), np.ones(3)))
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "1e0" in labels and "1e1" in labels
        line = next(el for el in root.iter() if el.tag.endswith("polyline"))
        ys = {float(p.split(",")[1]) for p in line.get("points").split()}
        assert len(ys) == 1 and np.isfinite(list(ys)).all()


def _limited_scenario_file(tmp_path):
    """1.1 with a full r_ee and joint limits 1 degree either side of q0,
    tight enough to clip within 300 iterations."""
    base = builtin("1.1")
    r_ee = default_r_ee()
    r_ee[0, 1] = r_ee[1, 0] = 0.01
    spec = dataclasses.replace(base.spec, r_ee=r_ee)
    q0 = spec.reference
    chain = ChainModel(base.chain.link_lengths, joint_limits=(q0 - 1.0, q0 + 1.0))
    scenario = Scenario(
        id="limited",
        chain=chain,
        spec=spec,
        expected_initial_pose=base.expected_initial_pose,
        expected_initial_loss=combined_loss(spec, chain, q0),
    )
    path = tmp_path / "limited.json"
    save_scenario(scenario, path)
    return path


def _from_artifact(path):
    """The scenario, the solver settings and the document of a run, sweep or
    compare JSON, decoded from the file alone."""
    doc = json.loads(path.read_text())
    params = {**doc["params"]}
    if params["d"] is None:
        params["d"] = math.inf
    return load_scenario(path), SolverParams(**params), doc


def test_run_json_alone_reproduces_the_run(tmp_path):
    code = run_cli(
        "run", "--scenario", _limited_scenario_file(tmp_path), "--seed", "3",
        "--n-max", "300", "--w-jmc", "2.0", "--out", tmp_path,
    )
    assert code == 0
    scenario, params, doc = _from_artifact(tmp_path / "run_limited_seed3.json")
    assert doc["versions"] == {
        "nlspsa_ik": nlspsa_ik.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    assert (scenario.spec.w_jmc, params.n_max) == (2.0, 300)
    record = solve(scenario.spec, scenario.chain, params, doc["seed"])
    assert record.final_iterate.tolist() == doc["final_q_deg"]
    assert record.final_loss == doc["final_loss"]
    # the limits were active, so dropping them would not reproduce the run
    unlimited = solve(
        scenario.spec, ChainModel(scenario.chain.link_lengths), params, doc["seed"]
    )
    assert unlimited.final_iterate.tolist() != doc["final_q_deg"]


def test_sweep_json_alone_reproduces_the_sweep(tmp_path):
    code = run_cli(
        "sweep", "--scenario", _limited_scenario_file(tmp_path), "--seeds", "3",
        "--n-max", "200", "--d", "0.5", "--w-jmc", "3", "--a", "100",
        "--out", tmp_path,
    )
    assert code == 0
    scenario, params, doc = _from_artifact(tmp_path / "sweep_limited.json")
    assert (params.d, params.a, scenario.spec.w_jmc) == (0.5, 100.0, 3.0)
    seeds = [entry["seed"] for entry in doc["per_seed"]]
    records = solve_many(scenario.spec, scenario.chain, params, seeds)
    assert [r.final_loss for r in records] == [
        entry["final_loss"] for entry in doc["per_seed"]
    ]


def test_compare_json_alone_reproduces_the_compare(tmp_path):
    code = run_cli(
        "compare", "--scenario", "2.1", "--d", "inf", "--seeds", "2",
        "--n-max", "100", "--out", tmp_path,
    )
    assert code == 0
    scenario, params, doc = _from_artifact(tmp_path / "compare_2.1.json")
    assert params.d == math.inf
    records = solve_many(scenario.spec, scenario.chain, params, doc["seeds"])
    assert [r.final_loss for r in records] == doc["nlspsa_losses"]
    pso_params = PsoParams(eval_budget=doc["eval_budget"])
    assert [
        pso_solve(scenario.spec, scenario.chain, pso_params, seed).final_loss
        for seed in doc["seeds"]
    ] == doc["pso_losses"]


def test_run_json_records_limits_only_when_set_and_plot_reads_them(tmp_path):
    assert run_cli("run", "--scenario", "1.1", "--n-max", "30", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "run_1.1_seed0.json").read_text())
    assert "joint_limits" not in doc
    limited = _limited_scenario_file(tmp_path)
    assert run_cli("run", "--scenario", limited, "--n-max", "30", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "run_limited_seed0.json").read_text())
    assert set(doc["joint_limits"]) == {"q_min", "q_max"}
    for stem in ("run_1.1_seed0", "run_limited_seed0"):
        assert run_cli("plot", "--run", tmp_path / f"{stem}.json", "--out", tmp_path) == 0


def test_run_loads_no_process_pool(tmp_path):
    # Only a sweep with more than one worker needs the process pool, and
    # importing it costs every command start-up time and memory.
    code = (
        "import sys\n"
        "from nlspsa_ik.cli import main\n"
        "assert main(['run', '--scenario', '1.1', '--n-max', '5', "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlspsa_ik.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_no_command_loads_numpy_random(tmp_path):
    # NLSPSA draws its perturbation bits from the stdlib's random and PSO
    # from its own SplitMix64, so no command imports numpy.random, which
    # with secrets and hmac costs about 5.5 MB.
    out = str(tmp_path)
    code = (
        "import sys\n"
        "from nlspsa_ik.cli import main\n"
        f"assert main(['run', '--scenario', '1.1', '--n-max', '60', '--out', {out!r}]) == 0\n"
        "assert main(['sweep', '--scenario', '2.1', '--seeds', '2', "
        f"'--n-max', '60', '--out', {out!r}]) == 0\n"
        "assert main(['compare', '--scenario', '2.1', '--seeds', '2', "
        f"'--n-max', '60', '--out', {out!r}]) == 0\n"
        f"assert main(['plot', '--run', {out + '/run_1.1_seed0.json'!r}, '--out', {out!r}]) == 0\n"
        "print([m for m in ('numpy.random', 'secrets', 'hmac') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlspsa_ik.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_medians_load_no_masked_arrays(tmp_path):
    # np.median and np.nanmedian import numpy.ma (about 1 MB) to check for
    # masked input; compare and sweep report their medians without them.
    code = (
        "import sys\n"
        "from nlspsa_ik.cli import main\n"
        "assert main(['compare', '--scenario', '2.1', '--seeds', '3', "
        f"'--n-max', '60', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert main(['sweep', '--scenario', '1.1', '--seeds', '3', "
        f"'--n-max', '60', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlspsa_ik.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
