"""Checks of the benchmark itself, at a tiny iteration budget.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nlspsa_ik import SolverParams, builtin, builtin_ids, solve_many  # noqa: E402
from perfbench.measure import measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESCRIPTIONS = json.loads((ROOT / "perfbench" / "descriptions.json").read_text())
N_MAX = 60  # the smallest budget at which compare's PSO covers one population
# evaluate_many calls per batch iteration made by solve_many: run traces every
# iteration plus the initial point; sweep and compare trace at 0 and n_max.
CALLS_PER_ITER = {
    "run-1.1": (3 * N_MAX + 1) / N_MAX,
    "sweep-11x20": (2 * N_MAX + 2) / N_MAX,
    "compare-2.x": (2 * N_MAX + 2) / N_MAX,
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric_without_failures(workload, trace):
    report = measure(workload, seed=1, seconds=0.0, trace=trace, n_max=N_MAX)
    result = report["result"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0, report["problems"]
    if trace:
        calls_per_iter = result["metrics"]["objective.calls_per_iter"]["value"]
        assert calls_per_iter == pytest.approx(CALLS_PER_ITER[workload], rel=1e-12)


@pytest.mark.parametrize("scenario_id", builtin_ids())
def test_seed_alone_matches_its_row_in_a_batch(scenario_id):
    # README: each seed owns its PRNG stream, so results do not depend on
    # which seeds share the batch. The sweep workload batches 20 seeds.
    scenario = builtin(scenario_id)
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    batch = solve_many(scenario.spec, scenario.chain, params, range(20))
    for seed in (0, 7):
        alone = solve_many(scenario.spec, scenario.chain, params, [seed])[0]
        assert np.array_equal(alone.final_iterate, batch[seed].final_iterate)


def test_every_workload_and_metric_is_described():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert set(DESCRIPTIONS["workloads"]) == set(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        assert set(DESCRIPTIONS[kind]) == {m["name"] for m in BENCHMARK[kind]}


def test_run_seeds_stay_in_their_workload_seed_block():
    # However many passes fit in a run, workload seed 1 solves only 20..39.
    run = WORKLOADS["run-1.1"]
    assert {run.commands(1, i)[0].seeds[0] for i in range(50)} == set(range(20, 40))
