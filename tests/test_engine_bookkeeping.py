"""The batched engine settles its bookkeeping once per perturbation block.

These tests check the engine only by what ``solve_many`` returns. Each
checked seed's row of a batch must equal the per-iteration oracle and the
seed's own one-seed solve, bit for bit. Faults are injected by the
configuration being measured, as the oracle's one-row calls record it, so
they keep their exact iteration and wording whatever order the engine
measures in.
"""
import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nlspsa_ik import optimizer
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.kinematics import ChainModel, forward_kinematics
from nlspsa_ik.objective import LossEvaluator
from nlspsa_ik.optimizer import RunRecord, SolverParams, solve, solve_many
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import (
    assert_same_outcome,
    reference_solve_many,
    three_joint_problem,
    unit_link_problem,
)

EVALUATE_MANY = LossEvaluator.evaluate_many


def full_weights(scenario_id):
    """A built-in problem with full r_ee and q_jmc: each off-diagonal entry
    is a quarter of the geometric mean of its two diagonal entries, which
    keeps both positive-definite."""
    s = builtin(scenario_id)

    def full(m):
        root = np.sqrt(np.diag(m))
        return m + 0.25 * np.outer(root, root) * (1 - np.eye(len(m)))

    return dataclasses.replace(s.spec, r_ee=full(s.spec.r_ee), q_jmc=full(s.spec.q_jmc)), s.chain


def limited(scenario_id, limits):
    """A built-in problem on a chain with joint limits ``limits(reference)``."""
    s = builtin(scenario_id)
    chain = ChainModel(s.chain.link_lengths, joint_limits=limits(s.spec.reference))
    return s.spec, chain


INF = np.inf
# Bounds on either side, on one side only, or none, around 1.1's start.
MIXED_LO = np.array([-INF, -1.0, -INF, -1.0, -1.0, -INF, -1.0, -INF])
MIXED_HI = np.array([1.0, INF, INF, 1.0, 1.0, 1.0, INF, INF])

PROBLEMS = {
    "three-joint": three_joint_problem,
    "forty-joint": lambda: unit_link_problem(40),
    "seventy-joint": lambda: unit_link_problem(70),
    "1.1-full-weights": lambda: full_weights("1.1"),
    "1.1-limits-5-95": lambda: limited("1.1", lambda q0: ((-5.0,) * 8, (95.0,) * 8)),
    # limits that bind: the iterate reaches them, and then a measured plus
    # or minus configuration lies outside them
    "1.1-limits": lambda: limited("1.1", lambda q0: (q0 - 2.0, q0 + 2.0)),
    "1.1-mixed-limits": lambda: limited("1.1", lambda q0: (q0 + MIXED_LO, q0 + MIXED_HI)),
    "2.1-limits": lambda: limited("2.1", lambda q0: (q0 - 3.0, q0 + 3.0)),
}


def problem(name):
    if name in PROBLEMS:
        return PROBLEMS[name]()
    s = builtin(name)
    return s.spec, s.chain


def case(case_id, problem_name, seeds, checked=(), block_values=None, **params):
    """A batch of ``problem_name`` under SolverParams(**params); ``checked``
    defaults to every seed of the batch, and ``block_values``, when set,
    replaces optimizer._BLOCK_VALUES."""
    seeds = list(seeds)
    return pytest.param(
        problem_name, params, seeds, list(checked) or seeds, block_values, id=case_id
    )


SEEDS = (0, 1, 2, 3)
TWENTY = range(20)

CASES = [
    case("1.1-every1", "1.1", [0], n_max=3000, trace_every=1),
    case("1.1-every7", "1.1", [0], n_max=3000, trace_every=7),
    # blocks of 512, 512 and 76 iterations, the last of which ends
    # mid-slice ...
    case("1.1-blocks", "1.1", [0], n_max=1100),
    case("1.1-4seeds-every7", "1.1", SEEDS, n_max=1100, trace_every=7),
    case("1.1-4seeds", "1.1", SEEDS, n_max=1100),
    # ... traced at points that do not divide a slice
    case("1.1-8seeds-every5", "1.1", range(8), n_max=1100, trace_every=5),
    case("1.1-seed5-every3", "1.1", [5], n_max=1200, trace_every=3),
    # the default bound and no bound (plain SPSA)
    *(
        case(f"{sid}-{name}", sid, [7], n_max=1500, d=d)
        for sid in ("1.1", "1.7", "2.1", "2.3")
        for name, d in (("nlspsa", 0.03), ("unlimited", math.inf))
    ),
    *(case(f"{sid}-20seeds", sid, TWENTY, n_max=60, trace_every=7) for sid in builtin_ids()),
    # Long enough that most steps no longer saturate at d, so a rounding
    # difference between the one-row and the batched loss would show.
    *(
        case(f"{sid}-20seeds-full-trace", sid, TWENTY, (0, 7, 19), n_max=1500, trace_every=1)
        for sid in ("1.1", "1.7", "2.1")
    ),
    case("three-joint-2seeds", "three-joint", [4, 9], n_max=150),
    # 40 of a 64-bit word's perturbation bits per iteration, and two 64-bit
    # words (70 of their bits), each across a block boundary at 512
    # iterations
    case("forty-joint-2seeds", "forty-joint", [0, 1], n_max=600, trace_every=7),
    case("seventy-joint", "seventy-joint", [3], n_max=600, trace_every=7),
    # seeds whose streams' states wrap past 2**64, across a block boundary
    case("1.1-extreme-seeds", "1.1", [0, 2**63, 2**64 - 1], n_max=600, trace_every=7),
    # 128-iteration blocks; n_max is a multiple of neither block length
    case("1.1-block128", "1.1", SEEDS, block_values=0, n_max=1100, trace_every=7),
    case("three-joint-block128", "three-joint", SEEDS, block_values=0, n_max=1000, trace_every=9),
    case("three-joint-unlimited", "three-joint", SEEDS, (0, 3), n_max=1000, trace_every=9,
         d=math.inf),
    case("1.1-limits-5-95", "1.1-limits-5-95", [1], n_max=2000),
    case("1.1-limits", "1.1-limits", SEEDS, (0, 3), n_max=1100, trace_every=5),
    case("1.1-mixed-limits", "1.1-mixed-limits", SEEDS, (0, 3), n_max=1100, trace_every=7),
    case("1.1-full-weights", "1.1-full-weights", SEEDS, (0, 3), n_max=1100, trace_every=7),
    # 20 seeds of 20 joints run in blocks of 163 iterations
    case("2.1-limits", "2.1-limits", TWENTY, (0, 19), n_max=600, trace_every=7),
]


@pytest.mark.parametrize("problem_name, params, seeds, checked, block_values", CASES)
def test_batch_row_matches_oracle_and_solo_solve(
    monkeypatch, problem_name, params, seeds, checked, block_values
):
    spec, chain = problem(problem_name)
    params = SolverParams(**params)
    if block_values is not None:
        monkeypatch.setattr(optimizer, "_BLOCK_VALUES", block_values)
        assert optimizer._block_length(len(seeds), chain.n) == optimizer._BLOCK_MIN
    batch = solve_many(spec, chain, params, seeds)
    for seed in checked:
        row = batch[seeds.index(seed)]
        assert isinstance(row, RunRecord)
        (want,) = reference_solve_many(spec, chain, params, [seed])
        assert_same_outcome(row, want)
        if len(seeds) > 1:  # else the batch is the seed's solo run
            assert_same_outcome(solve(spec, chain, params, seed), row)
        assert row.final_pose == forward_kinematics(chain, row.final_iterate)
        assert row.max_step_inf <= params.d * (1 + 1e-9)
        if chain.joint_limits is not None:
            lo, hi = chain.joint_limits
            assert np.all(lo <= row.final_iterate) and np.all(row.final_iterate <= hi)


def test_one_loss_call_per_iteration_and_per_traced_slice(monkeypatch):
    # n_max is a multiple of neither the block nor the slice: blocks of 512,
    # 512 and 76 iterations hold 8, 8 and 2 slices, and every slice holds
    # trace points. The first slice's call also holds the start, so no call
    # has more rows than a slice's iterates and the start, and the loss's
    # work buffers stay the size of the settle scan's.
    scenario = builtin("1.1")
    params = SolverParams(n_max=1100)
    seeds = [0, 1, 2]
    rows = []

    def counting(self, configs, out=None):
        rows.append(len(configs))
        return EVALUATE_MANY(self, configs, out=out)

    monkeypatch.setattr(LossEvaluator, "evaluate_many", counting)
    records = solve_many(scenario.spec, scenario.chain, params, seeds)
    assert all(r.iterations == params.n_max for r in records)
    assert len(rows) == params.n_max + 18
    assert max(rows) == (optimizer._SCAN_ROWS + 1) * len(seeds)


INJECT_AT = 700  # mid-block: the second block runs iterations 513..1024
N_MAX = 1500


def recorded_configs(spec, chain, params, seed):
    """(iteration, "plus" | "minus" | "trace") -> the configuration that
    the oracle measures there for ``seed``, as bytes. Its one-row calls
    measure the start, then for each iteration the plus and the minus
    configuration and, at a trace point, the new iterate."""
    rows = []

    def recording(self, configs, out=None):
        (row,) = configs
        rows.append(row.tobytes())
        return EVALUATE_MANY(self, configs, out=out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LossEvaluator, "evaluate_many", recording)
        reference_solve_many(spec, chain, params, [seed])
    traced = set(range(0, params.n_max + 1, params.trace_every)) | {params.n_max}
    keys = [(0, "trace")]
    for k in range(1, params.n_max + 1):
        keys += [(k, "plus"), (k, "minus")] + ([(k, "trace")] if k in traced else [])
    return dict(zip(keys, rows, strict=True))


def injecting(monkeypatch, values):
    """Replace the loss of each measured row whose configuration, as bytes,
    is a key of ``values`` by its value. Returns the hits per key."""
    hits = collections.Counter()

    def evaluate_many(self, configs, out=None):
        result = EVALUATE_MANY(self, configs, out=out)
        for i, row in enumerate(configs):
            key = row.tobytes()
            if key in values:
                result[i] = values[key]
                hits[key] += 1
        return result

    monkeypatch.setattr(LossEvaluator, "evaluate_many", evaluate_many)
    return hits


def run_injected(monkeypatch, params, plan):
    """1.1's SEEDS in the engine with ``plan``, (iteration, "plus" | "minus"
    | "trace", seed) -> value, injected at the configurations the oracle
    measures there. The seeds whose runs measure a planned configuration
    (every seed for the start, which they share) must give the oracle's
    outcomes under the same injection, and the others their outcomes in a
    clean batch. The engine and the oracle must each measure a planned
    configuration once per seed run that reaches it. Returns the engine's
    outcomes."""
    s = builtin("1.1")
    clean = solve_many(s.spec, s.chain, params, SEEDS)
    recorded = {
        seed: recorded_configs(s.spec, s.chain, params, seed) for seed in {p[2] for p in plan}
    }
    values = {recorded[seed][k, kind]: v for (k, kind, seed), v in plan.items()}
    want_hits = {recorded[seed][k, kind]: len(SEEDS) if k == 0 else 1 for k, kind, seed in plan}
    reached = SEEDS if any(k == 0 for k, _, _ in plan) else sorted(recorded)
    hits = injecting(monkeypatch, values)
    got = solve_many(s.spec, s.chain, params, SEEDS)
    assert hits == want_hits
    hits.clear()
    want = dict(zip(reached, reference_solve_many(s.spec, s.chain, params, reached)))
    assert hits == want_hits
    for seed, outcome, clean_outcome in zip(SEEDS, got, clean, strict=True):
        assert_same_outcome(outcome, want.get(seed, clean_outcome))
    return got


def assert_fault(outcome, what, k, seed):
    assert isinstance(outcome, SolverFault)
    assert (str(outcome), outcome.iteration) == (
        f"non-finite {what} at iteration {k} (seed {seed})", k
    )


@pytest.mark.parametrize(
    "measurement, block_values",
    [
        pytest.param("plus", None, id="plus"),
        pytest.param("minus", None, id="minus"),
        pytest.param("minus", 0, id="minus-block128"),
    ],
)
def test_nan_loss_mid_block_faults_at_its_iteration(monkeypatch, measurement, block_values):
    if block_values is not None:
        monkeypatch.setattr(optimizer, "_BLOCK_VALUES", block_values)
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    outcomes = run_injected(monkeypatch, params, {(INJECT_AT, measurement, 1): np.nan})
    assert_fault(outcomes[1], "loss", INJECT_AT, 1)
    assert all(isinstance(outcomes[s], RunRecord) for s in (0, 2, 3))


def test_non_finite_iterate_is_named_as_such(monkeypatch):
    # Finite but opposite extreme losses make an infinite unsaturated step.
    # The trace point at the same iteration then measures a NaN loss, which
    # the iterate check precedes.
    params = SolverParams(n_max=N_MAX, trace_every=INJECT_AT, d=math.inf)
    k = INJECT_AT
    plan = {(k, "plus", 2): 1e308, (k, "plus", 0): np.nan, (k, "minus", 2): -1e308}
    outcomes = run_injected(monkeypatch, params, plan)
    assert_fault(outcomes[0], "loss", k, 0)
    assert_fault(outcomes[2], "iterate", k, 2)
    assert isinstance(outcomes[1], RunRecord) and isinstance(outcomes[3], RunRecord)


def test_large_mid_block_step_matches_oracle(monkeypatch):
    # Seed 1 takes by far its largest step at iteration 700, mid-block, and
    # runs on to n_max.
    params = SolverParams(n_max=N_MAX, trace_every=INJECT_AT, d=math.inf, a=1e-3)
    got = run_injected(monkeypatch, params, {(INJECT_AT, "plus", 1): 1e3})
    assert got[1].iterations == N_MAX
    assert got[1].max_step_inf > 10 * max(got[s].max_step_inf for s in (0, 2, 3))


def test_non_finite_traced_loss_faults_at_trace_point(monkeypatch):
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    outcomes = run_injected(monkeypatch, params, {(N_MAX, "trace", 1): np.nan})
    assert_fault(outcomes[1], "loss", N_MAX, 1)
    assert isinstance(outcomes[0], RunRecord) and isinstance(outcomes[3], RunRecord)


def test_non_finite_start_loss_faults_every_seed_at_iteration_0(monkeypatch):
    # every seed measures the same start configuration
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    outcomes = run_injected(monkeypatch, params, {(0, "trace", 2): np.nan})
    for s, outcome in zip(SEEDS, outcomes):
        assert_fault(outcome, "loss", 0, s)


def test_evaluations_are_counted_not_assumed(monkeypatch):
    # n_max is a multiple neither of the block nor of trace_every, and no
    # seed faults, so every loss call the evaluator counts belongs
    # to some record's evaluations or trace_evaluations.
    evaluators = []

    def capturing(spec, chain):
        evaluators.append(LossEvaluator(spec, chain))
        return evaluators[-1]

    monkeypatch.setattr(optimizer, "LossEvaluator", capturing)
    scenario = builtin("1.1")
    params = SolverParams(n_max=1100, trace_every=7)
    records = solve_many(scenario.spec, scenario.chain, params, [0, 1, 2])
    assert all(r.iterations == params.n_max for r in records)
    (evaluator,) = evaluators
    assert sum(r.evaluations + r.trace_evaluations for r in records) == evaluator.calls
    assert [r.trace_evaluations for r in records] == [len(r.loss_trace) for r in records]


def test_trace_arrays_are_shared_read_only_views():
    scenario = builtin("1.1")
    params = SolverParams(n_max=600, trace_every=5)
    first, second = solve_many(scenario.spec, scenario.chain, params, [0, 1])
    with pytest.raises(ValueError):
        first.loss_trace[0] = 0.0
    with pytest.raises(ValueError):
        first.trace_iterations[0] = 1
    assert np.shares_memory(first.trace_iterations, second.trace_iterations)
    assert np.array_equal(first.trace_iterations, np.arange(0, 601, 5))


def peak_bytes(run):
    """The traced allocation peak of ``run()`` above what was allocated
    before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_default_solve_stays_under_one_megabyte():
    # 25000 traced iterations: the trace itself is 2 x 200 kB, and neither the
    # gain schedules nor the trace points may exist as full-run arrays or
    # Python lists besides it.
    scenario = builtin("1.1")
    solve(scenario.spec, scenario.chain, SolverParams(n_max=50))  # first-use imports
    assert peak_bytes(lambda: solve(scenario.spec, scenario.chain, SolverParams())) < 1_000_000


def test_block_lengths_follow_the_batch_shape():
    shapes = {(1, 8): 512, (20, 8): 409, (20, 20): 163, (400, 8): 128}
    assert {s: optimizer._block_length(*s) for s in shapes} == shapes


def test_compare_shape_solve_stays_under_one_and_a_quarter_megabytes():
    # 20 seeds of a 20-joint chain, as compare runs them: the block history
    # is bounded by its iterate budget, not 513 iterates long.
    scenario = builtin("2.1")
    params = SolverParams(n_max=600, trace_every=600)
    def run():
        return solve_many(scenario.spec, scenario.chain, params, range(20))

    run()  # first-use imports
    assert peak_bytes(run) < 1_250_000
