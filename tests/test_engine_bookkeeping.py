"""The batched engine settles its bookkeeping once per perturbation block.

These tests pin that bookkeeping to a per-iteration reference loop, bit for
bit, and check that faults keep their exact iteration and wording and that a
seed's result does not depend on the batch it runs in.
"""
import tracemalloc

import numpy as np
import pytest

from nlspsa_ik import optimizer
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.objective import LossEvaluator
from nlspsa_ik.optimizer import RunRecord, SolverParams, solve, solve_many
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import assert_same_outcome, reference_solve_many, three_joint_problem


@pytest.mark.parametrize(
    "seeds, overrides",
    [
        ([0], {"n_max": 3000, "trace_every": 1}),
        ([0], {"n_max": 3000, "trace_every": 7}),
        # blocks of 512, 512 and 76 iterations, the last of which ends
        # mid-slice ...
        ([0], {"n_max": 1100}),
        ([0, 1, 2, 3], {"n_max": 1100, "trace_every": 7}),
        ([0, 1, 2, 3], {"n_max": 1100}),
        # ... traced at points that do not divide a slice
        (range(8), {"n_max": 1100, "trace_every": 5}),
    ],
)
def test_engine_matches_per_iteration_oracle(seeds, overrides):
    scenario = builtin("1.1")
    params = SolverParams(**overrides)
    got = solve_many(scenario.spec, scenario.chain, params, seeds)
    want = reference_solve_many(scenario.spec, scenario.chain, params, seeds)
    for g, w in zip(got, want, strict=True):
        assert_same_outcome(g, w)
        assert g.iterations == params.n_max
        assert g.evaluations == 2 * g.iterations


def test_one_loss_call_per_iteration_and_per_traced_slice(monkeypatch):
    # n_max is a multiple of neither the block nor the slice: blocks of 512,
    # 512 and 76 iterations hold 8, 8 and 2 slices, and every slice holds
    # trace points. No call has more rows than a slice's iterates, so the
    # loss's work buffers stay the size of the settle scan's.
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
    assert len(rows) == params.n_max + 1 + 18
    assert max(rows) == optimizer._SCAN_ROWS * len(seeds)


def test_single_seed_solve_matches_oracle():
    scenario = builtin("1.1")
    params = SolverParams(n_max=1200, trace_every=3)
    want = reference_solve_many(scenario.spec, scenario.chain, params, [5])[0]
    assert_same_outcome(solve(scenario.spec, scenario.chain, params, 5), want)


INJECT_AT = 700  # mid-block: the second block runs iterations 513..1024
N_MAX = 1500
SEEDS = [0, 1, 2, 3]


EVALUATE_MANY = LossEvaluator.evaluate_many


def trace_points(params):
    return set(range(0, params.n_max + 1, params.trace_every)) | {params.n_max}


def engine_positions(params, n_seeds=len(SEEDS), n=8):
    """(iteration, "plus" | "minus" | "trace", seed) -> (call index, row) in
    the engine, for run_batch's batch by default. Call 0 is the initial
    trace point. Each iteration makes one call, whose rows are every seed's
    plus and then every seed's minus configuration. After each slice of a
    block, one call evaluates the slice's trace points, seed by seed within
    each point."""
    traced = trace_points(params)
    block = optimizer._block_length(n_seeds, n)
    where = {(0, "trace", s): (0, s) for s in range(n_seeds)}
    call = 0
    for block_start in range(0, params.n_max, block):
        block_end = min(block_start + block, params.n_max)
        for lo in range(block_start, block_end, optimizer._SCAN_ROWS):
            hi = min(lo + optimizer._SCAN_ROWS, block_end)
            for k in range(lo + 1, hi + 1):
                call += 1
                for s in range(n_seeds):
                    where[k, "plus", s] = (call, s)
                    where[k, "minus", s] = (call, n_seeds + s)
            slice_ks = [k for k in range(lo + 1, hi + 1) if k in traced]
            if slice_ks:
                call += 1
                for i, k in enumerate(slice_ks):
                    for s in range(n_seeds):
                        where[k, "trace", s] = (call, i * n_seeds + s)
    return where


def oracle_positions(params):
    """The same map for one seed's reference_solve_many, whose calls each
    measure one row: the initial trace point, then for each iteration k a
    plus call, a minus call and, at a trace point, a trace call."""
    traced = trace_points(params)
    where = {(0, "trace", 0): (0, 0)}
    call = 0
    for k in range(1, params.n_max + 1):
        for kind in ("plus", "minus", "trace") if k in traced else ("plus", "minus"):
            call += 1
            where[k, kind, 0] = (call, 0)
    return where


def injecting(monkeypatch, plan, positions):
    """Replace evaluate_many's result rows as ``plan`` says: (iteration,
    "plus" | "minus" | "trace", seed) -> value, at the call and row that
    ``positions`` maps each key to."""
    original = EVALUATE_MANY
    at_call = {}
    for key, value in plan.items():
        call, row = positions[key]
        at_call.setdefault(call, {})[row] = value
    calls = iter(range(10**9))

    def evaluate_many(self, configs, out=None):
        values = original(self, configs, out=out)
        for row, value in at_call.get(next(calls), {}).items():
            values[row] = value
        return values

    monkeypatch.setattr(LossEvaluator, "evaluate_many", evaluate_many)


# Built before any test replaces evaluate_many: building a scenario
# evaluates its initial loss, which would shift the injected call numbers.
SCENARIO_1_1 = builtin("1.1")


def run_batch(params):
    return solve_many(SCENARIO_1_1.spec, SCENARIO_1_1.chain, params, SEEDS)


def assert_oracle_agrees(monkeypatch, params, plan, outcomes):
    """reference_solve_many gives ``outcomes`` with ``plan`` injected. It runs
    one seed per call, as a faulted seed makes fewer calls."""
    for s, outcome in zip(SEEDS, outcomes, strict=True):
        own = {(k, kind, 0): v for (k, kind, seed), v in plan.items() if seed == s}
        injecting(monkeypatch, own, oracle_positions(params))
        (want,) = reference_solve_many(SCENARIO_1_1.spec, SCENARIO_1_1.chain, params, [s])
        assert_same_outcome(outcome, want)


@pytest.mark.parametrize("measurement", ["plus", "minus"])
def test_nan_loss_mid_block_faults_at_its_iteration(monkeypatch, measurement):
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    clean = run_batch(params)
    injecting(monkeypatch, {(INJECT_AT, measurement, 1): np.nan}, engine_positions(params))
    outcomes = run_batch(params)
    fault = outcomes[1]
    assert isinstance(fault, SolverFault)
    assert fault.iteration == INJECT_AT
    assert str(fault) == f"non-finite loss at iteration {INJECT_AT} (seed 1)"
    for s in (0, 2, 3):
        assert_same_outcome(outcomes[s], clean[s])
        assert outcomes[s].evaluations == 2 * outcomes[s].iterations == 2 * N_MAX


def test_non_finite_iterate_is_named_as_such(monkeypatch):
    # Finite but opposite extreme losses make an infinite unsaturated step.
    # The trace point at the same iteration then measures a NaN loss, which
    # the iterate check precedes.
    params = SolverParams(n_max=N_MAX, trace_every=INJECT_AT, variant="spsa")
    clean = run_batch(params)
    k = INJECT_AT
    plan = {(k, "plus", 2): 1e308, (k, "plus", 0): np.nan, (k, "minus", 2): -1e308}
    injecting(monkeypatch, plan, engine_positions(params))
    outcomes = run_batch(params)
    assert (str(outcomes[0]), outcomes[0].iteration) == (
        f"non-finite loss at iteration {k} (seed 0)", k
    )
    assert (str(outcomes[2]), outcomes[2].iteration) == (
        f"non-finite iterate at iteration {k} (seed 2)", k
    )
    for s in (1, 3):
        assert_same_outcome(outcomes[s], clean[s])
    assert_oracle_agrees(monkeypatch, params, plan, outcomes)


def test_large_mid_block_step_matches_oracle(monkeypatch):
    # Seed 1 takes by far its largest step at iteration 700, mid-block, and
    # runs on to n_max.
    params = SolverParams(n_max=N_MAX, trace_every=INJECT_AT, variant="spsa", a=1e-3)
    plan = {(INJECT_AT, "plus", 1): 1e3}
    injecting(monkeypatch, plan, engine_positions(params))
    got = run_batch(params)
    assert got[1].iterations == N_MAX
    assert got[1].max_step_inf > 10 * max(got[s].max_step_inf for s in (0, 2, 3))
    assert_oracle_agrees(monkeypatch, params, plan, got)


def test_non_finite_traced_loss_faults_at_trace_point(monkeypatch):
    params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
    plan = {(0, "trace", 2): np.nan, (N_MAX, "trace", 1): np.nan}
    injecting(monkeypatch, plan, engine_positions(params))
    outcomes = run_batch(params)
    assert (str(outcomes[2]), outcomes[2].iteration) == (
        "non-finite loss at iteration 0 (seed 2)", 0
    )
    assert outcomes[1].iteration == N_MAX
    assert isinstance(outcomes[0], RunRecord) and isinstance(outcomes[3], RunRecord)
    assert_oracle_agrees(monkeypatch, params, plan, outcomes)


@pytest.mark.parametrize("scenario_id", builtin_ids())
def test_seed_alone_matches_its_row_in_a_batch(scenario_id):
    scenario = builtin(scenario_id)
    params = SolverParams(n_max=60, trace_every=7)
    batch = solve_many(scenario.spec, scenario.chain, params, range(20))
    for seed in range(20):
        alone = solve_many(scenario.spec, scenario.chain, params, [seed])[0]
        assert_same_outcome(batch[seed], alone)


@pytest.mark.parametrize("scenario_id", ["1.1", "1.7", "2.1"])
def test_seed_alone_matches_its_batch_row_over_a_full_trace(scenario_id):
    # Long enough that most steps no longer saturate at d, so a rounding
    # difference between the one-row and the batched loss would show.
    scenario = builtin(scenario_id)
    params = SolverParams(n_max=1500, trace_every=1)
    batch = solve_many(scenario.spec, scenario.chain, params, range(20))
    for seed in (0, 7, 19):
        alone = solve_many(scenario.spec, scenario.chain, params, [seed])[0]
        row = batch[seed]
        assert np.array_equal(alone.final_iterate, row.final_iterate)
        assert np.array_equal(alone.loss_trace, row.loss_trace)
        assert alone.best_loss == row.best_loss
        assert alone.max_step_inf == row.max_step_inf


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


@pytest.mark.parametrize("case", ["traced", "odd_joints", "nan_loss"])
def test_block_length_does_not_change_outcomes(monkeypatch, case):
    plan = None
    if case == "traced":
        # n_max is a multiple of neither block length
        scenario = builtin("1.1")
        spec, chain = scenario.spec, scenario.chain
        params = SolverParams(n_max=1100, trace_every=7)
    elif case == "odd_joints":
        # n_max is a multiple of neither block length
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=1000, trace_every=9)
    else:
        scenario = builtin("1.1")
        spec, chain = scenario.spec, scenario.chain
        params = SolverParams(n_max=N_MAX, trace_every=N_MAX)
        plan = {(INJECT_AT, "minus", 1): np.nan}

    def run():
        if plan is not None:
            injecting(monkeypatch, plan, engine_positions(params))
        return solve_many(spec, chain, params, SEEDS)

    assert optimizer._block_length(len(SEEDS), chain.n) == 512
    want = run()
    monkeypatch.setattr(optimizer, "_BLOCK_VALUES", 0)
    assert optimizer._block_length(len(SEEDS), chain.n) == 128
    got = run()
    for g, w in zip(got, want, strict=True):
        assert_same_outcome(g, w)
    if case == "nan_loss":
        assert got[1].iteration == INJECT_AT
        assert str(got[1]) == f"non-finite loss at iteration {INJECT_AT} (seed 1)"


def test_compare_shape_solve_stays_under_one_and_a_quarter_megabytes():
    # 20 seeds of a 20-joint chain, as compare runs them: the block history
    # is bounded by its iterate budget, not 513 iterates long.
    scenario = builtin("2.1")
    params = SolverParams(n_max=600, trace_every=600)
    def run():
        return solve_many(scenario.spec, scenario.chain, params, range(20))

    run()  # first-use imports
    assert peak_bytes(run) < 1_250_000
