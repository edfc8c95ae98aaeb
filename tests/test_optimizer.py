import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nlspsa_ik
from nlspsa_ik import baseline, optimizer
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.objective import LossEvaluator
from nlspsa_ik.optimizer import (
    RunRecord,
    SolverParams,
    SplitMix64,
    saturate,
    solve,
    solve_many,
)
from nlspsa_ik.scenarios import builtin
from oracle import (
    gain_schedules,
    loss_gradient,
    splitmix64_words,
    spsa_gradient,
    three_joint_problem,
    unit_link_problem,
)

DEFAULTS = SolverParams()
EVALUATE_MANY = LossEvaluator.evaluate_many


def counting_helpers(monkeypatch):
    """Wrap optimizer.saturate and optimizer._estimate with call counters."""
    calls = {"saturate": 0, "_estimate": 0}

    def counted(name):
        inner = getattr(optimizer, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(optimizer, name, wrapper)

    counted("saturate")
    counted("_estimate")
    return calls


class TestSolverParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.0}, {"c": -1.0}, {"alpha": 0.0}, {"gamma": 0.0}, {"d": 0.0},
            {"A": -1.0}, {"n_max": 0}, {"n_max": 100.0},
            {"trace_every": 0},
            *(
                {name: value}
                for name in ("a", "A", "c", "alpha", "gamma")
                for value in (math.nan, math.inf)
            ),
            {"d": math.nan}, {"d": -math.inf},
            {"trace_every": 2.0}, {"n_max": True}, {"trace_every": np.True_},
        ],
    )
    def test_rejects(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            SolverParams(**kwargs)

    def test_accepts_numpy_counts_as_ints(self):
        params = SolverParams(n_max=np.int64(50), trace_every=np.int32(7))
        assert (params.n_max, params.trace_every) == (50, 7)
        assert type(params.n_max) is int and type(params.trace_every) is int

    def test_accepts_an_unlimited_bound(self):
        assert SolverParams(d=math.inf).d == math.inf

    @pytest.mark.parametrize("name", ["a", "A", "c", "alpha", "gamma", "d"])
    @pytest.mark.parametrize("value", [True, np.True_, "1.0"], ids=["True", "np.True_", "str"])
    def test_rejects_a_gain_that_is_not_a_number(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be a number, got "):
            SolverParams(**{name: value})

    def test_accepts_numpy_gains_as_floats(self):
        params = SolverParams(
            a=np.float32(3000), A=np.int64(10), c=np.float16(0.5), d=np.int32(1)
        )
        gains = [params.a, params.A, params.c, params.alpha, params.gamma, params.d]
        assert gains == [3000.0, 10.0, 0.5, 0.602, 0.101, 1.0]
        assert all(type(v) is float for v in gains)


class TestSpsaGradient:
    def test_constant_loss_gives_zero(self):
        g = spsa_gradient(lambda q: 3.5, np.zeros(4), 0.1, np.ones(4))
        assert np.array_equal(g, np.zeros(4))

    def test_symmetric_difference_at_minimum(self):
        g = spsa_gradient(lambda q: float(q @ q), np.zeros(1), 0.2, np.array([1.0]))
        assert g == pytest.approx([0.0], abs=1e-15)

    def test_two_evaluations_exactly(self):
        count = 0

        def loss(q):
            nonlocal count
            count += 1
            return float(q @ q)

        spsa_gradient(loss, np.ones(10), 0.1, np.ones(10))
        assert count == 2

    def test_average_over_patterns_equals_gradient_2d(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([-0.5, 1.5])
        phi = np.array([0.7, -1.2])
        loss = lambda q: float(0.5 * q @ h @ q + b @ q)
        estimates = [
            spsa_gradient(loss, phi, 0.37, np.array(delta, dtype=float))
            for delta in itertools.product((-1, 1), repeat=2)
        ]
        assert np.mean(estimates, axis=0) == pytest.approx(h @ phi + b, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_unbiased_on_random_quadratics(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        h = m @ m.T + n * np.eye(n)
        b = rng.normal(size=n)
        phi = rng.normal(size=n)
        loss = lambda q: float(0.5 * q @ h @ q + b @ q)
        estimates = [
            spsa_gradient(loss, phi, 0.05, np.array(delta, dtype=float))
            for delta in itertools.product((-1, 1), repeat=n)
        ]
        assert np.mean(estimates, axis=0) == pytest.approx(h @ phi + b, abs=1e-9)

    def test_rejects_zero_delta_component(self):
        with pytest.raises(ValueError):
            spsa_gradient(lambda q: 0.0, np.zeros(2), 0.1, np.array([1.0, 0.0]))

    def test_rejects_nonpositive_ck(self):
        with pytest.raises(ValueError):
            spsa_gradient(lambda q: 0.0, np.zeros(2), 0.0, np.ones(2))

    def test_rejects_delta_of_another_shape(self):
        with pytest.raises(ValueError, match=r"delta shape \(3,\) != phi shape \(2,\)"):
            spsa_gradient(lambda q: 0.0, np.zeros(2), 0.1, np.ones(3))

    def test_non_finite_loss_is_a_fault(self):
        with pytest.raises(SolverFault):
            spsa_gradient(lambda q: math.inf, np.zeros(2), 0.1, np.ones(2))


LOSS_IDS = tuple(f"1.{i}" for i in range(1, 9))


def loss_point(scenario_id):
    """The loss of an 8-joint scenario and a point phi away from its start.
    The offsets sum to 8 deg, so theta is at least 8 deg from the 0/360 wall
    (1.7 and 1.8 start at theta 0), beyond the 0.8 deg that a perturbation
    of c = 0.1 can move it."""
    s = builtin(scenario_id)
    phi = s.spec.reference + np.linspace(-3.0, 5.0, 8)
    return s, LossEvaluator(s.spec, s.chain), phi


class TestEstimatorOnTheLoss:
    @pytest.mark.parametrize("scenario_id", LOSS_IDS)
    def test_closed_form_gradient_matches_central_differences(self, scenario_id):
        s, loss, phi = loss_point(scenario_id)
        h = 1e-4
        central = np.array(
            [(loss(phi + h * e) - loss(phi - h * e)) / (2 * h) for e in np.eye(8)]
        )
        gradient = loss_gradient(s.spec, s.chain, phi)
        assert np.abs(central - gradient).max() <= 1e-7 * np.abs(gradient).max()

    @pytest.mark.parametrize("scenario_id", LOSS_IDS)
    def test_pattern_average_bias_falls_as_c_squared(self, scenario_id):
        # The average over all 256 patterns of the two-measurement estimate
        # has an O(c^2) bias (Spall 1992, Lemma 1): it falls 4x as c halves.
        s, loss, phi = loss_point(scenario_id)
        gradient = loss_gradient(s.spec, s.chain, phi)
        patterns = [np.array(p) for p in itertools.product((-1.0, 1.0), repeat=8)]
        biases = []
        for c in (0.1, 0.05, 0.025):
            mean = np.mean([spsa_gradient(loss, phi, c, p) for p in patterns], axis=0)
            biases.append(np.abs(mean - gradient).max())
        assert biases[0] / biases[1] == pytest.approx(4.0, rel=5e-3)
        assert biases[1] / biases[2] == pytest.approx(4.0, rel=5e-3)

    def test_gradient_at_the_straight_start_of_1_7_is_zero(self):
        s = builtin("1.7")
        assert np.all(loss_gradient(s.spec, s.chain, s.spec.reference) == 0.0)


class TestSaturate:
    def test_examples(self):
        assert saturate(np.array([0.01, -0.5]), 0.03) == pytest.approx([0.01, -0.03])
        assert np.array_equal(saturate(np.zeros(3), 1.0), np.zeros(3))
        assert saturate(np.array([0.03]), 0.03) == pytest.approx([0.03])

    def test_rejects_nonpositive_bound(self):
        for d in (0.0, math.nan):
            with pytest.raises(ValueError, match=f"^saturation bound must be positive, got {d}$"):
                saturate(np.ones(2), d)

    def test_unlimited_bound_returns_its_input_bit_for_bit(self):
        x = np.concatenate(
            [
                [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.7976931348623157e308],
                np.random.default_rng(3).normal(scale=1e3, size=100),
            ]
        )
        x[10] = -math.nan  # a NaN with its sign bit set
        s = saturate(x, math.inf)
        assert s.tobytes() == x.tobytes()

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_properties(self, values, d):
        x = np.asarray(values)
        s = saturate(x, d)
        assert np.abs(s).max() <= d                          # bounded
        assert np.array_equal(saturate(-x, d), -s)           # odd
        assert np.array_equal(saturate(s, d), s)             # idempotent
        assert np.all(np.abs(s) <= np.abs(x))                # non-expansive

    @pytest.mark.parametrize("d", [0.03, 1.0, 1e-300, 5e300])
    def test_equals_the_sign_times_magnitude_form(self, d):
        # frozen oracle: saturate's form before it became the engine's
        # min/max expression
        def oracle(x):
            return np.sign(x) * np.minimum(np.abs(x), d)

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, d, -d, 1e-300, -1e-300]
        x = np.concatenate([special, np.random.default_rng(5).normal(size=200)])
        assert np.array_equal(saturate(x, d), oracle(x), equal_nan=True)
        # The one difference, which array_equal cannot see: -0.0 now keeps
        # its sign, where sign(-0.0) * 0.0 gave +0.0.
        zeros = np.array([0.0, -0.0])
        assert np.signbit(saturate(zeros, d)).tolist() == [False, True]
        assert np.signbit(oracle(zeros)).tolist() == [False, False]


class TestSolve:
    def test_budget_exactness_and_trace_bookkeeping(self):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=500)
        rec = solve(spec, chain, params, 3)
        assert rec.evaluations == 2 * 500
        assert rec.iterations == 500
        assert len(rec.loss_trace) == 501
        assert rec.trace_evaluations == 501
        assert np.array_equal(rec.trace_iterations, np.arange(501))
        assert rec.loss_trace[0] == rec.initial_loss
        assert rec.loss_trace[-1] == rec.final_loss

    def test_total_measurements_match_counter(self):
        spec, chain = three_joint_problem()
        rec = solve(spec, chain, SolverParams(n_max=200), 1)
        assert rec.evaluations + rec.trace_evaluations == 2 * 200 + 201

    def test_trace_subsampling_always_includes_final(self):
        spec, chain = three_joint_problem()
        rec = solve(spec, chain, SolverParams(n_max=20, trace_every=7), 0)
        assert list(rec.trace_iterations) == [0, 7, 14, 20]
        assert rec.final_loss == rec.loss_trace[-1]
        assert rec.trace_evaluations == 4

    def test_losses_are_read_from_the_trace(self):
        scenario = builtin("1.1")
        rec = solve(scenario.spec, scenario.chain, SolverParams(n_max=300, trace_every=7), 0)
        assert len(dataclasses.fields(RunRecord)) == 10
        trace = rec.loss_trace
        assert (rec.initial_loss, rec.final_loss, rec.best_loss) == (
            trace[0], trace[-1], trace.min()
        )
        assert {type(rec.initial_loss), type(rec.final_loss), type(rec.best_loss)} == {float}
        with pytest.raises(AttributeError):
            rec.final_loss = 0.0

    def test_deterministic_given_seed(self):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=300)
        a = solve(spec, chain, params, 11)
        b = solve(spec, chain, params, 11)
        assert np.array_equal(a.final_iterate, b.final_iterate)
        assert a.final_loss == b.final_loss
        assert np.array_equal(a.loss_trace, b.loss_trace)
        c = solve(spec, chain, params, 12)
        assert not np.array_equal(a.final_iterate, c.final_iterate)

    def test_single_iteration_stays_within_bound(self):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=1)
        rec = solve(spec, chain, params, 5)
        assert np.abs(rec.final_iterate - spec.reference).max() <= params.d * (1 + 1e-12)

    def test_step_bound_holds_throughout(self):
        scenario = builtin("1.1")
        rec = solve(scenario.spec, scenario.chain, SolverParams(n_max=800), 2)
        assert rec.max_step_inf <= DEFAULTS.d * (1 + 1e-9)

    def test_reference_schedules_frozen_values(self):
        a_ks, c_ks = gain_schedules(DEFAULTS, [1, 25000])
        assert a_ks[0] == pytest.approx(708.2765419642232, rel=1e-12)
        assert a_ks[1] == pytest.approx(6.752379027310508, rel=1e-12)
        assert c_ks[0] == 0.1
        assert c_ks[1] == pytest.approx(0.03595903753973276, rel=1e-12)
        a_ks, c_ks = gain_schedules(DEFAULTS, np.arange(1, 200))
        assert np.all(np.diff(a_ks) < 0) and np.all(np.diff(c_ks) < 0)

    @pytest.mark.parametrize("d", [0.03, math.inf], ids=["nlspsa", "spsa"])
    def test_engine_runs_the_certified_helpers(self, monkeypatch, d):
        # criterion 7 certifies the estimate spsa_gradient returns through
        # and criterion 8 saturate; the engine must run both, also with no
        # bound
        calls = counting_helpers(monkeypatch)
        spec, chain = three_joint_problem()
        rec = solve(spec, chain, SolverParams(n_max=300, d=d), 2)
        assert rec.iterations == 300
        assert calls == {"saturate": 300, "_estimate": 300}

    def test_spsa_gradient_returns_through_the_engine_estimate(self, monkeypatch):
        calls = counting_helpers(monkeypatch)
        g = spsa_gradient(lambda q: float(q @ q), np.ones(3), 0.1, np.array([1.0, -1.0, 1.0]))
        assert calls == {"saturate": 0, "_estimate": 1}
        assert g == pytest.approx([2.0, -2.0, 2.0])

    def test_plain_spsa_matches_nlspsa_when_steps_are_small(self):
        spec, chain = three_joint_problem()
        small = dict(a=1e-4, n_max=400)
        rec_sat = solve(spec, chain, SolverParams(**small), 13)
        rec_raw = solve(spec, chain, SolverParams(d=math.inf, **small), 13)
        assert rec_sat.max_step_inf < DEFAULTS.d
        assert np.array_equal(rec_sat.final_iterate, rec_raw.final_iterate)
        assert np.array_equal(rec_sat.loss_trace, rec_raw.loss_trace)

    def test_divergent_plain_spsa_faults_with_iteration(self):
        spec, chain = three_joint_problem()
        params = SolverParams(d=math.inf, a=1e200, n_max=60)
        with pytest.raises(SolverFault) as excinfo:
            solve(spec, chain, params, 0)
        assert excinfo.value.iteration >= 1

    def test_solve_many_collects_faults(self):
        spec, chain = three_joint_problem()
        params = SolverParams(d=math.inf, a=1e200, n_max=60)
        outcomes = solve_many(spec, chain, params, [0, 1])
        assert all(isinstance(o, SolverFault) for o in outcomes)

    def test_negative_seed_rejected(self):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=5)
        message = "^seed must be nonnegative, got -1$"
        with pytest.raises(ValueError, match=message):
            solve_many(spec, chain, params, [3, -1, 4])
        with pytest.raises(ValueError, match=message):
            solve(spec, chain, params, -1)

    @pytest.mark.parametrize("seed, message", [
        (1.7, r"^seed must be an integer, got 1\.7$"),
        (2.0, r"^seed must be an integer, got 2\.0$"),
        (True, "^seed must be an integer, got True$"),
        ("3", "^seed must be an integer, got '3'$"),
        (2**64, f"^seed must be below 2\\*\\*64, got {2**64}$"),
    ])
    def test_seed_that_is_not_a_64_bit_integer_rejected(self, seed, message):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=5)
        with pytest.raises(ValueError, match=message):
            solve_many(spec, chain, params, [1, seed])
        with pytest.raises(ValueError, match=message):
            solve(spec, chain, params, seed)

    def test_numpy_seed_runs_as_its_int(self):
        spec, chain = three_joint_problem()
        params = SolverParams(n_max=5)
        top = 2**64 - 1
        got = solve_many(spec, chain, params, [np.int64(3), np.uint64(top)])
        want = solve_many(spec, chain, params, [3, top])
        assert [r.seed for r in got] == [3, top]
        assert all(type(r.seed) is int for r in got)
        for a, b in zip(got, want):
            assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_solve_many_empty_seed_list(self):
        spec, chain = three_joint_problem()
        assert solve_many(spec, chain, SolverParams(n_max=5), []) == []

    def test_record_shape(self):
        scenario = builtin("2.3")
        rec = solve(scenario.spec, scenario.chain, SolverParams(n_max=50), 0)
        assert isinstance(rec, RunRecord)
        assert rec.final_iterate.shape == (20,)
        assert rec.final_pose.theta_deg >= 0.0
        assert rec.best_loss <= rec.loss_trace.min() + 1e-18
        assert np.isfinite(rec.loss_trace).all()


# The first iteration's perturbation, one sign per joint, of seeds 0 and 1
# at 8 and 40 joints.
FIRST_PERTURBATION = {
    (0, 8): "++++-+-+",
    (1, 8): "+-----++",
    (0, 40): "++++-+-++-++--+++-+++---++-++++-+--+++--",
    (1, 40): "+-----++--+++-+--+------+--+---+--++-+++",
}


@pytest.mark.parametrize("seed, n", FIRST_PERTURBATION)
def test_both_solvers_read_one_splitmix64_stream(seed, n):
    """NLSPSA's first perturbation is the low n bits of the seed's first
    SplitMix64 word, joint i being bit i, and PSO's first uniform is that
    word's low half times 2**-32."""
    (word,) = splitmix64_words(seed, 1)
    signs = "".join("+" if word >> i & 1 else "-" for i in range(n))
    assert signs == FIRST_PERTURBATION[seed, n]
    first_uniform = baseline._uniforms(SplitMix64([seed]), (2,))[0]
    assert first_uniform == (word & 0xFFFFFFFF) * 2.0**-32


@pytest.mark.parametrize("n", [8, 40])
def test_engine_first_perturbation_is_pinned(monkeypatch, n):
    """``solve_many``'s first loss call measures each seed's start plus and
    minus c_1 times its first perturbation, drawn from its SplitMix64
    stream."""
    spec, chain = unit_link_problem(n)
    calls = []

    def recording(self, configs, out=None):
        calls.append(np.array(configs))
        return EVALUATE_MANY(self, configs, out=out)

    monkeypatch.setattr(LossEvaluator, "evaluate_many", recording)
    solve_many(spec, chain, SolverParams(n_max=1), [0, 1])
    plus = calls[0][:2]
    for row, seed in zip(plus, [0, 1]):
        signs = "".join("+" if x > 0 else "-" for x in row - spec.reference)
        assert signs == FIRST_PERTURBATION[seed, n]


def test_public_names():
    assert set(nlspsa_ik.__all__) == {
        "ArtifactError", "ChainModel", "LossEvaluator", "ObjectiveSpec", "Pose",
        "PsoParams", "RunRecord", "Scenario", "ScenarioError",
        "ScenarioFormatError", "ScenarioLookupError", "SolverFault",
        "SolverParams", "builtin", "builtin_ids", "default_r_ee",
        "forward_kinematics", "joint_positions", "load_scenario", "pose_error",
        "pso_solve", "saturate", "save_scenario", "solve", "solve_many",
    }
    assert len(nlspsa_ik.__all__) == 25
    assert all(hasattr(nlspsa_ik, name) for name in nlspsa_ik.__all__)
