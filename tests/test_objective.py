import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlspsa_ik import kinematics, objective
from nlspsa_ik.kinematics import ChainModel, Pose, forward_kinematics
from nlspsa_ik.objective import LossEvaluator, ObjectiveSpec, default_r_ee
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import combined_loss, end_effector_cost, joint_motion_cost

DEG2RAD2 = (2 * math.pi / 360) ** 2


def bent_eight_spec(target=(4, 3, 180), q_jmc=None, w_jmc=1.0, w_ee=50.0):
    if q_jmc is None:
        q_jmc = np.eye(8) * DEG2RAD2 / 8
    return ObjectiveSpec(
        target=Pose(*target),
        reference=np.array([0, 0, 0, 0, 90, 0, 0, 90], dtype=float),
        r_ee=default_r_ee(),
        q_jmc=q_jmc,
        w_jmc=w_jmc,
        w_ee=w_ee,
    )


CHAIN8 = ChainModel.unit_links(8)


class TestObjectiveSpecValidation:
    def test_rejects_zero_diagonal_weight(self):
        bad = np.eye(8) * DEG2RAD2 / 8
        bad[3, 3] = 0.0
        with pytest.raises(ValueError, match="positive-definite"):
            bent_eight_spec(q_jmc=bad)

    def test_rejects_asymmetric_matrix(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            ObjectiveSpec(
                target=Pose(1, 0, 0),
                reference=np.zeros(2),
                r_ee=bad,
                q_jmc=np.eye(2),
            )

    def test_rejects_zero_w_ee(self):
        with pytest.raises(ValueError, match="w_ee"):
            bent_eight_spec(w_ee=0.0)

    def test_rejects_negative_w_jmc(self):
        with pytest.raises(ValueError, match="w_jmc"):
            bent_eight_spec(w_jmc=-0.1)

    @pytest.mark.parametrize("name", ["w_jmc", "w_ee"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bent_eight_spec(**{name: value})

    def test_accepts_zero_w_jmc(self):
        assert bent_eight_spec(w_jmc=0.0).w_jmc_norm == 0.0

    @pytest.mark.parametrize("name", ["w_jmc", "w_ee"])
    @pytest.mark.parametrize("value", [True, np.True_, "50"], ids=["True", "np.True_", "str"])
    def test_rejects_a_weight_that_is_not_a_number(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be a number, got "):
            bent_eight_spec(**{name: value})

    def test_stores_numpy_weights_as_floats(self):
        spec = bent_eight_spec(w_jmc=np.int64(2), w_ee=np.float32(50))
        assert (spec.w_jmc, spec.w_ee) == (2.0, 50.0)
        assert type(spec.w_jmc) is float and type(spec.w_ee) is float

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(
                target=Pose(1, 0, 0),
                reference=np.zeros(4),
                r_ee=default_r_ee(),
                q_jmc=np.eye(3),
            )

    def test_rejects_non_finite_matrix(self):
        bad = default_r_ee()
        bad[2, 2] = np.nan
        with pytest.raises(ValueError, match="r_ee must be finite"):
            ObjectiveSpec(
                target=Pose(1, 0, 0), reference=np.zeros(2), r_ee=bad, q_jmc=np.eye(2)
            )

    @pytest.mark.parametrize(
        "reference, message",
        [
            (np.zeros((2, 2)), "must be a 1-D vector"),
            ([0.0, np.inf], "must be finite"),
        ],
    )
    def test_rejects_bad_reference(self, reference, message):
        with pytest.raises(ValueError, match=f"reference configuration {message}"):
            ObjectiveSpec(
                target=Pose(1, 0, 0),
                reference=reference,
                r_ee=default_r_ee(),
                q_jmc=np.eye(2),
            )

    def test_normalized_weights(self):
        spec = bent_eight_spec()
        assert spec.w_jmc_norm == pytest.approx(1 / 51)
        assert spec.w_ee_norm == pytest.approx(50 / 51)
        assert spec.w_jmc_norm + spec.w_ee_norm == pytest.approx(1.0)


class TestEndEffectorCost:
    def test_unit_position_error(self):
        # pose error [1, 0, 0] against diag{1,1,...}/7 weights
        spec = bent_eight_spec()
        value = end_effector_cost(spec, CHAIN8, spec.reference)
        assert value == pytest.approx(1 / 7, rel=1e-9)

    def test_zero_at_exact_pose(self):
        q = np.array([10.0, -20.0, 5.0, 0.0, 45.0, 30.0, -5.0, 15.0])
        pose = forward_kinematics(CHAIN8, q)
        spec = bent_eight_spec(target=(pose.x, pose.y, pose.theta_deg))
        assert end_effector_cost(spec, CHAIN8, q) == 0.0

    def test_pure_orientation_error(self):
        # pose error [0, 0, 60] deg
        spec = bent_eight_spec(target=(3, 3, 240))
        value = end_effector_cost(spec, CHAIN8, spec.reference)
        assert value == pytest.approx(5 * DEG2RAD2 * 3600 / 7, rel=1e-9)

    def test_positive_when_error_nonzero(self):
        rng = np.random.default_rng(4)
        spec = bent_eight_spec()
        for _ in range(50):
            q = rng.uniform(-90, 90, 8)
            pose = forward_kinematics(CHAIN8, q)
            eps = spec.target.as_array() - pose.as_array()
            cost = end_effector_cost(spec, CHAIN8, q)
            assert cost >= 0.0
            if np.abs(eps).max() > 1e-9:
                assert cost > 0.0


class TestJointMotionCost:
    def test_zero_at_reference(self):
        spec = bent_eight_spec()
        assert joint_motion_cost(spec, spec.reference) == 0.0

    def test_uniform_weights_unit_displacement(self):
        spec = bent_eight_spec()
        q = spec.reference + np.ones(8)
        assert joint_motion_cost(spec, q) == pytest.approx(DEG2RAD2, rel=1e-12)

    def test_base_heavy_weights(self):
        diag = np.ones(8)
        diag[0] = 50.0
        spec = bent_eight_spec(q_jmc=np.diag(diag) * DEG2RAD2 / 57)
        q = spec.reference.copy()
        q[0] += 1.0
        assert joint_motion_cost(spec, q) == pytest.approx(
            50 / 57 * DEG2RAD2, rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            joint_motion_cost(bent_eight_spec(), np.zeros(5))

    @pytest.mark.parametrize("q", [0.0, [0.0]])
    def test_vector_that_broadcasts_to_the_reference_rejected(self, q):
        with pytest.raises(ValueError, match=r"expected \(8,\)"):
            joint_motion_cost(builtin("1.1").spec, q)

    def test_rows_of_joint_vectors_rejected(self):
        # (2, 8) broadcasts against the reference, so only the shape check
        # stops it.
        with pytest.raises(ValueError, match=r"shape \(2, 8\), expected \(8,\)"):
            joint_motion_cost(bent_eight_spec(), np.zeros((2, 8)))


class TestCombinedLoss:
    def test_initial_loss_basic(self):
        spec = bent_eight_spec()
        value = combined_loss(spec, CHAIN8, spec.reference)
        assert value == pytest.approx(0.1401, abs=5e-5)
        assert value == pytest.approx(50 / 51 / 7, rel=1e-9)

    def test_initial_loss_twenty_link(self):
        q0 = np.zeros(20)
        q0[0] = 90.0
        spec = ObjectiveSpec(
            target=Pose(12, 12, 135),
            reference=q0,
            r_ee=default_r_ee(),
            q_jmc=np.eye(20) * DEG2RAD2 / 20,
        )
        value = combined_loss(spec, ChainModel.unit_links(20), q0)
        assert value == pytest.approx(29.5636, abs=5e-5)

    def test_zero_when_both_terms_vanish(self):
        q = np.array([15.0, -30.0, 25.0, 10.0, 40.0, 5.0, -10.0, 20.0])
        pose = forward_kinematics(CHAIN8, q)
        spec = ObjectiveSpec(
            target=Pose(pose.x, pose.y, pose.theta_deg),
            reference=q,
            r_ee=default_r_ee(),
            q_jmc=np.eye(8) * DEG2RAD2 / 8,
        )
        assert combined_loss(spec, CHAIN8, q) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        spec = bent_eight_spec()
        for _ in range(100):
            assert combined_loss(spec, CHAIN8, rng.uniform(-360, 360, 8)) >= 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_weight_scaling_invariance(self, scale):
        q = np.array([5.0, -3.0, 8.0, 1.0, 80.0, 2.0, -1.0, 95.0])
        base = combined_loss(bent_eight_spec(), CHAIN8, q)
        scaled = combined_loss(
            bent_eight_spec(w_jmc=scale, w_ee=50 * scale), CHAIN8, q
        )
        assert scaled == pytest.approx(base, rel=1e-12)


class TestLossEvaluator:
    def test_matches_combined_loss(self):
        rng = np.random.default_rng(6)
        spec = bent_eight_spec()
        evaluator = LossEvaluator(spec, CHAIN8)
        for _ in range(50):
            q = rng.uniform(-360, 360, 8)
            assert evaluator(q) == pytest.approx(
                combined_loss(spec, CHAIN8, q), rel=1e-12
            )

    def test_full_matrices_match(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3))
        r_full = m @ m.T + 3 * np.eye(3)
        k = rng.normal(size=(8, 8))
        q_full = k @ k.T + 8 * np.eye(8)
        spec = ObjectiveSpec(
            target=Pose(4, 3, 180),
            reference=np.array([0, 0, 0, 0, 90, 0, 0, 90], dtype=float),
            r_ee=r_full,
            q_jmc=q_full,
        )
        evaluator = LossEvaluator(spec, CHAIN8)
        for _ in range(20):
            q = rng.uniform(-180, 180, 8)
            assert evaluator(q) == pytest.approx(
                combined_loss(spec, CHAIN8, q), rel=1e-12
            )

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        spec = bent_eight_spec()
        evaluator = LossEvaluator(spec, CHAIN8)
        batch = rng.uniform(-180, 180, size=(32, 8))
        values = evaluator.evaluate_many(batch)
        for row, value in zip(batch, values):
            assert value == pytest.approx(evaluator(row), rel=1e-13)

    def test_counts_measurements(self):
        spec = bent_eight_spec()
        evaluator = LossEvaluator(spec, CHAIN8)
        evaluator(spec.reference)
        assert evaluator.calls == 1
        evaluator.evaluate_many(np.zeros((7, 8)))
        assert evaluator.calls == 8

    def test_rejects_chain_mismatch(self):
        with pytest.raises(ValueError):
            LossEvaluator(bent_eight_spec(), ChainModel.unit_links(20))

    @pytest.mark.parametrize("q", [0.0, [0.0], np.zeros(5), np.zeros((2, 8))])
    def test_call_rejects_a_joint_vector_of_another_shape(self, q):
        # [0.0] broadcasts against the 8-joint reference, so only the shape
        # check stops it.
        with pytest.raises(ValueError, match=r"expected \(8,\)"):
            LossEvaluator(bent_eight_spec(), CHAIN8)(q)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 9), (8,), (2, 3, 8)])
    def test_evaluate_many_rejects_a_batch_of_another_shape(self, shape):
        # (3, 1) broadcasts against the 8-joint reference and would fill
        # only one column of the angle buffer, so only the shape check stops
        # it, also after a (3, 8) batch has cached its work buffers.
        scenario = builtin("1.1")
        evaluator = LossEvaluator(scenario.spec, scenario.chain)
        evaluator.evaluate_many(np.zeros((3, 8)))
        with pytest.raises(ValueError, match=r"expected \(m, 8\)"):
            evaluator.evaluate_many(np.zeros(shape))
        assert evaluator.calls == 3


def frozen_evaluate_many(spec, chain, configs):
    """The batched loss expression before its work buffers were stacked and
    reused, kept verbatim as a bit-identity oracle for LossEvaluator."""
    lengths = np.asarray(chain.link_lengths)
    q0 = np.asarray(spec.reference)
    r, qm = spec.r_ee, spec.q_jmc
    r_diag = np.count_nonzero(r - np.diag(np.diag(r))) == 0
    q_diag = np.count_nonzero(qm - np.diag(np.diag(qm))) == 0
    angles = np.add.accumulate(configs, 1)
    angles *= np.float64(math.pi / 180.0)
    ex = spec.target.x - np.vecdot(np.cos(angles), lengths)
    ey = spec.target.y - np.vecdot(np.sin(angles), lengths)
    theta = np.remainder(np.remainder(np.add.reduce(configs, 1), 360.0), 360.0)
    et = spec.target.theta_deg - theta
    if r_diag:
        r0, r1, r2 = (float(v) for v in np.diag(r))
        jee = r0 * ex * ex + r1 * ey * ey + r2 * et * et
    else:
        eps = np.stack([ex, ey, et], axis=1)
        jee = np.einsum("ij,jk,ik->i", eps, r, eps)
    dq = configs - q0
    if q_diag:
        jjmc = np.vecdot(dq * dq, np.diag(qm).copy())
    else:
        jjmc = np.einsum("ij,jk,ik->i", dq, qm, dq)
    return np.add(spec.w_jmc_norm * jjmc, spec.w_ee_norm * jee)


def _spd(rng, dim):
    k = rng.normal(size=(dim, dim))
    return k @ k.T + dim * np.eye(dim)


def _oracle_rows(spec, seed):
    """Edge rows first (joint sums of -1e-14 and exactly 360, NaN, +inf,
    -inf), then random configurations around the reference."""
    n = spec.n
    edges = np.zeros((5, n))
    edges[0, 0] = -1e-14
    edges[1, :4] = 90.0
    edges[2, n // 2] = np.nan
    edges[3, 1] = np.inf
    edges[4, -1] = -np.inf
    rng = np.random.default_rng(seed)
    random = spec.reference + rng.uniform(-180.0, 180.0, size=(100, n))
    return np.concatenate([edges, random])


def _full_matrix_cases():
    rng = np.random.default_rng(11)
    r_full, q_full = _spd(rng, 3), _spd(rng, 8)
    return {
        "full r_ee and q_jmc": dataclasses.replace(
            bent_eight_spec(q_jmc=q_full), r_ee=r_full
        ),
        "full r_ee": dataclasses.replace(bent_eight_spec(), r_ee=r_full),
        "full q_jmc": bent_eight_spec(q_jmc=q_full),
    }


ORACLE_CASES = [(sid, builtin(sid).spec, builtin(sid).chain) for sid in builtin_ids()] + [
    (name, spec, CHAIN8) for name, spec in _full_matrix_cases().items()
]


class TestLossEvaluatorBitIdentity:
    @pytest.mark.parametrize(
        "spec,chain", [case[1:] for case in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
    )
    def test_matches_frozen_expression_at_every_row_count(self, spec, chain):
        rows = _oracle_rows(spec, seed=spec.n)
        evaluator = LossEvaluator(spec, chain)
        with np.errstate(all="ignore"):
            for m in (1, 2, 3, 20, 100):
                for lo in range(0, len(rows), m):
                    chunk = rows[lo : lo + m]
                    got = evaluator.evaluate_many(chunk)
                    want = frozen_evaluate_many(spec, chain, chunk)
                    assert np.array_equal(got, want, equal_nan=True), (m, lo)

    @pytest.mark.parametrize(
        "spec,chain", [case[1:] for case in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
    )
    def test_row_alone_equals_its_row_in_a_batch(self, spec, chain):
        # A row's value does not depend on the batch it is computed in: one
        # row alone and every batch size give it the same value.
        rows = _oracle_rows(spec, seed=spec.n)
        evaluator = LossEvaluator(spec, chain)
        with np.errstate(all="ignore"):
            alone = np.concatenate([evaluator.evaluate_many(row[None]) for row in rows])
            for m in (2, 20, 100):
                for lo in range(0, len(rows), m):
                    got = evaluator.evaluate_many(rows[lo : lo + m])
                    assert np.array_equal(got, alone[lo : lo + m], equal_nan=True), (m, lo)

    def test_edge_rows_keep_their_meaning(self):
        spec = bent_eight_spec()
        edges = _oracle_rows(spec, 0)[:5]
        with np.errstate(all="ignore"):
            values = LossEvaluator(spec, CHAIN8).evaluate_many(edges)
        # joint sums of -1e-14 and 360 are orientation 0; NaN/inf propagate
        for row, value in zip(edges[:2], values):
            assert value == pytest.approx(combined_loss(spec, CHAIN8, row), rel=1e-12)
        assert np.isnan(values[2:]).all()


class TestLossEvaluatorBuffers:
    def test_result_without_out_is_not_overwritten(self):
        spec = bent_eight_spec()
        evaluator = LossEvaluator(spec, CHAIN8)
        rng = np.random.default_rng(12)
        first = evaluator.evaluate_many(rng.uniform(-90, 90, size=(5, 8)))
        kept = first.copy()
        second = evaluator.evaluate_many(rng.uniform(-90, 90, size=(5, 8)))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)

    def test_interleaved_row_counts_match_fresh_evaluators(self):
        spec = builtin("2.1").spec
        chain = builtin("2.1").chain
        shared = LossEvaluator(spec, chain)
        rng = np.random.default_rng(13)
        for m in (1, 100, 1, 37):
            batch = spec.reference + rng.uniform(-45, 45, size=(m, spec.n))
            got = shared.evaluate_many(batch)
            assert np.array_equal(got, LossEvaluator(spec, chain).evaluate_many(batch))
        assert shared.calls == 139

    def test_out_is_returned(self):
        spec = bent_eight_spec()
        out = np.empty(4)
        evaluator = LossEvaluator(spec, CHAIN8)
        configs = np.tile(spec.reference, (4, 1))
        assert evaluator.evaluate_many(configs, out=out) is out
        assert np.array_equal(out, np.full(4, combined_loss(spec, CHAIN8, spec.reference)))
        assert evaluator.calls == 4

    def test_buffers_evicted_after_eight_row_counts(self):
        spec = bent_eight_spec()
        shared = LossEvaluator(spec, CHAIN8)
        rng = np.random.default_rng(14)
        kept = []
        for m in range(1, 12):
            configs = spec.reference + rng.uniform(-45, 45, size=(m, 8))
            got = shared.evaluate_many(configs)
            assert np.array_equal(got, LossEvaluator(spec, CHAIN8).evaluate_many(configs))
            kept.append((got, got.copy()))
            assert len(shared._work) <= 8
        for got, copy in kept:
            assert np.array_equal(got, copy)


class _CountingNumpy:
    """Stands in for the ``np`` module of nlspsa_ik.objective and
    nlspsa_ik.kinematics, whose ``pose_rows`` computes the loss's pose, and
    records every ufunc, ufunc method and einsum call made through it as
    (function, method name or None, positional arguments, result)."""

    def __init__(self):
        self.records = []

    @property
    def calls(self) -> int:
        return len(self.records)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc) or name == "einsum":
            return _Counted(self, attr)
        return attr


def _counting_numpy(monkeypatch) -> _CountingNumpy:
    counting = _CountingNumpy()
    monkeypatch.setattr(objective, "np", counting)
    monkeypatch.setattr(kinematics, "np", counting)
    return counting


class _Counted:
    def __init__(self, counter, fn, method=None):
        self._counter, self._fn, self._method = counter, fn, method

    def __call__(self, *args, **kwargs):
        fn = self._fn if self._method is None else getattr(self._fn, self._method)
        result = fn(*args, **kwargs)
        self._counter.records.append((self._fn, self._method, args, result))
        return result

    def __getattr__(self, name):  # ufunc methods: reduce, accumulate
        return _Counted(self._counter, self._fn, name)


@pytest.mark.parametrize("m", [1, 20])
def test_diagonal_loss_makes_at_most_sixteen_numpy_calls(monkeypatch, m):
    scenario = builtin("1.1")
    evaluator = LossEvaluator(scenario.spec, scenario.chain)
    configs = np.tile(scenario.spec.reference, (m, 1))
    expected = evaluator.evaluate_many(configs)
    counting = _counting_numpy(monkeypatch)
    got = evaluator.evaluate_many(configs)
    assert np.array_equal(got, expected)
    assert 0 < counting.calls <= 16


@pytest.mark.parametrize("case", ["full r_ee", "full r_ee and q_jmc"])
def test_one_row_full_r_ee_keeps_the_array_path(monkeypatch, case):
    spec = _full_matrix_cases()[case]
    evaluator = LossEvaluator(spec, CHAIN8)
    row = spec.reference[None, :] + 1.5
    expected = frozen_evaluate_many(spec, CHAIN8, row)
    counting = _counting_numpy(monkeypatch)
    assert np.array_equal(evaluator.evaluate_many(row), expected)
    assert 0 < counting.calls <= 16


ORACLE_CASE_BY_NAME = {name: (spec, chain) for name, spec, chain in ORACLE_CASES}
SAME_SHAPE_CASES = [("1.1", m) for m in (1, 2, 64)] + [
    (name, 2) for name in _full_matrix_cases()
]


@pytest.mark.parametrize("case,m", SAME_SHAPE_CASES)
def test_elementwise_ufuncs_take_same_shape_or_0d_operands(monkeypatch, case, m):
    # A broadcast operand, or a Python or numpy scalar, costs numpy set-up
    # on every call; the per-shape tiles and 0-d constants avoid both.
    spec, chain = ORACLE_CASE_BY_NAME[case]
    evaluator = LossEvaluator(spec, chain)
    configs = spec.reference + np.random.default_rng(m).uniform(-45, 45, (m, spec.n))
    evaluator.evaluate_many(configs)
    counting = _counting_numpy(monkeypatch)
    got = evaluator.evaluate_many(configs)
    assert np.array_equal(got, frozen_evaluate_many(spec, chain, configs))
    elementwise = [
        (fn, args[: fn.nin], result) for fn, method, args, result in counting.records
        if method is None and isinstance(fn, np.ufunc) and fn.signature is None
    ]
    assert elementwise
    for fn, operands, result in elementwise:
        for operand in operands:
            assert isinstance(operand, np.ndarray), (fn.__name__, type(operand))
            assert operand.ndim == 0 or operand.shape == result.shape, (
                fn.__name__, operand.shape, result.shape,
            )


@pytest.mark.parametrize("case", ["1.1", "full r_ee"])
def test_interleaved_shapes_match_the_frozen_expression(case):
    # 2 -> 64 -> 2 -> 1 rows reuse cached tiles; nine more shapes evict the
    # cache, after which 2, 64 and 1 rows build their tiles again.
    spec, chain = ORACLE_CASE_BY_NAME[case]
    evaluator = LossEvaluator(spec, chain)
    rng = np.random.default_rng(15)
    for m in (2, 64, 2, 1, *range(3, 12), 2, 64, 1):
        configs = spec.reference + rng.uniform(-180, 180, (m, spec.n))
        got = evaluator.evaluate_many(configs)
        assert np.array_equal(got, frozen_evaluate_many(spec, chain, configs)), m
        assert len(evaluator._work) <= 8


def test_cached_tiles_and_kinematics_constants_are_read_only():
    scenario = builtin("1.1")
    spec = scenario.spec
    evaluator = LossEvaluator(spec, scenario.chain)
    evaluator.evaluate_many(np.zeros((3, 8)))
    *_, q0, target, r_diag, weights = evaluator._work[(3, 8)]
    t = spec.target
    for tile, column in [
        (q0.T, spec.reference[:, None]),
        (target, [[t.x], [t.y], [t.theta_deg]]),
        (r_diag, np.diag(spec.r_ee)[:, None]),
        (weights, [[spec.w_jmc_norm], [spec.w_ee_norm]]),
    ]:
        assert not tile.flags.writeable
        assert np.array_equal(tile, np.tile(column, (1, 3)))
    for constant, value in [
        (kinematics._DEG2RAD, math.pi / 180), (kinematics._TURN_DEG, 360.0),
    ]:
        assert constant.ndim == 0 and not constant.flags.writeable
        assert constant == value
