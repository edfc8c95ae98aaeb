import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlspsa_ik.kinematics import (
    ChainModel,
    Pose,
    forward_kinematics,
    joint_positions,
    pose_error,
    pose_errors,
    pose_rows,
)
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import mod_floor, scalar_pose


def core_poses(chain: ChainModel, configs: np.ndarray) -> np.ndarray:
    """pose_rows on buffers of its own: the (3, m) rows x, y and theta."""
    m, n = configs.shape
    poses = np.empty((3, m))
    pose_rows(
        configs, np.asarray(chain.link_lengths), np.empty((m, n)),
        np.empty((2, m, n)), poses[:2], poses[2],
    )
    return poses


class TestModFloor:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(450, 360, 90), (-90, 360, 270), (360, 360, 0), (725, 360, 5), (0, 1, 0)],
    )
    def test_examples(self, alpha, beta, expected):
        assert mod_floor(alpha, beta) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_finite_alpha(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                mod_floor(bad, 360)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            mod_floor(10.0, 0)
        with pytest.raises(ValueError):
            mod_floor(10.0, -360)

    @given(
        st.floats(min_value=-1e12, max_value=1e12),
        st.floats(min_value=1e-6, max_value=1e9),
    )
    def test_range(self, alpha, beta):
        r = mod_floor(alpha, beta)
        assert 0.0 <= r < beta

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_periodicity(self, alpha, beta):
        # circular distance: a remainder near beta may wrap to near zero, and
        # the rounding of alpha+beta costs up to one ulp of the sum
        a = mod_floor(alpha, beta)
        b = mod_floor(alpha + beta, beta)
        diff = abs(a - b)
        tolerance = 1e-12 * max(1.0, beta) + np.spacing(abs(alpha) + beta)
        assert min(diff, beta - diff) <= tolerance

    def test_tiny_negative_alpha_stays_in_range(self):
        r = mod_floor(-1e-20, 360.0)
        assert 0.0 <= r < 360.0

    @pytest.mark.parametrize("alpha", [-0.0, -360.0, -720.0])
    def test_multiples_of_beta_give_positive_zero(self, alpha):
        assert not np.signbit(mod_floor(alpha, 360.0))

    def test_fk_theta_is_never_negative_zero(self):
        pose = forward_kinematics(ChainModel.unit_links(2), [-180.0, -180.0])
        assert pose.theta_deg == 0.0 and not np.signbit(pose.theta_deg)

    def test_bits_match_the_loss_wrap(self):
        # mod_floor is Python's float % twice and pose_rows, which computes
        # the loss's pose, wraps theta as np.remainder twice: the same IEEE
        # operations, so the same bits. A one-link chain's theta is its one
        # joint wrapped, so the table is that chain's joint column.
        k = np.arange(-4, 5) * 360.0
        offsets = np.array([0.0, 1e-300, -1e-300, 1e-14, -1e-14, 1e-9, -1e-9,
                            0.5, -0.5, 180.0, -180.0, 359.999, -359.999])
        table = np.concatenate([
            (k[:, None] + offsets).ravel(),
            np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
            [-0.0, 1e12 + 0.3, -1e12 - 0.3, 7.0e15, -7.0e15],
        ])
        want = core_poses(ChainModel.unit_links(1), table[:, None])[2]
        got = np.array([mod_floor(a, 360.0) for a in table.tolist()])
        assert got.tobytes() == want.tobytes()


class TestPose:
    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            Pose(0, 0, 360.0)
        with pytest.raises(ValueError):
            Pose(0, 0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0, 0)

    def test_as_array(self):
        assert np.array_equal(Pose(1, 2, 3).as_array(), [1, 2, 3])


class TestChainModel:
    def test_counts_joints(self):
        assert ChainModel.unit_links(8).n == 8
        assert ChainModel((2.0, 1.5)).reach == 3.5

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            ChainModel(())
        with pytest.raises(ValueError):
            ChainModel((1.0, 0.0))
        with pytest.raises(ValueError):
            ChainModel((1.0, -2.0))

    def test_joint_limits_validated(self):
        chain = ChainModel((1.0, 1.0), joint_limits=((-180, -90), (180, 90)))
        assert chain.joint_limits == ((-180.0, -90.0), (180.0, 90.0))
        with pytest.raises(ValueError):
            ChainModel((1.0, 1.0), joint_limits=((10, 0), (-10, 0)))
        with pytest.raises(ValueError):
            ChainModel((1.0, 1.0), joint_limits=((0,), (0,)))

    @pytest.mark.parametrize("limits", [((math.nan, 0), (10, 10)), ((0, 0), (10, math.nan))])
    def test_nan_joint_limit_rejected(self, limits):
        with pytest.raises(ValueError, match="NaN"):
            ChainModel((1.0, 1.0), joint_limits=limits)

    def test_infinite_joint_limits_allowed(self):
        chain = ChainModel((1.0, 1.0), joint_limits=((-math.inf, 0), (math.inf, math.inf)))
        assert chain.joint_limits == ((-math.inf, 0.0), (math.inf, math.inf))


class TestForwardKinematics:
    def test_bent_eight_link(self):
        pose = forward_kinematics(
            ChainModel.unit_links(8), [0, 0, 0, 0, 90, 0, 0, 90]
        )
        assert pose.as_array() == pytest.approx([3, 3, 180], abs=1e-9)

    def test_straight_eight_link(self):
        pose = forward_kinematics(ChainModel.unit_links(8), np.zeros(8))
        assert pose.as_array() == pytest.approx([8, 0, 0], abs=1e-12)

    def test_upright_twenty_link(self):
        q = np.zeros(20)
        q[0] = 90
        pose = forward_kinematics(ChainModel.unit_links(20), q)
        assert pose.as_array() == pytest.approx([0, 20, 90], abs=1e-9)

    def test_single_link(self):
        pose = forward_kinematics(ChainModel.unit_links(1), [0.0])
        assert pose.as_array() == pytest.approx([1, 0, 0], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_kinematics(ChainModel.unit_links(8), np.zeros(20))

    def test_rejects_non_finite_q(self):
        with pytest.raises(ValueError):
            forward_kinematics(ChainModel.unit_links(2), [0.0, math.inf])

    def test_reach_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 12)
            chain = ChainModel(tuple(rng.uniform(0.1, 3.0, n)))
            q = rng.uniform(-720, 720, n)
            pose = forward_kinematics(chain, q)
            assert math.hypot(pose.x, pose.y) <= chain.reach + 1e-9

    def test_360_periodicity_per_joint(self):
        rng = np.random.default_rng(1)
        chain = ChainModel(tuple(rng.uniform(0.5, 2.0, 6)))
        q = rng.uniform(-360, 360, 6)
        base = forward_kinematics(chain, q).as_array()
        for i in range(6):
            shifted = q.copy()
            shifted[i] += 360.0
            assert forward_kinematics(chain, shifted).as_array() == pytest.approx(
                base, abs=1e-9
            )

    @given(st.integers(min_value=1, max_value=25))
    def test_unit_chain_at_zero(self, n):
        pose = forward_kinematics(ChainModel.unit_links(n), np.zeros(n))
        assert pose.as_array() == pytest.approx([n, 0, 0], abs=1e-12)


def _core_rows(q0: np.ndarray, seed: int) -> np.ndarray:
    """500 rows normal around q0 (sd 20 degrees), then edge rows: joint sums
    at k*360 and k*360 +- 1e-14, -0.0 and [-180, -180]. k*360 + 1e-14
    rounds to k*360 unless k = 0, so the offset also gets a joint of its
    own."""
    n = q0.size
    rng = np.random.default_rng(seed)
    random = q0 + rng.normal(0.0, 20.0, size=(500, n))
    edges = []
    for k in range(-3, 4):
        for offset in (-1e-14, 0.0, 1e-14):
            row = np.zeros(n)
            row[0] = k * 360.0 + offset
            edges.append(row)
            row = np.zeros(n)
            row[0], row[-1] = k * 360.0, offset
            edges.append(row)
    edges.append(np.full(n, -0.0))
    row = np.zeros(n)
    row[:2] = -180.0
    edges.append(row)
    return np.concatenate([random, np.array(edges)])


class TestPoseCore:
    @pytest.mark.parametrize("sid", builtin_ids())
    def test_forward_kinematics_and_pose_error_are_the_core_rows(self, sid):
        # forward_kinematics and pose_error each run the batched core on one
        # row; this pins that their bits equal the batch's, which the loss
        # uses, and the scalar oracle's, which forward_kinematics was.
        s = builtin(sid)
        rows = _core_rows(s.spec.reference, seed=int(sid.replace(".", "")))
        target = s.spec.target
        poses = core_poses(s.chain, rows)
        errors = pose_errors(target.as_array()[:, None], poses)
        mismatched = []
        for i, row in enumerate(rows):
            pose = forward_kinematics(s.chain, row)
            same = (
                pose.as_array().tobytes() == poses[:, i].tobytes()
                == scalar_pose(s.chain, row).as_array().tobytes()
                and pose_error(target, pose).tobytes() == errors[:, i].tobytes()
            )
            if not same:
                mismatched.append(i)
        assert len(rows) > 500 and not mismatched


class TestJointPositions:
    def test_tip_matches_forward_kinematics(self):
        rng = np.random.default_rng(2)
        chain = ChainModel(tuple(rng.uniform(0.5, 2.0, 5)))
        q = rng.uniform(-180, 180, 5)
        pts = joint_positions(chain, q)
        pose = forward_kinematics(chain, q)
        assert pts.shape == (6, 2)
        assert np.array_equal(pts[0], [0, 0])
        assert pts[-1] == pytest.approx([pose.x, pose.y], abs=1e-9)

    def test_straight_chain_is_horizontal(self):
        pts = joint_positions(ChainModel.unit_links(8), np.zeros(8))
        assert pts[:, 0] == pytest.approx(np.arange(9), abs=1e-12)
        assert pts[:, 1] == pytest.approx(np.zeros(9), abs=1e-12)


class TestPoseError:
    def test_position_offset(self):
        err = pose_error(Pose(4, 3, 180), Pose(3, 3, 180))
        assert err == pytest.approx([1, 0, 0], abs=1e-12)

    def test_identity(self):
        p = Pose(1.5, -2.0, 42.0)
        assert np.array_equal(pose_error(p, p), np.zeros(3))

    def test_mixed_offset(self):
        err = pose_error(Pose(12, 12, 135), Pose(0, 20, 90))
        assert err == pytest.approx([12, -8, 45], abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Pose(*rng.uniform(-5, 5, 2), rng.uniform(0, 360))
            b = Pose(*rng.uniform(-5, 5, 2), rng.uniform(0, 360))
            assert np.array_equal(pose_error(a, b), -pose_error(b, a))

    def test_theta_is_unwrapped_difference(self):
        # near the 0/360 boundary the raw difference is large by design
        err = pose_error(Pose(0, 0, 359.0), Pose(0, 0, 1.0))
        assert err[2] == 358.0
