"""Planar serial-chain geometry and forward kinematics.

All joints are revolute and all angles are degrees throughout: joint
vectors, pose orientation, and joint limits. Degrees are converted to
radians only inside the trigonometric evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEG2RAD = math.pi / 180.0


def _constant(value: float) -> np.ndarray:
    a = np.array(value)
    a.setflags(write=False)
    return a


# pose_rows's scalar operands are read-only 0-d arrays: a ufunc converts a
# Python or numpy scalar on every call, and skips that for a 0-d array.
_DEG2RAD = _constant(DEG2RAD)
_TURN_DEG = _constant(360.0)


@dataclass(frozen=True)
class Pose:
    """Planar end-effector pose: position and orientation theta in [0, 360)."""

    x: float
    y: float
    theta_deg: float

    def __post_init__(self):
        for name in ("x", "y", "theta_deg"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Pose.{name} must be finite, got {v}")
        if not 0.0 <= self.theta_deg < 360.0:
            raise ValueError(
                f"Pose.theta_deg must lie in [0, 360), got {self.theta_deg}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta_deg])


@dataclass(frozen=True)
class ChainModel:
    """An n-link planar revolute chain anchored at the origin.

    ``link_lengths`` are positive (dimensionless length units); the joint
    count n equals the number of links. ``joint_limits``, when present, is a
    (q_min, q_max) pair of per-joint bounds in degrees; a bound may be
    infinite (an unbounded joint) but not NaN.
    """

    link_lengths: tuple[float, ...]
    joint_limits: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.link_lengths)
        if len(lengths) < 1:
            raise ValueError("chain needs at least one link")
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise ValueError(f"link lengths must be positive and finite: {lengths}")
        object.__setattr__(self, "link_lengths", lengths)
        if self.joint_limits is not None:
            q_min = tuple(float(v) for v in self.joint_limits[0])
            q_max = tuple(float(v) for v in self.joint_limits[1])
            if len(q_min) != len(lengths) or len(q_max) != len(lengths):
                raise ValueError("joint limits must have one entry per joint")
            if not all(lo <= hi for lo, hi in zip(q_min, q_max)):  # false for NaN
                raise ValueError(f"ill-ordered or NaN joint limits: {q_min} vs {q_max}")
            object.__setattr__(self, "joint_limits", (q_min, q_max))

    @property
    def n(self) -> int:
        return len(self.link_lengths)

    @property
    def reach(self) -> float:
        return sum(self.link_lengths)

    @classmethod
    def unit_links(cls, n: int) -> "ChainModel":
        return cls(link_lengths=(1.0,) * n)


def _check_joint_vector(chain: ChainModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n,):
        raise ValueError(
            f"joint vector has shape {q.shape}, expected ({chain.n},)"
        )
    if not np.isfinite(q).all():
        raise ValueError(f"joint vector must be finite: {q}")
    return q


def pose_rows(configs, weights, ang, trig, sums, theta) -> None:
    """Poses of the rows of ``configs`` (m, n), written to buffers the caller owns.

    ``ang`` (m, n) receives the cumulative joint angles in radians and the
    last two slabs of ``trig`` (k, m, n) their cos and sin. One ``np.vecdot``
    reduces all of ``trig`` against ``weights`` into ``sums`` (k, m), so the
    last two rows of ``sums`` are x and y. ``weights`` is the link lengths,
    or a (k, 1, n) stack whose last two rows are: a caller may fill the
    leading slabs of ``trig`` with rows of its own to share that call.
    ``theta`` (m,) receives the joint sum wrapped into [0, 360). The per-row
    reductions do not depend on m, so a row's pose has the same bits in
    every batch.
    """
    np.add.accumulate(configs, 1, None, ang)
    np.multiply(ang, _DEG2RAD, ang)
    np.cos(ang, trig[-2])
    np.sin(ang, trig[-1])
    np.vecdot(trig, weights, sums)
    np.add.reduce(configs, 1, None, theta)
    # Two remainders: the first rounds a tiny negative total up to exactly
    # 360.0, and the second maps that to 0.
    np.remainder(theta, _TURN_DEG, theta)
    np.remainder(theta, _TURN_DEG, theta)


def forward_kinematics(chain: ChainModel, q) -> Pose:
    """End-effector pose for joint angles ``q`` (degrees).

    x = sum_p L_p cos(q_1 + ... + q_p), y likewise with sin, and the
    orientation is the floored-modulo remainder of the angle sum in [0, 360).
    This is :func:`pose_rows` on one row.
    """
    q = _check_joint_vector(chain, q)
    pose = np.empty(3)
    pose_rows(
        q[None, :], np.asarray(chain.link_lengths), np.empty((1, chain.n)),
        np.empty((2, 1, chain.n)), pose[:2, None], pose[2:],
    )
    return Pose(*pose.tolist())


def joint_positions(chain: ChainModel, q) -> np.ndarray:
    """(n+1, 2) polyline of joint positions from the base at the origin."""
    q = _check_joint_vector(chain, q)
    lengths = np.asarray(chain.link_lengths)
    angles = np.cumsum(q) * DEG2RAD
    pts = np.zeros((chain.n + 1, 2))
    pts[1:, 0] = np.cumsum(lengths * np.cos(angles))
    pts[1:, 1] = np.cumsum(lengths * np.sin(angles))
    return pts


def pose_errors(target: np.ndarray, poses: np.ndarray, out=None) -> np.ndarray:
    """Raw error of pose columns against a target column: ``target - poses``.

    ``target`` is the (3, 1) column [x*, y*, theta*], or that column tiled to
    the shape of ``poses``, which has rows x, y and theta. The orientation
    row is an unwrapped difference of degree values in [0, 360); the ~360
    deg discontinuity near the 0/360 boundary is a known hazard of this
    convention.
    """
    return np.subtract(target, poses, out)


def pose_error(target: Pose, current: Pose) -> np.ndarray:
    """Raw componentwise error [x*-x, y*-y, theta*-theta] (see :func:`pose_errors`)."""
    return pose_errors(target.as_array()[:, None], current.as_array()[:, None])[:, 0]
