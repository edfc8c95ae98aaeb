"""Planar serial-chain geometry and forward kinematics.

All joints are revolute and all angles are degrees throughout: joint
vectors, pose orientation, and joint limits. Degrees are converted to
radians only inside the trigonometric evaluation.
"""
from __future__ import annotations

import math
import numbers
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


def require_number(value, name: str) -> float:
    """``value`` as a float: a real number, Python or numpy, but not a bool.
    Anything else raises ``TypeError`` naming ``name``. A field stored this
    way is one a JSON artifact can write and read back."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array, each entry held to :func:`require_number`'s
    rule, so an entry that is a bool or a string raises ``TypeError`` naming
    ``name``. Ragged input stays numpy's ``ValueError``."""
    array = np.asarray(values)
    if not (isinstance(values, np.ndarray) and array.dtype.kind in "iuf"):
        # asarray promotes a bool among numbers to a number, so a list is
        # checked entry by entry
        for v in np.asarray(values, dtype=object).flat:
            require_number(v, name)
    return np.asarray(array, dtype=float)


@dataclass(frozen=True)
class Pose:
    """Planar end-effector pose: position and orientation theta in [0, 360)."""

    x: float
    y: float
    theta_deg: float

    def __post_init__(self):
        for name in ("x", "y", "theta_deg"):
            v = require_number(getattr(self, name), f"Pose.{name}")
            object.__setattr__(self, name, v)
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
    (q_min, q_max) pair of per-joint bounds in degrees; a lower bound may
    be -inf and an upper bound +inf (an unbounded joint), but no bound may
    be NaN. Lengths and bounds are real numbers (:func:`require_number`),
    stored as floats.
    """

    link_lengths: tuple[float, ...]
    joint_limits: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        lengths = tuple(require_number(v, "link_lengths") for v in self.link_lengths)
        if len(lengths) < 1:
            raise ValueError("chain needs at least one link")
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise ValueError(f"link lengths must be positive and finite: {lengths}")
        object.__setattr__(self, "link_lengths", lengths)
        if self.joint_limits is not None:
            q_min, q_max = (
                tuple(require_number(v, "joint_limits") for v in bounds)
                for bounds in self.joint_limits
            )
            if len(q_min) != len(lengths) or len(q_max) != len(lengths):
                raise ValueError("joint limits must have one entry per joint")
            if not all(lo <= hi for lo, hi in zip(q_min, q_max)):  # false for NaN
                raise ValueError(f"ill-ordered or NaN joint limits: {q_min} vs {q_max}")
            if math.inf in q_min or -math.inf in q_max:
                raise ValueError(
                    f"a +inf lower or -inf upper joint limit admits no finite angle: "
                    f"{q_min} vs {q_max}"
                )
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
    q = require_numbers(q, "joint vector")
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
    """(n+1, 2) polyline of joint positions from the base at the origin.

    :func:`pose_rows` on n copies of ``q``, where row p weighs only the
    first p+1 links, so the last point is :func:`forward_kinematics`'s x
    and y bit for bit.
    """
    q = _check_joint_vector(chain, q)
    n = chain.n
    pts = np.zeros((n + 1, 2))
    pose_rows(
        np.tile(q, (n, 1)), np.tril(chain.link_lengths), np.empty((n, n)),
        np.empty((2, n, n)), pts[1:].T, np.empty(n),
    )
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
