"""Scalar loss for the inverse-kinematics problem.

The loss blends two quadratic forms: an end-effector accuracy term over the
pose error and a joint-motion-cost term over the displacement from a
reference configuration. The two weights are normalized so that scaling both
by a common factor leaves the loss unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import ChainModel, Pose, forward_kinematics, pose_error, DEG2RAD

# A numpy scalar keeps the in-place multiply in evaluate_many on the fast path.
_DEG2RAD = np.float64(DEG2RAD)


def _as_spd_matrix(m, dim: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(m, m.T, rtol=1e-12, atol=0.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive-definite") from None
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Target pose, reference configuration, and weighting of the two costs.

    ``r_ee`` (3x3) weights the pose error, ``q_jmc`` (n x n) weights the
    joint displacement; both must be symmetric positive-definite. ``w_ee``
    must be strictly positive or the accuracy term would vanish from the
    loss; ``w_jmc`` may be zero.
    """

    target: Pose
    reference: np.ndarray
    r_ee: np.ndarray
    q_jmc: np.ndarray
    w_jmc: float = 1.0
    w_ee: float = 50.0

    def __post_init__(self):
        reference = np.asarray(self.reference, dtype=float)
        if reference.ndim != 1 or reference.size < 1:
            raise ValueError("reference configuration must be a 1-D vector")
        if not np.isfinite(reference).all():
            raise ValueError("reference configuration must be finite")
        reference = reference.copy()
        reference.setflags(write=False)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "r_ee", _as_spd_matrix(self.r_ee, 3, "r_ee"))
        object.__setattr__(
            self, "q_jmc", _as_spd_matrix(self.q_jmc, reference.size, "q_jmc")
        )
        if not self.w_ee > 0:
            raise ValueError(f"w_ee must be strictly positive, got {self.w_ee}")
        if self.w_jmc < 0:
            raise ValueError(f"w_jmc must be nonnegative, got {self.w_jmc}")

    @property
    def n(self) -> int:
        return self.reference.size

    @property
    def w_jmc_norm(self) -> float:
        return self.w_jmc / (self.w_jmc + self.w_ee)

    @property
    def w_ee_norm(self) -> float:
        return self.w_ee / (self.w_jmc + self.w_ee)


def end_effector_cost(spec: ObjectiveSpec, chain: ChainModel, q) -> float:
    """Pose-accuracy cost: quadratic form of the pose error under r_ee."""
    eps = pose_error(spec.target, forward_kinematics(chain, q))
    return float(eps @ spec.r_ee @ eps)


def joint_motion_cost(spec: ObjectiveSpec, q) -> float:
    """Displacement cost: quadratic form of (q - reference) under q_jmc."""
    dq = np.asarray(q, dtype=float) - spec.reference
    if dq.shape != spec.reference.shape:
        raise ValueError(
            f"joint vector has shape {np.shape(q)}, expected {spec.reference.shape}"
        )
    return float(dq @ spec.q_jmc @ dq)


def combined_loss(spec: ObjectiveSpec, chain: ChainModel, q) -> float:
    """Normalized blend of motion cost and end-effector cost.

    J(q) = [w_jmc * J_motion(q) + w_ee * J_ee(q)] / (w_jmc + w_ee).
    """
    return spec.w_jmc_norm * joint_motion_cost(spec, q) + spec.w_ee_norm * end_effector_cost(
        spec, chain, q
    )


def default_r_ee() -> np.ndarray:
    """Default pose-error weights: diag{1, 1, 5*(2pi/360)^2} / 7."""
    return np.diag([1.0, 1.0, 5.0 * DEG2RAD**2]) / 7.0


@dataclass
class LossEvaluator:
    """Precomputed evaluator for repeated loss measurements.

    Produces the same values as :func:`combined_loss` but avoids revalidating
    inputs on every call and supports evaluating a batch of configurations at
    once (rows of a 2-D array). ``calls`` counts one measurement per
    configuration evaluated.
    """

    spec: ObjectiveSpec
    chain: ChainModel
    calls: int = field(default=0, init=False)

    def __post_init__(self):
        spec, chain = self.spec, self.chain
        if spec.n != chain.n:
            raise ValueError(
                f"objective is {spec.n}-dimensional but chain has {chain.n} joints"
            )
        self._lengths = np.asarray(chain.link_lengths)
        self._q0 = np.asarray(spec.reference)
        self._tx = spec.target.x
        self._ty = spec.target.y
        self._ttheta = spec.target.theta_deg
        self._wj = spec.w_jmc_norm
        self._we = spec.w_ee_norm
        r, qm = spec.r_ee, spec.q_jmc
        self._r_diag = tuple(float(v) for v in np.diag(r)) if _is_diagonal(r) else None
        self._r_full = None if self._r_diag is not None else r
        self._q_diag = np.diag(qm).copy() if _is_diagonal(qm) else None
        self._q_full = None if self._q_diag is not None else qm

    def __call__(self, q) -> float:
        return float(self.evaluate_many(np.asarray(q, dtype=float)[None, :])[0])

    def evaluate_many(self, configs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Loss for each row of ``configs`` (shape (m, n)); counts m calls.

        Every row goes through the same arithmetic whatever ``m`` is: the
        row sums use ``np.vecdot``, whose per-row reduction does not depend
        on the row count (a BLAS matrix-vector product does). The result is
        written to ``out`` when given.
        """
        self.calls += configs.shape[0]
        # The ufuncs are called directly: cumsum and sum are add.accumulate
        # and add.reduce behind a slower method dispatch.
        angles = np.add.accumulate(configs, 1)
        angles *= _DEG2RAD
        ex = self._tx - np.vecdot(np.cos(angles), self._lengths)
        ey = self._ty - np.vecdot(np.sin(angles), self._lengths)
        # A tiny negative total has remainder 360.0 after rounding; the
        # second remainder maps it to 0 and leaves [0, 360) unchanged.
        theta = np.remainder(np.remainder(np.add.reduce(configs, 1), 360.0), 360.0)
        et = self._ttheta - theta
        if self._r_diag is not None:
            r0, r1, r2 = self._r_diag
            jee = r0 * ex * ex + r1 * ey * ey + r2 * et * et
        else:
            eps = np.stack([ex, ey, et], axis=1)
            jee = np.einsum("ij,jk,ik->i", eps, self._r_full, eps)
        dq = configs - self._q0
        if self._q_diag is not None:
            jjmc = np.vecdot(dq * dq, self._q_diag)
        else:
            jjmc = np.einsum("ij,jk,ik->i", dq, self._q_full, dq)
        return np.add(self._wj * jjmc, self._we * jee, out=out)


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m - np.diag(np.diag(m))) == 0
