"""Scalar loss for the inverse-kinematics problem.

The loss blends two quadratic forms: an end-effector accuracy term over the
pose error and a joint-motion-cost term over the displacement from a
reference configuration,

    J(q) = [w_jmc * dq' Q_jmc dq + w_ee * e' R_ee e] / (w_jmc + w_ee),

with dq = q - reference and e the pose error. The two weights are
normalized so that scaling both by a common factor leaves the loss
unchanged. :class:`LossEvaluator` is its one implementation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import DEG2RAD, ChainModel, Pose, pose_errors, pose_rows


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
    joint displacement; both must be symmetric positive-definite. Both
    weights must be finite. ``w_ee`` must be strictly positive or the
    accuracy term would vanish from the loss; ``w_jmc`` may be zero.
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
        if not 0 < self.w_ee < np.inf:
            raise ValueError(f"w_ee must be finite and strictly positive, got {self.w_ee}")
        if not 0 <= self.w_jmc < np.inf:
            raise ValueError(f"w_jmc must be finite and nonnegative, got {self.w_jmc}")

    @property
    def n(self) -> int:
        return self.reference.size

    @property
    def w_jmc_norm(self) -> float:
        return self.w_jmc / (self.w_jmc + self.w_ee)

    @property
    def w_ee_norm(self) -> float:
        return self.w_ee / (self.w_jmc + self.w_ee)


def default_r_ee() -> np.ndarray:
    """Default pose-error weights: diag{1, 1, 5*(2pi/360)^2} / 7."""
    return np.diag([1.0, 1.0, 5.0 * DEG2RAD**2]) / 7.0


@dataclass
class LossEvaluator:
    """Precomputed evaluator for repeated loss measurements.

    Evaluates the loss of one configuration, or of a batch of them at once
    (rows of a 2-D array), without revalidating inputs on every call.
    ``calls`` counts one measurement per configuration evaluated. The
    scalar ``combined_loss`` of ``tests/oracle.py`` agrees with it within
    1e-12 relative but differs in the last bit on some rows;
    ``frozen_evaluate_many`` in ``tests/test_objective.py`` is the
    bit-identity oracle.

    Work buffers, and read-only tiles of the per-row constants, are kept
    per batch shape and reused by every call, so one evaluator must not be
    shared between threads.
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
        lengths = np.asarray(chain.link_lengths)
        self._q0 = np.asarray(spec.reference)
        r, qm = spec.r_ee, spec.q_jmc
        self._r_full = None if _is_diagonal(r) else r
        self._q_full = None if _is_diagonal(qm) else qm
        # Per-row constants, one column: the target [x*, y*, theta*], the
        # r_ee diagonal when r_ee is diagonal, and the blend weights.
        t = spec.target
        self._row_consts = np.concatenate([
            [t.x, t.y, t.theta_deg],
            np.diag(r) if self._r_full is None else [],
            [spec.w_jmc_norm, spec.w_ee_norm],
        ])[:, None]
        # Row sums taken by the one vecdot: [dq^2 . q_diag, cos . L, sin . L],
        # or only the last two when q_jmc is a full matrix.
        self._sum_from = 0 if self._q_full is None else 1
        self._sum_weights = np.stack([np.diag(qm), lengths, lengths])[
            self._sum_from :, None, :
        ]
        self._work: dict[tuple, tuple] = {}

    def __call__(self, q) -> float:
        q = np.asarray(q, dtype=float)
        if q.shape != self._q0.shape:  # a 1-entry q would broadcast
            raise ValueError(f"joint vector has shape {q.shape}, expected {self._q0.shape}")
        return float(self.evaluate_many(q[None, :])[0])

    def _buffers(self, shape: tuple) -> tuple:
        # ang (m, n); w (3, m, n) = [dq, cos, sin]; r (4, m) = [jjmc, x, y,
        # theta], where x, y, theta become the pose error in place and r[1]
        # then holds jee; terms (3, m) for the weighted squared errors.
        # Read-only tiles of the reference (m, n) and of the per-row
        # constants, target (3, m), r_ee diagonal (3, m) and blend weights
        # (2, m), give every elementwise ufunc operands of its output's
        # shape, which numpy does not broadcast. Buffers are cached by batch
        # shape, so a batch of another shape always lands here and the
        # cached path needs no check.
        n = self._q0.size
        if len(shape) != 2 or shape[1] != n:
            raise ValueError(f"configs have shape {shape}, expected (m, {n})")
        m = shape[0]
        ang, w = np.empty((m, n)), np.empty((3, m, n))
        r, terms = np.empty((4, m)), np.empty((3, m))
        consts = _tile(self._row_consts, (self._row_consts.shape[0], m))
        if len(self._work) >= 8:  # the engine uses a few row counts per run
            self._work.clear()
        self._work[shape] = work = (
            ang, w[0], w[self._sum_from :], r[self._sum_from : 3],
            r[0], r[1], r[3], r[1:], r[:2], terms,
            _tile(self._q0, shape), consts[:3],
            None if self._r_full is not None else consts[3:6], consts[-2:],
        )
        return work

    def evaluate_many(self, configs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Loss for each row of ``configs`` (shape (m, n), else ``ValueError``);
        counts m calls.

        Every row goes through the same arithmetic whatever ``m`` is: the
        pose comes from :func:`~nlspsa_ik.kinematics.pose_rows`, whose
        per-row reductions do not depend on the row count (a BLAS
        matrix-vector product's do). The result is written to ``out`` when
        given, else to a new array.
        """
        shape = configs.shape
        work = self._work.get(shape) or self._buffers(shape)
        self.calls += shape[0]
        (ang, dq, stacked, sums, jjmc, jee, theta, err, blend, terms,
         q0, target, r_diag, weights) = work
        # Ufuncs are called directly, outputs passed by position: cumsum,
        # sum and the in-place operators are slower routes to the same loops.
        np.subtract(configs, q0, dq)
        if self._q_full is None:
            # dq^2 shares the pose's vecdot call, which sums it against the
            # q_jmc diagonal.
            np.multiply(dq, dq, dq)
        else:
            np.einsum("ij,jk,ik->i", dq, self._q_full, dq, out=jjmc)
        pose_rows(configs, self._sum_weights, ang, stacked, sums, theta)
        pose_errors(target, err, err)
        if r_diag is not None:
            np.multiply(r_diag, err, terms)
            np.multiply(terms, err, terms)
            np.add.reduce(terms, 0, None, jee)
        else:
            eps = err.T.copy()
            np.einsum("ij,jk,ik->i", eps, self._r_full, eps, out=jee)
        np.multiply(blend, weights, blend)
        # blend is the rows jjmc and jee: their sum is add.reduce over the
        # pair without the reduction's set-up.
        return np.add(jjmc, jee, out)


def _tile(a: np.ndarray, shape: tuple) -> np.ndarray:
    """A read-only copy of ``a`` broadcast to ``shape``."""
    tile = np.broadcast_to(a, shape).copy()
    tile.setflags(write=False)
    return tile


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m - np.diag(np.diag(m))) == 0
