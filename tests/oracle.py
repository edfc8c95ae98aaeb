"""Reference implementations that the tests compare the package against.

The package computes the loss and the pose only in batches
(``LossEvaluator.evaluate_many`` over ``kinematics.pose_rows``), and it runs
the solver only as the batched engine ``solve_many``. These are the
per-configuration and per-iteration forms written out directly from the
definitions, so that they stay independent of the code under test. The
readers of the sweep and compare CSVs are here too, as no command reads
those files back, one small problem that the solver tests share, and the
solvers' SplitMix64 stream word by word in Python ints.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from nlspsa_ik import optimizer
from nlspsa_ik.artifacts import _read_csv, sweep_csv_header
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.kinematics import DEG2RAD, ChainModel, Pose
from nlspsa_ik.objective import LossEvaluator, ObjectiveSpec, default_r_ee
from nlspsa_ik.optimizer import RunRecord, SolverParams, saturate


def mod_floor(alpha: float, beta: float) -> float:
    """Floored modulo ``alpha - beta*floor(alpha/beta)``, result in [0, beta).

    Python's float ``%`` twice, as the loss wraps theta. The first is the
    exact ``math.fmod`` plus ``beta`` for a negative remainder, which can
    round a tiny negative ``alpha`` up to exactly ``beta``; the second maps
    that to 0. No result is ``-0.0``.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return alpha % beta % beta


def scalar_pose(chain: ChainModel, q) -> Pose:
    """End-effector pose of one configuration: ``forward_kinematics`` as a
    cumulative sum, two dot products and :func:`mod_floor`."""
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n,):
        raise ValueError(f"joint vector has shape {q.shape}, expected ({chain.n},)")
    lengths = np.asarray(chain.link_lengths)
    angles = np.cumsum(q) * DEG2RAD
    x = float(np.cos(angles) @ lengths)
    y = float(np.sin(angles) @ lengths)
    theta = mod_floor(float(q.sum()), 360.0)
    return Pose(x, y, theta)


def end_effector_cost(spec: ObjectiveSpec, chain: ChainModel, q) -> float:
    """Pose-accuracy cost: quadratic form of the raw pose error under r_ee."""
    pose, target = scalar_pose(chain, q), spec.target
    eps = np.array(
        [target.x - pose.x, target.y - pose.y, target.theta_deg - pose.theta_deg]
    )
    return float(eps @ spec.r_ee @ eps)


def joint_motion_cost(spec: ObjectiveSpec, q) -> float:
    """Displacement cost: quadratic form of (q - reference) under q_jmc."""
    if np.shape(q) != spec.reference.shape:
        raise ValueError(
            f"joint vector has shape {np.shape(q)}, expected {spec.reference.shape}"
        )
    dq = np.asarray(q, dtype=float) - spec.reference
    return float(dq @ spec.q_jmc @ dq)


def combined_loss(spec: ObjectiveSpec, chain: ChainModel, q) -> float:
    """Normalized blend of motion cost and end-effector cost.

    J(q) = [w_jmc * J_motion(q) + w_ee * J_ee(q)] / (w_jmc + w_ee).
    """
    return spec.w_jmc_norm * joint_motion_cost(spec, q) + spec.w_ee_norm * end_effector_cost(
        spec, chain, q
    )


def loss_gradient(spec: ObjectiveSpec, chain: ChainModel, q) -> np.ndarray:
    """Closed-form gradient of the loss at ``q``, away from the 0/360 wall.

    With phi_i the cumulative joint angles in radians, the pose Jacobian has
    rows dx/dq_k = -(pi/180) sum_{i>=k} L_i sin phi_i, dy/dq_k = (pi/180)
    sum_{i>=k} L_i cos phi_i and dtheta/dq_k = 1, and with e the raw pose
    error, grad J = 2 w_jmc' Q_jmc (q - q0) - 2 w_ee' J^T R_ee e (the
    weights normalized, both matrices symmetric).
    """
    q = np.asarray(q, dtype=float)
    lengths = np.asarray(chain.link_lengths)
    angles = np.cumsum(q) * DEG2RAD

    def tail_sums(v):  # sum over i >= k, for each k
        return np.cumsum(v[::-1])[::-1]

    jacobian = np.stack([
        -DEG2RAD * tail_sums(lengths * np.sin(angles)),
        DEG2RAD * tail_sums(lengths * np.cos(angles)),
        np.ones_like(q),
    ])
    error = spec.target.as_array() - scalar_pose(chain, q).as_array()
    motion = 2.0 * spec.w_jmc_norm * (spec.q_jmc @ (q - spec.reference))
    return motion - 2.0 * spec.w_ee_norm * (jacobian.T @ (spec.r_ee @ error))


def spsa_gradient(loss, phi, c_k: float, delta) -> np.ndarray:
    """Simultaneous-perturbation gradient estimate at ``phi`` from two
    measurements of the scalar ``loss``: g_i = [loss(phi + c_k*delta) -
    loss(phi - c_k*delta)] / (2*c_k*delta_i), the quotient being the
    engine's ``optimizer._estimate``."""
    phi = np.asarray(phi, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if c_k <= 0:
        raise ValueError(f"c_k must be positive, got {c_k}")
    if delta.shape != phi.shape:
        raise ValueError(f"delta shape {delta.shape} != phi shape {phi.shape}")
    if np.any(delta == 0):
        raise ValueError("perturbation components must be nonzero")
    loss_plus = float(loss(phi + c_k * delta))
    loss_minus = float(loss(phi - c_k * delta))
    if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
        raise SolverFault(
            f"non-finite loss measurement: J+={loss_plus}, J-={loss_minus}"
        )
    return optimizer._estimate(loss_plus, loss_minus, c_k) / delta


def splitmix64_words(state: int, count: int) -> list[int]:
    """The ``count`` SplitMix64 words after ``state`` (Vigna's reference
    ``next``), one at a time in Python ints masked to 64 bits."""
    mask = (1 << 64) - 1
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def gain_schedules(params: SolverParams, ks) -> tuple[np.ndarray, np.ndarray]:
    """The engine's gain schedules a_k and c_k: numpy array power,
    elementwise in k, so any slice of k gives the same values."""
    ks = np.asarray(ks)
    return params.a / (params.A + ks) ** params.alpha, params.c / ks**params.gamma


def reference_solve_many(spec: ObjectiveSpec, chain: ChainModel, params: SolverParams, seeds):
    """``solve_many`` as a loop over seeds and iterations: each seed runs
    alone, and each iteration makes one :func:`spsa_gradient` over one-row
    ``LossEvaluator`` calls (plus, then minus), applies ``saturate`` and the
    joint limits, and checks the measurements, the new iterate and the
    traced loss, in the engine's order. Each iteration draws its own
    perturbation from the seed's :func:`splitmix64_words`. A faulted seed's
    slot holds a ``SolverFault`` with the engine's message and iteration;
    ``elapsed`` is 0."""
    return [_reference_run(spec, chain, params, int(seed)) for seed in seeds]


def _reference_run(spec, chain, params, seed):
    def fault(what, k):
        return SolverFault(f"non-finite {what} at iteration {k} (seed {seed})", iteration=k)

    a_ks, c_ks = gain_schedules(params, np.arange(1, params.n_max + 1))
    trace_ks = np.union1d(np.arange(0, params.n_max + 1, params.trace_every), params.n_max)
    traced = set(trace_ks.tolist())
    loss = LossEvaluator(spec, chain)  # counts this seed's rows
    # Each iteration takes the next ceil(n/64) words of the SplitMix64 stream
    # that starts at the seed, and its joint i is +1 where bit i of their
    # little-endian concatenation is set and -1 where it is not.
    words = math.ceil(chain.n / 64)
    stream = iter(splitmix64_words(seed, words * params.n_max))
    phi = np.asarray(spec.reference, dtype=float)
    trace, max_step = [loss(phi)], 0.0
    if not math.isfinite(trace[0]):
        return fault("loss", 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a_k, c_k in zip(range(1, params.n_max + 1), a_ks.tolist(), c_ks.tolist()):
            bits = sum(next(stream) << 64 * i for i in range(words))
            delta = np.array([((bits >> i) & 1) * 2.0 - 1.0 for i in range(chain.n)])
            try:
                update = a_k * spsa_gradient(loss, phi, c_k, delta)
            except SolverFault:
                return fault("loss", k)
            new_phi = phi - saturate(update, params.d)
            if chain.joint_limits is not None:
                new_phi = np.clip(new_phi, *chain.joint_limits)
            if not np.isfinite(new_phi).all():
                return fault("iterate", k)
            max_step = max(max_step, float(np.abs(new_phi - phi).max()))
            phi = new_phi
            if k in traced:
                trace.append(loss(phi))
                if not math.isfinite(trace[-1]):
                    return fault("loss", k)
    return RunRecord(
        final_iterate=phi,
        final_pose=scalar_pose(chain, phi),
        loss_trace=np.array(trace),
        trace_iterations=trace_ks,
        evaluations=loss.calls - len(trace),
        trace_evaluations=len(trace),
        iterations=k,
        max_step_inf=max_step,
        seed=seed,
        elapsed=0.0,
    )


def assert_same_outcome(got, want):
    """Every RunRecord field but ``elapsed`` is bit-identical, or both are
    the same fault."""
    assert type(got) is type(want), got
    if isinstance(want, SolverFault):
        assert (str(got), got.iteration) == (str(want), want.iteration)
        return
    for field in dataclasses.fields(RunRecord):
        if field.name == "elapsed":
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "final_pose":
            a, b = a.as_array(), b.as_array()
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b), field.name


def read_sweep_csv(path) -> dict:
    """Columns of a sweep CSV as arrays: seeds, final_losses, pos_errors,
    theta_errors, wall_ms, displacements."""
    _, seeds, cells = _read_csv(path, sweep_csv_header(0))
    names = ("final_losses", "pos_errors", "theta_errors", "wall_ms")
    return {"seeds": seeds, **dict(zip(names, cells.T)), "displacements": cells[:, 4:]}


def read_compare_csv(path) -> dict:
    """Columns of a compare CSV: seeds, nlspsa_losses, pso_losses."""
    _, seeds, cells = _read_csv(path, ["seed", "nlspsa_loss", "pso_loss"])
    return {"seeds": seeds, "nlspsa_losses": cells[:, 0], "pso_losses": cells[:, 1]}


def three_joint_problem() -> tuple[ObjectiveSpec, ChainModel]:
    """A small well-conditioned problem with an odd joint count, for fast
    solver tests."""
    return unit_link_problem(3)


def unit_link_problem(n: int) -> tuple[ObjectiveSpec, ChainModel]:
    """A well-conditioned problem on ``n`` unit links: the target
    (n/2, n/4, 45) and a start drawn uniformly within 10 degrees of zero."""
    chain = ChainModel.unit_links(n)
    spec = ObjectiveSpec(
        target=Pose(n / 2.0, n / 4.0, 45.0),
        reference=np.random.default_rng(0).uniform(-10, 10, n),
        r_ee=default_r_ee(),
        q_jmc=np.eye(n) * (2 * math.pi / 360) ** 2 / n,
    )
    return spec, chain
