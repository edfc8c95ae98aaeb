"""Scalar reference implementations that the tests compare the package against.

The package computes the loss and the pose only in batches
(``LossEvaluator.evaluate_many`` over ``kinematics.pose_rows``). These are
the per-configuration forms written out directly from the definitions, with
a pose of their own, so that they stay independent of the code under test.
"""
from __future__ import annotations

import numpy as np

from nlspsa_ik.kinematics import DEG2RAD, ChainModel, Pose, mod_floor
from nlspsa_ik.objective import ObjectiveSpec


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
