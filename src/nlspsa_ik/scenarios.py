"""Built-in validation scenarios and JSON scenario files.

Eleven built-ins cover an 8-joint unit-link chain (ids 1.1-1.8: position
and/or orientation changes, a base-joint-penalized motion-cost variant, and
two fully-stretched singular starts) and a 20-joint chain (ids 2.1-2.3,
including a near-singular target and a singular start). Each scenario is
self-consistent: the encoded initial pose must equal forward kinematics of
the reference configuration, and the encoded initial loss must match the
loss there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import (
    _pose_doc,
    pose_from_doc,
    problem_doc,
    problem_from_doc,
    read_json_object,
    write_json,
)
from .errors import ScenarioFormatError, ScenarioLookupError
from .kinematics import DEG2RAD, ChainModel, Pose, forward_kinematics
from .objective import LossEvaluator, ObjectiveSpec, default_r_ee

POSE_TOLERANCE = 1e-9
LOSS_TOLERANCE = 5e-5  # 4-decimal rounding of the encoded values


@dataclass(eq=False)
class Scenario:
    """A chain, an objective, and the encoded expectations for both."""

    id: str
    chain: ChainModel
    spec: ObjectiveSpec
    expected_initial_pose: Pose
    expected_initial_loss: float
    reported_final_loss: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check encoded pose/loss against values computed from the data."""
        if self.spec.n != self.chain.n:
            raise ScenarioFormatError(
                f"scenario {self.id!r}: reference has {self.spec.n} entries "
                f"but chain has {self.chain.n} joints"
            )
        pose = forward_kinematics(self.chain, self.spec.reference)
        mismatch = np.abs(pose.as_array() - self.expected_initial_pose.as_array())
        if mismatch.max() > POSE_TOLERANCE:
            raise ScenarioFormatError(
                f"scenario {self.id!r}: initial pose {pose} does not match "
                f"encoded {self.expected_initial_pose}"
            )
        for name in ("expected_initial_loss", "reported_final_loss"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ScenarioFormatError(f"scenario {self.id!r}: {name} is {value}")
        loss = LossEvaluator(self.spec, self.chain)(self.spec.reference)
        if abs(loss - self.expected_initial_loss) > LOSS_TOLERANCE:
            raise ScenarioFormatError(
                f"scenario {self.id!r}: initial loss {loss:.6f} does not match "
                f"encoded {self.expected_initial_loss}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.id == other.id
            and self.chain == other.chain
            and self.spec.target == other.spec.target
            and np.array_equal(self.spec.reference, other.spec.reference)
            and np.array_equal(self.spec.r_ee, other.spec.r_ee)
            and np.array_equal(self.spec.q_jmc, other.spec.q_jmc)
            and self.spec.w_jmc == other.spec.w_jmc
            and self.spec.w_ee == other.spec.w_ee
            and self.expected_initial_pose == other.expected_initial_pose
            and self.expected_initial_loss == other.expected_initial_loss
            and self.reported_final_loss == other.reported_final_loss
        )


def _uniform_motion_weights(n: int) -> np.ndarray:
    return np.eye(n) * (DEG2RAD**2 / n)


def _base_joint_heavy_weights() -> np.ndarray:
    diag = np.ones(8)
    diag[0] = 50.0
    return np.diag(diag) * (DEG2RAD**2 / 57.0)


_BENT_8 = (0.0, 0.0, 0.0, 0.0, 90.0, 0.0, 0.0, 90.0)
_STRAIGHT_8 = (0.0,) * 8
# 90 deg at the tenth joint: nine unit links along +x, eleven along +y.
_ELBOW_20 = (0.0,) * 9 + (90.0,) + (0.0,) * 10
_UPRIGHT_20 = (90.0,) + (0.0,) * 19

# id -> (q0, target (x, y, theta), q_jmc factory, initial pose,
#        initial loss, reported final loss)
_BUILTINS = {
    "1.1": (_BENT_8, (4, 3, 180), lambda: _uniform_motion_weights(8),
            (3, 3, 180), 0.1401, 4.8879e-4),
    "1.2": (_BENT_8, (3, 4, 180), lambda: _uniform_motion_weights(8),
            (3, 3, 180), 0.1401, 2.7151e-4),
    "1.3": (_BENT_8, (4, 4, 180), lambda: _uniform_motion_weights(8),
            (3, 3, 180), 0.2801, 1.5279e-3),
    "1.4": (_BENT_8, (3, 3, 240), lambda: _uniform_motion_weights(8),
            (3, 3, 180), 0.7679, 1.6323e-3),
    "1.5": (_BENT_8, (2, 4, 240), lambda: _uniform_motion_weights(8),
            (3, 3, 180), 1.0481, 1.6447e-3),
    "1.6": (_BENT_8, (2, 4, 240), _base_joint_heavy_weights,
            (3, 3, 180), 1.0481, 6.6408e-4),
    "1.7": (_STRAIGHT_8, (5, 0, 0), lambda: _uniform_motion_weights(8),
            (8, 0, 0), 1.2605, 9.6520e-3),
    "1.8": (_STRAIGHT_8, (4, 4, 60), lambda: _uniform_motion_weights(8),
            (8, 0, 0), 5.2497, 4.0543e-3),
    "2.1": (_ELBOW_20, (12, 8, 0), lambda: _uniform_motion_weights(20),
            (9, 11, 90), 4.2489, 5.3035e-4),
    "2.2": (_ELBOW_20, (0, 19, 90), lambda: _uniform_motion_weights(20),
            (9, 11, 90), 20.3081, 1.1707e-3),
    "2.3": (_UPRIGHT_20, (12, 12, 135), lambda: _uniform_motion_weights(20),
            (0, 20, 90), 29.5636, 9.0259e-4),
}


def builtin_ids() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(scenario_id: str) -> Scenario:
    """Return the built-in scenario with the given id (e.g. "1.1")."""
    try:
        q0, target, q_jmc, pose, initial_loss, final_loss = _BUILTINS[scenario_id]
    except KeyError:
        raise ScenarioLookupError(scenario_id, builtin_ids()) from None
    chain = ChainModel.unit_links(len(q0))
    spec = ObjectiveSpec(
        target=Pose(*(float(v) for v in target)),
        reference=np.asarray(q0),
        r_ee=default_r_ee(),
        q_jmc=q_jmc(),
        w_jmc=1.0,
        w_ee=50.0,
    )
    return Scenario(
        id=scenario_id,
        chain=chain,
        spec=spec,
        expected_initial_pose=Pose(*(float(v) for v in pose)),
        expected_initial_loss=initial_loss,
        reported_final_loss=final_loss,
    )


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as a JSON document (see :func:`load_scenario`)."""
    doc = problem_doc(scenario.id, scenario.spec, scenario.chain)
    doc["expected_initial_pose"] = _pose_doc(scenario.expected_initial_pose)
    doc["expected_initial_loss"] = scenario.expected_initial_loss
    if scenario.reported_final_loss is not None:
        doc["reported_final_loss"] = scenario.reported_final_loss
    write_json(path, doc)


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file, enforcing all invariants.

    Required fields: id, link_lengths, q0_deg, target {x, y, theta_deg},
    r_ee or r_ee_diag, q_jmc or q_jmc_diag, w_jmc, w_ee. Optional:
    joint_limits {q_min, q_max}, expected_initial_pose,
    expected_initial_loss, reported_final_loss (the expectations are
    computed from the data when absent). Any problem is a
    :class:`ScenarioFormatError` naming the file. A run, sweep or compare
    JSON loads too, as the problem it solved: each starts with these fields.
    """
    doc = read_json_object(path, ScenarioFormatError)
    try:
        scenario_id, spec, chain = problem_from_doc(doc)
        if "expected_initial_pose" in doc:
            pose = pose_from_doc(doc["expected_initial_pose"])
        else:
            pose = forward_kinematics(chain, spec.reference)
        if "expected_initial_loss" in doc:
            initial_loss = float(doc["expected_initial_loss"])
        else:
            initial_loss = LossEvaluator(spec, chain)(spec.reference)
        reported = doc.get("reported_final_loss")
        return Scenario(
            id=scenario_id,
            chain=chain,
            spec=spec,
            expected_initial_pose=pose,
            expected_initial_loss=initial_loss,
            reported_final_loss=None if reported is None else float(reported),
        )
    except KeyError as exc:
        raise ScenarioFormatError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
