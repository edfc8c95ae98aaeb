"""Gradient-free inverse kinematics for planar serial manipulators.

The solver minimizes a joint-motion cost subject to reaching a desired
end-effector pose, formulated as a penalty-combined scalar loss and
minimized with simultaneous perturbation stochastic approximation using a
norm-limited update vector (NLSPSA). A global-best PSO baseline is included
for budget-matched comparisons, plus eleven built-in validation scenarios
and a CLI that runs, sweeps, compares, and plots them.
"""

from .baseline import PsoParams, pso_solve
from .errors import (
    ArtifactError,
    ScenarioError,
    ScenarioFormatError,
    ScenarioLookupError,
    SolverFault,
)
from .kinematics import ChainModel, Pose, forward_kinematics, joint_positions, pose_error
from .objective import LossEvaluator, ObjectiveSpec, default_r_ee
from .optimizer import RunRecord, SolverParams, saturate, solve, solve_many
from .scenarios import Scenario, builtin, builtin_ids, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "ChainModel",
    "LossEvaluator",
    "ObjectiveSpec",
    "Pose",
    "PsoParams",
    "RunRecord",
    "Scenario",
    "ScenarioError",
    "ScenarioFormatError",
    "ScenarioLookupError",
    "SolverFault",
    "SolverParams",
    "builtin",
    "builtin_ids",
    "default_r_ee",
    "forward_kinematics",
    "joint_positions",
    "load_scenario",
    "pose_error",
    "pso_solve",
    "saturate",
    "save_scenario",
    "solve",
    "solve_many",
]
