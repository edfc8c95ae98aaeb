"""Run, sweep, and comparison artifacts and scenario files: the one JSON
reader and writer, the problem codec they all share, the CSV writers and the
trace reader.

Floats are serialized with ``repr`` (shortest round-trip form), so re-parsing
any file reproduces the in-memory values exactly and repeated writes of the
same data are byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baseline import INIT_SPREAD, POPULATION, PsoParams
from .errors import ArtifactError
from .kinematics import ChainModel, Pose, pose_error
from .objective import ObjectiveSpec, _is_diagonal
from .optimizer import RunRecord, SolverParams


# Rows per chunk when a CSV is written. A chunk is converted and joined into
# one string, so only a chunk of a long trace exists as Python objects at
# once; 4096-row chunks add about 0.4 MB to a 25001-row run's peak RSS.
_CSV_CHUNK = 1024


def _median(values, axis=None):
    """``np.median`` of NaN-free, non-empty ``values``, bit for bit.

    The middle of the sorted values, or the mean of the middle two computed
    as ``np.median`` computes it: ``(s[h - 1] + s[h]) / 2``. ``np.median``
    itself checks for masked arrays, which imports ``numpy.ma`` (about 1 MB
    of memory) into every command that reports a median.
    """
    s = np.sort(values, axis=axis)
    h = s.shape[0] // 2
    return s[h] if s.shape[0] % 2 else (s[h - 1] + s[h]) / 2


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-D arrays ``columns`` as CSV rows under ``header``.

    Every cell is the ``repr`` of its value from ``.tolist()``: an int, or a
    float in its shortest round-trip form, neither of which needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            cells = [map(repr, c[lo : lo + _CSV_CHUNK].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read_csv(
    path, expected_prefix: list[str], *, finite: bool = False
) -> tuple[list[str], list[int], np.ndarray]:
    """The header, the int first column and the float cells of the other
    columns (one row each) of an artifact CSV, as every writer here lays it
    out. A row of the wrong width or a cell that does not parse, or with
    ``finite`` a non-finite cell, is an :class:`ArtifactError` naming its
    line; text that is not UTF-8 is one naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[: len(expected_prefix)] != expected_prefix:
                raise ArtifactError(
                    f"{path}: expected a CSV starting with columns {expected_prefix}, "
                    f"got {header}"
                )
            first, cells = [], []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise ArtifactError(
                        f"{where}: {len(row)} cells, expected {len(header)}"
                    )
                try:
                    first.append(int(row[0]))
                    cells.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise ArtifactError(f"{where}: {exc}") from None
                if finite:
                    for name, value in zip(header[1:], cells[-1]):
                        if not math.isfinite(value):
                            raise ArtifactError(f"{where}: non-finite {name} {value}")
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: not UTF-8 text: {exc}") from None
    return header, first, np.array(cells).reshape(len(cells), len(header) - 1)


def write_trace_csv(path, record: RunRecord) -> None:
    _write_csv(
        path, ["iteration", "loss"], [record.trace_iterations, record.loss_trace]
    )


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The iterations and losses of a trace CSV. A run writes a trace only
    when all its values are finite, so a non-finite loss is an
    :class:`ArtifactError` naming its line."""
    _, iterations, cells = _read_csv(path, ["iteration", "loss"], finite=True)
    return np.array(iterations, dtype=int), cells[:, 0]


@dataclass(eq=False)
class SweepReport:
    """Per-seed results of one scenario swept over a seed range.

    All statistics except ``total_wall_ms`` are recomputed from the stored
    per-seed values on access; failed seeds carry NaN entries and a fault
    message and are excluded from the statistics. A seed's ``wall_ms`` is
    its ``RunRecord.elapsed``: the wall time of the batch it ran in divided
    by the seeds in that batch. ``total_wall_ms`` is the sweep's measured
    wall time, faulted seeds included, or None when none was given.
    """

    seeds: list[int]
    final_losses: np.ndarray
    pos_errors: np.ndarray
    theta_errors: np.ndarray
    displacements: np.ndarray  # (n_seeds, n_joints), |q_final - q0| per joint
    wall_ms: np.ndarray
    faults: list[str | None]
    total_wall_ms: float | None = None

    @classmethod
    def from_outcomes(
        cls, spec: ObjectiveSpec, seeds, outcomes, *,
        total_wall_ms: float | None = None,
    ) -> "SweepReport":
        """Build from per-seed ``solve``/``pso_solve`` outcomes.

        ``outcomes`` holds one :class:`RunRecord` per seed, or an exception
        instance for seeds whose run faulted.
        """
        seeds = [int(s) for s in seeds]
        n_seeds = len(seeds)
        n = spec.n
        target = spec.target
        final_losses = np.full(n_seeds, np.nan)
        pos_errors = np.full(n_seeds, np.nan)
        theta_errors = np.full(n_seeds, np.nan)
        displacements = np.full((n_seeds, n), np.nan)
        wall_ms = np.full(n_seeds, np.nan)
        faults: list[str | None] = [None] * n_seeds
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                faults[i] = str(outcome)
                continue
            rec: RunRecord = outcome
            final_losses[i] = rec.final_loss
            dx, dy, dtheta = pose_error(target, rec.final_pose)
            pos_errors[i] = math.hypot(dx, dy)
            theta_errors[i] = abs(dtheta)
            displacements[i] = np.abs(rec.final_iterate - spec.reference)
            wall_ms[i] = rec.elapsed * 1e3
        return cls(
            seeds=seeds,
            final_losses=final_losses,
            pos_errors=pos_errors,
            theta_errors=theta_errors,
            displacements=displacements,
            wall_ms=wall_ms,
            faults=faults,
            total_wall_ms=total_wall_ms,
        )

    def stats(self) -> dict:
        ok = ~np.isnan(self.final_losses)
        if not ok.any():
            return {
                "completed": 0,
                "failed": len(self.seeds),
                "total_wall_ms": self.total_wall_ms,
            }
        return {
            "completed": int(ok.sum()),
            "failed": int(len(self.seeds) - ok.sum()),
            "median_final_loss": float(_median(self.final_losses[ok])),
            "min_final_loss": float(self.final_losses[ok].min()),
            "max_final_loss": float(self.final_losses[ok].max()),
            "median_pos_error": float(_median(self.pos_errors[ok])),
            "median_theta_error": float(_median(self.theta_errors[ok])),
            "median_displacement": [
                float(v) for v in _median(self.displacements[ok], axis=0)
            ],
            "median_wall_ms": float(_median(self.wall_ms[ok])),
            "total_wall_ms": self.total_wall_ms,
        }

    def to_doc(self) -> dict:
        per_seed = []
        for i, seed in enumerate(self.seeds):
            per_seed.append(
                {
                    "seed": seed,
                    "final_loss": _none_if_not_finite(self.final_losses[i]),
                    "pos_err": _none_if_not_finite(self.pos_errors[i]),
                    "theta_err": _none_if_not_finite(self.theta_errors[i]),
                    "wall_ms": _none_if_not_finite(self.wall_ms[i]),
                    "dq": None
                    if self.faults[i] is not None
                    else [float(v) for v in self.displacements[i]],
                    "fault": self.faults[i],
                }
            )
        return {"per_seed": per_seed, "stats": self.stats()}


def _none_if_not_finite(v: float):
    """``v``, or None (JSON null) for NaN and +-inf, which JSON cannot hold."""
    return float(v) if math.isfinite(v) else None


def sweep_csv_header(n_joints: int) -> list[str]:
    return ["seed", "final_loss", "pos_err", "theta_err", "wall_ms"] + [
        f"dq_{i + 1}" for i in range(n_joints)
    ]


def write_sweep_csv(path, report: SweepReport) -> None:
    _write_csv(
        path,
        sweep_csv_header(report.displacements.shape[1]),
        [
            np.asarray(report.seeds, dtype=int),
            report.final_losses,
            report.pos_errors,
            report.theta_errors,
            report.wall_ms,
            *report.displacements.T,
        ],
    )


def write_compare_csv(path, seeds, nlspsa_losses, pso_losses) -> None:
    _write_csv(
        path,
        ["seed", "nlspsa_loss", "pso_loss"],
        [
            np.asarray(seeds, dtype=int),
            np.asarray(nlspsa_losses, dtype=float),
            np.asarray(pso_losses, dtype=float),
        ],
    )


def _pose_doc(pose: Pose) -> dict:
    return {"x": pose.x, "y": pose.y, "theta_deg": pose.theta_deg}


def pose_from_doc(node) -> Pose:
    """The pose ``_pose_doc`` writes. A missing key raises ``KeyError``, and
    an ill-typed, non-finite or out-of-range value ``TypeError`` or
    ``ValueError``."""
    return Pose(float(node["x"]), float(node["y"]), float(node["theta_deg"]))


def problem_doc(scenario_id: str, spec: ObjectiveSpec, chain: ChainModel) -> dict:
    """The problem as a scenario file stores it, and as every run, sweep and
    compare JSON starts with it: the id, the chain, the objective (a diagonal
    ``r_ee`` or ``q_jmc`` as ``*_diag``) and ``joint_limits`` when set."""
    doc: dict = {
        "id": scenario_id,
        "link_lengths": list(chain.link_lengths),
        "q0_deg": [float(v) for v in spec.reference],
        "target": _pose_doc(spec.target),
        "w_jmc": spec.w_jmc,
        "w_ee": spec.w_ee,
    }
    for key, matrix in (("r_ee", spec.r_ee), ("q_jmc", spec.q_jmc)):
        if _is_diagonal(matrix):
            doc[f"{key}_diag"] = [float(v) for v in np.diag(matrix)]
        else:
            doc[key] = [[float(v) for v in row] for row in matrix]
    if chain.joint_limits is not None:
        q_min, q_max = chain.joint_limits
        doc["joint_limits"] = {"q_min": list(q_min), "q_max": list(q_max)}
    return doc


def _parse_matrix(doc: dict, key: str) -> np.ndarray:
    """The row-major matrix ``doc[key]``, or the diagonal matrix of
    ``doc[key + '_diag']``; :class:`ObjectiveSpec` checks its shape."""
    if f"{key}_diag" not in doc:
        return np.asarray(doc[key], dtype=float)
    if key in doc:
        raise ValueError(f"give either {key!r} or '{key}_diag', not both")
    return np.diag(np.asarray(doc[f"{key}_diag"], dtype=float))


def problem_from_doc(doc: dict) -> tuple[str, ObjectiveSpec, ChainModel]:
    """The id, objective and chain that :func:`problem_doc` writes, where a
    full matrix may stand for a diagonal one and a null ``joint_limits`` for
    none. A missing key raises ``KeyError``, an ill-typed or invalid value
    ``TypeError`` or ``ValueError``."""
    scenario_id = str(doc["id"])
    limits = doc.get("joint_limits")
    chain = ChainModel(
        doc["link_lengths"],
        joint_limits=None if limits is None else (limits["q_min"], limits["q_max"]),
    )
    spec = ObjectiveSpec(
        reference=doc["q0_deg"],
        target=pose_from_doc(doc["target"]),
        r_ee=_parse_matrix(doc, "r_ee"),
        q_jmc=_parse_matrix(doc, "q_jmc"),
        w_jmc=float(doc["w_jmc"]),
        w_ee=float(doc["w_ee"]),
    )
    return scenario_id, spec, chain


def settings_doc(params: SolverParams) -> dict:
    """The solver settings of a run, sweep or compare JSON (an unlimited
    ``d``, plain SPSA, as null), and the package, numpy and Python versions
    and the machine type it ran with."""
    from . import __version__

    return {
        "params": {**asdict(params), "d": _none_if_not_finite(params.d)},
        "versions": {
            "nlspsa_ik": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def run_result_doc(record: RunRecord, trace_csv: str) -> dict:
    """The outcome of one run, which its JSON records after the problem and
    the settings, and the name of its trace CSV."""
    return {
        "seed": record.seed,
        "final_q_deg": [float(v) for v in record.final_iterate],
        "final_pose": _pose_doc(record.final_pose),
        "initial_loss": record.initial_loss,
        "final_loss": record.final_loss,
        "best_loss": record.best_loss,
        "evaluations": record.evaluations,
        "trace_evaluations": record.trace_evaluations,
        "iterations": record.iterations,
        "max_step_inf": record.max_step_inf,
        "elapsed_s": record.elapsed,
        "trace_csv": trace_csv,
    }


def compare_doc(pso_params: PsoParams, nl: SweepReport, pso: SweepReport) -> dict:
    """The outcome of a compare, which its JSON records after the problem and
    the settings: PSO's budget and swarm, each solver's per-seed final loss
    and median over its finished seeds, and the solver with the lower
    median. A loss is null where a seed faulted, and a median and the winner
    are null where no seed of a solver finished."""
    nl_median, pso_median = (
        _none_if_not_finite(r.stats().get("median_final_loss", np.nan))
        for r in (nl, pso)
    )
    if nl_median is None or pso_median is None:
        winner = None
    else:
        winner = "nlspsa" if nl_median < pso_median else "pso"
    return {
        "eval_budget": pso_params.eval_budget,
        "population": POPULATION,
        "init_spread": INIT_SPREAD,
        "seeds": nl.seeds,
        "nlspsa_losses": [_none_if_not_finite(v) for v in nl.final_losses],
        "pso_losses": [_none_if_not_finite(v) for v in pso.final_losses],
        "nlspsa_median": nl_median,
        "pso_median": pso_median,
        "winner": winner,
    }


def write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json_object(path, error: type[Exception]) -> dict:
    """The top-level object of the UTF-8 JSON file at ``path``. Text that is
    not UTF-8 or not JSON, or a top-level value that is not an object, raises
    ``error`` naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: corrupt JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise error(f"{path}: top-level value is not a JSON object")
    return doc
