"""Run, sweep, and comparison artifacts and scenario files: the one JSON
reader and strict JSON writer, the problem codec they all share, the
per-seed table that sweep and compare write, the CSV writers and the trace
reader.

Floats are serialized with ``repr`` (shortest round-trip form), so re-parsing
any file reproduces the in-memory values exactly and repeated writes of the
same data are byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baseline import INIT_SPREAD, POPULATION, PsoParams
from .errors import ArtifactError
from .kinematics import ChainModel, Pose, pose_error, require_number
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


def seed_table(spec: ObjectiveSpec, outcomes) -> np.ndarray:
    """The per-seed results of ``solve_many`` or ``pso_solve``, one row per
    outcome, in the sweep CSV's columns after ``seed``: final loss, position
    error, absolute theta error, ``wall_ms``, then ``|q_final - q0|`` per
    joint.

    An outcome is a :class:`RunRecord`, or the exception of a seed whose run
    faulted, whose row is all NaN. A seed's ``wall_ms`` is its
    ``RunRecord.elapsed``: the wall time of the batch it ran in divided by
    the seeds in that batch.
    """
    table = np.full((len(outcomes), 4 + spec.n), np.nan)
    for row, outcome in zip(table, outcomes):
        if isinstance(outcome, Exception):
            continue
        dx, dy, dtheta = pose_error(spec.target, outcome.final_pose)
        row[:4] = (
            outcome.final_loss, math.hypot(dx, dy), abs(dtheta), outcome.elapsed * 1e3
        )
        row[4:] = np.abs(outcome.final_iterate - spec.reference)
    return table


def _none_if_not_finite(v: float):
    """``v``, or None (JSON null) for NaN and +-inf, which JSON cannot hold."""
    return float(v) if math.isfinite(v) else None


def sweep_doc(seeds, outcomes, table: np.ndarray, total_wall_ms: float) -> dict:
    """The outcome of a sweep, which its JSON records after the problem and
    the settings: each seed's row of ``table`` (:func:`seed_table`) with its
    fault message, and ``stats`` over the finished seeds. A faulted seed's
    values are null, and ``total_wall_ms`` is the sweep's measured wall
    time, faulted seeds included."""
    per_seed = []
    for seed, outcome, row in zip(seeds, outcomes, table):
        fault = str(outcome) if isinstance(outcome, Exception) else None
        loss, pos_err, theta_err, wall_ms = map(_none_if_not_finite, row[:4])
        per_seed.append(
            {
                "seed": seed,
                "final_loss": loss,
                "pos_err": pos_err,
                "theta_err": theta_err,
                "wall_ms": wall_ms,
                "dq": None if fault is not None else row[4:].tolist(),
                "fault": fault,
            }
        )
    finished = table[~np.isnan(table[:, 0])]
    stats: dict = {"completed": len(finished), "failed": len(table) - len(finished)}
    if len(finished):
        median = _median(finished, axis=0).tolist()
        stats.update(
            median_final_loss=median[0],
            min_final_loss=float(finished[:, 0].min()),
            max_final_loss=float(finished[:, 0].max()),
            median_pos_error=median[1],
            median_theta_error=median[2],
            median_displacement=median[4:],
            median_wall_ms=median[3],
        )
    stats["total_wall_ms"] = total_wall_ms
    return {"per_seed": per_seed, "stats": stats}


def sweep_csv_header(n_joints: int) -> list[str]:
    return ["seed", "final_loss", "pos_err", "theta_err", "wall_ms"] + [
        f"dq_{i + 1}" for i in range(n_joints)
    ]


def write_sweep_csv(path, seeds, table: np.ndarray) -> None:
    """Write ``table`` (:func:`seed_table`) under a ``seed`` column."""
    _write_csv(
        path,
        sweep_csv_header(table.shape[1] - 4),
        [np.asarray(seeds, dtype=int), *table.T],
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


def numbers_from_doc(value, name: str, null: float | None = None) -> list[float]:
    """``value`` as floats if it is a JSON list of numbers, where a null
    entry stands for ``null`` when that is given. Anything else raises
    ``TypeError`` naming ``name``."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of numbers, got {value!r}")
    return [
        null if v is None and null is not None else require_number(v, name)
        for v in value
    ]


def pose_from_doc(node) -> Pose:
    """The pose ``_pose_doc`` writes. A missing key raises ``KeyError``, and
    an ill-typed, non-finite or out-of-range value ``TypeError`` or
    ``ValueError``."""
    return Pose(*(node[k] for k in ("x", "y", "theta_deg")))


def problem_doc(scenario_id: str, spec: ObjectiveSpec, chain: ChainModel) -> dict:
    """The problem as a scenario file stores it, and as every run, sweep and
    compare JSON starts with it: the id, the chain, the objective (a diagonal
    ``r_ee`` or ``q_jmc`` as ``*_diag``) and ``joint_limits`` when set, with
    an infinite bound as null: -inf in ``q_min``, +inf in ``q_max``."""
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
        q_min, q_max = (list(map(_none_if_not_finite, q)) for q in chain.joint_limits)
        doc["joint_limits"] = {"q_min": q_min, "q_max": q_max}
    return doc


def _parse_matrix(doc: dict, key: str) -> np.ndarray:
    """The row-major matrix ``doc[key]``, or the diagonal matrix of
    ``doc[key + '_diag']``; :class:`ObjectiveSpec` checks its shape."""
    if f"{key}_diag" not in doc:
        rows = doc[key]
        if not isinstance(rows, list):
            raise TypeError(f"{key} must be a list of rows, got {rows!r}")
        return np.array([numbers_from_doc(row, key) for row in rows])
    if key in doc:
        raise ValueError(f"give either {key!r} or '{key}_diag', not both")
    return np.diag(numbers_from_doc(doc[f"{key}_diag"], f"{key}_diag"))


def problem_from_doc(doc: dict) -> tuple[str, ObjectiveSpec, ChainModel]:
    """The id, objective and chain that :func:`problem_doc` writes, where a
    full matrix may stand for a diagonal one, a null ``joint_limits`` for
    none, and an infinite bound may also be written as ``-Infinity`` or
    ``Infinity``. A missing key raises ``KeyError``, a value that is not a
    JSON number (or list of them, or string for the id) ``TypeError``, and
    an invalid one ``ValueError``."""
    scenario_id = doc["id"]
    if not isinstance(scenario_id, str):
        raise TypeError(f"id must be a string, got {scenario_id!r}")
    limits = doc.get("joint_limits")
    if limits is not None:
        limits = (
            numbers_from_doc(limits["q_min"], "q_min", null=-math.inf),
            numbers_from_doc(limits["q_max"], "q_max", null=math.inf),
        )
    chain = ChainModel(
        numbers_from_doc(doc["link_lengths"], "link_lengths"), joint_limits=limits
    )
    spec = ObjectiveSpec(
        reference=numbers_from_doc(
            doc["q0_deg"], "q0_deg (the reference configuration)"
        ),
        target=pose_from_doc(doc["target"]),
        r_ee=_parse_matrix(doc, "r_ee"),
        q_jmc=_parse_matrix(doc, "q_jmc"),
        w_jmc=doc["w_jmc"],
        w_ee=doc["w_ee"],
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


def _finished_median(losses: np.ndarray) -> float | None:
    """The median of the non-NaN ``losses`` (the finished seeds), or None
    where no seed finished."""
    finished = losses[~np.isnan(losses)]
    return float(_median(finished)) if finished.size else None


def compare_doc(pso_params: PsoParams, seeds, nl_losses, pso_losses) -> dict:
    """The outcome of a compare, which its JSON records after the problem and
    the settings: PSO's budget and swarm, each solver's per-seed final loss
    (column 0 of :func:`seed_table`) and median over its finished seeds, and
    the solver with the lower median. A loss is null where a seed faulted,
    and a median and the winner are null where no seed of a solver
    finished."""
    nl_median, pso_median = map(_finished_median, (nl_losses, pso_losses))
    if nl_median is None or pso_median is None:
        winner = None
    else:
        winner = "nlspsa" if nl_median < pso_median else "pso"
    return {
        "eval_budget": pso_params.eval_budget,
        "population": POPULATION,
        "init_spread": INIT_SPREAD,
        "seeds": list(seeds),
        "nlspsa_losses": [_none_if_not_finite(v) for v in nl_losses],
        "pso_losses": [_none_if_not_finite(v) for v in pso_losses],
        "nlspsa_median": nl_median,
        "pso_median": pso_median,
        "winner": winner,
    }


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as strict JSON: a NaN or infinite float in it is a
    ``ValueError``, not a non-standard constant in the file."""
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


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
