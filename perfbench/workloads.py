"""The benchmark's closed-loop workloads and the checks on their outputs.

One caller in one process: every command goes through ``nlspsa_ik.cli.main``
in-process and waits for the previous one, writing its artifacts into a
scratch directory. The solver results each command computes are captured on
the way out of the CLI's solver calls, checked one seed-solve at a time, and
compared with what the CLI wrote to disk.

``sweep`` and ``compare`` always solve seeds 0..N-1 (the CLI has no seed
offset), so for those workloads the workload seed only sets the order of the
scenarios; ``run`` takes its solver seed from the workload seed.

The quality figures are scored on the first ``scored_passes`` passes only,
and a measurement always makes that many, so the seeds they cover do not
depend on how many passes fit in the measured seconds.
"""
from __future__ import annotations

import csv
import io
import json
import random
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from nlspsa_ik import baseline, cli, optimizer
from nlspsa_ik.kinematics import forward_kinematics
from nlspsa_ik.scenarios import builtin, builtin_ids

N_SEEDS = 20
# run-1.1 cycles through seeds 20w .. 20w+19 for workload seed w, so w = 0
# solves the acceptance seeds 0..19 and different workload seeds never share
# a seed.
SEED_STRIDE = 20
# Acceptance criteria 3 (every scenario of a 20-seed sweep) and 6 (compare).
MEDIAN_LOSS_BOUND = 1.0e-2
TAIL_LOSS_BOUND = 2.0e-2
TAIL_FRACTION = 0.80


@dataclass(frozen=True)
class Command:
    kind: str  # "run", "sweep" or "compare"
    scenario_id: str
    seeds: tuple[int, ...]

    def argv(self, out_dir: Path, n_max: int | None) -> list[str]:
        argv = [self.kind, "--scenario", self.scenario_id, "--out", str(out_dir)]
        if self.kind == "run":
            argv += ["--seed", str(self.seeds[0])]
        else:
            argv += ["--seeds", str(len(self.seeds))]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        return argv

    @property
    def solves(self) -> int:
        """Seed-solves the command makes: NLSPSA, plus PSO for compare."""
        return len(self.seeds) * (2 if self.kind == "compare" else 1)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    scenario_ids: tuple[str, ...]
    # Leading passes whose seed-solves the quality figures are scored on.
    scored_passes: int = 1

    def commands(self, workload_seed: int, pass_index: int) -> list[Command]:
        if self.kind == "run":
            seed = SEED_STRIDE * workload_seed + pass_index % SEED_STRIDE
            return [Command("run", self.scenario_ids[0], (seed,))]
        order = list(self.scenario_ids)
        random.Random(workload_seed).shuffle(order)
        return [Command(self.kind, sid, tuple(range(N_SEEDS))) for sid in order]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-1.1", "run", ("1.1",), scored_passes=5),
        Workload("sweep-11x20", "sweep", builtin_ids()),
        Workload("compare-2.x", "compare", ("2.1", "2.2", "2.3")),
    )
}


@dataclass
class SolverCall:
    name: str
    args: tuple
    result: object
    seconds: float


class CliDriver:
    """Runs CLI commands in-process and captures each solver call they make.

    The CLI's ``solve``, ``solve_many`` and ``pso_solve`` names are pointed at
    capturing wrappers that look the real function up in its own module on
    every call, so spans installed there are still recorded.
    """

    def __init__(self):
        self.calls: list[SolverCall] = []

    def _capturing(self, module, name: str):
        calls = self.calls

        def call(*args, **kwargs):
            started = time.perf_counter()
            result = getattr(module, name)(*args, **kwargs)
            calls.append(SolverCall(name, args, result, time.perf_counter() - started))
            return result

        return call

    @contextmanager
    def capturing(self):
        targets = {"solve": optimizer, "solve_many": optimizer, "pso_solve": baseline}
        saved = {name: getattr(cli, name) for name in targets}
        try:
            for name, module in targets.items():
                setattr(cli, name, self._capturing(module, name))
            yield self
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)

    def run(self, argv: list[str]) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)


@dataclass
class Tally:
    """Checked outcomes and counts of one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    seed_iters: int = 0
    batch_iters: int = 0
    evals: int = 0
    trace_evals: int = 0
    faults: int = 0
    pso_generations: int = 0
    pso_evals: int = 0
    pso_seconds: float = 0.0
    nl_losses: dict[str, list[float]] = field(default_factory=dict)
    pso_losses: dict[str, list[float]] = field(default_factory=dict)

    def seed_result(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def _finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def nlspsa_problems(record, chain, params) -> list[str]:
    """Checks every NLSPSA seed-solve must pass."""
    problems = []
    finite = _finite(
        record.final_iterate, record.final_pose.as_array(),
        record.initial_loss, record.final_loss, record.loss_trace,
    )
    if not finite:
        problems.append("non-finite iterate, pose or loss")
    if record.evaluations != 2 * record.iterations:
        problems.append(
            f"{record.evaluations} evaluations for {record.iterations} iterations"
        )
    if not record.max_step_inf <= params.d * (1 + 1e-9):
        problems.append(f"step {record.max_step_inf} exceeds d = {params.d}")
    if finite and record.final_pose != forward_kinematics(chain, record.final_iterate):
        problems.append("final pose is not the forward kinematics of the iterate")
    return problems


def pso_problems(record, chain, params) -> list[str]:
    """Checks every PSO seed-solve must pass."""
    problems = []
    finite = _finite(
        record.final_iterate, record.final_pose.as_array(), record.final_loss
    )
    if not finite:
        problems.append("non-finite iterate, pose or loss")
    if record.evaluations != params.eval_budget:
        problems.append(
            f"{record.evaluations} evaluations for a budget of {params.eval_budget}"
        )
    if finite and record.final_pose != forward_kinematics(chain, record.final_iterate):
        problems.append("final pose is not the forward kinematics of the iterate")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _artifact_stem(kind: str, scenario_id: str, seed: int) -> str:
    return f"run_{scenario_id}_seed{seed}" if kind == "run" else f"{kind}_{scenario_id}"


def _count_nlspsa(tally: Tally, scenario_id: str, outcomes) -> None:
    records = [o for o in outcomes if not isinstance(o, Exception)]
    tally.faults += len(outcomes) - len(records)
    tally.batch_iters += max((r.iterations for r in records), default=0)
    for r in records:
        tally.seed_iters += r.iterations
        tally.evals += r.evaluations
        tally.trace_evals += r.trace_evaluations
        tally.nl_losses.setdefault(scenario_id, []).append(r.final_loss)


def check_command(
    tally: Tally, cmd: Command, exit_code: int, calls: list[SolverCall], out_dir: Path
) -> None:
    """Check one command's captured results and artifacts, adding to ``tally``."""
    label = f"{cmd.kind} {cmd.scenario_id}"
    stem = _artifact_stem(cmd.kind, cmd.scenario_id, cmd.seeds[0])
    try:
        if exit_code != 0:
            raise ValueError(f"exit code {exit_code}")
        doc = json.loads((out_dir / f"{stem}.json").read_text())
        rows = _read_csv(out_dir / f"{stem}.csv")
        nl_calls = [c for c in calls if c.name in ("solve", "solve_many")]
        pso_calls = [c for c in calls if c.name == "pso_solve"]
        expected_pso = len(cmd.seeds) if cmd.kind == "compare" else 0
        if len(nl_calls) != 1 or len(pso_calls) != expected_pso:
            raise ValueError(f"unexpected solver calls {[c.name for c in calls]}")
        nl = nl_calls[0]
        outcomes = [nl.result] if nl.name == "solve" else nl.result
        if len(outcomes) != len(cmd.seeds):
            raise ValueError(f"{len(outcomes)} results for {len(cmd.seeds)} seeds")
    except (OSError, ValueError) as exc:
        tally.attempted += cmd.solves
        tally.failed += cmd.solves
        tally.problems.append(f"{label}: {exc}")
        return

    spec, chain, params = nl.args[:3]
    _count_nlspsa(tally, cmd.scenario_id, outcomes)
    for i, (seed, rec) in enumerate(zip(cmd.seeds, outcomes)):
        if isinstance(rec, Exception):
            tally.seed_result(f"{label} seed {seed}", [f"fault: {rec}"])
            continue
        problems = nlspsa_problems(rec, chain, params)
        problems += _artifact_problems(cmd.kind, doc, rows, i, rec, spec)
        tally.seed_result(f"{label} seed {seed}", problems)

    for i, (seed, call) in enumerate(zip(cmd.seeds, pso_calls)):
        rec, pso_params = call.result, call.args[2]
        problems = pso_problems(rec, chain, pso_params)
        problems += _artifact_problems("pso", doc, rows, i, rec, spec)
        tally.seed_result(f"{label} pso seed {seed}", problems)
        tally.pso_generations += rec.iterations
        tally.pso_evals += rec.evaluations
        tally.pso_seconds += call.seconds
        tally.pso_losses.setdefault(cmd.scenario_id, []).append(rec.final_loss)


def _artifact_problems(kind: str, doc: dict, rows, i: int, rec, spec) -> list[str]:
    """Disagreements between seed ``i``'s record and the CLI's artifacts."""
    try:
        if kind == "run":
            ok = (
                doc["final_q_deg"] == rec.final_iterate.tolist()
                and doc["final_loss"] == rec.final_loss
                and doc["initial_loss"] == rec.initial_loss
                and doc["evaluations"] == rec.evaluations
                and doc["iterations"] == rec.iterations
                and doc["max_step_inf"] == rec.max_step_inf
                and doc["final_pose"] == {
                    "x": rec.final_pose.x, "y": rec.final_pose.y,
                    "theta_deg": rec.final_pose.theta_deg,
                }
                and [int(r[0]) for r in rows] == rec.trace_iterations.tolist()
                and [float(r[1]) for r in rows] == rec.loss_trace.tolist()
            )
        elif kind == "sweep":
            entry = doc["per_seed"][i]
            dq = np.abs(rec.final_iterate - spec.reference).tolist()
            ok = (
                entry["seed"] == rec.seed
                and entry["final_loss"] == rec.final_loss
                and entry["dq"] == dq
                and entry["fault"] is None
                and int(rows[i][0]) == rec.seed
                and float(rows[i][1]) == rec.final_loss
                and [float(v) for v in rows[i][5:]] == dq
            )
        elif kind == "compare":
            ok = (
                doc["seeds"][i] == rec.seed
                and doc["nlspsa_losses"][i] == rec.final_loss
                and float(rows[i][1]) == rec.final_loss
            )
        else:  # the PSO column of a compare
            ok = (
                doc["pso_losses"][i] == rec.final_loss
                and float(rows[i][2]) == rec.final_loss
            )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{kind} artifacts unreadable: {exc!r}"]
    return [] if ok else [f"{kind} artifacts disagree with the in-memory result"]


def scenario_medians(losses: dict[str, list[float]]) -> dict[str, float]:
    return {sid: statistics.median(v) for sid, v in sorted(losses.items())}


def quality(nl_losses: dict, pso_losses: dict) -> dict[str, float]:
    """Worst per-scenario median final loss, its ratio to the paper's value,
    and the worst ratio of NLSPSA to PSO medians (0 without PSO)."""
    nl = scenario_medians(nl_losses)
    pso = scenario_medians(pso_losses)
    return {
        "loss_median_worst": max(nl.values()),
        "loss_vs_paper_worst": max(
            m / builtin(sid).reported_final_loss for sid, m in nl.items()
        ),
        "nlspsa_vs_pso_worst": max((nl[sid] / m for sid, m in pso.items()), default=0.0),
    }


def quality_problems(workload: Workload, nl_losses: dict, pso_losses: dict) -> list[str]:
    """Acceptance criterion 3 on the sweep and criterion 6 on compare."""
    problems = []
    if workload.kind == "sweep":
        for sid, losses in sorted(nl_losses.items()):
            median = statistics.median(losses)
            tail = sum(v <= TAIL_LOSS_BOUND for v in losses) / len(losses)
            if median > MEDIAN_LOSS_BOUND or tail < TAIL_FRACTION:
                problems.append(
                    f"criterion 3 fails on {sid}: median {median:.4e}, "
                    f"{tail:.0%} of seeds at or below {TAIL_LOSS_BOUND}"
                )
    if workload.kind == "compare":
        nl, pso = scenario_medians(nl_losses), scenario_medians(pso_losses)
        for sid, m in pso.items():
            if not nl[sid] < m:
                problems.append(
                    f"criterion 6 fails on {sid}: NLSPSA {nl[sid]:.4e} vs PSO {m:.4e}"
                )
    return problems

