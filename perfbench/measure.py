"""One benchmark measurement: set-up, warm-up, timed passes, checks, metrics.

A pass is one round of a workload's commands (one ``run``, eleven ``sweep``
or three ``compare`` commands). There are always as many passes as the
workload scores quality on, and another as long as, at the mean pass time so
far, it would end within the requested seconds. End-to-end timings are
taken with tracing off. In a traced measurement every command runs twice in
a row, untraced and then traced; per-layer metrics are reported per traced
pass, and the tracing overhead is the traced time over the untraced time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from nlspsa_ik import PsoParams, SolverParams, __version__
from nlspsa_ik.objective import LossEvaluator
from nlspsa_ik.scenarios import builtin

from perfbench.tracing import (
    ARTIFACT_WRITERS,
    EVALUATE_MANY,
    SpanRecorder,
    SpanTable,
    traced,
)
from perfbench.workloads import (
    WORKLOADS,
    CliDriver,
    Tally,
    Workload,
    check_command,
    quality,
    quality_problems,
    scenario_medians,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# Fresh interpreters timed before the passes, and as many again after them,
# so that set-up is sampled across the run rather than at one moment.
SETUP_RUNS = 11
# Small enough to be quick, large enough that compare's PSO budget (2 * n_max)
# covers one population of 100.
WARMUP_N_MAX = 60
MICRO_ROWS = (1, 2, 20, 40, 100)
MICRO_CALLS = 1000
MICRO_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "seed_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "solved_frac": "frac",
    "loss_median_worst": "loss",
    "loss_vs_paper_worst": "ratio",
}

# Spans whose calls, busy and self time feed metrics named after them.
_COUNTED_SPANS = (
    EVALUATE_MANY,
    "optimizer.solve_many",
    "baseline.pso_solve",
    "scenarios.builtin",
    "kinematics.forward_kinematics",
)

PER_LAYER_UNITS = {
    "objective.evaluate_many.calls": "count",
    "objective.evaluate_many.rows": "count",
    "objective.evaluate_many.self_s": "s",
    "objective.evaluate_many.us_per_call": "us",
    "objective.calls_per_iter": "calls/iter",
    **{f"objective.eval_us.m{m}": "us" for m in MICRO_ROWS},
    "optimizer.solve_many.calls": "count",
    "optimizer.solve_many.busy_s": "s",
    "optimizer.solve_many.self_s": "s",
    "optimizer.self_us_per_iter": "us",
    "optimizer.evals": "count",
    "optimizer.trace_evals": "count",
    "optimizer.faults": "count",
    "optimizer.useful_eval_frac": "frac",
    "baseline.pso_solve.calls": "count",
    "baseline.pso_solve.busy_s": "s",
    "baseline.pso_solve.self_s": "s",
    "baseline.generations": "count",
    "baseline.evals": "count",
    "baseline.evals_per_s": "1/s",
    "baseline.nlspsa_vs_pso_worst": "ratio",
    "scenarios.builtin.calls": "count",
    "scenarios.builtin.busy_s": "s",
    "kinematics.forward_kinematics.calls": "count",
    "kinematics.forward_kinematics.busy_s": "s",
    "artifacts.write_s": "s",
    "artifacts.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


@dataclasses.dataclass
class Pass:
    seconds: float = 0.0
    tally: Tally = dataclasses.field(default_factory=Tally)
    # ru_maxrss after the pass's first command, before any of its checks.
    peak_rss_mb: float | None = None


def time_setup(workload: Workload) -> list[float]:
    """Set-up times of ``SETUP_RUNS`` fresh interpreters, after one more
    whose result is dropped (it may compile bytecode)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(SETUP_PROBE), *workload.scenario_ids]
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times


def run_command(
    driver: CliDriver, cmd, out_dir: Path, n_max: int | None, into: Pass,
    recorder: SpanRecorder | None = None,
) -> None:
    """Run one command into an empty ``out_dir``, add its time to ``into``
    and check its outputs (untimed). The first command of a pass also samples
    the peak resident set size, before the check can allocate."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    driver.calls.clear()
    with traced(recorder) if recorder is not None else nullcontext():
        started = time.perf_counter()
        code = driver.run(cmd.argv(out_dir, n_max))
        into.seconds += time.perf_counter() - started
    if into.peak_rss_mb is None:
        into.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_command(into.tally, cmd, code, driver.calls, out_dir)


def run_passes(
    driver: CliDriver,
    workload: Workload,
    seed: int,
    seconds: float,
    out_dir: Path,
    n_max: int | None,
    min_passes: int,
    recorder: SpanRecorder | None = None,
) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes and, with a recorder, traced passes: at least
    ``min_passes``, and another while it is expected to end within
    ``seconds`` of pass time. With a
    recorder every command runs untraced and then, with the same inputs,
    traced, so that both halves see the same machine conditions."""
    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    spent = 0.0
    while (
        len(untraced) < min_passes
        or spent * (len(untraced) + 1) / len(untraced) <= seconds
    ):
        plain, spanned = Pass(), Pass()
        for cmd in workload.commands(seed, len(untraced)):
            run_command(driver, cmd, out_dir, n_max, plain)
            if recorder is not None:
                run_command(driver, cmd, out_dir, n_max, spanned, recorder)
        untraced.append(plain)
        if recorder is not None:
            traced_passes.append(spanned)
        spent += plain.seconds + spanned.seconds
    return untraced, traced_passes


def _merged(tallies: list[Tally], attr: str) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for t in tallies:
        for sid, losses in getattr(t, attr).items():
            merged.setdefault(sid, []).extend(losses)
    return merged


def time_evaluate_many(scenario_id: str, rows: int, seed: int) -> float:
    """Median microseconds per ``evaluate_many`` call on ``rows`` configurations."""
    scenario = builtin(scenario_id)
    evaluator = LossEvaluator(scenario.spec, scenario.chain)
    rng = np.random.default_rng(seed)
    configs = scenario.spec.reference + rng.normal(scale=5.0, size=(rows, scenario.chain.n))
    evaluator.evaluate_many(configs)
    samples = []
    for _ in range(MICRO_REPEATS):
        started = time.perf_counter()
        for _ in range(MICRO_CALLS):
            evaluator.evaluate_many(configs)
        samples.append((time.perf_counter() - started) / MICRO_CALLS * 1e6)
    return statistics.median(samples)


def end_to_end_metrics(passes: list[Pass], setup_s: float, q: dict) -> dict:
    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "seed_iters_per_s": statistics.median(p.tally.seed_iters / p.seconds for p in passes),
        "peak_rss_mb": passes[0].peak_rss_mb,
        "solved_frac": (attempted - failed) / attempted,
        "loss_median_worst": q["loss_median_worst"],
        "loss_vs_paper_worst": q["loss_vs_paper_worst"],
    }


def per_layer_metrics(
    workload: Workload, seed: int, untraced: list[Pass], traced_passes: list[Pass],
    table: SpanTable, q: dict,
) -> dict:
    n = len(traced_passes)
    tallies = [p.tally for p in traced_passes]
    batch_iters = sum(t.batch_iters for t in tallies)
    evals = sum(t.evals for t in tallies)
    trace_evals = sum(t.trace_evals for t in tallies)
    eval_calls = table.calls(EVALUATE_MANY)
    pso_seconds = sum(p.tally.pso_seconds for p in untraced)
    traced_s = [p.seconds for p in traced_passes]
    untraced_s = [p.seconds for p in untraced]
    layers_self_s = table.total_self_s - table.self_s("cli.main")
    m = {}
    for span in _COUNTED_SPANS:
        m[f"{span}.calls"] = table.calls(span) / n
        m[f"{span}.busy_s"] = table.busy_s(span) / n
        m[f"{span}.self_s"] = table.self_s(span) / n
    m.update({
        "objective.evaluate_many.rows": table.size(EVALUATE_MANY) / n,
        "objective.evaluate_many.us_per_call":
            1e6 * table.busy_s(EVALUATE_MANY) / eval_calls if eval_calls else 0.0,
        "objective.calls_per_iter":
            table.calls_under(EVALUATE_MANY, "optimizer.solve_many") / batch_iters
            if batch_iters else 0.0,
        "optimizer.self_us_per_iter":
            1e6 * table.self_s("optimizer.solve_many") / batch_iters if batch_iters else 0.0,
        "optimizer.evals": evals / n,
        "optimizer.trace_evals": trace_evals / n,
        "optimizer.faults": sum(t.faults for t in tallies) / n,
        "optimizer.useful_eval_frac":
            evals / (evals + trace_evals) if evals + trace_evals else 0.0,
        "baseline.generations": sum(t.pso_generations for t in tallies) / n,
        "baseline.evals": sum(t.pso_evals for t in tallies) / n,
        "baseline.evals_per_s":
            sum(p.tally.pso_evals for p in untraced) / pso_seconds if pso_seconds else 0.0,
        "baseline.nlspsa_vs_pso_worst": q["nlspsa_vs_pso_worst"],
        "artifacts.write_s": sum(table.busy_s(w) for w in ARTIFACT_WRITERS) / n,
        "artifacts.bytes_written": sum(table.size(w) for w in ARTIFACT_WRITERS) / n,
        "cli.self_s": table.self_s("cli.main") / n,
        "trace.wall_s": statistics.median(traced_s),
        "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1,
        "trace.unattributed_frac": 1 - layers_self_s / sum(traced_s),
    })
    for rows in MICRO_ROWS:
        m[f"objective.eval_us.m{rows}"] = time_evaluate_many(
            workload.scenario_ids[0], rows, seed
        )
    return {name: m[name] for name in PER_LAYER_UNITS}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlspsa_ik").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(workload: Workload, seed: int, seconds: float, trace: int, n_max) -> dict:
    return {
        "workload": workload.name,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nlspsa_ik": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "solver_defaults": dataclasses.asdict(SolverParams()),
        "pso_defaults": dataclasses.asdict(PsoParams()),
        "n_max_override": n_max,
    }


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: int,
    n_max: int | None = None,
) -> dict:
    """Run one measurement and return its report.

    ``report["result"]`` is the benchmark's result object: ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or
    per-layer metrics when ``trace`` is 1). ``n_max`` overrides the solver's
    iteration budget; the benchmark itself uses the default.
    """
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    out_dir = scratch / "out"
    driver = CliDriver()
    recorder = SpanRecorder() if trace else None
    try:
        with driver.capturing():
            setup_times = [] if trace else time_setup(workload)
            run_passes(driver, workload, seed, 0.0, out_dir, WARMUP_N_MAX, 1)
            untraced, traced_passes = run_passes(
                driver, workload, seed, seconds, out_dir, n_max,
                workload.scored_passes, recorder,
            )
            if not trace:
                setup_times += time_setup(workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tallies = [p.tally for p in untraced + traced_passes]
    scored = [p.tally for p in untraced[: workload.scored_passes]]
    nl_losses, pso_losses = _merged(scored, "nl_losses"), _merged(scored, "pso_losses")
    if not nl_losses:
        raise RuntimeError(f"{workload.name}: no seed-solve completed")
    q = quality(nl_losses, pso_losses)
    problems = [msg for t in tallies for msg in t.problems]
    problems += quality_problems(workload, nl_losses, pso_losses)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)

    report = {"provenance": provenance(workload, seed, seconds, trace, n_max)}
    if trace:
        table = SpanTable(recorder)
        metrics = per_layer_metrics(workload, seed, untraced, traced_passes, table, q)
        units = PER_LAYER_UNITS
        spans_path = OUT / f"{workload.name}-spans.npz"
        recorder.save(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(untraced, statistics.median(setup_times), q)
        units = END_TO_END_UNITS
    report.update({
        "setup_seconds": setup_times,
        "pass_seconds": [p.seconds for p in untraced],
        "traced_pass_seconds": [p.seconds for p in traced_passes],
        "scenario_medians": scenario_medians(nl_losses),
        "pso_scenario_medians": scenario_medians(pso_losses),
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    })
    return report
