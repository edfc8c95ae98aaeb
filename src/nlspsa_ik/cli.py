"""Command-line front end: run scenarios, sweep seeds, compare against PSO,
and render SVG figures from run artifacts.

Exit codes: 0 success, 2 usage error, 3 scenario error, 4 I/O or artifact
error, 5 solver fault.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

from .artifacts import (
    compare_doc,
    numbers_from_doc,
    problem_doc,
    problem_from_doc,
    read_json_object,
    read_trace_csv,
    run_result_doc,
    seed_table,
    settings_doc,
    sweep_doc,
    write_compare_csv,
    write_json,
    write_sweep_csv,
    write_trace_csv,
)
from .baseline import PsoParams, pso_solve
from .errors import ArtifactError, ScenarioError, ScenarioLookupError, SolverFault
from .kinematics import joint_positions
from .objective import ObjectiveSpec
from .optimizer import SolverParams, require_seed, solve, solve_many
from .scenarios import Scenario, builtin, builtin_ids, load_scenario
from .svgplot import convergence_svg, posture_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCENARIO = 3
EXIT_IO = 4
EXIT_FAULT = 5


def _resolve_scenario(token: str) -> Scenario:
    if token in builtin_ids():
        return builtin(token)
    path = Path(token)
    if path.exists():
        return load_scenario(path)
    raise ScenarioLookupError(token, builtin_ids())


def _effective_spec(scenario: Scenario, args) -> ObjectiveSpec:
    overrides = {}
    if args.w_jmc is not None:
        overrides["w_jmc"] = args.w_jmc
    if args.w_ee is not None:
        overrides["w_ee"] = args.w_ee
    if not overrides:
        return scenario.spec
    return dataclasses.replace(scenario.spec, **overrides)


def _solver_params(args) -> SolverParams:
    """The solver options given on the command line, one per field of
    ``SolverParams``; an option not given keeps the field's default."""
    fields = (f.name for f in dataclasses.fields(SolverParams))
    return SolverParams(
        **{name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    )


def _batch_params(args) -> SolverParams:
    """The solver options of sweep and compare, which trace only at n-max
    unless given --trace-every."""
    params = _solver_params(args)
    if args.trace_every is None:
        params = dataclasses.replace(params, trace_every=params.n_max)
    return params


def _batch_seeds(args) -> list[int]:
    """The seeds 0 .. --seeds - 1 of sweep and compare, at least one."""
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    return list(range(args.seeds))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _artifact_doc(
    scenario: Scenario, spec: ObjectiveSpec, params: SolverParams, results: dict
) -> dict:
    """A run, sweep or compare JSON: the problem solved, as a scenario file
    stores it, the solver settings, then ``results``."""
    problem = problem_doc(scenario.id, spec, scenario.chain)
    return {**problem, **settings_doc(params), **results}


def _safe_name(s: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in s)


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    spec = _effective_spec(scenario, args)
    params = _solver_params(args)
    record = solve(spec, scenario.chain, params, args.seed)
    out = _outdir(args)
    stem = f"run_{_safe_name(scenario.id)}_seed{args.seed}"
    write_trace_csv(out / f"{stem}.csv", record)
    doc = _artifact_doc(scenario, spec, params, run_result_doc(record, f"{stem}.csv"))
    write_json(out / f"{stem}.json", doc)
    pose = record.final_pose
    print(
        f"run {scenario.id} seed {args.seed} [nlspsa]: "
        f"initial loss {record.initial_loss:.4f}, "
        f"final loss {record.final_loss:.4e}, "
        f"pose ({pose.x:.4f}, {pose.y:.4f}, {pose.theta_deg:.4f} deg), "
        f"{record.evaluations} evals, {record.elapsed:.2f}s"
    )
    print(f"wrote {out / f'{stem}.csv'} and {out / f'{stem}.json'}")
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` or a container can narrow it), else all CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_outcomes(spec, chain, params, seeds, jobs: int) -> list:
    """``solve_many`` over ``seeds``, split among ``jobs`` worker processes
    but no more than the usable CPUs or the seeds to share. The process pool
    and multiprocessing, which it imports, cost start-up time and memory, so
    they load only when more than one worker runs."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    jobs = min(jobs, _usable_cpus(), len(seeds))
    if jobs <= 1:
        return solve_many(spec, chain, params, seeds)
    from concurrent.futures import ProcessPoolExecutor

    chunks = [c.tolist() for c in np.array_split(np.asarray(seeds), jobs)]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(solve_many, spec, chain, params, chunk) for chunk in chunks
        ]
        outcomes: list = []
        for future in futures:
            outcomes.extend(future.result())
    return outcomes


def cmd_sweep(args) -> int:
    params = _batch_params(args)
    seeds = _batch_seeds(args)
    scenario = _resolve_scenario(args.scenario)
    spec = _effective_spec(scenario, args)
    started = time.perf_counter()
    outcomes = _sweep_outcomes(spec, scenario.chain, params, seeds, args.jobs)
    total_wall_ms = (time.perf_counter() - started) * 1e3
    table = seed_table(spec, outcomes)
    out = _outdir(args)
    stem = f"sweep_{_safe_name(scenario.id)}"
    write_sweep_csv(out / f"{stem}.csv", seeds, table)
    doc = sweep_doc(seeds, outcomes, table, total_wall_ms)
    write_json(out / f"{stem}.json", _artifact_doc(scenario, spec, params, doc))
    stats = doc["stats"]
    if stats["completed"] == 0:
        print(f"sweep {scenario.id}: all {len(seeds)} seeds faulted")
    else:
        print(
            f"sweep {scenario.id} over {len(seeds)} seeds: median final loss "
            f"{stats['median_final_loss']:.4e} "
            f"(min {stats['min_final_loss']:.4e}, max {stats['max_final_loss']:.4e}), "
            f"median pos err {stats['median_pos_error']:.4f}, "
            f"median |dtheta| {stats['median_theta_error']:.4f} deg, "
            f"{stats['failed']} failed"
        )
    print(f"wrote {out / f'{stem}.csv'} and {out / f'{stem}.json'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    params = _batch_params(args)
    seeds = _batch_seeds(args)
    scenario = _resolve_scenario(args.scenario)
    spec = _effective_spec(scenario, args)
    budget = 2 * params.n_max
    # built first, so that a budget below the swarm fails before any seed is
    # solved
    pso_params = PsoParams(eval_budget=budget)
    nl_outcomes = solve_many(spec, scenario.chain, params, seeds)
    pso_outcomes: list = []
    for seed in seeds:
        try:
            pso_outcomes.append(pso_solve(spec, scenario.chain, pso_params, seed))
        except SolverFault as fault:
            pso_outcomes.append(fault)
    # as in a sweep, a faulted seed's loss is NaN
    nl_losses, pso_losses = (
        seed_table(spec, outcomes)[:, 0] for outcomes in (nl_outcomes, pso_outcomes)
    )
    out = _outdir(args)
    stem = f"compare_{_safe_name(scenario.id)}"
    write_compare_csv(out / f"{stem}.csv", seeds, nl_losses, pso_losses)
    doc = compare_doc(pso_params, seeds, nl_losses, pso_losses)
    write_json(out / f"{stem}.json", _artifact_doc(scenario, spec, params, doc))
    nl_median, pso_median = (
        np.nan if doc[k] is None else doc[k] for k in ("nlspsa_median", "pso_median")
    )
    winner = doc["winner"]
    print(
        f"compare {scenario.id} over {len(seeds)} seeds, budget {budget}: "
        f"nlspsa median {nl_median:.4e} vs pso median {pso_median:.4e} "
        f"-> {f'{winner} wins' if winner else 'no winner'}"
    )
    print(f"wrote {out / f'{stem}.csv'} and {out / f'{stem}.json'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    run_path = Path(args.run)
    doc = read_json_object(run_path, ArtifactError)
    try:
        scenario_id, spec, chain = problem_from_doc(doc)
        seed = require_seed(doc["seed"])
        trace_path = run_path.parent / doc["trace_csv"]
        posture = posture_svg(
            joint_positions(chain, spec.reference),
            joint_positions(chain, numbers_from_doc(doc["final_q_deg"], "final_q_deg")),
            (spec.target.x, spec.target.y),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{run_path}: malformed run artifact: {exc!r}") from None
    iterations, losses = read_trace_csv(trace_path)
    if iterations.size == 0:
        raise ArtifactError(f"{trace_path}: empty loss trace")
    out = _outdir(args)
    stem = f"{_safe_name(scenario_id)}_seed{seed}"
    posture_path = out / f"posture_{stem}.svg"
    conv_path = out / f"convergence_{stem}.svg"
    posture_path.write_text(posture)
    conv_path.write_text(convergence_svg(iterations, losses))
    print(f"wrote {posture_path} and {conv_path}")
    return EXIT_OK


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario",
        required=True,
        help="built-in scenario id (e.g. 1.1) or path to a scenario JSON file",
    )
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.add_argument("--w-jmc", type=float, default=None, dest="w_jmc",
                   help="override the motion-cost weight")
    p.add_argument("--w-ee", type=float, default=None, dest="w_ee",
                   help="override the end-effector weight")
    solver = p.add_argument_group("solver parameters")
    solver.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="iteration budget (default: 25000)")
    solver.add_argument("--a", type=float, default=None, help="step-size scale")
    solver.add_argument("--A", type=float, default=None, help="step-size stability offset")
    solver.add_argument("--c", type=float, default=None, help="perturbation scale")
    solver.add_argument("--alpha", type=float, default=None, help="step-size decay exponent")
    solver.add_argument("--gamma", type=float, default=None, help="perturbation decay exponent")
    solver.add_argument("--d", type=float, default=None,
                        help="per-joint update saturation bound, degrees; "
                             "inf: no limit (plain SPSA)")
    solver.add_argument("--trace-every", type=int, default=None, dest="trace_every",
                        help="record the loss every m iterations (default: 1 for run, "
                             "n-max for sweep/compare)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlspsa-ik",
        description="Gradient-free planar inverse kinematics with joint-motion-cost "
                    "weighting, solved by norm-limited SPSA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario once")
    _add_common_args(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="solve one scenario over a seed range")
    _add_common_args(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=20,
                         help="number of seeds, 0..n-1 (default: 20)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, at most one per CPU and per seed "
                              "(default: 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="NLSPSA vs PSO, 2 * n-max loss evaluations each")
    _add_common_args(p_cmp)
    p_cmp.add_argument("--seeds", type=int, default=20)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="render SVG figures from run artifacts")
    p_plot.add_argument("--run", required=True,
                        help="path to a result JSON written by the run command")
    p_plot.add_argument("--out", default="runs")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (ArtifactError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverFault as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
