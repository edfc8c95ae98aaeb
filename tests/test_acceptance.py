"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The stochastic criteria (3-6) share one 20-seed sweep of all
eleven built-in scenarios at default solver settings.
"""
import itertools

import numpy as np
import pytest

from nlspsa_ik import baseline, optimizer
from nlspsa_ik.baseline import PsoParams, pso_solve
from nlspsa_ik.kinematics import ChainModel, forward_kinematics
from nlspsa_ik.objective import LossEvaluator
from nlspsa_ik.optimizer import SolverParams, saturate, solve_many
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import mod_floor, spsa_gradient

N_SEEDS = 20
SEEDS = tuple(range(N_SEEDS))
ALL_IDS = builtin_ids()
SINGULAR_IDS = ("1.7", "1.8", "2.2", "2.3")
COMPARE_IDS = ("2.1", "2.2", "2.3")

MEDIAN_LOSS_BOUND = 1.0e-2
TAIL_LOSS_BOUND = 2.0e-2
TAIL_FRACTION = 0.80
MOTION_ECONOMY_FACTOR = 1.5
PSO_BUDGET = 50_000
PSO_POPULATION = 100
PSO_INIT_SPREAD = 20.0


def check(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    """20-seed solver runs for every built-in scenario at default settings."""
    params = SolverParams(trace_every=25_000)
    return {
        sid: solve_many(builtin(sid).spec, builtin(sid).chain, params, SEEDS)
        for sid in ALL_IDS
    }


def test_criterion_1_exact_fk_oracle():
    worst = 0.0
    for sid in ALL_IDS:
        s = builtin(sid)
        pose = forward_kinematics(s.chain, s.spec.reference)
        worst = max(
            worst,
            float(np.abs(pose.as_array() - s.expected_initial_pose.as_array()).max()),
        )
    check(
        "criterion 1 (exact FK oracle)",
        worst <= 1e-9,
        f"max initial-pose deviation {worst:.2e} over {len(ALL_IDS)} scenarios "
        f"(bound 1e-9)",
    )


def test_criterion_2_exact_initial_loss_oracle():
    worst = 0.0
    for sid in ALL_IDS:
        s = builtin(sid)
        loss = LossEvaluator(s.spec, s.chain)(s.spec.reference)
        worst = max(worst, abs(loss - s.expected_initial_loss))
    check(
        "criterion 2 (exact initial-loss oracle)",
        worst <= 5e-5,
        f"max initial-loss deviation {worst:.2e} over {len(ALL_IDS)} scenarios "
        f"(4-decimal bound 5e-5)",
    )


def test_criterion_3_convergence_at_desk_scale(sweeps):
    medians, fracs = {}, {}
    for sid in ALL_IDS:
        finals = np.array([r.final_loss for r in sweeps[sid]])
        medians[sid] = float(np.median(finals))
        fracs[sid] = float((finals <= TAIL_LOSS_BOUND).mean())
    # the first scenario with the worst value, also when several tie
    worst_median_id = max(medians, key=medians.get)
    worst_frac_id = min(fracs, key=fracs.get)
    worst_median, worst_frac = medians[worst_median_id], fracs[worst_frac_id]
    ok = worst_median <= MEDIAN_LOSS_BOUND and worst_frac >= TAIL_FRACTION
    check(
        "criterion 3 (convergence, 20 seeds x 11 scenarios)",
        ok,
        f"worst median final loss {worst_median:.4e} ({worst_median_id}, "
        f"bound {MEDIAN_LOSS_BOUND}); worst tail fraction {worst_frac:.2f} "
        f"({worst_frac_id}, bound {TAIL_FRACTION})",
    )


def test_criterion_4_motion_economy(sweeps):
    def median_base_joint_motion(sid):
        q1 = builtin(sid).spec.reference[0]
        return float(
            np.median([abs(r.final_iterate[0] - q1) for r in sweeps[sid]])
        )

    uniform = median_base_joint_motion("1.5")
    penalized = median_base_joint_motion("1.6")
    ok = penalized * MOTION_ECONOMY_FACTOR < uniform
    check(
        "criterion 4 (motion economy)",
        ok,
        f"median |dq1|: base-joint-penalized {penalized:.4f} deg vs uniform "
        f"{uniform:.4f} deg (required factor {MOTION_ECONOMY_FACTOR})",
    )


def test_criterion_5_singularity_robustness(sweeps):
    bad = []
    for sid in SINGULAR_IDS:
        records = sweeps[sid]
        if len(records) != N_SEEDS:
            bad.append(f"{sid}: {len(records)} records")
            continue
        for r in records:
            finite = (
                np.isfinite(r.final_iterate).all()
                and np.isfinite(r.loss_trace).all()
                and np.isfinite(r.final_pose.as_array()).all()
            )
            if not finite:
                bad.append(f"{sid} seed {r.seed}")
    check(
        "criterion 5 (singularity robustness)",
        not bad,
        f"all {N_SEEDS} seeds of {', '.join(SINGULAR_IDS)} finished with finite "
        f"iterates and losses" if not bad else f"non-finite runs: {bad}",
    )


def test_criterion_6_beats_pso_budget_matched(sweeps):
    details = []
    ok = True
    assert baseline.POPULATION == PSO_POPULATION
    assert baseline.INIT_SPREAD == PSO_INIT_SPREAD
    params = PsoParams(eval_budget=PSO_BUDGET)
    for sid in COMPARE_IDS:
        s = builtin(sid)
        nlspsa_median = float(np.median([r.final_loss for r in sweeps[sid]]))
        pso_finals = [
            pso_solve(s.spec, s.chain, params, seed).final_loss for seed in SEEDS
        ]
        pso_median = float(np.median(pso_finals))
        details.append(f"{sid}: {nlspsa_median:.4e} vs PSO {pso_median:.4e}")
        ok = ok and nlspsa_median < pso_median
    check(
        "criterion 6 (beats PSO, 50k-eval budget)",
        ok,
        "; ".join(details),
    )


def test_criterion_7_estimator_properties(sweeps, monkeypatch):
    # (a) averaging over all 2^n perturbation patterns recovers the exact
    # gradient of a quadratic
    worst = 0.0
    for n in (2, 5, 10):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        hess = m @ m.T + n * np.eye(n)
        lin = rng.normal(size=n)
        phi = rng.normal(size=n)
        loss = lambda q: float(0.5 * q @ hess @ q + lin @ q)
        mean_estimate = np.mean(
            [
                spsa_gradient(loss, phi, 0.1, np.asarray(delta, dtype=float))
                for delta in itertools.product((-1.0, 1.0), repeat=n)
            ],
            axis=0,
        )
        worst = max(worst, float(np.abs(mean_estimate - (hess @ phi + lin)).max()))
    unbiased = worst <= 1e-9

    # (b) exactly two measurements per iteration
    calls = 0

    def counting_loss(q):
        nonlocal calls
        calls += 1
        return float(q @ q)

    spsa_gradient(counting_loss, np.ones(7), 0.1, np.ones(7))
    # ... and the rows that one solve_many batch measures, as the evaluator
    # it builds counts them: two per iteration and seed, one per trace point
    # and seed
    built = []
    monkeypatch.setattr(
        optimizer, "LossEvaluator", lambda *args: built.append(LossEvaluator(*args)) or built[-1]
    )
    n_max, trace_every = 1100, 7  # trace_every does not divide n_max
    s = builtin("1.1")
    solve_many(s.spec, s.chain, SolverParams(n_max=n_max, trace_every=trace_every), SEEDS)
    trace_rows = N_SEEDS * (len(range(0, n_max + 1, trace_every)) + 1)
    engine_rows = sum(evaluator.calls for evaluator in built)
    two_per_iteration = (
        calls == 2
        and engine_rows == 2 * n_max * N_SEEDS + trace_rows
        and all(r.evaluations == 2 * r.iterations for recs in sweeps.values() for r in recs)
    )

    # (c) saturated update bound holds for every step of every sweep run
    d_bound = SolverParams().d * (1 + 1e-9)
    bounded = all(
        r.max_step_inf <= d_bound for recs in sweeps.values() for r in recs
    )

    check(
        "criterion 7 (estimator property suite)",
        unbiased and two_per_iteration and bounded,
        f"pattern-average gradient error {worst:.2e} (bound 1e-9); "
        f"2 evals/iteration: {two_per_iteration} (one {N_SEEDS}-seed batch of "
        f"{n_max} iterations measured {engine_rows} rows, 2*{n_max}*{N_SEEDS} + "
        f"{trace_rows} trace rows expected); "
        f"all inter-iterate steps <= d: {bounded}",
    )


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(0)
    failures = []

    # floored modulo: range and periodicity (circular distance, ulp-aware)
    alphas = []
    for _ in range(500):
        alpha = float(rng.uniform(-1e6, 1e6))
        alphas.append(alpha)
        beta = float(rng.uniform(1e-3, 1e4))
        r = mod_floor(alpha, beta)
        if not (0.0 <= r < beta):
            failures.append(f"mod_floor range: {alpha}, {beta}")
        diff = abs(mod_floor(alpha + beta, beta) - r)
        tolerance = 1e-12 * max(1.0, beta) + np.spacing(abs(alpha) + beta)
        if min(diff, beta - diff) > tolerance:
            failures.append(f"mod_floor periodicity: {alpha}, {beta}")
    # ... and the engine wraps theta as mod_floor does, bit for bit: a
    # one-link chain's theta is its one joint wrapped
    one_link = ChainModel((1.0,))
    thetas = np.array([forward_kinematics(one_link, [a]).theta_deg for a in alphas])
    wraps = np.array([mod_floor(a, 360.0) for a in alphas])
    differ = int((thetas.view(np.int64) != wraps.view(np.int64)).sum())
    if differ:
        failures.append(f"FK theta wrap != mod_floor on {differ} of {len(alphas)} draws")

    # saturation: odd, idempotent, bounded
    for _ in range(200):
        x = rng.normal(scale=10.0, size=rng.integers(1, 8))
        d = float(rng.uniform(1e-3, 5.0))
        s = saturate(x, d)
        if np.abs(s).max() > d or not np.array_equal(saturate(-x, d), -s) \
                or not np.array_equal(saturate(s, d), s):
            failures.append("saturate properties")

    # forward kinematics: reach bound and per-joint 360-periodicity
    for _ in range(100):
        n = int(rng.integers(1, 10))
        chain = ChainModel(tuple(rng.uniform(0.2, 2.0, n)))
        q = rng.uniform(-720, 720, n)
        pose = forward_kinematics(chain, q)
        if np.hypot(pose.x, pose.y) > chain.reach + 1e-9:
            failures.append("FK reach bound")
        i = int(rng.integers(0, n))
        shifted = q.copy()
        shifted[i] += 360.0
        if np.abs(
            forward_kinematics(chain, shifted).as_array() - pose.as_array()
        ).max() > 1e-9:
            failures.append("FK 360-periodicity")

    # weight scaling leaves the loss unchanged
    s = builtin("1.5")
    q = rng.uniform(-90, 90, 8)
    base = LossEvaluator(s.spec, s.chain)(q)
    for scale in (1e-6, 0.5, 7.0, 1e6):
        import dataclasses

        scaled_spec = dataclasses.replace(
            s.spec, w_jmc=s.spec.w_jmc * scale, w_ee=s.spec.w_ee * scale
        )
        if abs(LossEvaluator(scaled_spec, s.chain)(q) - base) > 1e-12 * max(base, 1.0):
            failures.append(f"weight scaling at {scale}")

    # scenario self-consistency (also re-validated on every construction)
    for sid in ALL_IDS:
        builtin(sid).validate()

    check(
        "criterion 8 (invariant suites)",
        not failures,
        f"mod_floor, the FK theta wrap (= mod_floor bit for bit on {len(alphas)} "
        "draws), saturation, FK bounds/periodicity, weight scaling, and "
        "scenario self-consistency all hold"
        if not failures
        else f"violations: {sorted(set(failures))}",
    )
