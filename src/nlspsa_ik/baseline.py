"""Global-best particle swarm baseline for budget-matched comparisons.

Standard gbest PSO with constriction-style coefficients. Used only to put
the two-measurements-per-iteration solver against a population method under
an identical loss-evaluation budget; it is not tuned beyond canonical
defaults.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SolverFault
from .kinematics import ChainModel, forward_kinematics
from .objective import LossEvaluator, ObjectiveSpec
from .optimizer import RunRecord, require_count


# The velocity update's constriction coefficients (Clerc and Kennedy 2002):
# inertia w and the cognitive and social pulls c1 = c2.
INERTIA = 0.7298
COGNITIVE = 1.49618
SOCIAL = 1.49618
# The swarm: POPULATION particles start at the reference configuration plus
# a componentwise uniform offset in (-INIT_SPREAD, +INIT_SPREAD) degrees,
# with zero velocities, and velocity components are clamped to
# +-INIT_SPREAD.
POPULATION = 100
INIT_SPREAD = 20.0


@dataclass(frozen=True)
class PsoParams:
    """The loss-evaluation budget of every seed of a comparison (the seed is
    an argument of ``pso_solve``). It is an integer and must cover the
    initial evaluation of the ``POPULATION`` particles.
    """

    eval_budget: int = 50000

    def __post_init__(self):
        if require_count(self, "eval_budget") < POPULATION:
            raise ValueError(
                f"eval_budget ({self.eval_budget}) must cover one evaluation "
                f"pass of the population ({POPULATION})"
            )


def pso_solve(
    spec: ObjectiveSpec, chain: ChainModel, params: PsoParams, seed: int
) -> RunRecord:
    """Minimize the loss with gbest PSO under an exact evaluation budget,
    seeded from ``seed``, which must be nonnegative (a negative one raises
    ``ValueError``).

    The final generation is truncated so that exactly ``eval_budget`` loss
    measurements are consumed. Unlike the SPSA-style solver this returns
    best-so-far (standard for PSO); ``loss_trace`` holds the global best
    after each generation and ``trace_iterations`` the generation index.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    evaluator = LossEvaluator(spec, chain)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    pop = POPULATION
    n = chain.n

    positions = spec.reference + rng.uniform(-INIT_SPREAD, INIT_SPREAD, size=(pop, n))
    velocities = np.zeros((pop, n))
    losses = evaluator.evaluate_many(positions)
    if not np.isfinite(losses).all():
        raise SolverFault("non-finite loss in initial population", iteration=0)
    evals = pop
    pbest_pos = positions.copy()
    pbest_loss = losses.copy()
    champion = int(np.argmin(pbest_loss))
    gbest_pos = pbest_pos[champion].copy()
    gbest_loss = float(pbest_loss[champion])
    trace = [gbest_loss]

    # One draw fills both random matrices from the same stream as two draws.
    randoms = np.empty((2, pop, n))
    r_cog, r_soc = randoms
    pull = np.empty((pop, n))
    generation = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while evals < params.eval_budget:
            generation += 1
            m = min(pop, params.eval_budget - evals)
            rng.random(out=randoms)
            # v = w*v + (c1*r_cog)*(pbest - x) + (c2*r_soc)*(gbest - x), in
            # place and in that order
            velocities *= INERTIA
            r_cog *= COGNITIVE
            velocities += np.multiply(r_cog, np.subtract(pbest_pos, positions, pull), pull)
            r_soc *= SOCIAL
            velocities += np.multiply(r_soc, np.subtract(gbest_pos, positions, pull), pull)
            np.clip(velocities, -INIT_SPREAD, INIT_SPREAD, out=velocities)
            positions += velocities
            losses = evaluator.evaluate_many(positions[:m])
            evals += m
            if not np.isfinite(losses).all():
                raise SolverFault(
                    f"non-finite loss in generation {generation}", iteration=generation
                )
            improved = losses < pbest_loss[:m]
            np.copyto(pbest_pos[:m], positions[:m], where=improved[:, None])
            np.copyto(pbest_loss[:m], losses, where=improved)
            champion = int(np.argmin(pbest_loss))
            if pbest_loss[champion] < gbest_loss:
                gbest_loss = float(pbest_loss[champion])
                gbest_pos = pbest_pos[champion].copy()
            trace.append(gbest_loss)

    return RunRecord(
        final_iterate=gbest_pos.copy(),
        final_pose=forward_kinematics(chain, gbest_pos),
        loss_trace=np.asarray(trace),
        trace_iterations=np.arange(len(trace)),
        evaluations=evals,
        trace_evaluations=0,
        iterations=generation,
        max_step_inf=float("nan"),
        seed=seed,
        elapsed=time.perf_counter() - started,
    )
