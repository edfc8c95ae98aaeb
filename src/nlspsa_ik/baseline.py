"""Global-best particle swarm baseline for budget-matched comparisons.

Standard gbest PSO with constriction-style coefficients. Used only to put
the two-measurements-per-iteration solver against a population method under
an identical loss-evaluation budget; it is not tuned beyond canonical
defaults.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SolverFault
from .kinematics import ChainModel, forward_kinematics
from .objective import LossEvaluator, ObjectiveSpec
from .optimizer import RunRecord, SplitMix64, require_count, require_seed


# The velocity update's constriction coefficients (Clerc and Kennedy 2002):
# inertia w and the cognitive and social pulls c1 = c2.
INERTIA = 0.7298
COGNITIVE = 1.49618
SOCIAL = 1.49618
# The swarm: POPULATION particles start at the reference configuration plus
# a componentwise uniform offset in [-INIT_SPREAD, +INIT_SPREAD) degrees,
# with zero velocities, and velocity components are clamped to
# +-INIT_SPREAD.
POPULATION = 100
INIT_SPREAD = 20.0

# Each seed's SplitMix64 stream (``optimizer.SplitMix64``) gives two uniforms
# in [0, 1) per word: its low 32 bits times 2**-32, then its high 32 bits
# times 2**-32. The swarm takes the first POPULATION*n/2 words, and each
# generation the next POPULATION*n words, r_cog's uniforms then r_soc's.
# Generations take whole words, so drawing _DRAW_GENERATIONS of them at once
# cannot change a result; it amortizes the draw's fixed cost.
_DRAW_GENERATIONS = 4
# c1 == c2, so the draw scales every uniform by the pull directly: u32 *
# (c * 2**-32) rounds once, exactly as (u32 * 2**-32) * c does.
_PULL_SCALE = COGNITIVE * 2.0**-32


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


def _uniforms(stream: SplitMix64, shape: tuple, scale: float = 2.0**-32, out=None):
    """The halves of the one-seed ``stream``'s next prod(shape)/2 words, in
    an array of ``shape``, times ``scale``."""
    halves = stream.draw(math.prod(shape) // 2).view("<u4").reshape(shape)
    return np.multiply(halves, scale, out=out)


def pso_solve(
    spec: ObjectiveSpec, chain: ChainModel, params: PsoParams, seed: int
) -> RunRecord:
    """Minimize the loss with gbest PSO under an exact evaluation budget,
    seeded from ``seed``, an integer in [0, 2**64) (any other raises
    ``ValueError``).

    The final generation is truncated so that exactly ``eval_budget`` loss
    measurements are consumed. Unlike the SPSA-style solver this returns
    best-so-far (standard for PSO); ``loss_trace`` holds the global best
    after each generation and ``trace_iterations`` the generation index.
    """
    seed = require_seed(seed)
    evaluator = LossEvaluator(spec, chain)
    started = time.perf_counter()
    pop = POPULATION
    n = chain.n
    stream = SplitMix64([seed])
    uniforms = _uniforms(stream, (pop, n))
    positions = spec.reference + (2.0 * INIT_SPREAD * uniforms - INIT_SPREAD)
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

    # One draw fills the pulls c1*r_cog and c2*r_soc of _DRAW_GENERATIONS
    # generations.
    pulls = np.empty((_DRAW_GENERATIONS, 2, pop, n))
    pull_rows = [tuple(both) for both in pulls]
    pull = np.empty((pop, n))
    generation = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while evals < params.eval_budget:
            slot = generation % _DRAW_GENERATIONS
            if slot == 0:
                _uniforms(stream, pulls.shape, _PULL_SCALE, out=pulls)
            cog, soc = pull_rows[slot]
            generation += 1
            m = min(pop, params.eval_budget - evals)
            # v = w*v + (c1*r_cog)*(pbest - x) + (c2*r_soc)*(gbest - x), in
            # place and in that order
            velocities *= INERTIA
            velocities += np.multiply(cog, np.subtract(pbest_pos, positions, pull), pull)
            velocities += np.multiply(soc, np.subtract(gbest_pos, positions, pull), pull)
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
