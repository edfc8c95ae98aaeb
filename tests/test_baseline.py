import math

import numpy as np
import pytest

from nlspsa_ik import baseline
from nlspsa_ik.baseline import PsoParams, pso_solve
from nlspsa_ik.errors import SolverFault
from nlspsa_ik.kinematics import ChainModel, Pose
from nlspsa_ik.objective import LossEvaluator, ObjectiveSpec
from nlspsa_ik.optimizer import SplitMix64
from nlspsa_ik.scenarios import builtin, builtin_ids
from oracle import splitmix64_words

DEG2RAD2 = (2 * math.pi / 360) ** 2


def sphere_spec(n=2, center=(10.0, 20.0)):
    """Loss that is numerically a sphere |q - center|^2: the pose term is
    scaled down to the noise floor."""
    return ObjectiveSpec(
        target=Pose(0.5, 0.5, 0.0),
        reference=np.asarray(center, dtype=float),
        r_ee=np.eye(3) * 1e-12,
        q_jmc=np.eye(n),
        w_jmc=1.0,
        w_ee=1e-9,
    )


class TestPsoParamsValidation:
    def test_rejects_budget_below_population(self):
        assert baseline.POPULATION == 100
        with pytest.raises(
            ValueError,
            match=r"^eval_budget \(99\) must cover one evaluation pass of the "
                  r"population \(100\)$",
        ):
            PsoParams(eval_budget=99)

    @pytest.mark.parametrize("budget", [150.5, 1000.0, True])
    def test_rejects_a_budget_that_is_not_an_integer(self, budget):
        with pytest.raises(ValueError, match=f"^eval_budget must be an integer, got {budget!r}$"):
            PsoParams(eval_budget=budget)

    def test_accepts_a_numpy_budget_as_an_int(self):
        params = PsoParams(eval_budget=np.int64(500))
        assert params.eval_budget == 500 and type(params.eval_budget) is int


class TestPsoSolve:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            pso_solve(sphere_spec(), ChainModel.unit_links(2), PsoParams(), -1)

    @pytest.mark.parametrize("seed, message", [
        (True, "^seed must be an integer, got True$"),
        (1.5, r"^seed must be an integer, got 1\.5$"),
        (2.0, r"^seed must be an integer, got 2\.0$"),
        ("3", "^seed must be an integer, got '3'$"),
        (2**64, f"^seed must be below 2\\*\\*64, got {2**64}$"),
    ])
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            pso_solve(sphere_spec(), ChainModel.unit_links(2), PsoParams(eval_budget=100), seed)

    def test_accepts_a_numpy_seed_as_an_int(self):
        params = PsoParams(eval_budget=300)
        rec = pso_solve(sphere_spec(), ChainModel.unit_links(2), params, np.uint64(2**64 - 1))
        assert rec.seed == 2**64 - 1 and type(rec.seed) is int
        same = pso_solve(sphere_spec(), ChainModel.unit_links(2), params, 2**64 - 1)
        assert np.array_equal(rec.loss_trace, same.loss_trace)

    def test_sphere_sanity(self):
        spec = sphere_spec()
        chain = ChainModel.unit_links(2)
        finals = []
        for seed in range(20):
            params = PsoParams(eval_budget=10000)
            finals.append(pso_solve(spec, chain, params, seed).final_loss)
        assert np.median(finals) <= 1e-6

    def test_budget_equal_population_returns_best_initial_particle(self):
        spec = sphere_spec()
        chain = ChainModel.unit_links(2)
        params = PsoParams(eval_budget=100)
        rec = pso_solve(spec, chain, params, 5)
        # recompute the initial sample independently: the swarm's offsets
        # are the stream's first 200 uniforms, mapped onto [-20, 20)
        uniforms = baseline._uniforms(SplitMix64([5]), (100, 2))
        positions = spec.reference + (-20.0 + 40.0 * uniforms)
        losses = LossEvaluator(spec, chain).evaluate_many(positions)
        assert rec.final_loss == losses.min()
        assert rec.evaluations == 100
        assert rec.iterations == 0

    def test_budget_is_consumed_exactly_with_truncation(self):
        spec = sphere_spec()
        chain = ChainModel.unit_links(2)
        evaluator_budget = 457  # 100 + 3*100 + 57: truncated last generation
        rec = pso_solve(spec, chain, PsoParams(eval_budget=evaluator_budget), 0)
        assert rec.evaluations == 457
        assert rec.iterations == 4

    def test_best_so_far_is_monotone(self):
        scenario = builtin("1.1")
        rec = pso_solve(
            scenario.spec, scenario.chain,
            PsoParams(eval_budget=2000), 3,
        )
        assert np.all(np.diff(rec.loss_trace) <= 0.0)
        assert rec.final_loss == rec.loss_trace[-1]
        assert rec.final_loss == rec.best_loss
        assert rec.final_loss <= rec.loss_trace[0]

    def test_deterministic_per_seed(self):
        scenario = builtin("1.1")
        params = PsoParams(eval_budget=1000)
        a = pso_solve(scenario.spec, scenario.chain, params, 9)
        b = pso_solve(scenario.spec, scenario.chain, params, 9)
        assert np.array_equal(a.final_iterate, b.final_iterate)
        assert a.final_loss == b.final_loss

    def test_final_pose_matches_final_iterate(self):
        scenario = builtin("2.1")
        rec = pso_solve(
            scenario.spec, scenario.chain,
            PsoParams(eval_budget=5000), 1,
        )
        from nlspsa_ik.kinematics import forward_kinematics

        pose = forward_kinematics(scenario.chain, rec.final_iterate)
        assert rec.final_pose == pose

    @pytest.mark.parametrize("generation", [0, 1, 4])
    def test_nan_loss_faults_at_its_generation(self, monkeypatch, generation):
        # evaluate_many is called once per generation; generation 0 is the
        # initial population.
        evaluate_many = LossEvaluator.evaluate_many
        calls = []

        def injecting(self, configs, out=None):
            values = evaluate_many(self, configs, out=out)
            if len(calls) == generation:
                values[3] = np.nan
            calls.append(len(configs))
            return values

        monkeypatch.setattr(LossEvaluator, "evaluate_many", injecting)
        params = PsoParams(eval_budget=500)
        with pytest.raises(SolverFault) as excinfo:
            pso_solve(sphere_spec(), ChainModel.unit_links(2), params, 2)
        assert excinfo.value.iteration == generation
        assert len(calls) == generation + 1
        where = "initial population" if generation == 0 else f"generation {generation}"
        assert str(excinfo.value) == f"non-finite loss in {where}"


def frozen_pso_generations(spec, chain, params, seed):
    """The generation loop of pso_solve before it reused its buffers, kept
    as a bit-identity oracle. It draws one generation's uniforms at a time
    and scales them by the pulls after the draw. Returns the global best,
    the trace of global bests and the number of evaluations."""
    evaluator = LossEvaluator(spec, chain)
    pop = baseline.POPULATION
    n = chain.n
    stream = SplitMix64([seed])
    spread = baseline.INIT_SPREAD

    positions = spec.reference + (-spread + 2 * spread * baseline._uniforms(stream, (pop, n)))
    velocities = np.zeros((pop, n))
    losses = evaluator.evaluate_many(positions)
    evals = pop
    pbest_pos = positions.copy()
    pbest_loss = losses.copy()
    champion = int(np.argmin(pbest_loss))
    gbest_pos = pbest_pos[champion].copy()
    gbest_loss = float(pbest_loss[champion])
    trace = [gbest_loss]

    with np.errstate(over="ignore", invalid="ignore"):
        while evals < params.eval_budget:
            m = min(pop, params.eval_budget - evals)
            r_cog = baseline._uniforms(stream, (pop, n))
            r_soc = baseline._uniforms(stream, (pop, n))
            velocities = (
                baseline.INERTIA * velocities
                + baseline.COGNITIVE * r_cog * (pbest_pos - positions)
                + baseline.SOCIAL * r_soc * (gbest_pos - positions)
            )
            np.clip(velocities, -spread, spread, out=velocities)
            positions = positions + velocities
            losses = evaluator.evaluate_many(positions[:m])
            evals += m
            improved = losses < pbest_loss[:m]
            pbest_pos[:m][improved] = positions[:m][improved]
            pbest_loss[:m][improved] = losses[improved]
            champion = int(np.argmin(pbest_loss))
            if pbest_loss[champion] < gbest_loss:
                gbest_loss = float(pbest_loss[champion])
                gbest_pos = pbest_pos[champion].copy()
            trace.append(gbest_loss)
    return gbest_pos, np.asarray(trace), evals


PSO_SETTINGS = {
    "default": {},
    "truncated last generation": {"eval_budget": 1050},
    # the initial evaluation pass alone: no generation runs
    "initial population only": {"eval_budget": baseline.POPULATION},
    # 10 generations, the last of them a one-row loss call
    "one-row last generation": {"eval_budget": 1001},
}


@pytest.mark.parametrize("setting", PSO_SETTINGS)
@pytest.mark.parametrize("scenario_id", builtin_ids())
def test_generation_step_matches_frozen_loop(scenario_id, setting):
    scenario = builtin(scenario_id)
    for seed in (0, 1, 2):
        params = PsoParams(**PSO_SETTINGS[setting])
        rec = pso_solve(scenario.spec, scenario.chain, params, seed)
        final, trace, evals = frozen_pso_generations(
            scenario.spec, scenario.chain, params, seed
        )
        assert np.array_equal(rec.final_iterate, final)
        assert np.array_equal(rec.loss_trace, trace)
        assert rec.evaluations == evals == params.eval_budget


class TestStream:
    """The SplitMix64 stream of both solvers, as PSO reads it: integer
    arithmetic plus one exact scaling, so its words and uniforms are the
    same on every host and numpy version."""

    def test_reference_words(self):
        # Vigna's splitmix64.c from state 1234567
        assert splitmix64_words(1234567, 5) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]
        assert SplitMix64([1234567]).draw(5).tolist() == [splitmix64_words(1234567, 5)]

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_draws_match_the_oracle_word_for_word(self, seed, n):
        # the swarm's draw, then one generation, then blocks of generations
        pop = baseline.POPULATION
        shapes = [(pop, n), (2, pop, n)] + [(baseline._DRAW_GENERATIONS, 2, pop, n)] * 2
        stream, drawn = SplitMix64([seed]), []
        for shape in shapes:
            drawn.extend(baseline._uniforms(stream, shape).ravel().tolist())
        expected = [
            half * 2.0**-32
            for word in splitmix64_words(seed, len(drawn) // 2)
            for half in (word & 0xFFFFFFFF, word >> 32)
        ]
        assert drawn == expected

    # the first six uniforms: the low then the high half of three words
    FIRST_UNIFORMS = {
        0: [0.4809235145803541, 0.883310808101669, 0.6317352028563619,
            0.43152799690142274, 0.5001414602156729, 0.02643377147614956],
        1: [0.5351922961417586, 0.5665615750476718, 0.3967120887245983,
            0.7457817571703345, 0.9812367777340114, 0.9710027533583343],
    }

    @pytest.mark.parametrize("seed", FIRST_UNIFORMS)
    def test_first_uniforms_are_pinned(self, seed):
        uniforms = baseline._uniforms(SplitMix64([seed]), (6,))
        assert uniforms.tolist() == self.FIRST_UNIFORMS[seed]
