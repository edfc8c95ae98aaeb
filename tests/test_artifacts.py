import csv
import dataclasses
import re

import numpy as np
import pytest

from nlspsa_ik.artifacts import (
    _median,
    problem_doc,
    problem_from_doc,
    read_json_object,
    read_trace_csv,
    run_result_doc,
    seed_table,
    settings_doc,
    sweep_csv_header,
    sweep_doc,
    write_compare_csv,
    write_json,
    write_sweep_csv,
    write_trace_csv,
)
from nlspsa_ik.errors import ArtifactError, SolverFault
from nlspsa_ik.optimizer import SolverParams, solve
from nlspsa_ik.scenarios import builtin
from oracle import read_compare_csv, read_sweep_csv


@pytest.fixture(scope="module")
def short_run():
    s = builtin("1.1")
    return s, solve(s.spec, s.chain, SolverParams(n_max=40), 0)


def csv_module_bytes(path, header, rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``, each cell the ``repr`` of an
    int or of a float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
                 for v in row]
            )
    return path.read_bytes()


class TestTraceCsv:
    def test_round_trip_exact(self, short_run, tmp_path):
        _, rec = short_run
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rec)
        iterations, losses = read_trace_csv(path)
        assert np.array_equal(iterations, rec.trace_iterations)
        assert np.array_equal(losses, rec.loss_trace)

    def test_bytes_match_the_csv_module(self, short_run, tmp_path):
        # a long trace spans several write chunks; odd values need no quoting
        _, rec = short_run
        rng = np.random.default_rng(0)
        losses = rng.lognormal(size=10_000)
        losses[[3, 4, 5, 6]] = [np.nan, np.inf, -0.0, 1e-300]
        long_rec = dataclasses.replace(
            rec, loss_trace=losses, trace_iterations=np.arange(losses.size) * 3
        )
        write_trace_csv(tmp_path / "fast.csv", long_rec)
        assert (tmp_path / "fast.csv").read_bytes() == csv_module_bytes(
            tmp_path / "csv.csv", ["iteration", "loss"],
            zip(long_rec.trace_iterations, losses),
        )

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ArtifactError):
            read_trace_csv(path)

    def test_non_finite_loss_is_named_by_its_physical_line(self, tmp_path):
        # A quoted cell may span lines, and float() reads "\n1.0" as 1.0, so
        # the second row ends on line 3 and the inf stands on line 4.
        path = tmp_path / "trace.csv"
        path.write_text('iteration,loss\n0,"\n1.0"\n1,inf\n')
        message = f"^{re.escape(str(path))}, line 4: non-finite loss inf$"
        with pytest.raises(ArtifactError, match=message):
            read_trace_csv(path)


class TestSeedTable:
    def test_stats_are_column_medians(self, short_run):
        s, _ = short_run
        from nlspsa_ik.optimizer import solve_many

        outcomes = solve_many(s.spec, s.chain, SolverParams(n_max=40), range(5))
        table = seed_table(s.spec, outcomes, 1.0)
        stats = sweep_doc(range(5), outcomes, table, 1.0)["stats"]
        assert stats["completed"] == 5
        assert stats["median_final_loss"] == np.median(table[:, 0])
        assert stats["min_final_loss"] == table[:, 0].min()
        assert stats["max_final_loss"] == table[:, 0].max()
        assert stats["median_pos_error"] == np.median(table[:, 1])
        assert stats["median_theta_error"] == np.median(table[:, 2])
        assert stats["median_wall_ms"] == np.median(table[:, 3])
        assert stats["median_displacement"] == [
            float(v) for v in np.median(table[:, 4:], axis=0)
        ]

    def test_faulted_seed_marked_not_aborted(self, short_run):
        s, rec = short_run
        outcomes = [rec, SolverFault("boom", iteration=3)]
        table = seed_table(s.spec, outcomes, 1.0)
        assert table.shape == (2, 4 + s.chain.n)
        assert not np.isnan(table[0]).any() and np.isnan(table[1]).all()
        doc = sweep_doc([0, 1], outcomes, table, 1.0)
        assert [entry["fault"] for entry in doc["per_seed"]] == [None, "boom"]
        assert doc["stats"]["failed"] == 1
        assert doc["per_seed"][1]["final_loss"] is None
        assert doc["per_seed"][1]["dq"] is None

    def test_total_wall_ms_is_given_not_summed(self, short_run):
        s, rec = short_run
        outcomes = [rec, SolverFault("x")]
        doc = sweep_doc([0, 1], outcomes, seed_table(s.spec, outcomes, 12.5), 12.5)
        assert doc["stats"]["total_wall_ms"] == 12.5
        # a finished seed's wall_ms is its even share of the total
        assert [entry["wall_ms"] for entry in doc["per_seed"]] == [6.25, None]
        faulted = [SolverFault("x")]
        doc = sweep_doc([0], faulted, seed_table(s.spec, faulted, 3.0), 3.0)
        assert doc["stats"] == {"completed": 0, "failed": 1, "total_wall_ms": 3.0}

    def test_csv_round_trip_with_nan(self, short_run, tmp_path):
        s, rec = short_run
        table = seed_table(s.spec, [rec, SolverFault("x")], 1.0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [0, 1], table)
        cols = read_sweep_csv(path)
        assert cols["seeds"] == [0, 1]
        assert np.array_equal(cols["final_losses"], table[:, 0], equal_nan=True)
        assert np.array_equal(cols["pos_errors"], table[:, 1], equal_nan=True)
        assert np.array_equal(cols["displacements"], table[:, 4:], equal_nan=True)

    def test_csv_bytes_deterministic(self, short_run, tmp_path):
        s, rec = short_run
        table = seed_table(s.spec, [rec], 1.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, [0], table)
        write_sweep_csv(b, [0], table)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_match_the_csv_module(self, short_run, tmp_path):
        # a faulted seed's NaN row, and odd values that need no quoting
        s, rec = short_run
        table = seed_table(s.spec, [rec, SolverFault("x"), rec], 1.0)
        table[2, :3] = [-0.0, np.inf, 1e-300]
        table[2, 4:6] = [-0.0, 1e-300]
        write_sweep_csv(tmp_path / "sweep.csv", [0, 1, 2], table)
        rows = [[seed, *table[i]] for i, seed in enumerate([0, 1, 2])]
        assert (tmp_path / "sweep.csv").read_bytes() == csv_module_bytes(
            tmp_path / "ref.csv", sweep_csv_header(s.chain.n), rows
        )


class TestCompareCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cmp.csv"
        nl = np.array([1e-4, 2e-4, np.nan])
        pso = np.array([3e-3, 1.5e-3, 2e-3])
        write_compare_csv(path, [0, 1, 2], nl, pso)
        cols = read_compare_csv(path)
        assert cols["seeds"] == [0, 1, 2]
        assert np.array_equal(cols["nlspsa_losses"], nl, equal_nan=True)
        assert np.array_equal(cols["pso_losses"], pso, equal_nan=True)

    def test_bytes_match_the_csv_module(self, tmp_path):
        # enough rows to span several write chunks
        rng = np.random.default_rng(1)
        seeds = list(range(5000))
        nl = rng.lognormal(size=5000) * 1e-3
        pso = rng.lognormal(size=5000) * 1e-3
        nl[[0, 1, 2, 3]] = [np.nan, -0.0, np.inf, 1e-300]
        pso[[0, 4, 5]] = [np.nan, -np.inf, 1e-300]
        write_compare_csv(tmp_path / "cmp.csv", seeds, nl, pso)
        assert (tmp_path / "cmp.csv").read_bytes() == csv_module_bytes(
            tmp_path / "ref.csv", ["seed", "nlspsa_loss", "pso_loss"],
            zip(seeds, nl, pso),
        )


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_trace_csv, "iteration,loss\n0,1.5\n1\n"),
        (read_sweep_csv, "seed,final_loss,pos_err,theta_err,wall_ms,dq_1\n0,1,2,3,4,5\n1,1,2,3,4\n"),
        (read_compare_csv, "seed,nlspsa_loss,pso_loss\n0,1.0,2.0\n1,1.0,2.0,3.0\n"),
        (read_compare_csv, "seed,nlspsa_loss,pso_loss\n0,1.0,2.0\n1,1.0,x\n"),
    ],
)
def test_readers_name_the_malformed_line(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}, line 3: "):
        reader(path)


class TestRunResult:
    def test_doc_round_trip(self, short_run, tmp_path):
        s, rec = short_run
        params = SolverParams(n_max=40)
        doc = {
            **problem_doc(s.id, s.spec, s.chain),
            **settings_doc(params),
            **run_result_doc(rec, "trace.csv", 0.25),
        }
        path = tmp_path / "run.json"
        write_json(path, doc)
        loaded = read_json_object(path, ArtifactError)
        scenario_id, spec, chain = problem_from_doc(loaded)
        assert (scenario_id, chain) == (s.id, s.chain)
        assert np.array_equal(spec.reference, s.spec.reference)
        assert np.array_equal(spec.q_jmc, s.spec.q_jmc)
        assert loaded["final_q_deg"] == [float(v) for v in rec.final_iterate]
        assert loaded["final_loss"] == rec.final_loss
        assert loaded["params"]["n_max"] == 40
        assert loaded["elapsed_s"] == 0.25

    def test_params_keys_in_order(self, short_run):
        # every SolverParams field; the loss weights belong to the problem
        s, _ = short_run
        assert list(settings_doc(SolverParams(n_max=40))["params"]) == [
            "a", "A", "c", "alpha", "gamma", "d", "n_max", "trace_every",
        ]
        problem = problem_doc(s.id, s.spec, s.chain)
        assert (problem["w_jmc"], problem["w_ee"]) == (s.spec.w_jmc, s.spec.w_ee)

    def test_numpy_gains_write_as_json_numbers(self, tmp_path):
        params = SolverParams(a=np.float32(3000), A=np.int64(10), d=np.float32(0.5))
        path = tmp_path / "settings.json"
        write_json(path, settings_doc(params))
        loaded = read_json_object(path, ArtifactError)["params"]
        assert loaded == dataclasses.asdict(SolverParams(a=3000.0, A=10.0, d=0.5))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_writer_rejects_non_finite_floats(self, tmp_path, value):
        # NaN and Infinity are not JSON; a writer that let one through would
        # write a file that strict parsers refuse
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": [value]})
        assert not (tmp_path / "bad.json").exists()

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt"):
            read_json_object(path, ArtifactError)


class TestMedian:
    """``_median`` stands in for ``np.median`` on NaN-free input, so that no
    command imports ``numpy.ma``; it must agree bit for bit."""

    @staticmethod
    def values(rng, shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        pick = rng.random(shape)
        x[pick < 0.2] = rng.choice([0.5, -3.25, 1e-3], size=np.count_nonzero(pick < 0.2))
        x[pick > 0.9] = np.inf
        x[pick > 0.95] = -np.inf
        return x

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 20, 21, 101])
    def test_matches_np_median(self, size):
        rng = np.random.default_rng(size)
        for _ in range(200):
            x = self.values(rng, size)
            assert np.array_equal(_median(x), np.median(x), equal_nan=True)
            finite = rng.standard_normal(size)
            assert _median(finite) == np.median(finite)

    @pytest.mark.parametrize("rows", [1, 2, 7, 20])
    def test_matches_np_median_along_axis_0(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(50):
            x = self.values(rng, (rows, 8))
            assert np.array_equal(_median(x), np.median(x, axis=0), equal_nan=True)
