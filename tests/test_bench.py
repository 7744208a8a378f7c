"""Benchmark orchestration: repetitions, aggregation, reports, worker pool."""

import csv
import dataclasses
import functools
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import umdobench.bench as bench
import umdobench.driver as driver
import umdobench.problem as problem_mod
import umdobench.qp as qp_mod
from umdobench.bench import (
    CSV_COLUMNS,
    default_benchmark_problem,
    report_to_csv,
    report_to_json,
    run_benchmark,
    write_report,
)
from umdobench.driver import OptimizerSettings, parse_estimator
from umdobench.errors import InfeasibleReferenceError, NumericalError
from umdobench.mda import MDASettings
from umdobench.problem import BlockSystem, UncertaintyModel
from umdobench.uq import StatisticSpec
from conftest import non_contracting_copy

FAST = OptimizerSettings(max_iter=40)
DIRECT = MDASettings(method="direct")


def small_report(problem=None, **overrides):
    problem = problem if problem is not None else default_benchmark_problem(seed=70)
    kwargs = dict(
        estimators=("exact", "taylor", "mc:10"),
        repetitions=2,
        optimizer=FAST,
        mda_settings=DIRECT,
        base_seed=1000,
        workers=1,
    )
    kwargs.update(overrides)
    return run_benchmark(problem, **kwargs)


@pytest.fixture(scope="module")
def report():
    return small_report()


def test_parse_estimator_labels():
    assert parse_estimator("mc:200") == ("mc", 200)
    assert parse_estimator("mc") == ("mc", 200)
    assert parse_estimator(" MC:50 ") == ("mc", 50)
    assert parse_estimator("taylor") == ("taylor", None)
    assert parse_estimator("exact") == ("exact", None)
    for bad in ("mc:1", "mc:abc", "taylor:5", "bogus", "mc:２０", "mc:2_0"):
        with pytest.raises(ValueError):
            parse_estimator(bad)


def test_deterministic_estimators_run_once(report):
    by_label = {}
    for run in report.runs:
        by_label.setdefault(run.estimator, []).append(run)
    assert len(by_label["exact"]) == 1
    assert len(by_label["taylor"]) == 1
    assert len(by_label["mc:10"]) == 2
    assert [r.rep for r in by_label["mc:10"]] == [0, 1]
    reps = {s.estimator: s.repetitions for s in report.estimators}
    assert reps == {"exact": 1, "taylor": 1, "mc:10": 2}


def test_seeds_recorded_per_run(report):
    assert report.seeds == {"exact": [1000], "taylor": [1000], "mc:10": [1000, 1001]}
    assert report.base_seed == 1000
    assert report.repetitions == 2


def test_std_fields_only_with_two_repetitions(report):
    summaries = {s.estimator: s for s in report.estimators}
    assert summaries["exact"].std_dx_pct is None
    assert summaries["taylor"].std_df_pct is None
    mc = summaries["mc:10"]
    for value in (mc.std_dx_pct, mc.std_df_pct, mc.std_dg_pct):
        assert value is not None and value >= 0.0
    payload = json.loads(report_to_json(report))
    rows = {row["estimator"]: row for row in payload["estimators"]}
    assert not any(key.startswith("std_") for key in rows["exact"])
    assert {"std_dx_pct", "std_df_pct", "std_dg_pct"} <= set(rows["mc:10"])


def test_rows_reproducible_from_recorded_seeds():
    def rows(rep):
        return [
            (r.estimator, r.rep, r.dx_pct, r.df_pct, r.dg_pct, r.n_evals)
            for r in rep.runs
        ]

    first = small_report(estimators=("exact", "mc:8"))
    second = small_report(estimators=("exact", "mc:8"))
    assert rows(first) == rows(second)
    assert json.loads(report_to_json(first))["reference"] == (
        json.loads(report_to_json(second))["reference"]
    )


def test_csv_and_json_contain_identical_numbers(tmp_path, report):
    json_path, csv_path = write_report(report, tmp_path / "report.json")
    assert json_path.name == "report.json" and csv_path.name == "report.csv"
    payload = json.loads(json_path.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert [list(row) for row in payload["runs"]] == [list(CSV_COLUMNS)] * len(rows)
    assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(bench.BenchmarkRun))
    assert len(rows) == len(payload["runs"])
    for csv_row, json_row in zip(rows, payload["runs"]):
        assert csv_row["estimator"] == json_row["estimator"]
        assert int(csv_row["rep"]) == json_row["rep"]
        assert int(csv_row["n_evals"]) == json_row["n_evals"]
        for key in ("dx_pct", "df_pct", "dg_pct", "wall_s"):
            assert float(csv_row[key]) == json_row[key]


def test_write_report_keeps_dots_in_the_base_name(tmp_path, report):
    paths = write_report(report, tmp_path / "run.2024")
    assert paths == (tmp_path / "run.2024.json", tmp_path / "run.2024.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.2024.csv", "run.2024.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_report_with_a_non_finite_number_is_not_written(tmp_path, report, value):
    bad = dataclasses.replace(report, t=value)
    with pytest.raises(NumericalError, match="not finite"):
        report_to_json(bad)
    with pytest.raises(NumericalError):
        write_report(bad, tmp_path / "bad")
    assert list(tmp_path.iterdir()) == []


def test_blas_name_reads_the_build_configuration():
    class Current:
        @staticmethod
        def show_config(mode="stdout"):
            return {"Build Dependencies": {"blas": {"name": "openblas", "version": "0.3.30"}}}

    class Floor:  # numpy 1.24 and scipy 1.10: show_config takes no mode
        @staticmethod
        def show_config():
            return None

    assert bench._blas_name(Current) == "openblas 0.3.30"
    assert bench._blas_name(Floor) == "unknown"


def test_process_pool_matches_serial_results():
    def untimed(runs):
        return [dataclasses.replace(r, wall_s=0.0) for r in runs]

    # On a copy with ||B||_inf >= 1 every coupling solve stops at the
    # 30-sweep floor, short of tol 1e-14, so every mc repetition raises
    # NumericalError inside its worker.
    floor_bound = non_contracting_copy(default_benchmark_problem(seed=70))
    for problem, mda_settings, n_runs in (
        (None, DIRECT, 3),
        (floor_bound, MDASettings(tol=1e-14), 1),
    ):
        kwargs = dict(
            estimators=("exact", "mc:5"),
            repetitions=2,
            optimizer=OptimizerSettings(max_iter=25),
            mda_settings=mda_settings,
        )
        serial = small_report(problem, workers=1, **kwargs)
        pooled = small_report(problem, workers=2, **kwargs)
        assert len(serial.runs) == n_runs
        assert untimed(pooled.runs) == untimed(serial.runs)
        assert pooled.failures == serial.failures
    assert [(f["estimator"], f["rep"]) for f in pooled.failures] == [("mc:5", 0), ("mc:5", 1)]
    assert all(f["error"].startswith("NumericalError") for f in pooled.failures)


def test_exact_estimator_reproduces_reference():
    report = small_report(estimators=("exact",), optimizer=OptimizerSettings())
    summary = report.estimators[0]
    assert summary.mean_dx_pct <= 0.1
    assert summary.mean_df_pct <= 0.1
    assert summary.mean_dg_pct <= 0.1


def test_per_run_failures_recorded_not_fatal(monkeypatch):
    real_optimize = bench.optimize

    def flaky(evaluator, settings=None):
        if evaluator.estimator == "taylor":
            raise NumericalError("synthetic failure")
        return real_optimize(evaluator, settings)

    monkeypatch.setattr(bench, "optimize", flaky)
    report = small_report(estimators=("exact", "taylor"))
    assert [f["estimator"] for f in report.failures] == ["taylor"]
    assert "synthetic failure" in report.failures[0]["error"]
    assert [r.estimator for r in report.runs] == ["exact"]
    assert [s.estimator for s in report.estimators] == ["exact"]


def test_one_assembly_per_benchmark(monkeypatch):
    # The reference QP and every run read one assembled system, so the
    # assembly and the linear map are each computed once, whatever the
    # estimators and repetitions. The propagated variance is computed by the
    # reference and once per exact or Taylor run, never per design point.
    problem = default_benchmark_problem(70)
    calls = {"assemble": 0, "linear_map": 0, "output_variance": 0}

    real_assemble = problem_mod.assemble

    def counted_assemble(problem):
        calls["assemble"] += 1
        return real_assemble(problem)

    for module in (problem_mod, bench, driver):
        monkeypatch.setattr(module, "assemble", counted_assemble)

    real_map = BlockSystem.__dict__["linear_map"].func

    def counted_map(self):
        calls["linear_map"] += 1
        return real_map(self)

    counted_property = functools.cached_property(counted_map)
    counted_property.__set_name__(BlockSystem, "linear_map")
    monkeypatch.setattr(BlockSystem, "linear_map", counted_property)

    real_variance = BlockSystem.output_variance

    def counted_variance(self, sigma):
        calls["output_variance"] += 1
        return real_variance(self, sigma)

    monkeypatch.setattr(BlockSystem, "output_variance", counted_variance)
    report = run_benchmark(problem, ("mc:20", "taylor", "exact"), repetitions=2, workers=1)
    assert not report.failures and len(report.runs) == 4
    # 1 for the reference + 1 for each of the two deterministic runs.
    assert calls == {"assemble": 1, "linear_map": 1, "output_variance": 3}


def test_one_variance_propagation_per_benchmark(monkeypatch):
    # The reference QP and the exact and Taylor evaluators read one system
    # and one noise model, so the block products run once per benchmark.
    problem = default_benchmark_problem(70)
    propagated = []
    real = BlockSystem._propagate

    def counted(self, blocks):
        propagated.append(1)
        return real(self, blocks)

    monkeypatch.setattr(BlockSystem, "_propagate", counted)
    report = run_benchmark(problem, ("taylor", "exact"))
    assert not report.failures and len(report.runs) == 2
    assert len(propagated) == 1


_THREAD_PROBE = """
import hashlib, json
from umdobench import OptimizerSettings, serialize
from umdobench.bench import default_benchmark_problem, run_benchmark
problem = default_benchmark_problem(seed=70)
report = run_benchmark(
    problem, ("mc:20", "taylor", "exact"), repetitions=2, optimizer=OptimizerSettings(max_iter=40)
)
print(json.dumps({
    "t": problem.t.hex(),
    "file": hashlib.sha256(serialize(problem)).hexdigest(),
    "x_star": [float(v).hex() for v in report.reference["x_star"]],
    "n_evals": [[r.estimator, r.rep, r.n_evals] for r in report.runs],
    "failures": report.failures,
}))
"""


def test_p6_benchmark_does_not_depend_on_the_blas_thread_count():
    # README promises that at p = 6 only SLSQP's iterates, and so the rows'
    # last bits, move with the BLAS thread count: the threshold, the file,
    # the reference optimum and every evaluation count do not. numpy and
    # scipy bundle different OpenBLAS builds, so the variable, not one
    # library's symbol, sets the count.
    src = str(Path(__file__).resolve().parent.parent / "src")
    seen = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        seen.append(json.loads(result.stdout.splitlines()[-1]))
    assert not seen[0]["failures"] and len(seen[0]["n_evals"]) == 4
    assert seen[0] == seen[1]


def test_probability_statistic_is_rejected():
    # Probability-constrained runs are reference-only: no spec can ask for one.
    with pytest.raises(ValueError, match="constraint_stat"):
        StatisticSpec(constraint_stat="probability")


@pytest.mark.parametrize(
    "labels",
    [("taylor", "taylor"), ("mc:20", "mc:20"), ("mc", "mc:200"), ("exact", "taylor", " EXACT")],
)
def test_duplicate_estimators_are_rejected(labels):
    problem = default_benchmark_problem(seed=70)
    with pytest.raises(ValueError, match="same"):
        run_benchmark(problem, labels, repetitions=2, workers=1)


def test_infeasible_reference_raises():
    problem = default_benchmark_problem(seed=70)
    spec = StatisticSpec(constraint_stat="margin", kappa=1e6)
    with pytest.raises(InfeasibleReferenceError):
        run_benchmark(problem, ("exact",), spec=spec, workers=1)


def test_reference_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(qp_mod, "_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="max_iter"):
        small_report(estimators=("exact",))


def test_argument_validation():
    problem = default_benchmark_problem(seed=70)
    with pytest.raises(ValueError, match="repetitions"):
        run_benchmark(problem, ("exact",), repetitions=0, workers=1)
    with pytest.raises(ValueError, match="estimators"):
        run_benchmark(problem, (), workers=1)
    with pytest.raises(ValueError, match="workers"):
        run_benchmark(problem, ("exact",), workers=0)
    with pytest.raises(ValueError, match="p_coupling"):
        run_benchmark(
            problem, ("exact",), sigma=UncertaintyModel.isotropic((2, 4), 0.01), workers=1
        )


def test_default_problem_is_tuned_and_noisy():
    problem = default_benchmark_problem()
    assert problem.config.n_disciplines == 2
    assert problem.config.d == 5
    assert problem.t != 0.0
    assert isinstance(problem.uncertainty, UncertaintyModel)
    assert np.allclose(problem.uncertainty.sigma, 0.01 ** 2 * np.eye(6))
    again = default_benchmark_problem()
    assert problem == again


def test_report_echoes_settings(report):
    payload = json.loads(report_to_json(report))
    assert payload["tool_version"]
    assert payload["config"]["seed"] == 70
    assert payload["statistic"] == {"constraint_stat": "margin", "kappa": 2.0}
    assert payload["optimizer"] == {"method": "SLSQP", "max_iter": 40, "g_tol": 1e-4}
    assert payload["mda"]["method"] == "direct"
    assert payload["reference"]["status"] == "optimal"
    assert len(payload["problem_digest"]) == 64
    blocks = payload["sigma_blocks"]
    assert len(blocks) == 2 and np.allclose(blocks[0], 0.01 ** 2 * np.eye(3))
    assert payload["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": bench._blas_name(np),
        "scipy": scipy.__version__,
        "scipy_blas": bench._blas_name(scipy),
        "blas_threads": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        },
        "machine": platform.machine(),
    }
    assert list(payload) == [
        "tool_version", "problem_digest", "config", "t", "statistic", "optimizer",
        "mda", "sigma_blocks", "base_seed", "repetitions", "seeds", "reference",
        "runs", "estimators", "failures", "environment",
    ]
    # The environment lives in the JSON only: the CSV keeps its columns.
    lines = report_to_csv(report).splitlines()
    assert lines[0] == "estimator,rep,dx_pct,df_pct,dg_pct,n_evals,wall_s"
    assert len(lines) == len(report.runs) + 1
    assert all(len(line.split(",")) == 7 for line in lines)
