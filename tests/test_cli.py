"""Command-line interface: subcommands, outputs, exit codes."""

import json
from dataclasses import fields

import numpy as np
import pytest

import umdobench.bench as bench_mod
import umdobench.qp as qp_mod
from umdobench.cli import main
from umdobench.driver import RunResult
from umdobench.errors import NumericalError
from umdobench.problem import assemble, deserialize, problem_digest
from umdobench.qp import export_qp, reduce_deterministic, reduce_margin, solve_qp

GENERATE_FLAGS = [
    "--disciplines", "2",
    "--shared", "1",
    "--local", "2,2",
    "--coupling", "3,3",
    "--alpha-t", "0.5",
    "--seed", "70",
    "--sigma", "0.01",
]


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "p.json"
    assert main(["generate", *GENERATE_FLAGS, "--out", str(path)]) == 0
    return path


def load(path):
    return deserialize(path.read_bytes())


def test_generate_writes_file_and_prints_digest(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["generate", *GENERATE_FLAGS, "--out", str(out)]) == 0
    digest = capsys.readouterr().out.strip()
    problem = load(out)
    assert digest == problem_digest(problem)
    assert len(digest) == 64
    assert problem.config.seed == 70
    assert problem.t != 0.0
    assert np.allclose(problem.uncertainty.sigma, 0.01 ** 2 * np.eye(6))


def test_generate_same_flags_same_file(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["generate", *GENERATE_FLAGS, "--out", str(first)]) == 0
    assert main(["generate", *GENERATE_FLAGS, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    argv = [
        "generate", "--disciplines", "2", "--shared", "1", "--local", "2,2",
        "--coupling", "3,3", "--alpha-t", "1.5", "--out", str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2
    assert "feasibility_level" in capsys.readouterr().err


def test_ill_posed_config_exits_2_and_its_file_exits_4(problem_path, tmp_path, capsys):
    # A discipline with fewer outputs than local variables has no unique
    # reference: refused as an argument by generate, as a field on load.
    out = tmp_path / "x.json"
    argv = [
        "generate", "--disciplines", "2", "--shared", "1", "--local", "2,2",
        "--coupling", "1,3", "--out", str(out),
    ]
    assert main(argv) == 2
    assert "p_coupling[0] = 1 is below d_local[0] = 2" in capsys.readouterr().err
    assert not out.exists()
    doc = json.loads(problem_path.read_bytes())
    doc["config"]["d_local"] = [4, 2]
    bad = tmp_path / "ill_posed.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve-ref", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field: config" in err and "below d_local" in err
    assert "Traceback" not in err


def test_generate_rejects_too_few_tuning_samples(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = [
        "generate", "--disciplines", "2", "--shared", "1", "--local", "2,2",
        "--coupling", "3,3", "--samples", "1", "--out", str(out),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: --samples must be >= 2"
    assert not out.exists()


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "x.json")]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_dimension_list_is_usage_error(tmp_path, capsys):
    argv = [
        "generate", "--disciplines", "2", "--shared", "1", "--local", "2;2",
        "--coupling", "3,3", "--out", str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "umdo-bench" in capsys.readouterr().out


def test_solve_ref_deterministic_matches_library(problem_path, capsys):
    assert main(["solve-ref", str(problem_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert payload["kkt_residual"] <= 1e-8
    problem = load(problem_path)
    expected = solve_qp(reduce_deterministic(assemble(problem), problem.t))
    assert np.allclose(payload["x_star"], expected.x_star, atol=1e-8)
    assert payload["f_star"] == pytest.approx(expected.f_star, rel=1e-9)


def test_solve_ref_margin_writes_file(problem_path, tmp_path):
    out = tmp_path / "sol.json"
    argv = [
        "solve-ref", str(problem_path), "--statistic", "margin",
        "--kappa", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "optimal"
    problem = load(problem_path)
    system = assemble(problem)
    expected = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
    assert payload["f_star"] == pytest.approx(expected.f_star, rel=1e-9)


def test_solve_ref_unattainable_margin_exits_3(problem_path, capsys):
    argv = ["solve-ref", str(problem_path), "--statistic", "margin", "--kappa", "1e6"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_solve_ref_probability_requires_epsilon(problem_path, capsys):
    argv = ["solve-ref", str(problem_path), "--statistic", "probability"]
    assert main(argv) == 2
    assert "--epsilon" in capsys.readouterr().err


def test_solve_ref_probability_runs(problem_path, capsys):
    argv = [
        "solve-ref", str(problem_path), "--statistic", "probability",
        "--epsilon", "0.9",
    ]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"


def test_corrupt_problem_file_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-ref", str(bad)]) == 4
    assert "error" in capsys.readouterr().err


def test_malformed_field_exits_4_without_traceback(problem_path, tmp_path, capsys):
    doc = json.loads(problem_path.read_bytes())
    doc["t"] = "abc"
    bad = tmp_path / "bad_t.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve-ref", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field: t" in err
    assert "Traceback" not in err


def test_non_integer_field_exits_4_without_traceback(problem_path, tmp_path, capsys):
    doc = json.loads(problem_path.read_bytes())
    doc["config"]["seed"] = 70.9
    bad = tmp_path / "bad_seed.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve-ref", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field: config.seed" in err
    assert "Traceback" not in err


def test_non_finite_field_exits_4_without_traceback(problem_path, tmp_path, capsys):
    doc = json.loads(problem_path.read_bytes())
    doc["t"] = float("nan")
    bad = tmp_path / "nan_t.json"
    bad.write_text(json.dumps(doc))  # written as the token NaN
    assert main(["solve-ref", str(bad)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "field: t" in err
    assert "Traceback" not in err


def test_undecodable_problem_file_exits_4_without_traceback(problem_path, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(problem_path.read_bytes().replace(b'"version"', b'"versi\xf3n"', 1))
    assert main(["solve-ref", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field: <root>" in err
    assert "Traceback" not in err


def test_file_layout_does_not_change_the_record(problem_path, tmp_path, capsys):
    # Sorted keys put every array before the config: that file is read whole,
    # not block by block, and must give the same record.
    doc = json.loads(problem_path.read_bytes())
    layouts = tmp_path / "sorted.json"
    layouts.write_text(json.dumps(doc, sort_keys=True, indent=2))
    records = []
    for path in (problem_path, layouts):
        assert main(["solve-ref", str(path), "--statistic", "margin"]) == 0
        records.append(capsys.readouterr().out)
    assert records[0] == records[1]
    cut = tmp_path / "cut.json"
    blob = problem_path.read_bytes()
    cut.write_bytes(blob[: blob.index(b'"C_blocks"') + 40])
    assert main(["solve-ref", str(cut)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "field: <root>" in err


def test_solve_ref_exhausted_iteration_budget_exits_4(problem_path, monkeypatch, capsys):
    monkeypatch.setattr(qp_mod, "_MAX_ITER", 1)
    assert main(["solve-ref", str(problem_path)]) == 4
    assert json.loads(capsys.readouterr().out)["status"] == "max_iter"


def test_missing_problem_file_exits_4(tmp_path, capsys):
    assert main(["solve-ref", str(tmp_path / "absent.json")]) == 4


def test_tune_changes_level_and_threshold(tmp_path, capsys):
    src = tmp_path / "p.json"
    assert main(["generate", *GENERATE_FLAGS, "--out", str(src)]) == 0
    t_before = load(src).t
    capsys.readouterr()

    out = tmp_path / "retuned.json"
    assert main(["tune", str(src), "--alpha-t", "0.8", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    retuned = load(out)
    assert retuned.config.feasibility_level == 0.8
    assert retuned.t == payload["t"]
    # Demanding a larger feasible fraction lowers the threshold.
    assert retuned.t < t_before
    assert load(src).t == t_before


def test_tune_in_place_rewrites_input(tmp_path, capsys):
    src = tmp_path / "p.json"
    assert main(["generate", *GENERATE_FLAGS, "--out", str(src)]) == 0
    assert main(["tune", str(src), "--alpha-t", "0.3"]) == 0
    assert load(src).config.feasibility_level == 0.3


def test_tune_rejects_bad_level(problem_path):
    assert main(["tune", str(problem_path), "--alpha-t", "0", "--out", "/dev/null"]) == 2


def test_tune_rejects_too_few_tuning_samples(problem_path, tmp_path, capsys):
    out = tmp_path / "retuned.json"
    assert main(["tune", str(problem_path), "--samples", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == "error: --samples must be >= 2"
    assert not out.exists()


def test_solve_mdf_exact_reaches_margin_reference(problem_path, capsys):
    argv = [
        "solve-mdf", str(problem_path), "--estimator", "exact",
        "--statistic", "margin", "--kappa", "2", "--max-iter", "400",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [f.name for f in fields(RunResult)]
    assert payload["converged"] is True
    assert isinstance(payload["message"], str) and payload["message"]
    assert payload["estimator"] == "exact"
    assert payload["n_discipline_evals"] > 0
    problem = load(problem_path)
    system = assemble(problem)
    ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
    assert abs(payload["f_opt"] - ref.f_star) <= 1e-3 * abs(ref.f_star)
    assert np.linalg.norm(np.array(payload["x_opt"]) - ref.x_star) <= 1e-3 * np.linalg.norm(ref.x_star)


def test_statistic_none_is_the_expectation(problem_path, tmp_path, capsys):
    # The expectation keeps the noise-energy constant and shifts no
    # constraint row: the margin reference at kappa 0.
    problem = load(problem_path)
    system = assemble(problem)
    ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 0.0))
    argv = [
        "solve-mdf", str(problem_path), "--estimator", "exact",
        "--statistic", "none", "--max-iter", "400",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["f_opt"] - ref.f_star) <= 1e-3 * abs(ref.f_star)
    assert np.linalg.norm(np.array(payload["x_opt"]) - ref.x_star) <= 1e-3 * np.linalg.norm(ref.x_star)

    base = tmp_path / "report"
    argv = [
        "benchmark", str(problem_path), "--estimators", "exact", "--statistic", "none",
        "--repetitions", "1", "--out", str(base),
    ]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["statistic"] == {"constraint_stat": "expectation", "kappa": 0.0}
    assert report["reference"]["x_star"] == ref.x_star.tolist()
    assert report["reference"]["f_star"] == ref.f_star


def test_benchmark_reports_failed_runs_and_exits_0(problem_path, monkeypatch, capsys):
    real_optimize = bench_mod.optimize

    def flaky(evaluator, settings=None):
        if evaluator.estimator == "taylor":
            raise NumericalError("synthetic failure")
        return real_optimize(evaluator, settings)

    monkeypatch.setattr(bench_mod, "optimize", flaky)
    argv = [
        "benchmark", str(problem_path), "--estimators", "exact,taylor",
        "--repetitions", "1", "--max-iter", "30",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "failed: taylor rep 0: NumericalError: synthetic failure\n"
    assert "exact: dx=" in captured.out


def test_solve_mdf_rejects_bad_estimator(problem_path, capsys):
    assert main(["solve-mdf", str(problem_path), "--estimator", "bogus"]) == 2
    assert main(["solve-mdf", str(problem_path), "--estimator", "mc:1"]) == 2


def test_benchmark_writes_json_and_csv(problem_path, tmp_path, capsys):
    base = tmp_path / "report"
    argv = [
        "benchmark", str(problem_path), "--estimators", "exact",
        "--repetitions", "1", "--max-iter", "60", "--out", str(base),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exact: dx=" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["estimators"][0]["estimator"] == "exact"
    # solve-ref writes the same record as the report's reference block.
    ref = tmp_path / "ref.json"
    argv = [
        "solve-ref", str(problem_path), "--statistic", "margin", "--kappa", "2",
        "--out", str(ref),
    ]
    assert main(argv) == 0
    assert list(json.loads(ref.read_text()).items()) == list(payload["reference"].items())
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "estimator,rep,dx_pct,df_pct,dg_pct,n_evals,wall_s"
    assert len(csv_lines) == 2


def test_benchmark_stdout_json_without_out(problem_path, capsys):
    argv = [
        "benchmark", str(problem_path), "--estimators", "exact",
        "--repetitions", "1", "--max-iter", "30",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["repetitions"] == 1


def test_benchmark_rejects_zero_workers(problem_path, capsys):
    argv = ["benchmark", str(problem_path), "--estimators", "exact", "--workers", "0"]
    assert main(argv) == 2
    assert "workers" in capsys.readouterr().err


def test_benchmark_rejects_probability_statistic(problem_path, capsys):
    argv = ["benchmark", str(problem_path), "--statistic", "probability"]
    assert main(argv) == 2


def test_benchmark_rejects_duplicate_estimators(problem_path, capsys):
    argv = ["benchmark", str(problem_path), "--estimators", "mc:200,mc:200"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "same" in err


def test_benchmark_infeasible_reference_exits_3(problem_path, capsys):
    argv = [
        "benchmark", str(problem_path), "--estimators", "exact",
        "--repetitions", "1", "--kappa", "1e6",
    ]
    assert main(argv) == 3
    assert "error" in capsys.readouterr().err


def test_export_qp_matches_library_bytes(problem_path, tmp_path):
    out = tmp_path / "qp.json"
    argv = [
        "export-qp", str(problem_path), "--statistic", "margin",
        "--kappa", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    problem = load(problem_path)
    system = assemble(problem)
    expected = export_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
    assert out.read_bytes() == expected
    assert list(json.loads(expected)) == ["Q", "c", "d0", "A", "b", "lower", "upper"]


@pytest.mark.parametrize("command", ["solve-ref", "export-qp"])
@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_non_finite_kappa_is_usage_error(problem_path, tmp_path, capsys, command, kappa):
    out = tmp_path / "out.json"
    argv = [
        command, str(problem_path), "--statistic", "margin", "--kappa", kappa,
        "--out", str(out),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "kappa" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "solve-ref", "solve-mdf"])
@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_is_usage_error(problem_path, tmp_path, capsys, recwarn, command, sigma):
    out = tmp_path / "out.json"
    if command == "generate":
        argv = ["generate", *GENERATE_FLAGS[:-2], "--sigma", sigma, "--out", str(out)]
    else:
        argv = [command, str(problem_path), "--statistic", "margin", "--sigma", sigma,
                "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "finite" in captured.err
    assert len(recwarn) == 0
    assert not out.exists()


def test_benchmark_rejects_non_ascii_sample_size_before_any_run(problem_path, tmp_path, capsys):
    base = tmp_path / "r"
    for label in ("mc:２０", "mc:2_0"):
        argv = ["benchmark", str(problem_path), "--estimators", label, "--out", str(base)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "sample size" in captured.err
    assert list(tmp_path.iterdir()) == []


def _overflowing_file(problem_path, tmp_path, field):
    """The problem file with finite entries whose reductions overflow."""
    doc = json.loads(problem_path.read_bytes())
    if field == "a":
        doc["a"] = [1e300] * len(doc["a"])
    else:
        doc["D_shared"][0] = [[1e300] * len(row) for row in doc["D_shared"][0]]
    path = tmp_path / f"{field}_1e300.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["a", "D_shared"])
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["solve-ref", "--statistic", "margin"], id="solve-ref"),
        pytest.param(["solve-mdf", "--estimator", "taylor"], id="solve-mdf"),
        pytest.param(["solve-mdf", "--estimator", "mc:20"], id="solve-mdf-mc"),
        pytest.param(["export-qp", "--statistic", "margin", "--out", "QP"], id="export-qp"),
        pytest.param(["benchmark", "--estimators", "taylor", "--repetitions", "1"], id="benchmark"),
        pytest.param(["tune", "--out", "QP"], id="tune"),
    ],
)
def test_overflowing_values_exit_4_without_non_finite_output(
    problem_path, tmp_path, capsys, field, command
):
    # The affine map refuses the file before any coupling solve, and no
    # numpy overflow warning is raised on the way (warnings are errors here).
    path = _overflowing_file(problem_path, tmp_path, field)
    qp_out = tmp_path / "qp.json"
    argv = [command[0], str(path)] + [str(qp_out) if a == "QP" else a for a in command[1:]]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coupling outputs overflow over the unit design box\n"
    assert not qp_out.exists()


@pytest.mark.filterwarnings("error")
def test_diverging_coupling_sweeps_fail_without_warnings(problem_path, tmp_path, capsys):
    # With every coupling block scaled by 1e300 the affine map is finite
    # (P is tiny), but ||I - C||_inf is near 1e300: the fixed-point sweeps
    # overflow, silently, and stop unconverged at sweep 30. An evaluation on
    # them raises, so solve-mdf exits 4 with one line, and the benchmark
    # records both runs as failures and writes its report.
    doc = json.loads(problem_path.read_bytes())
    doc["C_blocks"] = [[i, j, _map_numbers(b, lambda v: v * 1e300)] for i, j, b in doc["C_blocks"]]
    path = tmp_path / "C_blocks_1e300.json"
    path.write_text(json.dumps(doc))
    for label, message in (
        ("taylor", "the objective is not finite: the coupled outputs diverged"),
        ("mc:10", "only 0 of 10 realizations converged; cannot estimate"),
    ):
        assert main(["solve-mdf", str(path), "--estimator", label]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    base = tmp_path / "report"
    argv = ["benchmark", str(path), "--estimators", "mc:10,taylor", "--repetitions", "1"]
    assert main([*argv, "--out", str(base)]) == 0
    assert capsys.readouterr().err == (
        "failed: mc:10 rep 0: NumericalError: only 0 of 10 realizations converged; "
        "cannot estimate\n"
        "failed: taylor rep 0: NumericalError: the objective is not finite: "
        "the coupled outputs diverged\n"
    )
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["runs"] == [] and report["estimators"] == []
    assert [f["estimator"] for f in report["failures"]] == ["mc:10", "taylor"]


def test_solve_mdf_records_the_label_it_ran(problem_path, capsys):
    argv = ["solve-mdf", str(problem_path), "--estimator", "mc:20", "--max-iter", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["estimator"] == "mc:20"


# --- seeded mutations of a valid file meet a documented exit code ---------------

_MUTATED_FIELDS = ("a", "D_shared", "D_local", "C_blocks", "t", "sigma_blocks")


def _map_numbers(value, f):
    if isinstance(value, list):
        return [_map_numbers(v, f) for v in value]
    return f(value)


def _mutate(doc, rng):
    """One seeded mutation of a problem document: one field's numbers scaled
    by 1e300 or 1e-300 or negated, or one of its entries dropped."""
    field = str(rng.choice(_MUTATED_FIELDS))
    op = str(rng.choice(["1e300", "1e-300", "negate", "drop"]))
    if op == "drop":
        node = doc[field]
        while isinstance(node, list) and node and isinstance(node[-1], list) and rng.random() < 0.5:
            node = node[int(rng.integers(len(node)))]
        if isinstance(node, list) and node:
            node.pop(int(rng.integers(len(node))))
        else:
            del doc[field]
    else:
        factor = -1.0 if op == "negate" else float(op)
        scale = lambda v: v * factor  # noqa: E731
        if field == "C_blocks":
            doc[field] = [[i, j, _map_numbers(block, scale)] for i, j, block in doc[field]]
        else:
            doc[field] = _map_numbers(doc[field], scale)
    return f"{op} {field}"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mutated_files_meet_documented_exit_codes(problem_path, tmp_path, capsys):
    # Every file command on every mutant exits 0, 2, 3 or 4 without a
    # traceback, and on success its JSON output parses as strict JSON (no
    # NaN or Infinity): stdout for tune, solve-ref and solve-mdf, the written
    # file for export-qp and benchmark.
    # Sample sizes in full-width digits are among the estimator labels.
    rng = np.random.default_rng(20240)
    base = json.loads(problem_path.read_bytes())
    seen = set()
    for k in range(12):
        doc = json.loads(json.dumps(base))
        what = _mutate(doc, rng)
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(doc))
        label = str(rng.choice(["taylor", "mc:10", "mc:１０"]))
        out = tmp_path / f"out{k}"
        commands = {
            "tune": (["tune", str(path), "--samples", "200", "--out", str(out)], None),
            "solve-ref": (["solve-ref", str(path), "--statistic", "margin"], None),
            "solve-mdf": (["solve-mdf", str(path), "--estimator", label, "--max-iter", "20"], None),
            "export-qp": (["export-qp", str(path), "--out", str(out)], out),
            "benchmark": (
                ["benchmark", str(path), "--estimators", label, "--repetitions", "1",
                 "--max-iter", "20", "--out", str(out)],
                out.with_name(out.name + ".json"),
            ),
        }
        for name, (argv, written) in commands.items():
            code = main(argv)
            captured = capsys.readouterr()
            context = f"{name} on mutant {k} ({what}, {label})"
            assert code in (0, 2, 3, 4), context
            assert "Traceback" not in captured.err, context
            if code == 0:
                text = captured.out if written is None else written.read_text()
                json.loads(text, parse_constant=_reject_constant)
            seen.add(code)
    assert {0, 2, 4} <= seen
