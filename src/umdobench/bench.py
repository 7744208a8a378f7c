"""Estimator benchmarking: repeated MDF runs scored against the QP reference.

A benchmark assembles a tuned problem once, solves the reference QP on that
system, then runs the statistic-wrapped optimization on the same system once
per estimator and repetition and records the percent errors of each run.
Sampling estimators get one repetition per seed; deterministic estimators
(``exact``, ``taylor``) always produce the same run, so they execute once
regardless of the requested repetition count. Per-run failures are recorded
in the report instead of aborting the remaining runs.

Reports serialize to JSON and to a flat CSV with one row per run; both carry
the same numeric values. Error metrics, evaluation counts and seeds are
reproducible; wall-clock times are not.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import platform
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .driver import (
    _G_TOL,
    OptimizerSettings,
    RobustEvaluator,
    _noise_model,
    optimize,
    parse_estimator,
    percent_errors,
)
from .errors import InfeasibleReferenceError, NumericalError
from .mda import MDASettings
from .problem import (
    ProblemConfig,
    UncertaintyModel,
    _integer,
    assemble,
    generate,
    instance_digest,
    problem_digest,  # unused: perfbench's tracer wraps it here (tests/test_tracer_points.py)
    tune_feasibility,
)
from .qp import reduce_margin, solve_qp
from .uq import StatisticSpec

__all__ = [
    "BenchmarkReport",
    "BenchmarkRun",
    "EstimatorSummary",
    "default_benchmark_problem",
    "report_to_csv",
    "report_to_json",
    "run_benchmark",
    "write_report",
]

def default_benchmark_problem(seed: int = 70, sigma_std: float = 0.01):
    """Two-discipline tuned instance used by the demos and the CLI examples.

    One shared and two local design variables with three coupling outputs per
    discipline, feasibility level one half, isotropic Gaussian coupling noise.
    """
    config = ProblemConfig(
        n_disciplines=2,
        d_shared=1,
        d_local=(2, 2),
        p_coupling=(3, 3),
        seed=seed,
    )
    problem = generate(config)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, sigma_std)
    tune_feasibility(problem, quantile_seed=seed + 1)
    return problem


def _parse_estimators(labels) -> dict[str, str]:
    """Each label's estimator kind, in order; raises ValueError when there
    are none or when two labels name the same estimator (``"mc"`` and
    ``"mc:200"``)."""
    seen = {}
    for label in labels:
        estimator = parse_estimator(label)
        if estimator in seen:
            raise ValueError(f"estimators {seen[estimator]!r} and {label!r} are the same")
        seen[estimator] = label
    if not seen:
        raise ValueError("estimators must not be empty")
    return {label: kind for (kind, _), label in seen.items()}


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _record(obj) -> dict:
    """The fields of dataclass ``obj`` as JSON-ready data, in declaration
    order: arrays and tuples become lists, numpy scalars Python numbers."""
    return _plain(asdict(obj))


@dataclass(frozen=True)
class BenchmarkRun:
    """One scored optimizer run; its fields are the CSV columns."""

    estimator: str
    rep: int
    dx_pct: float
    df_pct: float
    dg_pct: float
    n_evals: int
    wall_s: float


CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRun))


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregate over the successful repetitions of one estimator.

    Standard deviations are sample standard deviations and exist only when
    at least two repetitions succeeded.
    """

    estimator: str
    repetitions: int
    mean_dx_pct: float
    mean_df_pct: float
    mean_dg_pct: float
    mean_n_evals: float
    mean_wall_s: float
    std_dx_pct: float | None = None
    std_df_pct: float | None = None
    std_dg_pct: float | None = None


@dataclass
class BenchmarkReport:
    """Full record of a benchmark: settings echo, reference, runs, aggregates.

    ``instance_digest`` names the scored instance by its bits
    (:func:`~umdobench.problem.instance_digest`), so every copy of a file
    that loads equal gives the same value. ``environment`` names the library
    stack and machine that produced it: the numpy and scipy versions, the
    BLAS each was built against (numpy and scipy wheels bundle separate
    builds) and the BLAS/OpenMP thread variables, on which the error
    metrics' last bits depend.
    """

    tool_version: str
    instance_digest: str
    config: dict
    t: float
    statistic: dict
    optimizer: dict
    mda: dict
    sigma_blocks: list | None
    base_seed: int
    repetitions: int
    seeds: dict
    reference: dict
    runs: list[BenchmarkRun] = field(default_factory=list)
    estimators: list[EstimatorSummary] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = _record(self)
        # A summary's std fields are None below two repetitions; omit them.
        record["estimators"] = [
            {k: v for k, v in row.items() if v is not None} for row in record["estimators"]
        ]
        return record


def _execute_run(system, t, sigma, spec, optimizer, mda_settings, reference, label, rep, seed):
    """Run one estimator repetition; never raises (failures are reported)."""
    try:
        evaluator = RobustEvaluator(system, t, sigma, spec, label, seed, mda_settings)
        run = optimize(evaluator, optimizer)
        dx, df, dg = percent_errors(run, reference)
        return BenchmarkRun(
            estimator=label,
            rep=rep,
            dx_pct=float(dx),
            df_pct=float(df),
            dg_pct=float(dg),
            n_evals=int(run.n_discipline_evals),
            wall_s=float(run.wall_time),
        )
    except Exception as exc:
        return {"estimator": label, "rep": rep, "error": f"{type(exc).__name__}: {exc}"}


def _summarize(label: str, rows: list[BenchmarkRun]) -> EstimatorSummary:
    errs = np.array([[r.dx_pct, r.df_pct, r.dg_pct] for r in rows], dtype=float)
    n = len(rows)
    stds = errs.std(axis=0, ddof=1) if n >= 2 else (None, None, None)
    return EstimatorSummary(
        estimator=label,
        repetitions=n,
        mean_dx_pct=float(errs[:, 0].mean()),
        mean_df_pct=float(errs[:, 1].mean()),
        mean_dg_pct=float(errs[:, 2].mean()),
        mean_n_evals=float(np.mean([r.n_evals for r in rows])),
        mean_wall_s=float(np.mean([r.wall_s for r in rows])),
        std_dx_pct=None if n < 2 else float(stds[0]),
        std_df_pct=None if n < 2 else float(stds[1]),
        std_dg_pct=None if n < 2 else float(stds[2]),
    )


def run_benchmark(
    problem,
    estimators=("mc:200", "taylor"),
    repetitions: int = 20,
    spec: StatisticSpec = StatisticSpec(),
    sigma=None,
    optimizer: OptimizerSettings = OptimizerSettings(),
    mda_settings: MDASettings = MDASettings(),
    base_seed: int = 1000,
    workers: int = 1,
) -> BenchmarkReport:
    """Score every estimator against the reference solution of ``problem``.

    ``estimators`` is a sequence of labels (``"mc:200"``, ``"taylor"``,
    ``"exact"``), no two naming the same estimator. Sampling estimators run
    ``repetitions`` times with sampler seeds ``base_seed + rep``;
    deterministic estimators run once. ``sigma``
    is an :class:`~umdobench.problem.UncertaintyModel` whose ``p_coupling``
    matches the problem's, or None for the model stored on the problem (zero
    noise if the problem has none). The reference QP and every run read one
    assembled system. Runs execute in a process pool of
    ``min(workers, runs)`` processes, serially when that is one; results do
    not depend on the pool size.
    """
    repetitions, workers = _integer(repetitions, "repetitions"), _integer(workers, "workers")
    seeds = {
        label: [base_seed + rep for rep in range(repetitions if kind == "mc" else 1)]
        for label, kind in _parse_estimators(estimators).items()
    }
    model = _noise_model(
        problem.config.p_coupling, sigma if sigma is not None else problem.uncertainty
    )

    system = assemble(problem)
    # The expectation's kappa is 0: its constraint rows, with the noise-energy
    # constant still in the objective.
    reference = solve_qp(reduce_margin(system, problem.t, model.sigma, spec.kappa))
    if reference.status == "infeasible":
        raise InfeasibleReferenceError(
            "the reference QP is infeasible; relax the statistic or retune the threshold"
        )
    if reference.status != "optimal":
        raise NumericalError(f"reference QP solve ended with status {reference.status!r}")

    # The system is pickled to each worker with the maps the reference QP
    # cached on it.
    execute = functools.partial(
        _execute_run, system, problem.t, model, spec, optimizer, mda_settings, reference
    )
    tasks = [(label, rep, seed) for label in seeds for rep, seed in enumerate(seeds[label])]
    n_workers = min(workers, len(tasks))
    if n_workers == 1:
        outcomes = [execute(*task) for task in tasks]
    else:
        # Local so that serial runs never load the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(execute, *zip(*tasks)))

    runs = [o for o in outcomes if isinstance(o, BenchmarkRun)]
    failures = [o for o in outcomes if not isinstance(o, BenchmarkRun)]

    summaries = []
    for label in seeds:
        rows = [r for r in runs if r.estimator == label]
        if rows:
            summaries.append(_summarize(label, rows))

    from . import __version__

    return BenchmarkReport(
        tool_version=__version__,
        instance_digest=instance_digest(problem),
        config=_record(problem.config),
        t=float(problem.t),
        statistic=_record(spec),
        optimizer={"method": "SLSQP", **_record(optimizer), "g_tol": _G_TOL},
        mda=_record(mda_settings),
        sigma_blocks=[b.tolist() for b in model.sigma_blocks],
        base_seed=base_seed,
        repetitions=repetitions,
        seeds=seeds,
        reference=_record(reference),
        runs=runs,
        estimators=summaries,
        failures=failures,
        environment=_environment(),
    )


# Thread-count variables of the BLAS and OpenMP runtimes numpy and scipy load.
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas_name(module) -> str:
    """``"<name> <version>"`` of the BLAS ``module`` was built against, or
    ``"unknown"`` where its ``show_config`` has no ``mode`` (numpy < 1.25,
    scipy < 1.11)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version', '')}".strip()


def _environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": _blas_name(np),
        "scipy": scipy.__version__,
        "scipy_blas": _blas_name(scipy),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


# --- report output ------------------------------------------------------------


def _json_text(payload: dict) -> str:
    """``payload`` as indented ASCII JSON text ending in a newline.

    Raises
    ------
    NumericalError
        If a number is NaN or infinite, which JSON cannot hold.
    """
    import json

    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"result is not finite: {exc}") from None


def report_to_json(report: BenchmarkReport) -> bytes:
    """The report as indented ASCII JSON; see :func:`_json_text`."""
    return _json_text(report.to_dict()).encode("ascii")


def report_to_csv(report: BenchmarkReport) -> str:
    """One row per successful run; numeric values match the JSON report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.runs:
        writer.writerow(astuple(r))
    return buf.getvalue()


def write_report(report: BenchmarkReport, base_path) -> tuple[Path, Path]:
    """Write ``<base>.json`` and ``<base>.csv``.

    A trailing ``.json`` or ``.csv`` is stripped from the base; any other dot
    is part of the name, so base ``runs/sigma0.01`` writes
    ``runs/sigma0.01.json`` and ``runs/sigma0.01.csv``.
    """
    base = Path(base_path)
    if base.suffix in (".json", ".csv"):
        base = base.with_suffix("")
    json_path = base.with_name(base.name + ".json")
    csv_path = base.with_name(base.name + ".csv")
    json_path.write_bytes(report_to_json(report))
    csv_path.write_text(report_to_csv(report), encoding="ascii")
    return json_path, csv_path
