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
import io
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .driver import (
    OptimizerSettings,
    RobustEvaluator,
    _noise_model,
    optimize,
    percent_errors,
)
from .errors import InfeasibleReferenceError, NumericalError
from .mda import MDASettings
from .problem import (
    BlockSystem,
    ProblemConfig,
    UncertaintyModel,
    assemble,
    generate,
    problem_digest,
    tune_feasibility,
)
from .qp import reduce_margin, solve_qp
from .uq import StatisticSpec

__all__ = [
    "BenchmarkReport",
    "BenchmarkRun",
    "EstimatorSummary",
    "default_benchmark_problem",
    "parse_estimator",
    "report_to_csv",
    "report_to_json",
    "run_benchmark",
    "write_report",
]

THREADS_ENV = "UMDO_BENCH_THREADS"

CSV_COLUMNS = ("estimator", "rep", "dx_pct", "df_pct", "dg_pct", "n_evals", "wall_s")

_ESTIMATOR_KINDS = ("mc", "taylor", "exact")


def default_benchmark_problem(seed: int = 70, sigma_std: float = 0.01):
    """Two-discipline tuned instance used by the demos and the CLI examples.

    One shared and two local design variables with three coupling outputs per
    discipline, feasibility level one half, isotropic Gaussian coupling noise.
    The default seed is one on which the derivative-free optimizer reaches
    the QP reference within its default evaluation budget; arbitrary seeds
    may need a larger budget.
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


def parse_estimator(label: str) -> tuple[str, int | None]:
    """Split an estimator label into (kind, sample size).

    ``"mc:200"`` gives ``("mc", 200)`` (bare ``"mc"`` defaults to 200);
    ``"taylor"`` and ``"exact"`` take no sample size.
    """
    kind, _, arg = label.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in _ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator {label!r}; expected one of {_ESTIMATOR_KINDS}")
    if kind == "mc":
        try:
            m = int(arg) if arg else 200
        except ValueError:
            raise ValueError(f"bad sample size in estimator label {label!r}") from None
        if m < 2:
            raise ValueError("mc sample size must be >= 2")
        return kind, m
    if arg:
        raise ValueError(f"estimator {kind!r} takes no sample size")
    return kind, None


@dataclass(frozen=True)
class BenchmarkRun:
    """One scored optimizer run; mirrors one CSV row."""

    estimator: str
    rep: int
    dx_pct: float
    df_pct: float
    dg_pct: float
    n_evals: int
    wall_s: float


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

    ``environment`` names the library stack and machine that produced it.
    """

    tool_version: str
    problem_digest: str
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
    environment: dict
    runs: list[BenchmarkRun] = field(default_factory=list)
    estimators: list[EstimatorSummary] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        rows = []
        for s in self.estimators:
            row = {
                "estimator": s.estimator,
                "repetitions": s.repetitions,
                "mean_dx_pct": s.mean_dx_pct,
                "mean_df_pct": s.mean_df_pct,
                "mean_dg_pct": s.mean_dg_pct,
                "mean_n_evals": s.mean_n_evals,
                "mean_wall_s": s.mean_wall_s,
            }
            if s.repetitions >= 2:
                row["std_dx_pct"] = s.std_dx_pct
                row["std_df_pct"] = s.std_df_pct
                row["std_dg_pct"] = s.std_dg_pct
            rows.append(row)
        return {
            "tool_version": self.tool_version,
            "problem_digest": self.problem_digest,
            "config": dict(self.config),
            "t": self.t,
            "statistic": dict(self.statistic),
            "optimizer": dict(self.optimizer),
            "mda": dict(self.mda),
            "sigma_blocks": self.sigma_blocks,
            "base_seed": self.base_seed,
            "repetitions": self.repetitions,
            "seeds": {k: list(v) for k, v in self.seeds.items()},
            "reference": dict(self.reference),
            "runs": [
                {
                    "estimator": r.estimator,
                    "rep": r.rep,
                    "dx_pct": r.dx_pct,
                    "df_pct": r.df_pct,
                    "dg_pct": r.dg_pct,
                    "n_evals": r.n_evals,
                    "wall_s": r.wall_s,
                }
                for r in self.runs
            ],
            "estimators": rows,
            "failures": [dict(f) for f in self.failures],
            "environment": dict(self.environment),
        }


@dataclass(frozen=True)
class _RunTask:
    """Everything one worker needs to execute and score a single run.

    ``system`` is pickled with the maps the reference QP cached on it.
    """

    system: BlockSystem
    t: float
    sigma: UncertaintyModel
    spec: StatisticSpec
    optimizer: OptimizerSettings
    mda_settings: MDASettings | None
    reference: object
    label: str
    kind: str
    m: int | None
    rep: int
    seed: int


def _execute_run(task: _RunTask):
    """Run one estimator repetition; never raises (failures are reported)."""
    try:
        evaluator = RobustEvaluator(
            task.system,
            task.t,
            task.sigma,
            task.spec,
            task.kind,
            m=task.m if task.m is not None else 200,
            seed=task.seed,
            mda_settings=task.mda_settings,
        )
        run = optimize(evaluator, task.optimizer)
        dx, df, dg = percent_errors(run, task.reference)
        return BenchmarkRun(
            estimator=task.label,
            rep=task.rep,
            dx_pct=float(dx),
            df_pct=float(df),
            dg_pct=float(dg),
            n_evals=int(run.n_discipline_evals),
            wall_s=float(run.wall_time),
        )
    except Exception as exc:
        return {
            "estimator": task.label,
            "rep": task.rep,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _resolve_workers(workers: int | None, n_tasks: int) -> int:
    if workers is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        else:
            workers = 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return min(workers, max(n_tasks, 1))


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
    spec: StatisticSpec | None = None,
    sigma=None,
    optimizer: OptimizerSettings | None = None,
    mda_settings: MDASettings | None = None,
    base_seed: int = 1000,
    workers: int | None = None,
) -> BenchmarkReport:
    """Score every estimator against the reference solution of ``problem``.

    ``estimators`` is a sequence of labels (``"mc:200"``, ``"taylor"``,
    ``"exact"``). Sampling estimators run ``repetitions`` times with sampler
    seeds ``base_seed + rep``; deterministic estimators run once. ``sigma``
    is an :class:`~umdobench.problem.UncertaintyModel` whose ``p_coupling``
    matches the problem's, or None for the model stored on the problem (zero
    noise if the problem has none). The reference QP and every run read one
    assembled system. Runs execute in a process pool whose size is
    ``workers``, else the ``UMDO_BENCH_THREADS`` environment variable, else
    one; results do not depend on the pool size.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    spec = spec if spec is not None else StatisticSpec(constraint_stat="margin", kappa=2.0)
    if spec.constraint_stat == "probability":
        raise ValueError(
            "probability-constrained runs are reference-only and cannot be benchmarked"
        )
    optimizer = optimizer if optimizer is not None else OptimizerSettings()
    model = _noise_model(
        problem.config.p_coupling, sigma if sigma is not None else problem.uncertainty
    )

    parsed = [(label, *parse_estimator(label)) for label in estimators]
    if not parsed:
        raise ValueError("estimators must not be empty")

    system = assemble(problem)
    # kappa = 0 keeps the constraint rows of the expectation statistic while
    # still carrying the noise-energy constant in the objective.
    kappa = spec.kappa if spec.constraint_stat == "margin" else 0.0
    reference = solve_qp(reduce_margin(system, problem.t, model.sigma, kappa))
    if reference.status == "infeasible":
        raise InfeasibleReferenceError(
            "the reference QP is infeasible; relax the statistic or retune the threshold"
        )
    if reference.status != "optimal":
        raise NumericalError(f"reference QP solve ended with status {reference.status!r}")

    tasks = []
    seeds: dict[str, list[int]] = {}
    for label, kind, m in parsed:
        reps = repetitions if kind == "mc" else 1
        seeds[label] = [base_seed + rep for rep in range(reps)]
        for rep in range(reps):
            tasks.append(
                _RunTask(
                    system=system,
                    t=problem.t,
                    sigma=model,
                    spec=spec,
                    optimizer=optimizer,
                    mda_settings=mda_settings,
                    reference=reference,
                    label=label,
                    kind=kind,
                    m=m,
                    rep=rep,
                    seed=base_seed + rep,
                )
            )

    n_workers = _resolve_workers(workers, len(tasks))
    if n_workers == 1:
        outcomes = [_execute_run(task) for task in tasks]
    else:
        # Local so that serial runs never load the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_execute_run, tasks))

    runs = [o for o in outcomes if isinstance(o, BenchmarkRun)]
    failures = [o for o in outcomes if not isinstance(o, BenchmarkRun)]

    summaries = []
    for label, _, _ in parsed:
        rows = [r for r in runs if r.estimator == label]
        if rows:
            summaries.append(_summarize(label, rows))

    mda_echo = mda_settings if mda_settings is not None else MDASettings()
    from . import __version__

    return BenchmarkReport(
        tool_version=__version__,
        problem_digest=problem_digest(problem),
        config={
            "n_disciplines": problem.config.n_disciplines,
            "d_shared": problem.config.d_shared,
            "d_local": list(problem.config.d_local),
            "p_coupling": list(problem.config.p_coupling),
            "coupling_strength": problem.config.coupling_strength,
            "feasibility_level": problem.config.feasibility_level,
            "seed": problem.config.seed,
        },
        t=float(problem.t),
        statistic={
            "constraint_stat": spec.constraint_stat,
            "kappa": spec.kappa,
            "epsilon": spec.epsilon,
        },
        optimizer={
            "max_iter": optimizer.max_iter,
            "g_tol": optimizer.g_tol,
            "initial_trust_radius": optimizer.initial_trust_radius,
            "final_trust_radius": optimizer.final_trust_radius,
            "x0": None if optimizer.x0 is None else [float(v) for v in optimizer.x0],
        },
        mda={
            "method": mda_echo.method,
            "tol": mda_echo.tol,
            "max_iter": mda_echo.max_iter,
            "warm_start": mda_echo.warm_start,
        },
        sigma_blocks=[b.tolist() for b in model.sigma_blocks],
        base_seed=base_seed,
        repetitions=repetitions,
        seeds=seeds,
        reference={
            "status": reference.status,
            "x_star": [float(v) for v in reference.x_star],
            "f_star": float(reference.f_star),
            "g_star": [float(v) for v in reference.g_star],
            "kkt_residual": float(reference.kkt_residual),
            "iterations": int(reference.iterations),
        },
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        runs=runs,
        estimators=summaries,
        failures=failures,
    )


# --- report output ------------------------------------------------------------


def report_to_json(report: BenchmarkReport) -> bytes:
    import json

    return (json.dumps(report.to_dict(), indent=2) + "\n").encode("ascii")


def report_to_csv(report: BenchmarkReport) -> str:
    """One row per successful run; numeric values match the JSON report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.runs:
        writer.writerow([r.estimator, r.rep, r.dx_pct, r.df_pct, r.dg_pct, r.n_evals, r.wall_s])
    return buf.getvalue()


def write_report(report: BenchmarkReport, base_path) -> tuple[Path, Path]:
    """Write ``<base>.json`` and ``<base>.csv``; a .json/.csv suffix is stripped."""
    base = Path(base_path)
    if base.suffix in (".json", ".csv"):
        base = base.with_suffix("")
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    json_path.write_bytes(report_to_json(report))
    csv_path.write_text(report_to_csv(report), encoding="ascii")
    return json_path, csv_path
