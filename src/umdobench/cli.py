"""Command-line surface.

Subcommands: ``generate`` (build and tune a problem file), ``tune`` (retune
the threshold of an existing file), ``solve-ref`` (reference QP solution),
``solve-mdf`` (one statistic-wrapped optimizer run), ``benchmark`` (estimator
comparison report) and ``export-qp`` (write the reduced QP as JSON).

Exit codes: 0 success, 2 usage error, 3 infeasible reference, 4 runtime
failure (unreadable files, numerical breakdown, non-converged reference).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .bench import _record, parse_estimator, report_to_json, run_benchmark, write_report
from .driver import OptimizerSettings, RobustEvaluator, _noise_model, optimize
from .errors import InfeasibleReferenceError, UmdoBenchError
from .problem import (
    ProblemConfig,
    UncertaintyModel,
    assemble,
    deserialize,
    generate,
    serialize,
    tune_feasibility,
)
from .qp import (
    export_qp,
    reduce_deterministic,
    reduce_margin,
    reduce_probability,
    solve_qp,
)
from .uq import StatisticSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _load_problem(path: str):
    return deserialize(Path(path).read_bytes())


def _sigma_model(problem, std: float | None):
    """Isotropic model from the command line, else the one stored on the file
    (None when the file has none)."""
    if std is not None:
        return UncertaintyModel.isotropic(problem.config.p_coupling, std)
    return problem.uncertainty


def _statistic_spec(statistic: str, kappa: float) -> StatisticSpec:
    if statistic == "none":
        return StatisticSpec(constraint_stat="expectation")
    return StatisticSpec(constraint_stat="margin", kappa=kappa)


def _reduce_reference(problem, statistic: str, kappa: float, epsilon: float | None, std: float | None):
    system = assemble(problem)
    sigma = _noise_model(system.p_coupling, _sigma_model(problem, std)).sigma
    if statistic == "none":
        return reduce_deterministic(system, problem.t)
    if statistic == "margin":
        return reduce_margin(system, problem.t, sigma, kappa)
    if epsilon is None:
        raise ValueError("--epsilon is required for the probability statistic")
    return reduce_probability(system, problem.t, epsilon, sigma=sigma)


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    config = ProblemConfig(
        n_disciplines=args.disciplines,
        d_shared=args.shared,
        d_local=args.local,
        p_coupling=args.coupling,
        coupling_strength=args.coupling_strength,
        feasibility_level=args.alpha_t,
        seed=args.seed,
    )
    uncertainty = (
        None if args.sigma is None else UncertaintyModel.isotropic(config.p_coupling, args.sigma)
    )
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    problem = generate(config)
    problem.uncertainty = uncertainty
    quantile_seed = args.quantile_seed if args.quantile_seed is not None else args.seed + 1
    tune_feasibility(problem, n_samples=args.samples, quantile_seed=quantile_seed)
    blob = serialize(problem)
    Path(args.out).write_bytes(blob)
    print(hashlib.sha256(blob).hexdigest())
    return EXIT_OK


def cmd_tune(args) -> int:
    problem = _load_problem(args.problem)
    if args.alpha_t is not None:
        problem.config = dataclasses.replace(problem.config, feasibility_level=args.alpha_t)
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    quantile_seed = (
        args.quantile_seed if args.quantile_seed is not None else problem.config.seed + 1
    )
    t = tune_feasibility(problem, n_samples=args.samples, quantile_seed=quantile_seed)
    out = args.out if args.out else args.problem
    blob = serialize(problem)
    Path(out).write_bytes(blob)
    print(json.dumps({"t": t, "digest": hashlib.sha256(blob).hexdigest()}))
    return EXIT_OK


def cmd_solve_ref(args) -> int:
    problem = _load_problem(args.problem)
    qp = _reduce_reference(problem, args.statistic, args.kappa, args.epsilon, args.sigma)
    solution = solve_qp(qp)
    _write_json(_record(solution), args.out)
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    if solution.status != "optimal":
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_solve_mdf(args) -> int:
    problem = _load_problem(args.problem)
    kind, m = parse_estimator(args.estimator)
    spec = _statistic_spec(args.statistic, args.kappa)
    settings = OptimizerSettings(max_iter=args.max_iter)
    evaluator = RobustEvaluator(
        assemble(problem),
        problem.t,
        _sigma_model(problem, args.sigma),
        spec,
        kind,
        m=m,
        seed=args.seed,
    )
    _write_json(_record(optimize(evaluator, settings)), args.out)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    problem = _load_problem(args.problem)
    report = run_benchmark(
        problem,
        tuple(part.strip() for part in args.estimators.split(",") if part.strip()),
        repetitions=args.repetitions,
        spec=_statistic_spec(args.statistic, args.kappa),
        sigma=_sigma_model(problem, args.sigma),
        optimizer=OptimizerSettings(max_iter=args.max_iter),
        base_seed=args.seed,
        workers=args.workers,
    )
    for summary in report.estimators:
        print(
            f"{summary.estimator}: dx={summary.mean_dx_pct:.4f}% "
            f"df={summary.mean_df_pct:.4f}% dg={summary.mean_dg_pct:.4f}% "
            f"(runs={summary.repetitions})"
        )
    for failure in report.failures:
        print(
            f"failed: {failure['estimator']} rep {failure['rep']}: {failure['error']}",
            file=sys.stderr,
        )
    if args.out:
        json_path, csv_path = write_report(report, args.out)
        print(f"wrote {json_path} and {csv_path}")
    else:
        sys.stdout.write(report_to_json(report).decode("ascii"))
    return EXIT_OK


def cmd_export_qp(args) -> int:
    problem = _load_problem(args.problem)
    qp = _reduce_reference(problem, args.statistic, args.kappa, args.epsilon, args.sigma)
    Path(args.out).write_bytes(export_qp(qp))
    print(args.out)
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def _add_sigma_flag(parser) -> None:
    parser.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="isotropic noise standard deviation (overrides the model stored on the file)",
    )


def _add_statistic_flags(parser, choices, default) -> None:
    parser.add_argument("--statistic", choices=choices, default=default)
    parser.add_argument("--kappa", type=float, default=2.0, help="margin width in standard deviations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umdo-bench",
        description="Generate, solve and benchmark scalable robust-MDO problems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a problem, tune its threshold, write it to a file")
    p.add_argument("--disciplines", type=int, required=True)
    p.add_argument("--shared", type=int, required=True, help="number of shared design variables")
    p.add_argument("--local", type=_int_list, required=True, help="local design variables per discipline, e.g. 2,2")
    p.add_argument("--coupling", type=_int_list, required=True, help="coupling outputs per discipline, e.g. 3,3")
    p.add_argument("--coupling-strength", type=float, default=0.5)
    p.add_argument("--alpha-t", type=float, default=0.5, help="target feasible fraction of the design space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000, help="sample count for threshold tuning")
    p.add_argument("--quantile-seed", type=int, default=None, help="tuning sample seed (default: seed + 1)")
    _add_sigma_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tune", help="retune the constraint threshold of a problem file")
    p.add_argument("problem")
    p.add_argument("--alpha-t", type=float, default=None, help="new target feasible fraction (default: keep)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--quantile-seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (default: rewrite in place)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("solve-ref", help="solve the reduced reference QP")
    p.add_argument("problem")
    _add_statistic_flags(p, ("none", "margin", "probability"), "none")
    p.add_argument("--epsilon", type=float, default=None, help="constraint satisfaction probability")
    _add_sigma_flag(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve_ref)

    p = sub.add_parser("solve-mdf", help="run the statistic-wrapped optimizer once")
    p.add_argument("problem")
    p.add_argument("--estimator", default="mc:200", help="exact | taylor | mc:M")
    _add_statistic_flags(p, ("none", "margin"), "margin")
    _add_sigma_flag(p)
    p.add_argument("--seed", type=int, default=1000, help="sampler seed")
    p.add_argument("--max-iter", type=int, default=100, help="optimizer iteration budget")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve_mdf)

    p = sub.add_parser("benchmark", help="score estimators against the reference QP")
    p.add_argument("problem")
    p.add_argument("--estimators", default="mc:200,taylor", help="comma-separated labels, e.g. mc:200,taylor")
    p.add_argument("--repetitions", type=int, default=20)
    _add_statistic_flags(p, ("none", "margin"), "margin")
    _add_sigma_flag(p)
    p.add_argument("--seed", type=int, default=1000, help="base sampler seed; repetition r uses seed + r")
    p.add_argument("--max-iter", type=int, default=100, help="optimizer iteration budget")
    p.add_argument("--workers", type=int, default=1, help="process pool size")
    p.add_argument("--out", default=None, help="report base path; writes <base>.json and <base>.csv")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("export-qp", help="write the reduced QP to a JSON file")
    p.add_argument("problem")
    _add_statistic_flags(p, ("none", "margin", "probability"), "none")
    p.add_argument("--epsilon", type=float, default=None)
    _add_sigma_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_qp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # an argument the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UmdoBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
