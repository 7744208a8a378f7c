"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the measured
quantities so the suite output doubles as a scorecard.
"""

import time

import numpy as np
import pytest
import scipy.stats

from umdobench.bench import default_benchmark_problem, run_benchmark
from umdobench.driver import OptimizerSettings, RobustEvaluator, optimize, percent_errors
from umdobench.mda import MDASettings, solve_mda
from umdobench.problem import ProblemConfig, assemble, generate, tune_feasibility
from umdobench.qp import (
    check_positive_definite,
    reduce_deterministic,
    reduce_margin,
    reduce_probability,
    solve_qp,
)
from umdobench.uq import GaussianSampler, StatisticSpec, exact_stats, mc_estimate
from conftest import rank_deficient_system


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def two_discipline_config(seed: int, **overrides) -> ProblemConfig:
    kwargs = dict(n_disciplines=2, d_shared=1, d_local=(2, 2), p_coupling=(3, 3), seed=seed)
    kwargs.update(overrides)
    return ProblemConfig(**kwargs)


def test_criterion_1_reduction_equivalence():
    direct = MDASettings(method="direct")
    worst = 0.0
    for seed in range(20):
        problem = generate(two_discipline_config(seed))
        tune_feasibility(problem, quantile_seed=seed + 1)
        system = assemble(problem)
        qp = reduce_deterministic(system, problem.t)
        rng = np.random.default_rng(9000 + seed)
        for _ in range(20):
            x = rng.random(system.d)
            y = solve_mda(system, x, settings=direct).y
            x0 = x[: system.d_shared]
            f_direct = float(x0 @ x0 + y @ y)
            g_direct = problem.t - y
            f_gap = abs(qp.objective(x) - f_direct) / max(1.0, abs(f_direct))
            g_gap = np.max(
                np.abs(qp.constraints(x) - g_direct) / np.maximum(1.0, np.abs(g_direct))
            )
            worst = max(worst, f_gap, float(g_gap))
    _report(1, "reduction equivalence", worst <= 1e-10, f"max relative gap {worst:.2e}")


def test_criterion_2_reduced_hessian_positive_definite():
    n_definite = 0
    lam_worst = np.inf
    for seed in range(100):
        system = assemble(generate(two_discipline_config(seed)))
        definite, lam_min = check_positive_definite(reduce_deterministic(system, 0.0))
        n_definite += bool(definite)
        lam_worst = min(lam_worst, lam_min)
    # One output against two local variables per discipline: refused as a
    # config, and singular when built by hand.
    with pytest.raises(ValueError, match="below d_local"):
        two_discipline_config(0, p_coupling=(1, 1))
    degenerate = rank_deficient_system(seed=0)
    deg_definite, deg_lam = check_positive_definite(reduce_deterministic(degenerate, 0.0))
    ok = n_definite == 100 and not deg_definite and abs(deg_lam) <= 1e-10
    _report(
        2,
        "positive definite reduced quadratic",
        ok,
        f"{n_definite}/100 definite, min eigenvalue {lam_worst:.2e}, "
        f"degenerate min eigenvalue {deg_lam:.2e}",
    )


def test_criterion_3_feasibility_tuning():
    worst_dev = 0.0
    for seed in (0, 7, 70):
        problem = generate(two_discipline_config(seed))
        tune_feasibility(problem, quantile_seed=seed + 1)
        system = assemble(problem)
        alpha, beta, _ = system.linear_map
        rng = np.random.default_rng(123456 + seed)
        X = rng.random((10_000, system.d))
        freq = float(np.mean((alpha[None, :] + X @ beta.T).min(axis=1) >= problem.t))
        worst_dev = max(worst_dev, abs(freq - 0.5))
    _report(3, "feasibility tuning", worst_dev <= 0.02, f"max |frequency - 0.5| = {worst_dev:.4f}")


def test_criterion_4_margin_probability_reductions():
    problem = default_benchmark_problem(seed=70)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    kappa = 2.0

    qp_margin = reduce_margin(system, problem.t, sigma, kappa)
    epsilon = float(scipy.stats.norm.cdf(-kappa))
    qp_prob = reduce_probability(system, problem.t, epsilon, sigma=sigma)
    consistency = max(
        float(np.max(np.abs(qp_margin.b - qp_prob.b))),
        abs(qp_margin.d0 - qp_prob.d0),
        float(np.max(np.abs(qp_margin.Q - qp_prob.Q))),
        float(np.max(np.abs(qp_margin.c - qp_prob.c))),
    )

    alpha, beta, P = system.linear_map
    tau = np.sqrt(np.maximum(np.diag(P @ sigma @ P.T), 0.0))
    m = 100_000
    noise = GaussianSampler(problem.uncertainty).draw(m, seed=2024) @ P.T
    # Composite mean + kappa*std estimator: Var ~ tau^2 (1 + kappa^2/2) / m.
    se = np.maximum(tau * np.sqrt((1.0 + kappa ** 2 / 2.0) / m), 1e-300)
    rng = np.random.default_rng(77)
    worst_sigmas = 0.0
    for _ in range(3):
        x = rng.random(system.d)
        g_samples = problem.t - (alpha + beta @ x)[None, :] - noise
        mc_margin = g_samples.mean(axis=0) + kappa * g_samples.std(axis=0, ddof=1)
        gap = np.abs(mc_margin - qp_margin.constraints(x)) / se
        worst_sigmas = max(worst_sigmas, float(np.max(gap)))

    ok = consistency <= 1e-12 and worst_sigmas <= 3.0
    _report(
        4,
        "margin/probability reductions",
        ok,
        f"gaussian consistency {consistency:.2e}, margin vs MC within {worst_sigmas:.2f} SE",
    )


def test_criterion_5_exact_pipeline_agreement():
    start = time.perf_counter()
    problem = default_benchmark_problem(seed=70)
    spec = StatisticSpec(constraint_stat="margin", kappa=2.0)
    system = assemble(problem)
    evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, spec, "exact")
    run = optimize(evaluator, OptimizerSettings())
    ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
    dx, df, dg = percent_errors(run, ref)
    elapsed = time.perf_counter() - start
    ok = dx <= 0.1 and df <= 0.1 and elapsed < 60.0
    _report(
        5,
        "exact-pipeline agreement",
        ok,
        f"dx={dx:.4f}% df={df:.4f}% dg={dg:.4f}% in {elapsed:.1f}s",
    )


def test_criterion_6_estimator_comparison_pattern():
    problem = default_benchmark_problem(seed=70)
    report = run_benchmark(
        problem,
        estimators=("mc:200", "taylor"),
        repetitions=20,
        base_seed=1000,
    )
    rows = {s.estimator: s for s in report.estimators}
    taylor = rows["taylor"]
    mc = rows["mc:200"]
    checks = [
        not report.failures,
        taylor.mean_dx_pct <= 0.5,
        taylor.mean_df_pct <= 0.1,
        taylor.mean_dg_pct <= 0.5,
        mc.repetitions == 20,
        mc.mean_dx_pct <= 2.0,
        mc.mean_df_pct <= 2.0,
        mc.mean_dg_pct <= 2.0,
        mc.std_dx_pct > 0.0,
        mc.std_df_pct > 0.0,
        mc.std_dg_pct > 0.0,
        taylor.mean_dx_pct < mc.mean_dx_pct,
        taylor.mean_df_pct < mc.mean_df_pct,
    ]
    detail = (
        f"taylor {taylor.mean_dx_pct:.3f}/{taylor.mean_df_pct:.3f}/"
        f"{taylor.mean_dg_pct:.3f}% vs "
        f"mc {mc.mean_dx_pct:.3f}({mc.std_dx_pct:.3f})/"
        f"{mc.mean_df_pct:.3f}({mc.std_df_pct:.3f})/"
        f"{mc.mean_dg_pct:.3f}({mc.std_dg_pct:.3f})%"
    )
    _report(6, "estimator comparison pattern", all(checks), detail)


def test_criterion_7_mc_convergence_rate():
    start = time.perf_counter()
    problem = default_benchmark_problem(seed=70)
    system = assemble(problem)
    sampler = GaussianSampler(problem.uncertainty)
    alpha, beta, P = system.linear_map
    x = np.full(system.d, 0.5)
    x0 = x[: system.d_shared]
    ybar = alpha + beta @ x

    def objective_sample(U):
        Y = ybar + U @ P.T
        return x0 @ x0 + np.sum(Y * Y, axis=1)

    truth = exact_stats(system, problem.t, problem.uncertainty.sigma, x).objective.mean[0]
    sizes = (100, 1_000, 10_000, 100_000)
    errors = []
    for m in sizes:
        gaps = [
            abs(mc_estimate(objective_sample(sampler.draw(m, 500 + s))).mean[0] - truth)
            for s in range(20)
        ]
        errors.append(float(np.mean(gaps)))
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    _report(7, "mc convergence rate", ok, f"slope {slope:.3f} in {elapsed:.1f}s")


def test_criterion_8_mda_correctness():
    worst_gap = 0.0
    worst_iters = 0
    decay_ok = True
    for seed in range(20):
        system = assemble(generate(two_discipline_config(seed)))
        x = np.random.default_rng(31 + seed).random(system.d)
        direct = solve_mda(system, x, settings=MDASettings(method="direct"))
        tight = solve_mda(system, x, settings=MDASettings(tol=1e-10))
        worst_gap = max(worst_gap, float(np.max(np.abs(tight.y - direct.y))))
        history = tight.residual_history
        decay_ok = decay_ok and all(
            history[k + 5] < history[k] for k in range(len(history) - 5)
        )
        default = solve_mda(system, x)
        worst_iters = max(worst_iters, default.iterations if default.converged else 999)
    ok = worst_gap <= 1e-8 and decay_ok and worst_iters <= 30
    _report(
        8,
        "mda correctness",
        ok,
        f"max |jacobi - direct| = {worst_gap:.2e}, geometric decay = {decay_ok}, "
        f"max default iterations = {worst_iters}",
    )
