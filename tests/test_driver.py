"""Tests for the statistic-wrapped optimization driver."""

import numpy as np
import pytest

from umdobench import (
    ProblemConfig,
    UncertaintyModel,
    UndefinedMetricError,
    assemble,
    generate,
    tune_feasibility,
)
from umdobench.driver import (
    OptimizerSettings,
    RobustEvaluator,
    optimize,
    percent_errors,
)
from umdobench.mda import MDASettings
from umdobench.qp import QPSolution, reduce_deterministic, reduce_margin, solve_qp
from umdobench.uq import StatisticSpec, exact_stats


def tuned_problem(seed=0, std=0.01):
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)
    problem = generate(config)
    tune_feasibility(problem, quantile_seed=seed + 1)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, std)
    return problem


MARGIN = StatisticSpec(constraint_stat="margin", kappa=2.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(g_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerSettings(initial_trust_radius=1e-8, final_trust_radius=0.5)
    with pytest.raises(ValueError):
        OptimizerSettings(max_iter=0)


def test_evaluator_argument_validation():
    problem = tuned_problem()
    with pytest.raises(ValueError):
        RobustEvaluator(problem, problem.uncertainty, MARGIN, "simplex")
    with pytest.raises(ValueError):
        RobustEvaluator(problem, problem.uncertainty, MARGIN, "mc", m=1)
    with pytest.raises(ValueError):
        RobustEvaluator(
            problem,
            problem.uncertainty,
            StatisticSpec(constraint_stat="probability", epsilon=0.05),
            "exact",
        )
    # Cross-discipline correlations in a full matrix are rejected.
    full = 0.01 * np.eye(6)
    full[0, 5] = full[5, 0] = 0.001
    with pytest.raises(ValueError):
        RobustEvaluator(problem, full, MARGIN, "exact")


def test_exact_functions_reduce_to_deterministic_qp():
    problem = tuned_problem(1)
    system = assemble(problem)
    qp = reduce_deterministic(system, problem.t)
    evaluator = RobustEvaluator(problem, None, MARGIN, "exact")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.random(system.d)
        assert evaluator.objective(x) == pytest.approx(qp.objective(x), rel=1e-12)
        assert np.allclose(evaluator.constraints(x), qp.constraints(x), atol=1e-12)


def test_taylor_margin_matches_closed_form():
    # An exact coupling solve isolates the estimator itself: the constraints
    # are linear in the noise, so the composed margin is analytic.
    problem = tuned_problem(2)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    alpha, beta, P = system.linear_map
    evaluator = RobustEvaluator(
        problem, problem.uncertainty, MARGIN, "taylor",
        mda_settings=MDASettings(method="direct"),
    )
    rng = np.random.default_rng(4)
    std = np.sqrt(np.diag(P @ sigma @ P.T))
    for _ in range(5):
        x = rng.random(system.d)
        expected = (problem.t - alpha - beta @ x) + 2.0 * std
        assert np.max(np.abs(evaluator.constraints(x) - expected)) <= 1e-10
        y = alpha + beta @ x
        assert evaluator.objective(x) == pytest.approx(x[0] ** 2 + y @ y, rel=1e-10)


def test_taylor_with_protocol_mda_stays_within_tolerance():
    # With the default fixed-point coupling solver the composed values track
    # the analytic ones at the solver tolerance.
    problem = tuned_problem(2)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    alpha, beta, P = system.linear_map
    evaluator = RobustEvaluator(problem, problem.uncertainty, MARGIN, "taylor")
    std = np.sqrt(np.diag(P @ sigma @ P.T))
    x = np.full(system.d, 0.5)
    expected = (problem.t - alpha - beta @ x) + 2.0 * std
    assert np.max(np.abs(evaluator.constraints(x) - expected)) <= 1e-4 * (1 + np.abs(expected).max())


def test_mc_functions_near_exact_at_midpoint():
    problem = tuned_problem(3)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    x = np.full(system.d, 0.5)
    exact = exact_stats(system, problem.t, sigma, x, MARGIN)
    m = 200
    evaluator = RobustEvaluator(problem, problem.uncertainty, MARGIN, "mc", m=m, seed=7)
    se_mean = 3.0 * exact.constraints.std / np.sqrt(m)
    # The margin adds kappa times the estimated std, whose own error is
    # about std/sqrt(2m); widen the band accordingly.
    band = se_mean + 2.0 * 3.0 * exact.constraints.std / np.sqrt(2 * m)
    assert np.all(np.abs(evaluator.constraints(x) - exact.constraints.value) <= band)
    se_obj = 3.0 * exact.objective.std[0] / np.sqrt(m)
    assert abs(evaluator.objective(x) - exact.objective.mean[0]) <= se_obj


def test_shared_cache_counts_one_evaluation_per_point():
    problem = tuned_problem(4)
    evaluator = RobustEvaluator(
        problem, problem.uncertainty, MARGIN, "mc", m=50, seed=0,
        mda_settings=MDASettings(method="direct"),
    )
    x = np.full(evaluator.system.d, 0.5)
    evaluator.objective(x)
    evaluator.constraints(x)
    assert evaluator.n_point_evals == 1
    assert evaluator.n_discipline_evals == 50  # direct solve: 1 sweep/sample
    evaluator.constraints(x + 0.1)
    assert evaluator.n_point_evals == 2


def test_mc_runs_are_deterministic_given_seed():
    problem = tuned_problem(5)
    results = []
    for _ in range(2):
        evaluator = RobustEvaluator(problem, problem.uncertainty, MARGIN, "mc", m=100, seed=11)
        results.append(optimize(evaluator.objective, evaluator.constraints, OptimizerSettings()))
    a, b = results
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt
    assert a.n_discipline_evals == b.n_discipline_evals
    assert a.n_optimizer_iters == b.n_optimizer_iters


@pytest.mark.parametrize("estimator", ["taylor", "mc"])
def test_evaluation_does_not_depend_on_earlier_points(estimator):
    # With the default (warm-started Jacobi) coupling solver, the statistics
    # at a point must not depend on which points were evaluated before it;
    # otherwise the optimizer sees path-dependent noise.
    problem = tuned_problem(70)
    d = assemble(problem).d
    x_a = np.full(d, 0.2)
    x_b = np.full(d, 0.8)

    def evaluator():
        return RobustEvaluator(problem, problem.uncertainty, MARGIN, estimator, m=20, seed=3)

    f_fresh, g_fresh = evaluator().evaluate(x_b)
    after_a = evaluator()
    after_a.evaluate(x_a)
    f_after, g_after = after_a.evaluate(x_b)
    assert f_after == f_fresh
    assert np.array_equal(g_after, g_fresh)


def test_optimize_unconstrained_quadratic():
    settings = OptimizerSettings(x0=np.array([0.9]))
    result = optimize(
        lambda x: (x[0] - 0.3) ** 2,
        lambda x: np.zeros(0),
        settings,
        dim=1,
    )
    assert result.converged
    assert abs(result.x_opt[0] - 0.3) <= 1e-4


def test_optimize_active_constraint():
    result = optimize(
        lambda x: x[0] ** 2,
        lambda x: np.array([0.5 - x[0]]),
        OptimizerSettings(x0=np.array([0.8])),
        dim=1,
    )
    assert result.converged
    assert abs(result.x_opt[0] - 0.5) <= 1e-4
    assert np.all(result.g_opt <= OptimizerSettings().g_tol)


def test_optimize_reports_infeasible_problems():
    # Constraint x >= 2 cannot hold inside the unit box.
    result = optimize(
        lambda x: x[0] ** 2,
        lambda x: np.array([2.0 - x[0]]),
        OptimizerSettings(x0=np.array([0.5])),
        dim=1,
    )
    assert not result.converged
    assert result.g_opt[0] > 0


def test_exact_estimator_lands_on_qp_reference():
    # Benchmark protocol instances: chosen so the default evaluation budget
    # suffices for the trust-region optimizer to converge.
    for seed in (70, 82):
        problem = tuned_problem(seed)
        system = assemble(problem)
        ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
        assert ref.status == "optimal"
        evaluator = RobustEvaluator(problem, problem.uncertainty, MARGIN, "exact")
        run = optimize(evaluator.objective, evaluator.constraints, OptimizerSettings())
        dx, df, dg = percent_errors(run, ref)
        assert dx <= 0.1
        assert df <= 0.1


def test_objective_nondecreasing_in_kappa():
    problem = tuned_problem(70)
    settings = OptimizerSettings(max_iter=400)
    f_values = []
    for kappa in (0.0, 1.0, 2.0):
        spec = StatisticSpec(constraint_stat="margin", kappa=kappa)
        evaluator = RobustEvaluator(problem, problem.uncertainty, spec, "exact")
        run = optimize(evaluator.objective, evaluator.constraints, settings)
        f_values.append(run.f_opt)
    assert f_values[1] >= f_values[0] - 2e-4
    assert f_values[2] >= f_values[1] - 2e-4


def test_percent_errors_contract():
    ref = QPSolution(
        x_star=np.array([1.0, 2.0]),
        f_star=2.0,
        g_star=np.array([-1.0]),
        kkt_residual=0.0,
        status="optimal",
    )
    run = RunResultStub(x_opt=ref.x_star.copy(), f_opt=2.0, g_opt=ref.g_star.copy())
    assert percent_errors(run, ref) == (0.0, 0.0, 0.0)

    scaled = RunResultStub(x_opt=1.01 * ref.x_star, f_opt=2.0, g_opt=ref.g_star.copy())
    dx, df, dg = percent_errors(scaled, ref)
    assert dx == pytest.approx(1.0, rel=1e-12)
    assert df == 0.0

    zero_ref = QPSolution(
        x_star=np.zeros(2),
        f_star=2.0,
        g_star=np.array([-1.0]),
        kkt_residual=0.0,
        status="optimal",
    )
    with pytest.raises(UndefinedMetricError):
        percent_errors(run, zero_ref)

    bad_ref = QPSolution(
        x_star=ref.x_star,
        f_star=2.0,
        g_star=ref.g_star,
        kkt_residual=1.0,
        status="max_iter",
    )
    with pytest.raises(ValueError):
        percent_errors(run, bad_ref)


class RunResultStub:
    def __init__(self, x_opt, f_opt, g_opt):
        self.x_opt = x_opt
        self.f_opt = f_opt
        self.g_opt = g_opt


def test_discipline_eval_accounting_with_iterative_mda():
    problem = tuned_problem(7)
    mda = MDASettings(method="jacobi", tol=1e-4, max_iter=30, warm_start=False)
    evaluator = RobustEvaluator(
        problem, problem.uncertainty, MARGIN, "mc", m=20, seed=0, mda_settings=mda
    )
    x = np.full(evaluator.system.d, 0.5)
    evaluator.objective(x)
    # Every realization runs one Jacobi solve with several sweeps each.
    assert evaluator.n_point_evals == 1
    assert evaluator.n_discipline_evals >= 20 * 2
    assert evaluator.n_failed_samples == 0
