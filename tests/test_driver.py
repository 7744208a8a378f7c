"""Tests for the statistic-wrapped optimization driver."""

import re

import numpy as np
import pytest

from umdobench import (
    BlockSystem,
    NumericalError,
    ProblemConfig,
    UncertaintyModel,
    UndefinedMetricError,
    assemble,
    default_benchmark_problem,
    generate,
    tune_feasibility,
)
from umdobench.driver import (
    _G_TOL,
    OptimizerSettings,
    RobustEvaluator,
    optimize,
    parse_estimator,
    percent_errors,
)
from umdobench.mda import MDASettings, solve_mda
from umdobench.qp import QPSolution, reduce_deterministic, reduce_margin, solve_qp
from umdobench.uq import GaussianSampler, StatisticSpec, exact_stats
from conftest import non_contracting_copy


def tuned_problem(seed=0, std=0.01):
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)
    problem = generate(config)
    tune_feasibility(problem, quantile_seed=seed + 1)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, std)
    return problem


MARGIN = StatisticSpec(constraint_stat="margin", kappa=2.0)

# Ids read kind-M; the deterministic kinds, which draw no sample, show the
# default M of 200.
LABELS = ["exact", "taylor", "mc:50"]
LABEL_IDS = ["exact-200", "taylor-200", "mc-50"]


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(max_iter=0)


def test_evaluator_argument_validation():
    problem = tuned_problem()
    system, t = assemble(problem), problem.t
    # A label parse_estimator refuses raises its ValueError, message and all.
    for bad in ("simplex", "newton", "bogus", "mc:1", "mc:abc", "mc:２０", "mc:2_0", "taylor:5"):
        with pytest.raises(ValueError) as parsed:
            parse_estimator(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(parsed.value))}$"):
            RobustEvaluator(system, t, problem.uncertainty, MARGIN, bad)
    # Probability-constrained runs are reference-only: no spec carries them.
    with pytest.raises(ValueError):
        StatisticSpec(constraint_stat="probability")
    # The noise must be a model laid out like the problem's (3, 3) coupling.
    for sigma in (
        UncertaintyModel.isotropic((2, 4), 0.01),
        UncertaintyModel.isotropic((4, 4), 0.01),
        problem.uncertainty.sigma,
    ):
        for estimator in ("exact", "taylor", "mc"):
            with pytest.raises(ValueError, match="p_coupling"):
                RobustEvaluator(system, t, sigma, MARGIN, estimator)


def test_exact_functions_reduce_to_deterministic_qp():
    problem = tuned_problem(1)
    system = assemble(problem)
    qp = reduce_deterministic(system, problem.t)
    evaluator = RobustEvaluator(system, problem.t, None, MARGIN, "exact")
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
        system, problem.t, problem.uncertainty, MARGIN, "taylor",
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
    evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, MARGIN, "taylor")
    std = np.sqrt(np.diag(P @ sigma @ P.T))
    x = np.full(system.d, 0.5)
    expected = (problem.t - alpha - beta @ x) + 2.0 * std
    assert np.max(np.abs(evaluator.constraints(x) - expected)) <= 1e-4 * (1 + np.abs(expected).max())


def test_taylor_std_is_computed_once_at_construction(monkeypatch):
    # The exact and Taylor noise constants do not depend on x: one
    # output_variance call per evaluator, none per design point.
    calls = []
    original = BlockSystem.output_variance

    def counted(self, sigma):
        calls.append(1)
        return original(self, sigma)

    monkeypatch.setattr(BlockSystem, "output_variance", counted)
    problem = tuned_problem(2)
    rng = np.random.default_rng(5)
    for estimator in ("taylor", "exact"):
        calls.clear()
        evaluator = RobustEvaluator(
            assemble(problem), problem.t, problem.uncertainty, MARGIN, estimator
        )
        assert len(calls) == 1
        for _ in range(4):
            evaluator.constraints(rng.random(problem.config.d))
        assert evaluator.n_point_evals == 4
        assert len(calls) == 1


def test_only_mc_evaluators_sample(monkeypatch):
    # Taylor and exact build no sampler. An mc run draws its sample once, at
    # construction, and reuses it at every design point SLSQP evaluates.
    import umdobench.driver as driver
    from umdobench.uq import mc_estimate

    built, draws = [], []

    class CountedSampler(GaussianSampler):
        def __init__(self, model):
            built.append(1)
            super().__init__(model)

        def draw(self, m, seed):
            draws.append((m, seed))
            return super().draw(m, seed)

    monkeypatch.setattr(driver, "GaussianSampler", CountedSampler)
    problem = tuned_problem(3)
    system, t = assemble(problem), problem.t
    for estimator in ("taylor", "exact"):
        optimize(RobustEvaluator(system, t, problem.uncertainty, MARGIN, estimator))
        assert not built

    evaluator = RobustEvaluator(
        system, t, problem.uncertainty, MARGIN, "mc:50", seed=4,
        mda_settings=MDASettings(method="direct"),
    )
    assert draws == [(50, 4)]
    optimize(evaluator, OptimizerSettings(max_iter=20))
    assert evaluator.n_point_evals > 2
    assert draws == [(50, 4)]

    U = GaussianSampler(problem.uncertainty).draw(50, 4)
    for x in (np.full(system.d, 0.3), np.full(system.d, 0.7)):
        Y = solve_mda(system, x, U, MDASettings(method="direct")).y
        est = mc_estimate(np.column_stack([[x[0] ** 2 + y @ y for y in Y], t - Y]))
        f, g = evaluator.evaluate(x)
        assert f == est.mean[0]
        assert np.array_equal(g, est.mean[1:] + 2.0 * est.std[1:])


def test_exact_evaluator_is_bitwise_exact_stats():
    # The exact estimator shares the Taylor branch but must give the oracle's
    # objective mean and composed constraints to the last bit.
    problem = tuned_problem(6)
    system = assemble(problem)
    rng = np.random.default_rng(6)
    points = [rng.random(system.d) for _ in range(5)]
    for sigma in (problem.uncertainty, None):
        sigma_matrix = np.zeros((system.p, system.p)) if sigma is None else sigma.sigma
        for spec in (MARGIN, StatisticSpec(constraint_stat="expectation")):
            evaluator = RobustEvaluator(system, problem.t, sigma, spec, "exact")
            for x in points:
                f, g = evaluator.evaluate(x)
                stats = exact_stats(system, problem.t, sigma_matrix, x, spec)
                assert f == stats.objective.value[0]
                assert np.array_equal(g, stats.constraints.value)


@pytest.mark.parametrize("estimator", LABELS, ids=LABEL_IDS)
def test_expectation_is_the_margin_at_kappa_zero(estimator):
    problem = tuned_problem(7)
    system = assemble(problem)
    specs = (
        StatisticSpec(constraint_stat="expectation"),
        StatisticSpec(constraint_stat="margin", kappa=0.0),
    )
    expectation, margin = (
        RobustEvaluator(system, problem.t, problem.uncertainty, spec, estimator, seed=3)
        for spec in specs
    )
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.random(system.d)
        f_e, g_e = expectation.evaluate(x)
        f_m, g_m = margin.evaluate(x)
        assert f_e == f_m
        assert np.array_equal(g_e, g_m)


DIRECT = MDASettings(method="direct")


@pytest.mark.parametrize("spec", [MARGIN, StatisticSpec(constraint_stat="expectation")])
@pytest.mark.parametrize("estimator", LABELS, ids=LABEL_IDS)
def test_gradient_matches_central_differences(estimator, spec):
    # With a direct coupling solve every statistic is exactly quadratic
    # (objective) or affine (constraints) in x, so central differences are
    # exact up to rounding.
    problem = tuned_problem(8)
    system = assemble(problem)
    evaluator = RobustEvaluator(
        system, problem.t, problem.uncertainty, spec, estimator, seed=9, mda_settings=DIRECT
    )
    rng = np.random.default_rng(8)
    h = 1e-4
    for _ in range(5):
        x = rng.random(system.d)
        grad_f, jac_g = evaluator.gradient(x)
        assert grad_f.shape == (system.d,) and jac_g.shape == (system.p, system.d)
        fd_f = np.empty(system.d)
        fd_g = np.empty((system.p, system.d))
        for i in range(system.d):
            step = np.zeros(system.d)
            step[i] = h
            f_plus, g_plus = evaluator.evaluate(x + step)
            f_minus, g_minus = evaluator.evaluate(x - step)
            fd_f[i] = (f_plus - f_minus) / (2 * h)
            fd_g[:, i] = (g_plus - g_minus) / (2 * h)
        assert np.linalg.norm(grad_f - fd_f) <= 1e-6 * np.linalg.norm(fd_f)
        assert np.linalg.norm(jac_g - fd_g) <= 1e-6 * np.linalg.norm(fd_g)


@pytest.mark.parametrize("estimator", ["exact", "taylor", pytest.param("mc:20", id="mc")])
def test_gradient_reuses_the_cached_evaluation(estimator):
    problem = tuned_problem(9)
    evaluator = RobustEvaluator(
        assemble(problem), problem.t, problem.uncertainty, MARGIN, estimator, seed=1
    )
    x = np.full(evaluator.system.d, 0.4)
    evaluator.evaluate(x)
    points, sweeps = evaluator.n_point_evals, evaluator.n_discipline_evals
    evaluator.gradient(x)
    evaluator.gradient(x)
    assert evaluator.n_point_evals == points
    assert evaluator.n_discipline_evals == sweeps


def test_mc_functions_near_exact_at_midpoint():
    problem = tuned_problem(3)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    x = np.full(system.d, 0.5)
    exact = exact_stats(system, problem.t, sigma, x, MARGIN)
    m = 200
    evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, MARGIN, f"mc:{m}", seed=7)
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
        assemble(problem), problem.t, problem.uncertainty, MARGIN, "mc:50", seed=0,
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
    system = assemble(problem)
    results = []
    for _ in range(2):
        evaluator = RobustEvaluator(
            system, problem.t, problem.uncertainty, MARGIN, "mc:100", seed=11
        )
        results.append(optimize(evaluator, OptimizerSettings()))
    a, b = results
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt
    assert a.n_discipline_evals == b.n_discipline_evals
    assert a.n_optimizer_iters == b.n_optimizer_iters


@pytest.mark.parametrize("estimator", ["taylor", pytest.param("mc:20", id="mc")])
def test_evaluation_does_not_depend_on_earlier_points(estimator):
    # With the default (warm-started Jacobi) coupling solver, the statistics
    # at a point must not depend on which points were evaluated before it;
    # otherwise the optimizer sees path-dependent noise.
    problem = tuned_problem(70)
    system = assemble(problem)
    x_a = np.full(system.d, 0.2)
    x_b = np.full(system.d, 0.8)

    def evaluator():
        return RobustEvaluator(system, problem.t, problem.uncertainty, MARGIN, estimator, seed=3)

    f_fresh, g_fresh = evaluator().evaluate(x_b)
    after_a = evaluator()
    after_a.evaluate(x_a)
    f_after, g_after = after_a.evaluate(x_b)
    assert f_after == f_fresh
    assert np.array_equal(g_after, g_fresh)


def line_evaluator(a, D, t):
    """Noise-free exact evaluator of one shared design variable x and one
    coupling output y = a - D x: objective x^2 + y^2, constraint t - y <= 0."""
    system = BlockSystem(C=[[1.0]], D=[[D]], a=[a], p_coupling=(1,), d_shared=1)
    return RobustEvaluator(system, t, None, MARGIN, "exact")


def test_optimize_unconstrained_quadratic():
    # y = 0.6 - x: the objective x^2 + (0.6 - x)^2 is least at x = 0.3, away
    # from the start at 0.5, and the constraint y >= -1 holds on the whole box.
    result = optimize(line_evaluator(0.6, 1.0, -1.0))
    assert result.converged
    assert abs(result.x_opt[0] - 0.3) <= 1e-4


def test_optimize_active_constraint():
    # y = x: minimize 2 x^2 subject to 0.7 - x <= 0, from the infeasible
    # start x = 0.5.
    result = optimize(line_evaluator(0.0, -1.0, 0.7))
    assert result.converged
    assert abs(result.x_opt[0] - 0.7) <= 1e-4
    assert np.all(result.g_opt <= _G_TOL)


def test_optimize_reports_infeasible_problems():
    # y = x: constraint x >= 2 cannot hold inside the unit box.
    result = optimize(line_evaluator(0.0, -1.0, 2.0))
    assert not result.converged
    assert result.g_opt[0] > 0
    assert isinstance(result.message, str) and result.message


def test_exact_estimator_lands_on_qp_reference():
    # Benchmark protocol instances: SLSQP on the exact gradients reaches the
    # reference within the default iteration budget.
    for seed in (70, 82):
        problem = tuned_problem(seed)
        system = assemble(problem)
        ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
        assert ref.status == "optimal"
        evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, MARGIN, "exact")
        run = optimize(evaluator, OptimizerSettings())
        dx, df, dg = percent_errors(run, ref)
        assert dx <= 0.1
        assert df <= 0.1


@pytest.mark.parametrize("estimator,bound", [("exact", 0.01), ("taylor", 0.05)])
def test_deterministic_estimators_reach_reference_across_seeds(estimator, bound):
    # The problem family, not one seed: dx in percent of |x*| on seeds 60-79.
    for seed in range(60, 80):
        problem = default_benchmark_problem(seed=seed)
        system = assemble(problem)
        ref = solve_qp(reduce_margin(system, problem.t, problem.uncertainty.sigma, 2.0))
        evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, MARGIN, estimator)
        run = optimize(evaluator, OptimizerSettings())
        assert run.converged, (seed, run.message)
        dx, _, _ = percent_errors(run, ref)
        assert dx <= bound, seed


def test_objective_nondecreasing_in_kappa():
    problem = tuned_problem(70)
    system = assemble(problem)
    settings = OptimizerSettings(max_iter=400)
    f_values = []
    for kappa in (0.0, 1.0, 2.0):
        spec = StatisticSpec(constraint_stat="margin", kappa=kappa)
        evaluator = RobustEvaluator(system, problem.t, problem.uncertainty, spec, "exact")
        run = optimize(evaluator, settings)
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
    system = assemble(problem)
    mda = MDASettings(method="jacobi", tol=1e-4)
    evaluator = RobustEvaluator(
        system, problem.t, problem.uncertainty, MARGIN, "mc:20", seed=0, mda_settings=mda
    )
    x = np.full(system.d, 0.5)
    evaluator.objective(x)
    # A design point costs the sweeps of the mean-noise solve plus those of
    # the block solve of all realizations, started from its solution.
    center = solve_mda(system, x, settings=mda)
    U = GaussianSampler(problem.uncertainty).draw(20, 0)
    block = solve_mda(system, x, U, mda, y0=center.y)
    assert evaluator.n_point_evals == 1
    assert center.iterations >= 2
    assert np.all(block.row_iterations >= 2)
    assert evaluator.n_discipline_evals == center.iterations + block.iterations
    assert evaluator.n_failed_samples == 0


def strength_problem(strength, seed):
    config = ProblemConfig(2, 1, (2, 2), (3, 3), coupling_strength=strength, seed=seed)
    problem = generate(config)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, 0.01)
    tune_feasibility(problem, quantile_seed=seed + 1)
    return problem


@pytest.mark.parametrize("estimator", ["taylor", pytest.param("mc:200", id="mc")])
def test_unconverged_coupling_solves_make_an_unconverged_run(estimator):
    # At coupling strength 0.9 a Jacobi solve on this instance needs about 57
    # sweeps, which the derived budget grants. On a copy with
    # ||B||_inf >= 1 the 30-sweep floor stops every Taylor solve and drops MC
    # realizations, and SLSQP still reports success on those values.
    problem = strength_problem(0.9, 70)
    for target, converged in ((problem, True), (non_contracting_copy(problem), False)):
        evaluator = RobustEvaluator(
            assemble(target), target.t, target.uncertainty, MARGIN, estimator, seed=1000
        )
        run = optimize(evaluator)
        assert evaluator.point_converged is converged
        assert run.converged is converged
        if estimator == "mc:200":
            assert (evaluator.n_failed_samples == 0) is converged


def test_unconverged_centre_solve_makes_the_point_unconverged():
    # On this copy with ||B||_inf >= 1 the mean-noise solve stops at the
    # 30-sweep floor, unconverged, yet every realization started from it
    # converges, so no sample is dropped: the point still did not converge.
    target = non_contracting_copy(strength_problem(0.8, 70))
    system = assemble(target)
    assert system.iteration_norm >= 1.0
    evaluator = RobustEvaluator(
        system, target.t, target.uncertainty, MARGIN, "mc:200", seed=1000
    )
    x = np.full(system.d, 0.5)
    evaluator.evaluate(x)
    center = solve_mda(system, x)
    assert not center.converged and center.iterations == 30
    assert evaluator.n_failed_samples == 0
    assert evaluator.point_converged is False


@pytest.mark.parametrize("strength", [0.5, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("seed", [60, 70, 71])
@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_default_budget_converges_across_coupling_strengths(method, seed, strength):
    # Generation bounds ||B||_inf by the coupling strength, and the derived
    # budget lets every solve converge at the default tol, one realization
    # (a vector) or all of an MC point's (a block) alike, so no sample is
    # dropped. Convergence is checked on the residuals too, not only on the
    # flags.
    problem = strength_problem(strength, seed)
    system = assemble(problem)
    assert system.iteration_norm <= strength + 1e-12
    settings = MDASettings(method)
    U = GaussianSampler(problem.uncertainty).draw(200, 1000)

    def residuals(system, x, Y, U):
        B = system.iteration_matrix
        return np.linalg.norm(Y - (system.a - system.D @ x + U + Y @ B.T), axis=-1)

    for x in (np.zeros(system.d), np.full(system.d, 0.5), np.ones(system.d)):
        one = solve_mda(system, x, settings=settings)
        assert one.converged and residuals(system, x, one.y, 0.0) <= 1.01 * settings.tol
        block = solve_mda(system, x, U, settings, y0=one.y)
        assert block.converged and residuals(system, x, block.y, U).max() <= 1.01 * settings.tol
    evaluator = RobustEvaluator(
        system, problem.t, problem.uncertainty, MARGIN, "mc:200", seed=1000,
        mda_settings=settings,
    )
    evaluator.evaluate(x)
    assert evaluator.point_converged and evaluator.n_failed_samples == 0

    # A run whose solves did not converge never reads as converged. On a
    # copy with ||B||_inf >= 1 the 30-sweep floor stops the solves that need
    # more, at high strength the mean-noise solve among them: the Taylor
    # point is then unconverged, and an MC point drops and counts exactly
    # the realizations whose own solve did not converge (raising when fewer
    # than two are left).
    floor_bound = assemble(non_contracting_copy(problem))
    center = solve_mda(floor_bound, x, settings=settings)
    rows = solve_mda(floor_bound, x, U, settings, y0=center.y)
    unconverged = int((~rows.row_converged).sum())
    for estimator in ("taylor", "mc:200"):
        evaluator = RobustEvaluator(
            floor_bound, problem.t, problem.uncertainty, MARGIN, estimator, seed=1000,
            mda_settings=settings,
        )
        if estimator == "taylor":
            evaluator.evaluate(x)
            assert evaluator.point_converged is center.converged
        elif unconverged > 198:
            with pytest.raises(NumericalError, match="realizations converged"):
                evaluator.evaluate(x)
        else:
            evaluator.evaluate(x)
            assert evaluator.n_failed_samples == unconverged
            assert evaluator.point_converged is (center.converged and unconverged == 0)
