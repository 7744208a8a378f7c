"""Tests for the Monte-Carlo, Taylor and closed-form estimators."""

import numpy as np
import pytest
import scipy.linalg

from umdobench import (
    NumericalError,
    ProblemConfig,
    UncertaintyModel,
    assemble,
    generate,
    tune_feasibility,
)
from umdobench.driver import RobustEvaluator
from umdobench.mda import MDASettings, solve_mda
from umdobench.qp import reduce_margin
from umdobench.uq import (
    ExactStats,
    GaussianSampler,
    StatEstimate,
    StatisticSpec,
    composed_value,
    exact_stats,
    mc_estimate,
)
from conftest import non_contracting_copy

DIRECT = MDASettings(method="direct")
EXPECTATION = StatisticSpec(constraint_stat="expectation")


def reference_problem(seed=0, std=0.01):
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)
    problem = generate(config)
    tune_feasibility(problem, quantile_seed=seed + 1)
    problem.uncertainty = UncertaintyModel.isotropic(config.p_coupling, std)
    return problem


def reference_setup(seed=0, std=0.01):
    problem = reference_problem(seed, std)
    model = problem.uncertainty
    return assemble(problem), problem.t, GaussianSampler(model), model.sigma


def taylor_evaluator(problem, spec):
    """The driver's first-order Taylor estimator with an exact coupling solve."""
    return RobustEvaluator(
        assemble(problem), problem.t, problem.uncertainty, spec, "taylor", mda_settings=DIRECT
    )


def scalar_sampler(std=1.0):
    return GaussianSampler(UncertaintyModel((np.array([[std ** 2]]),)))


# --- statistic specs and composition --------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        StatisticSpec(constraint_stat="worst_case")
    with pytest.raises(ValueError):
        StatisticSpec(constraint_stat="margin", kappa=float("inf"))
    # The chance constraint is reference-only (qp.reduce_probability).
    with pytest.raises(ValueError, match="constraint_stat"):
        StatisticSpec(constraint_stat="probability")
    with pytest.raises(ValueError, match="constraint_stat"):
        StatisticSpec(constraint_stat="probability", kappa=1.6448536269514722)
    # The expectation is the margin at kappa = 0, whatever kappa it was given.
    assert StatisticSpec(constraint_stat="expectation", kappa=5.0).kappa == 0.0
    assert StatisticSpec(constraint_stat="expectation", kappa=float("nan")).kappa == 0.0


def test_composed_value():
    mean, std = np.array([1.0, -1.0]), np.array([0.5, 2.0])
    assert np.array_equal(composed_value(mean, std, None), mean)
    exp_spec = StatisticSpec(constraint_stat="expectation")
    assert np.array_equal(composed_value(mean, std, exp_spec), mean)
    margin = StatisticSpec(constraint_stat="margin", kappa=2.0)
    assert np.array_equal(composed_value(mean, std, margin), mean + 2.0 * std)


def test_estimate_validation():
    with pytest.raises(ValueError):
        StatEstimate(mean=[0.0], std=[-1.0], value=[0.0])


# --- sampler ---------------------------------------------------------------------


def test_sampler_matches_block_covariance():
    blocks = (
        0.04 * np.eye(2),
        np.array([[0.09, 0.03], [0.03, 0.05]]),
    )
    sampler = GaussianSampler(UncertaintyModel(blocks))
    draws = sampler.draw(200_000, seed=1)
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - scipy.linalg.block_diag(*blocks))) < 5e-3
    # Cross-block entries vanish in expectation.
    assert np.max(np.abs(emp[:2, 2:])) < 5e-3


def test_sampler_semidefinite_block_and_determinism():
    sampler = GaussianSampler(UncertaintyModel((np.zeros((2, 2)), np.eye(1))))
    draws = sampler.draw(100, seed=3)
    assert np.all(draws[:, :2] == 0.0)
    assert np.array_equal(draws, sampler.draw(100, seed=3))
    assert not np.array_equal(draws, sampler.draw(100, seed=4))


def test_sampler_rejects_indefinite_block():
    # A sampler takes a validated model, so no indefinite block reaches it.
    with pytest.raises(ValueError, match="not positive semi-definite"):
        GaussianSampler(UncertaintyModel((np.array([[1.0, 2.0], [2.0, 1.0]]),)))


# --- Monte-Carlo -----------------------------------------------------------------


def test_mc_constant_function_has_zero_std():
    est = mc_estimate(np.tile([3.0, -1.0], (50, 1)))
    assert np.array_equal(est.mean, [3.0, -1.0])
    assert np.array_equal(est.std, [0.0, 0.0])
    assert np.array_equal(est.value, est.mean)
    assert est.n_failed == 0


def test_mc_standard_normal_moments():
    m = 100_000
    est = mc_estimate(scalar_sampler().draw(m, 7)[:, 0])
    assert abs(est.mean[0]) <= 3.0 / np.sqrt(m)
    assert abs(est.std[0] - 1.0) <= 0.02


def test_mc_within_standard_errors_of_exact_oracle():
    system, t, sampler, sigma = reference_setup(seed=2)
    x = np.full(system.d, 0.5)
    exact = exact_stats(system, t, sigma, x)

    m = 200
    est = mc_estimate(t - solve_mda(system, x, sampler.draw(m, 11), DIRECT).y)
    tol = 3.0 * exact.constraints.std / np.sqrt(m)
    assert np.all(np.abs(est.mean - exact.constraints.mean) <= tol)


def test_mc_excludes_failing_realizations():
    values = scalar_sampler().draw(400, 5)[:, 0]
    values[values > 0.5] = np.nan  # synthetic non-convergence
    est = mc_estimate(values)
    assert est.n_failed > 0
    assert np.all(est.mean <= 0.5)

    with pytest.raises(NumericalError):
        mc_estimate(np.full(10, np.nan))


def test_mc_failure_accounting_matches_per_row_solves():
    # On a system with ||B||_inf >= 1 every solve stops at the 30-sweep
    # floor, which at tol 1e-10 leaves some warm-started realizations
    # unconverged: the block evaluation must drop and count exactly the rows
    # that fail on their own, and estimate from exactly the rows that
    # converge.
    problem = reference_problem(seed=12, std=0.05)
    settings = MDASettings(method="jacobi", tol=1e-10)
    system, t = assemble(non_contracting_copy(problem)), problem.t
    evaluator = RobustEvaluator(
        system, t, problem.uncertainty, EXPECTATION, "mc:200", seed=3, mda_settings=settings
    )
    x = np.full(system.d, 0.5)
    f, g = evaluator.evaluate(x)

    center = solve_mda(system, x, settings=settings)
    rows = [
        solve_mda(system, x, u, settings, y0=center.y)
        for u in GaussianSampler(problem.uncertainty).draw(200, 3)
    ]
    kept = [row.y for row in rows if row.converged]
    n_failed = sum(not row.converged for row in rows)
    assert 2 <= len(kept) and n_failed > 0
    assert evaluator.n_failed_samples == n_failed
    assert evaluator.n_discipline_evals == center.iterations + sum(row.iterations for row in rows)
    x0 = x[: system.d_shared]
    values = np.vstack([np.concatenate([[x0 @ x0 + y @ y], t - y]) for y in kept])
    mean = values.mean(axis=0)
    assert f == mean[0]
    assert np.array_equal(g, mean[1:])

    starved = RobustEvaluator(
        system, t, problem.uncertainty, EXPECTATION, "mc:200", seed=3,
        mda_settings=MDASettings(method="jacobi", tol=1e-14),
    )
    with pytest.raises(NumericalError):
        starved.evaluate(x)


def test_mc_drops_rows_with_nan_in_any_column():
    u = scalar_sampler().draw(400, 5)[:, 0]
    values = np.column_stack([u, u])
    values[u > 0.5, 1] = np.nan
    est = mc_estimate(values)
    assert est.n_failed == np.count_nonzero(u > 0.5) > 0
    assert est.mean[0] == est.mean[1] <= 0.5


def test_mc_needs_two_converged_rows():
    values = np.full(10, np.nan)
    values[0] = 1.0
    with pytest.raises(NumericalError):
        mc_estimate(values)


def test_mc_margin_composition():
    # The mc evaluator's margin is mc_estimate's mean + 2 std over the same draws.
    problem = reference_problem(seed=3)
    system, t = assemble(problem), problem.t
    sampler = GaussianSampler(problem.uncertainty)
    spec = StatisticSpec(constraint_stat="margin", kappa=2.0)
    x = np.full(system.d, 0.4)

    est = mc_estimate(t - solve_mda(system, x, sampler.draw(100, 2), DIRECT).y)
    evaluator = RobustEvaluator(
        system, t, problem.uncertainty, spec, "mc:100", seed=2, mda_settings=DIRECT
    )
    assert np.array_equal(evaluator.constraints(x), est.mean + 2.0 * est.std)


# --- Taylor (the driver's "taylor" estimator) -----------------------------------


def test_taylor_constraint_std_matches_closed_form():
    problem = reference_problem(seed=4)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    _, _, P = system.linear_map
    x = np.full(system.d, 0.6)

    margin = taylor_evaluator(problem, StatisticSpec(constraint_stat="margin", kappa=1.0))
    mean = taylor_evaluator(problem, EXPECTATION)
    std = margin.constraints(x) - mean.constraints(x)
    expected = np.sqrt(np.diag(P @ sigma @ P.T))
    assert np.max(np.abs(std - expected)) <= 1e-12


def test_taylor_objective_misses_quadratic_shift():
    problem = reference_problem(seed=5)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    _, _, P = system.linear_map
    x = np.full(system.d, 0.5)

    taylor = taylor_evaluator(problem, EXPECTATION)
    exact = exact_stats(system, problem.t, sigma, x)
    shift = float(np.trace(P.T @ P @ sigma))
    assert shift == pytest.approx(float(system.output_variance(sigma).sum()), rel=1e-12)
    gap = exact.objective.mean[0] - taylor.objective(x)
    assert gap == pytest.approx(shift, rel=1e-10)


# --- closed forms ----------------------------------------------------------------


def test_exact_stats_zero_noise_is_deterministic():
    system, t, _, _ = reference_setup(seed=6)
    x = np.full(system.d, 0.5)
    stats = exact_stats(system, t, np.zeros((system.p, system.p)), x)
    y = solve_mda(system, x, settings=MDASettings(method="direct")).y
    assert stats.objective.mean[0] == pytest.approx(x[0] ** 2 + y @ y, rel=1e-12)
    assert stats.objective.std[0] == 0.0
    assert np.allclose(stats.constraints.mean, t - y, atol=1e-12)
    assert np.array_equal(stats.constraints.std, np.zeros(system.p))


def test_exact_stats_isotropic_decoupled_case():
    # With identity coupling the propagation matrix is the identity: the
    # constraint std is sigma on every component and the objective shifts by
    # p sigma^2.
    from umdobench import BlockSystem

    p, std = 3, 0.05
    rng = np.random.default_rng(1)
    system = BlockSystem(
        C=np.eye(p),
        D=rng.random((p, 2)),
        a=rng.random(p),
        p_coupling=(p,),
        d_shared=1,
    )
    x = np.array([0.3, 0.7])
    sigma = std ** 2 * np.eye(p)
    stats = exact_stats(system, 0.0, sigma, x)
    no_noise = exact_stats(system, 0.0, np.zeros((p, p)), x)
    assert np.allclose(stats.constraints.std, std, atol=1e-15)
    assert stats.objective.mean[0] - no_noise.objective.mean[0] == pytest.approx(
        p * std ** 2, rel=1e-12
    )


def test_exact_stats_against_large_sample():
    system, t, sampler, sigma = reference_setup(seed=7)
    x = np.full(system.d, 0.45)
    stats = exact_stats(system, t, sigma, x)
    alpha, beta, P = system.linear_map

    m = 1_000_000
    U = sampler.draw(m, seed=42)
    Y = (alpha + beta @ x)[None, :] + U @ P.T
    obj = x[0] ** 2 + np.sum(Y * Y, axis=1)
    cons = t - Y

    se_obj = stats.objective.std[0] / np.sqrt(m)
    assert abs(obj.mean() - stats.objective.mean[0]) <= 4.0 * se_obj
    assert abs(obj.std(ddof=1) - stats.objective.std[0]) <= 0.01 * stats.objective.std[0]

    se_cons = stats.constraints.std / np.sqrt(m)
    assert np.all(np.abs(cons.mean(axis=0) - stats.constraints.mean) <= 4.0 * se_cons)
    assert np.all(
        np.abs(cons.std(axis=0, ddof=1) - stats.constraints.std)
        <= 0.01 * stats.constraints.std
    )


def test_mc_estimator_is_unbiased():
    # Average 200 independent small-sample estimates of the first constraint
    # mean: the aggregate behaves like one 10000-sample estimate.
    system, t, sampler, sigma = reference_setup(seed=8)
    x = np.full(system.d, 0.5)
    exact = exact_stats(system, t, sigma, x)

    runs, m = 200, 50
    means = [
        mc_estimate(t - solve_mda(system, x, sampler.draw(m, 1000 + r), DIRECT).y).mean
        for r in range(runs)
    ]
    aggregate = np.mean(means, axis=0)
    tol = 4.0 * exact.constraints.std / np.sqrt(runs * m)
    assert np.all(np.abs(aggregate - exact.constraints.mean) <= tol)


def test_all_estimators_agree_in_zero_noise_limit():
    problem = reference_problem(seed=9)
    system = assemble(problem)
    t = problem.t
    x = np.full(system.d, 0.55)
    zero_sigma = np.zeros((system.p, system.p))
    sampler = GaussianSampler(UncertaintyModel.isotropic(system.p_coupling, 0.0))

    mc = mc_estimate(t - solve_mda(system, x, sampler.draw(10, 0), DIRECT).y)
    # Without noise the margin collapses onto the mean.
    margin = StatisticSpec(constraint_stat="margin", kappa=2.0)
    taylor = RobustEvaluator(system, t, None, margin, "taylor", mda_settings=DIRECT)
    exact = exact_stats(system, t, zero_sigma, x)
    assert np.allclose(mc.mean, exact.constraints.mean, atol=1e-12)
    assert np.allclose(taylor.constraints(x), exact.constraints.mean, atol=1e-12)
    assert taylor.objective(x) == pytest.approx(exact.objective.mean[0], rel=1e-12)
    assert np.allclose(mc.std, 0.0, atol=1e-12)


# --- one propagated variance feeds every closed form ----------------------------


def random_block_covariance(rng, p_coupling, scale=1e-4):
    """Random symmetric positive definite blocks, one per discipline."""
    blocks = []
    for p in p_coupling:
        G = rng.standard_normal((p, p))
        blocks.append(scale * (G @ G.T + 0.1 * np.eye(p)))
    return UncertaintyModel(sigma_blocks=tuple(blocks))


def test_output_variance_follows_sigma():
    # One system queried with Sigma_1, Sigma_2, Sigma_1 must answer exactly
    # like a fresh system each time, for the variances and their consumers.
    problem = reference_problem(seed=10)
    shared = assemble(problem)
    rng = np.random.default_rng(5)
    sigma_1 = problem.uncertainty.sigma
    sigma_2 = random_block_covariance(rng, problem.config.p_coupling).sigma
    x = rng.random(shared.d)
    for sigma in (sigma_1, sigma_2, sigma_1):
        fresh = assemble(problem)
        assert np.array_equal(shared.output_variance(sigma), fresh.output_variance(sigma))
        got = reduce_margin(shared, problem.t, sigma, 2.0)
        want = reduce_margin(assemble(problem), problem.t, sigma, 2.0)
        assert np.array_equal(got.b, want.b)
        assert got.d0 == want.d0
        got = exact_stats(shared, problem.t, sigma, x)
        want = exact_stats(assemble(problem), problem.t, sigma, x)
        assert np.array_equal(got.constraints.std, want.constraints.std)
        assert got.objective.mean[0] == want.objective.mean[0]
        assert got.objective.std[0] == want.objective.std[0]

    # Mutating the caller's array in place is seen on the next call.
    sigma = sigma_1.copy()
    before = shared.output_variance(sigma)
    sigma *= 4.0
    assert np.allclose(shared.output_variance(sigma), 4.0 * before, rtol=1e-12, atol=0.0)


def test_output_variance_contract():
    system, _, _, sigma = reference_setup(seed=11)
    _, _, P = system.linear_map
    rng = np.random.default_rng(11)
    for cov in (sigma, random_block_covariance(rng, system.p_coupling).sigma):
        var = system.output_variance(cov)
        want = np.diag(P @ cov @ P.T)
        assert var.shape == (system.p,)
        assert np.all(np.abs(var - want) <= 1e-14 * want)
    with pytest.raises(ValueError, match="shape"):
        system.output_variance(np.eye(system.p + 1))
    asymmetric = np.eye(system.p)
    asymmetric[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        system.output_variance(asymmetric)
    # A correlation across two coupling blocks would be ignored by the
    # block-wise sum, so it is refused.
    cross = np.eye(system.p)
    cross[0, 3] = cross[3, 0] = 1e-3
    with pytest.raises(ValueError, match="off the coupling blocks"):
        system.output_variance(cross)
    with pytest.raises(NumericalError):
        system.output_variance(-np.eye(system.p))


@pytest.mark.parametrize("coupling_strength", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("p_block", [2, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_forms_agree_across_family(seed, p_block, coupling_strength):
    config = ProblemConfig(
        3, 1, (2, 2, 2), (p_block,) * 3, coupling_strength=coupling_strength, seed=seed
    )
    problem = generate(config)
    tune_feasibility(problem, quantile_seed=seed + 1)
    rng = np.random.default_rng(100 + seed)
    problem.uncertainty = random_block_covariance(rng, config.p_coupling)
    system = assemble(problem)
    sigma = problem.uncertainty.sigma
    t = problem.t
    margin = StatisticSpec(constraint_stat="margin", kappa=2.0)
    qp = reduce_margin(system, t, sigma, margin.kappa)
    taylor = taylor_evaluator(problem, margin)
    alpha, beta, P = system.linear_map
    M = P.T @ P @ sigma

    for _ in range(4):
        x = rng.random(system.d)
        stats = exact_stats(system, t, sigma, x, margin)
        rows = qp.constraints(x)
        scale = max(1.0, float(np.abs(rows).max()))
        assert np.max(np.abs(stats.constraints.value - rows)) <= 1e-10 * scale
        # The constraints are linear in the noise, so Taylor is exact there.
        assert np.max(np.abs(taylor.constraints(x) - rows)) <= 1e-10 * scale

        f = qp.objective(x)
        assert abs(stats.objective.mean[0] - f) <= 1e-10 * max(1.0, abs(f))
        gap = stats.objective.mean[0] - taylor.objective(x)
        assert gap == pytest.approx(float(np.trace(M)), rel=1e-8, abs=1e-14)

        y = alpha + beta @ x
        var = 4.0 * y @ P @ sigma @ P.T @ y + 2.0 * np.trace(M @ M)
        assert stats.objective.std[0] ** 2 == pytest.approx(var, rel=1e-10)
