"""Tests for the QP reductions and the interior-point reference solver."""

import json

import numpy as np
import pytest
import scipy.special
import scipy.stats

from umdobench import (
    BlockSystem,
    NumericalError,
    ProblemConfig,
    assemble,
    generate,
    tune_feasibility,
)
import umdobench.qp as qp_mod
from umdobench.mda import MDASettings, solve_mda
from umdobench.qp import (
    QPData,
    check_positive_definite,
    export_qp,
    reduce_deterministic,
    reduce_margin,
    reduce_probability,
    solve_qp,
)
from conftest import rank_deficient_system
from oracles import solve_qp_projected_gradient


# The default shape, and one with several shared variables and unequal blocks.
SHAPES = ((2, 1, (2, 2), (3, 3)), (3, 2, (1, 3, 2), (2, 4, 3)))


def tuned_system(seed=0, shape=SHAPES[0], **config_kwargs):
    config = ProblemConfig(*shape, seed=seed, **config_kwargs)
    problem = generate(config)
    tune_feasibility(problem, quantile_seed=seed + 1)
    return assemble(problem), problem.t


def decoupled_system(p=3, d_shared=2, d_local=2, seed=0):
    rng = np.random.default_rng(seed)
    return BlockSystem(
        C=np.eye(p),
        D=np.zeros((p, d_shared + d_local)),
        a=rng.random(p),
        p_coupling=(p,),
        d_shared=d_shared,
    )


# --- deterministic reduction -----------------------------------------------------


def test_reduction_decoupled_case():
    system = decoupled_system()
    qp = reduce_deterministic(system, t=0.25)
    assert np.array_equal(qp.Q, 2.0 * np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(qp.c, np.zeros(system.d))
    assert qp.d0 == pytest.approx(system.a @ system.a, rel=1e-15)
    assert np.array_equal(qp.A, np.zeros((system.p, system.d)))
    assert np.allclose(qp.b, system.a - 0.25, atol=1e-15)


def test_reduction_objective_matches_coupled_evaluation():
    for shape in SHAPES:
        for seed in range(5):
            system, t = tuned_system(seed, shape)
            qp = reduce_deterministic(system, t)
            rng = np.random.default_rng(seed + 50)
            for _ in range(20):
                x = rng.random(system.d)
                y = solve_mda(system, x, settings=MDASettings(method="direct")).y
                direct = x[: system.d_shared] @ x[: system.d_shared] + y @ y
                assert abs(qp.objective(x) - direct) <= 1e-10 * abs(direct), (shape, seed)


def test_reduction_constraints_match_coupled_evaluation():
    for shape in SHAPES:
        system, t = tuned_system(3, shape)
        qp = reduce_deterministic(system, t)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.random(system.d)
            y = solve_mda(system, x, settings=MDASettings(method="direct")).y
            expected = t - y
            got = qp.constraints(x)
            assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.abs(expected).max())


# --- robust reductions -----------------------------------------------------------


def test_margin_with_zero_covariance_is_deterministic():
    system, t = tuned_system(1)
    base = reduce_deterministic(system, t)
    margin = reduce_margin(system, t, sigma=np.zeros((system.p, system.p)), kappa=2.0)
    assert np.array_equal(margin.b, base.b)
    assert margin.d0 == base.d0
    assert np.array_equal(margin.Q, base.Q)


def test_margin_isotropic_shift_on_identity_propagation():
    system = decoupled_system()
    sigma_val = 0.05
    qp0 = reduce_deterministic(system, t=0.0)
    qp = reduce_margin(system, 0.0, sigma=sigma_val ** 2 * np.eye(system.p), kappa=2.0)
    assert np.allclose(qp.b, qp0.b - 2.0 * sigma_val, atol=1e-15)
    assert qp.d0 == pytest.approx(qp0.d0 + system.p * sigma_val ** 2, rel=1e-14)


def test_margin_shift_matches_monte_carlo_oracle():
    # Estimate mean + 2 std of the constraint value under noise with a large
    # sample and compare against the closed-form shift.
    system, t = tuned_system(2)
    sigma = 0.01 ** 2 * np.eye(system.p)
    kappa, M = 2.0, 100_000
    base = reduce_deterministic(system, t)
    margin = reduce_margin(system, t, sigma, kappa)
    _, _, P = system.linear_map

    rng = np.random.default_rng(123)
    x = rng.random(system.d)
    U = 0.01 * rng.standard_normal((M, system.p))
    g_samples = base.constraints(x)[None, :] - U @ P.T
    mc = g_samples.mean(axis=0) + kappa * g_samples.std(axis=0, ddof=1)
    tau = np.sqrt(np.einsum("ij,jk,ik->i", P, sigma, P))
    se = 3.0 * tau * np.sqrt(3.0 / M)
    assert np.all(np.abs(mc - margin.constraints(x)) <= se)


def test_margin_negative_variance_guard():
    system = decoupled_system()
    with pytest.raises(NumericalError):
        reduce_margin(system, 0.0, sigma=-np.eye(system.p), kappa=1.0)


def test_probability_median_is_deterministic():
    system, t = tuned_system(4)
    base = reduce_deterministic(system, t)
    prob = reduce_probability(
        system, t, epsilon=0.5, sigma=0.01 ** 2 * np.eye(system.p)
    )
    assert np.allclose(prob.b, base.b, atol=1e-15)


def test_probability_two_sigma_quantile():
    system = decoupled_system()
    sigma_val = 0.05
    eps = float(scipy.stats.norm.cdf(-2.0))
    qp0 = reduce_deterministic(system, 0.0)
    qp = reduce_probability(system, 0.0, epsilon=eps, sigma=sigma_val ** 2 * np.eye(system.p))
    assert np.allclose(qp.b, qp0.b - 2.0 * sigma_val, atol=1e-12)


def test_gaussian_quantile_is_bitwise_norm_ppf():
    system, t = tuned_system(5)
    sigma = 0.01 ** 2 * np.eye(system.p)
    var = system.output_variance(sigma)
    base = reduce_deterministic(system, t)
    tail = np.logspace(-15, np.log10(0.5), 200)
    grid = np.concatenate([np.linspace(0.001, 0.999, 999), tail, 1.0 - tail])
    for eps in grid:
        qp = reduce_probability(system, t, epsilon=float(eps), sigma=sigma)
        q = np.sqrt(var) * scipy.stats.norm.ppf(eps)
        assert np.array_equal(qp.b, base.b + q), eps


def test_probability_matches_margin_for_matched_levels():
    # The chance constraint at level eps is the margin at kappa = -z_eps, bit
    # for bit, on the levels matched to kappa = 0.5, 1, 2 and across (0, 1).
    system, t = tuned_system(5)
    sigma = 0.01 ** 2 * np.eye(system.p)
    matched = [float(scipy.stats.norm.cdf(-kappa)) for kappa in (0.5, 1.0, 2.0)]
    tail = np.logspace(-15, np.log10(0.5), 40)
    grid = np.concatenate([matched, np.linspace(0.01, 0.99, 99), tail, 1.0 - tail])
    for eps in grid:
        margin = reduce_margin(system, t, sigma, -scipy.special.ndtri(eps))
        prob = reduce_probability(system, t, epsilon=float(eps), sigma=sigma)
        assert np.array_equal(prob.b, margin.b), eps
        assert prob.d0 == margin.d0, eps
    # z_eps round-trips kappa to within an ulp, so the matched rows agree.
    for kappa, eps in zip((0.5, 1.0, 2.0), matched):
        margin = reduce_margin(system, t, sigma, kappa)
        prob = reduce_probability(system, t, epsilon=eps, sigma=sigma)
        assert np.max(np.abs(margin.b - prob.b)) <= 1e-12


def test_probability_argument_validation():
    system = decoupled_system()
    for eps in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            reduce_probability(system, 0.0, epsilon=eps, sigma=np.eye(system.p))
    with pytest.raises(TypeError):
        reduce_probability(system, 0.0, epsilon=0.1)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
def test_margin_rejects_non_finite_kappa(kappa):
    system = decoupled_system()
    with pytest.raises(ValueError, match="kappa"):
        reduce_margin(system, 0.0, sigma=np.eye(system.p), kappa=kappa)


# --- interior-point solver --------------------------------------------------------


def test_solver_one_dimensional_analytic_minimum():
    qp = QPData(Q=[[2.0]], c=[-1.0], d0=0.0, A=np.zeros((0, 1)), b=np.zeros(0))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.x_star[0] == pytest.approx(0.5, abs=1e-8)
    assert sol.f_star == pytest.approx(-0.25, abs=1e-8)
    assert sol.kkt_residual <= 1e-9


def test_solver_active_linear_constraint():
    qp = QPData(Q=[[2.0]], c=[0.0], d0=0.0, A=[[-1.0]], b=[-0.5])
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.x_star[0] == pytest.approx(0.5, abs=1e-8)
    assert sol.g_star[0] == pytest.approx(0.0, abs=1e-8)


def test_solver_matches_projected_gradient_oracle():
    system, t = tuned_system(7)
    qp = reduce_deterministic(system, t)
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-8
    x_pg = solve_qp_projected_gradient(
        qp.Q, qp.c, qp.A, qp.b, np.zeros(qp.dim), np.ones(qp.dim), n_iter=2000
    )
    f_pg = qp.objective(x_pg)
    assert abs(sol.f_star - f_pg) <= 1e-6 * (1.0 + abs(f_pg))
    assert sol.f_star <= f_pg + 1e-8


def test_solver_reports_exhausted_iteration_budget(monkeypatch):
    monkeypatch.setattr(qp_mod, "_MAX_ITER", 1)
    system, t = tuned_system(7)
    sol = solve_qp(reduce_deterministic(system, t))
    assert sol.status == "max_iter"
    assert sol.iterations == 1
    assert sol.kkt_residual > 1e-9


def test_solver_feasibility_of_optimal_solutions():
    for seed in range(5):
        system, t = tuned_system(seed)
        sigma = 0.01 ** 2 * np.eye(system.p)
        for qp in (
            reduce_deterministic(system, t),
            reduce_margin(system, t, sigma, 2.0),
        ):
            sol = solve_qp(qp)
            assert sol.status == "optimal"
            assert np.all(sol.g_star <= 1e-8)
            assert np.all(sol.x_star >= -1e-8)
            assert np.all(sol.x_star <= 1.0 + 1e-8)


def test_solver_objective_nondecreasing_in_margin_level():
    system, t = tuned_system(9)
    sigma = 0.01 ** 2 * np.eye(system.p)
    values = []
    for kappa in (0.0, 0.5, 1.0, 2.0, 4.0):
        sol = solve_qp(reduce_margin(system, t, sigma, kappa))
        assert sol.status == "optimal"
        values.append(sol.f_star)
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9)


def test_solver_detects_infeasible_problem():
    qp = QPData(Q=[[2.0]], c=[0.0], d0=0.0, A=[[1.0]], b=[-1.0])
    sol = solve_qp(qp)
    assert sol.status == "infeasible"


def test_positive_definite_check_trivial():
    qp = QPData(Q=2.0 * np.eye(3), c=np.zeros(3), d0=0.0, A=np.zeros((0, 3)), b=np.zeros(0))
    is_pd, lam = check_positive_definite(qp)
    assert is_pd
    assert lam == pytest.approx(2.0, rel=1e-12)


def test_positive_definite_on_well_posed_instances():
    for seed in range(10):
        system, t = tuned_system(seed)
        is_pd, lam = check_positive_definite(reduce_deterministic(system, t))
        assert is_pd
        assert lam > 0


def test_rank_deficient_configuration_reports_near_zero_eigenvalue():
    # One coupling output against two local variables per discipline: the
    # design map loses rank, which an SVD of the constraint matrix confirms.
    system = rank_deficient_system(seed=0)
    qp = reduce_deterministic(system, t=0.0)
    is_pd, lam = check_positive_definite(qp)
    assert not is_pd
    assert abs(lam) <= 1e-10 * np.trace(qp.Q)
    singular_values = np.linalg.svd(qp.A, compute_uv=False)
    assert np.sum(singular_values > 1e-12) < qp.dim


def test_qpdata_validation():
    with pytest.raises(ValueError):
        QPData(Q=[[1.0, 0.5], [0.0, 1.0]], c=[0.0, 0.0], d0=0.0, A=np.zeros((0, 2)), b=np.zeros(0))
    with pytest.raises(ValueError):
        QPData(Q=np.eye(2), c=np.zeros(2), d0=0.0, A=np.zeros((2, 2)), b=np.zeros(3))


@pytest.mark.parametrize("name", ["Q", "c", "d0", "A", "b"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_qpdata_rejects_non_finite_entries(name, bad):
    fields = dict(Q=np.eye(2), c=np.zeros(2), d0=0.0, A=np.ones((1, 2)), b=np.zeros(1))
    QPData(**fields)
    if name == "d0":
        fields["d0"] = bad
    else:
        fields[name].flat[-1] = bad
    with pytest.raises(NumericalError, match=f"QP data {name} is not finite"):
        QPData(**fields)


def test_export_roundtrip():
    system, t = tuned_system(10)
    qp = reduce_deterministic(system, t)
    doc = json.loads(export_qp(qp))
    assert set(doc) == {"Q", "c", "d0", "A", "b", "lower", "upper"}
    assert np.allclose(doc["Q"], qp.Q, rtol=0, atol=0)
    assert np.allclose(doc["b"], qp.b, rtol=0, atol=0)
    assert doc["d0"] == qp.d0


def test_export_rejects_non_finite_values():
    system, t = tuned_system(10)
    qp = reduce_deterministic(system, t)
    export_qp(qp)
    qp.b[3] = np.nan
    with pytest.raises(ValueError, match="cannot serialize non-finite value"):
        export_qp(qp)
