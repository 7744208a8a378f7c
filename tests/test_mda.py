"""Tests for the coupling-equation solvers."""

import numpy as np
import pytest

from umdobench import BlockSystem, ProblemConfig, assemble, generate
from umdobench.mda import MDASettings, solve_mda
from oracles import finite_difference_jacobian


def decoupled_system(seed=0, p=4, d=3):
    rng = np.random.default_rng(seed)
    return BlockSystem(
        C=np.eye(p),
        D=rng.random((p, d)),
        a=rng.random(p),
        Qx0=np.eye(d),
        p_coupling=(p,),
        d_shared=1,
        d_local=(d - 1,),
    )


def hand_system():
    # y1 = 1 + 0.5 y2, y2 = 1 + 0.5 y1: unique solution (2, 2).
    return BlockSystem(
        C=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        D=np.zeros((2, 2)),
        a=np.array([1.0, 1.0]),
        Qx0=np.diag([1.0, 0.0]),
        p_coupling=(1, 1),
        d_shared=1,
        d_local=(1,),
    )


def test_settings_validation():
    with pytest.raises(ValueError):
        MDASettings(method="newton")
    with pytest.raises(ValueError):
        MDASettings(tol=0.0)
    with pytest.raises(ValueError):
        MDASettings(max_iter=0)


def test_decoupled_problem_converges_in_one_iteration():
    system = decoupled_system()
    rng = np.random.default_rng(1)
    x, u = rng.random(system.d), rng.standard_normal(system.p)
    result = solve_mda(system, x, u, MDASettings(method="jacobi"))
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.y, system.a - system.D @ x + u, atol=1e-15)


def test_hand_solved_coupled_pair():
    system = hand_system()
    x = np.zeros(2)
    direct = solve_mda(system, x, settings=MDASettings(method="direct"))
    assert np.allclose(direct.y, [2.0, 2.0], atol=1e-14)
    jacobi = solve_mda(
        system, x, settings=MDASettings(method="jacobi", tol=1e-12, max_iter=200)
    )
    assert jacobi.converged
    assert np.allclose(jacobi.y, [2.0, 2.0], atol=1e-11)


def test_fixed_point_methods_match_direct_solve():
    for seed in range(10):
        config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)
        system = assemble(generate(config))
        rng = np.random.default_rng(seed + 100)
        x, u = rng.random(system.d), 0.01 * rng.standard_normal(system.p)
        direct = solve_mda(system, x, u, MDASettings(method="direct"))
        for method in ("jacobi", "gauss_seidel"):
            it = solve_mda(
                system, x, u, MDASettings(method=method, tol=1e-10, max_iter=200)
            )
            assert it.converged
            assert np.linalg.norm(it.y - direct.y) <= 1e-8


def test_jacobi_converges_within_default_budget():
    # Default settings (tol 1e-4, 30 sweeps) must suffice on generated
    # problems at the reference dimensions.
    for seed in range(20):
        config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=seed)
        system = assemble(generate(config))
        x = np.random.default_rng(seed).random(system.d)
        result = solve_mda(system, x)
        assert result.converged
        assert result.iterations <= 30


def test_residual_decays_geometrically():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=3)
    system = assemble(generate(config))
    x = np.full(system.d, 0.5)
    result = solve_mda(
        system, x, settings=MDASettings(method="jacobi", tol=1e-12, max_iter=100)
    )
    hist = result.residual_history
    for k in range(len(hist) - 5):
        assert hist[k + 5] < hist[k]


def test_gauss_seidel_not_slower_than_jacobi():
    for seed in range(10):
        config = ProblemConfig(3, 1, (1, 2, 1), (2, 3, 2), seed=seed)
        system = assemble(generate(config))
        x = np.random.default_rng(seed).random(system.d)
        jac = solve_mda(system, x, settings=MDASettings(method="jacobi", tol=1e-8, max_iter=200))
        gs = solve_mda(
            system, x, settings=MDASettings(method="gauss_seidel", tol=1e-8, max_iter=200)
        )
        assert jac.converged and gs.converged
        assert gs.iterations <= jac.iterations


def test_warm_start_reaches_same_fixed_point():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=5)
    system = assemble(generate(config))
    x = np.full(system.d, 0.3)
    settings = MDASettings(method="jacobi", tol=1e-6, max_iter=200)
    cold = solve_mda(system, x, settings=settings)
    nearby = solve_mda(system, x + 0.01, settings=settings)
    warm = solve_mda(system, x, settings=settings, y0=nearby.y)
    assert warm.converged
    assert np.linalg.norm(warm.y - cold.y) <= 10 * settings.tol
    assert warm.iterations <= cold.iterations


def test_converged_iterate_satisfies_coupling_bound():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=8)
    system = assemble(generate(config))
    x = np.full(system.d, 0.7)
    settings = MDASettings(method="jacobi", tol=1e-4)
    result = solve_mda(system, x, settings=settings)
    rhs = system.a - system.D @ x
    bound = settings.tol * (1 + np.abs(system.C).sum(axis=1).max())
    assert np.linalg.norm(system.C @ result.y - rhs) <= bound


def test_non_convergence_is_reported_not_raised():
    system = hand_system()
    result = solve_mda(
        system, np.zeros(2), settings=MDASettings(method="jacobi", tol=1e-15, max_iter=3)
    )
    assert not result.converged
    assert result.iterations == 3


def test_out_of_box_design_is_flagged_but_solved():
    system = hand_system()
    inside = solve_mda(system, np.full(2, 0.5), settings=MDASettings(method="direct"))
    outside = solve_mda(system, np.full(2, 2.0), settings=MDASettings(method="direct"))
    assert inside.in_domain
    assert not outside.in_domain
    assert np.allclose(outside.y, [2.0, 2.0], atol=1e-14)


def test_dimension_mismatch_raises():
    system = hand_system()
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(3))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros(5))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), y0=np.zeros(7))


def test_coupling_jacobian_trivial_case():
    system = decoupled_system()
    alpha, beta, P = system.linear_map
    assert np.array_equal(alpha, system.a)
    assert np.array_equal(beta, -system.D)
    assert np.array_equal(P, np.eye(system.p))


def test_coupling_jacobian_matches_direct_solve():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=2)
    system = assemble(generate(config))
    alpha, beta, P = system.linear_map
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, u = rng.random(system.d), rng.standard_normal(system.p)
        direct = solve_mda(system, x, u, MDASettings(method="direct"))
        assert np.allclose(alpha + beta @ x + P @ u, direct.y, atol=1e-12)


def test_coupling_jacobian_finite_differences():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=6)
    system = assemble(generate(config))
    _, beta, P = system.linear_map
    x0 = np.full(system.d, 0.4)

    def y_of_x(x):
        return solve_mda(system, x, settings=MDASettings(method="direct")).y

    fd_beta = finite_difference_jacobian(y_of_x, x0, h=1e-7)
    assert np.max(np.abs(fd_beta - beta)) / np.max(np.abs(beta)) <= 1e-6

    def y_of_u(u):
        return solve_mda(system, x0, u, MDASettings(method="direct")).y

    fd_P = finite_difference_jacobian(y_of_u, np.zeros(system.p), h=1e-7)
    assert np.max(np.abs(fd_P - P)) / np.max(np.abs(P)) <= 1e-6
