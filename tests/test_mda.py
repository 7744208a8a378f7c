"""Tests for the coupling-equation solvers."""

import dataclasses

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


def test_out_of_box_design_is_solved(small_config):
    system = hand_system()
    outside = solve_mda(system, np.full(2, 2.0), settings=MDASettings(method="direct"))
    assert np.allclose(outside.y, [2.0, 2.0], atol=1e-14)
    # With a design map that sees x, the fixed-point solve of an out-of-box
    # point converges to the direct solution.
    system = assemble(generate(small_config))
    x = np.full(system.d, 2.0)
    settings = MDASettings(method="jacobi", tol=1e-12, max_iter=200)
    fixed_point = solve_mda(system, x, settings=settings)
    direct = solve_mda(system, x, settings=MDASettings(method="direct"))
    assert fixed_point.converged
    assert np.allclose(fixed_point.y, direct.y, rtol=0, atol=1e-10)


def test_dimension_mismatch_raises():
    system = hand_system()
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(3))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros(5))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), y0=np.zeros(7))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros((1, 3, 2)))
    with pytest.raises(ValueError):
        solve_mda(system, np.zeros(2), u=np.zeros((3, 2)), y0=np.zeros((3, 2)))


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


# --- a block of realizations solves exactly like the per-row loop ----------------


@pytest.mark.parametrize("coupling_strength", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("p_block", [2, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_solve_matches_per_row_loop(seed, p_block, coupling_strength):
    config = ProblemConfig(
        3, 1, (2, 2, 2), (p_block,) * 3, coupling_strength=coupling_strength, seed=seed
    )
    system = assemble(generate(config))
    rng = np.random.default_rng(seed)
    x = rng.random(system.d)
    # Noise scales spread over seven decades, so rows warm-started from the
    # mean-noise solution need very different numbers of sweeps.
    m = 20
    U = 0.01 * rng.standard_normal((m, system.p)) * 10.0 ** rng.uniform(-6, 1, (m, 1))
    center = solve_mda(system, x).y

    for method in ("jacobi", "gauss_seidel"):
        for y0 in (None, center):
            generous = MDASettings(method=method, tol=1e-6, max_iter=300)
            longest = max(solve_mda(system, x, u, generous, y0).iterations for u in U)
            # One sweep short of the slowest row leaves at least that row unconverged.
            tight = dataclasses.replace(generous, max_iter=longest - 1)
            for settings in (generous, tight):
                block = solve_mda(system, x, U, settings, y0=y0)
                rows = [solve_mda(system, x, u, settings, y0) for u in U]
                assert block.y.shape == (m, system.p)
                for i, row in enumerate(rows):
                    assert block.y[i].tobytes() == row.y.tobytes()
                    assert block.row_iterations[i] == row.iterations
                    assert block.row_converged[i] == row.converged
                assert block.iterations == sum(row.iterations for row in rows)
                assert block.converged == all(row.converged for row in rows)
            assert not block.converged
            if y0 is not None:
                assert block.row_converged.any()

    direct = MDASettings(method="direct")
    block = solve_mda(system, x, U, direct)
    assert block.iterations == m and block.converged
    for i in range(m):
        row = solve_mda(system, x, U[i], direct)
        assert np.max(np.abs(block.y[i] - row.y)) <= 1e-14 * np.max(np.abs(row.y))
        assert block.row_converged[i] == row.converged


def test_single_realization_is_a_block_of_one():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=4)
    system = assemble(generate(config))
    x = np.full(system.d, 0.5)
    u = 0.01 * np.random.default_rng(4).standard_normal(system.p)
    for method in ("jacobi", "gauss_seidel", "direct"):
        settings = MDASettings(method=method)
        one = solve_mda(system, x, u, settings)
        block = solve_mda(system, x, u[None, :], settings)
        assert one.y.shape == (system.p,)
        assert block.y.shape == (1, system.p)
        assert one.y.tobytes() == block.y[0].tobytes()
        assert one.iterations == block.iterations == int(block.row_iterations[0])
        assert one.residual_history == block.residual_history
        assert isinstance(one.iterations, int) and isinstance(one.converged, bool)
