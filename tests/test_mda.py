"""Tests for the coupling-equation solvers."""

import contextlib
import math

import numpy as np
import pytest

from umdobench import BlockSystem, ProblemConfig, assemble, generate
from umdobench.mda import MDASettings, solve_mda
from conftest import non_contracting_copy, residual_floor
from oracles import finite_difference_jacobian


def decoupled_system(seed=0, p=4, d=3):
    rng = np.random.default_rng(seed)
    return BlockSystem(
        C=np.eye(p),
        D=rng.random((p, d)),
        a=rng.random(p),
        p_coupling=(p,),
        d_shared=1,
    )


def hand_system():
    # y1 = 1 + 0.5 y2, y2 = 1 + 0.5 y1: unique solution (2, 2).
    return BlockSystem(
        C=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        D=np.zeros((2, 2)),
        a=np.array([1.0, 1.0]),
        p_coupling=(1, 1),
        d_shared=1,
    )


def test_settings_validation():
    with pytest.raises(ValueError):
        MDASettings(method="newton")
    with pytest.raises(ValueError):
        MDASettings(tol=0.0)
    # The sweep budget is derived from the system, not set.
    with pytest.raises(TypeError):
        MDASettings(max_iter=30)


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
    jacobi = solve_mda(system, x, settings=MDASettings(method="jacobi", tol=1e-12))
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
            it = solve_mda(system, x, u, MDASettings(method=method, tol=1e-10))
            assert it.converged
            assert np.linalg.norm(it.y - direct.y) <= 1e-8


def test_jacobi_converges_within_default_budget():
    # At the default coupling strength 0.5 and tol 1e-4, generated problems
    # at the reference dimensions converge before the 30-sweep floor, so
    # their solves never compute the derived budget.
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
    result = solve_mda(system, x, settings=MDASettings(method="jacobi", tol=1e-12))
    hist = result.residual_history
    for k in range(len(hist) - 5):
        assert hist[k + 5] < hist[k]


def test_gauss_seidel_not_slower_than_jacobi():
    for seed in range(10):
        config = ProblemConfig(3, 1, (1, 2, 1), (2, 3, 2), seed=seed)
        system = assemble(generate(config))
        x = np.random.default_rng(seed).random(system.d)
        jac = solve_mda(system, x, settings=MDASettings(method="jacobi", tol=1e-8))
        gs = solve_mda(system, x, settings=MDASettings(method="gauss_seidel", tol=1e-8))
        assert jac.converged and gs.converged
        assert gs.iterations <= jac.iterations


def test_warm_start_reaches_same_fixed_point():
    config = ProblemConfig(2, 1, (2, 2), (3, 3), seed=5)
    system = assemble(generate(config))
    x = np.full(system.d, 0.3)
    settings = MDASettings(method="jacobi", tol=1e-6)
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
    # y1 = 1 + 2 y2, y2 = 1 + 0.2 y1: ||B||_inf = 2, so no budget is derived,
    # although B's eigenvalues, +-sqrt(0.4), make Jacobi converge slowly.
    system = BlockSystem(
        C=np.array([[1.0, -2.0], [-0.2, 1.0]]),
        D=np.zeros((2, 2)),
        a=np.array([1.0, 1.0]),
        p_coupling=(1, 1),
        d_shared=1,
    )
    assert system.iteration_norm == 2.0
    for method in ("jacobi", "gauss_seidel"):
        result = solve_mda(system, np.zeros(2), settings=MDASettings(method, tol=1e-15))
        assert not result.converged
        assert result.iterations == 30


def test_budget_past_the_floor_follows_the_contraction_bound():
    # At strength 0.9 a solve needs more than 30 sweeps: 57 on this instance.
    config = ProblemConfig(2, 1, (2, 2), (3, 3), coupling_strength=0.9, seed=70)
    system = assemble(generate(config))
    assert system.iteration_norm == pytest.approx(0.9)
    x = np.full(system.d, 0.5)
    assert solve_mda(system, x).iterations == 57
    assert solve_mda(system, x, settings=MDASettings("gauss_seidel")).converged


@residual_floor()
def test_unreachable_tol_stops_at_the_derived_budget():
    # A solve still unconverged at sweep 30 gets the sweeps that bring its
    # contraction bound, sqrt(p) q^n r_30 for Jacobi and (1 + q) / (1 - q)
    # times that for Gauss-Seidel, to tol. A solve whose residual round-off
    # holds above tol uses all of them: under the residual floor of 1e-12,
    # tol 1e-13 is out of reach. Each row of a block gets the budget of its
    # own solve.
    budgets = set()
    for seed in range(3):
        config = ProblemConfig(3, 1, (2, 2, 2), (4, 5, 3), coupling_strength=0.9, seed=seed)
        system = assemble(generate(config))
        q, p = system.iteration_norm, system.p
        rng = np.random.default_rng(seed)
        x = rng.random(system.d)
        U = 0.01 * rng.standard_normal((5, p))
        for method, slack in (("jacobi", 1.0), ("gauss_seidel", (1 + q) / (1 - q))):
            settings = MDASettings(method, tol=1e-13)
            block = solve_mda(system, x, U, settings)
            assert not block.row_converged.any()
            for i, u in enumerate(U):
                one = solve_mda(system, x, u, settings)
                bound = math.sqrt(p) * slack * one.residual_history[29]
                assert one.iterations == 30 + math.ceil(math.log(1e-13 / bound) / math.log(q))
                assert block.y[i].tobytes() == one.y.tobytes()
                assert block.row_iterations[i] == one.iterations
                budgets.add(one.iterations)
    assert len(budgets) >= 2


def test_out_of_box_design_is_solved(small_config):
    system = hand_system()
    outside = solve_mda(system, np.full(2, 2.0), settings=MDASettings(method="direct"))
    assert np.allclose(outside.y, [2.0, 2.0], atol=1e-14)
    # With a design map that sees x, the fixed-point solve of an out-of-box
    # point converges to the direct solution.
    system = assemble(generate(small_config))
    x = np.full(system.d, 2.0)
    settings = MDASettings(method="jacobi", tol=1e-12)
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
    problem = generate(config)
    system = assemble(problem)
    rng = np.random.default_rng(seed)
    x = rng.random(system.d)
    # Noise scales spread over seven decades, so rows warm-started from the
    # mean-noise solution need very different numbers of sweeps.
    m = 20
    U = 0.01 * rng.standard_normal((m, system.p)) * 10.0 ** rng.uniform(-6, 1, (m, 1))

    # Rows stop unconverged in two ways. A copy with ||B||_inf >= 1 stops
    # every row that needs more than 30 sweeps at that floor: at strength
    # 0.9 every row from the zero start, while from the warm start the rows
    # of the smallest noise converge. Under a residual floor above tol,
    # every row spends its derived budget.
    floor_bound = assemble(non_contracting_copy(problem))
    cases = (
        (system, 1e-6, contextlib.nullcontext),
        (floor_bound, 1e-6, contextlib.nullcontext),
        (system, 1e-13, residual_floor),
    )
    for target, tol, context in cases:
        center = solve_mda(target, x, settings=MDASettings(method="direct")).y
        for method in ("jacobi", "gauss_seidel"):
            settings = MDASettings(method=method, tol=tol)
            for y0 in (None, center):
                with context():
                    block = solve_mda(target, x, U, settings, y0=y0)
                    rows = [solve_mda(target, x, u, settings, y0) for u in U]
                assert block.y.shape == (m, system.p)
                for i, row in enumerate(rows):
                    assert block.y[i].tobytes() == row.y.tobytes()
                    assert block.row_iterations[i] == row.iterations
                    assert block.row_converged[i] == row.converged
                assert block.iterations == sum(row.iterations for row in rows)
                assert block.converged == all(row.converged for row in rows)
                if target is floor_bound:
                    assert block.row_iterations.max() <= 30
                    if coupling_strength == 0.9:
                        assert block.row_converged.any() == (y0 is not None)
                if context is residual_floor:
                    assert not block.row_converged.any()
                    assert block.row_iterations.min() > 30

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


def assert_same_solve(one, block):
    assert one.y.shape == block.y.shape[1:]
    assert one.y.tobytes() == block.y[0].tobytes()
    assert one.iterations == block.iterations
    assert one.residual == block.residual
    assert one.converged == block.converged
    assert one.residual_history == block.residual_history
    assert one.row_iterations.tolist() == block.row_iterations.tolist()
    assert one.row_converged.tolist() == block.row_converged.tolist()


@pytest.mark.parametrize("coupling_strength", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vector_solve_matches_block_of_one(seed, coupling_strength):
    # One realization is swept as a (p,) vector, a block as (m, p) rows; the
    # two loops give the same bits, sweeps, residuals and history.
    config = ProblemConfig(
        3, 1, (2, 2, 2), (4, 5, 3), coupling_strength=coupling_strength, seed=seed
    )
    problem = generate(config)
    system = assemble(problem)
    rng = np.random.default_rng(seed)
    x = rng.random(system.d)
    center = solve_mda(system, x).y
    # Budgets run out in two ways: under a residual floor above tol every
    # solve spends its derived budget, and a copy with ||B||_inf >= 1 stops
    # the slow solves at the 30-sweep floor.
    floor_bound = assemble(non_contracting_copy(problem))
    cases = (
        (system, 1e-4, contextlib.nullcontext),
        (system, 1e-13, residual_floor),
        (floor_bound, 1e-9, contextlib.nullcontext),
    )
    floor_stops = 0
    for u in (None, 0.01 * rng.standard_normal(system.p)):
        U = np.zeros((1, system.p)) if u is None else u[None, :]
        for method in ("jacobi", "gauss_seidel"):
            for target, tol, context in cases:
                settings = MDASettings(method, tol)
                for y0 in (None, center):
                    with context():
                        one = solve_mda(target, x, u, settings, y0)
                        assert_same_solve(one, solve_mda(target, x, U, settings, y0))
                    if context is residual_floor:
                        assert not one.converged and one.iterations > 30
                    floor_stops += target is floor_bound and not one.converged
    if coupling_strength > 0.2:
        assert floor_stops > 0


def test_zero_start_keeps_the_sign_of_zero():
    # a[1] = -0.0 with a zero row of D and u[1] = -0.0 put a -0.0 in rhs.
    # rhs + B @ 0 turns it into +0.0, and so must the zero start, which
    # skips that product. A decoupled system stops after its first sweep,
    # so the first iterate is the returned y.
    system = BlockSystem(
        C=np.eye(3),
        D=np.array([[0.5, 0.0], [0.0, 0.0], [0.25, 1.0]]),
        a=np.array([1.0, -0.0, 2.0]),
        p_coupling=(1, 1, 1),
        d_shared=1,
    )
    x = np.array([0.5, 0.25])
    u = np.array([0.0, -0.0, 0.0])
    rhs = system.a - system.D @ x + u
    assert np.signbit(rhs[1])
    for method in ("jacobi", "gauss_seidel"):
        settings = MDASettings(method)
        one = solve_mda(system, x, u, settings)
        assert one.iterations == 1
        assert one.y.tobytes() == (rhs + system.iteration_matrix @ np.zeros(3)).tobytes()
        assert not np.signbit(one.y[1])
        assert_same_solve(one, solve_mda(system, x, np.tile(u, (1, 1)), settings))
        block = solve_mda(system, x, np.tile(u, (4, 1)), settings)
        assert all(row.tobytes() == one.y.tobytes() for row in block.y)


# --- one evaluation of h per Jacobi sweep, and the residual it measures ----------


def noisy_block(seed, m, coupling_strength=0.7):
    """A problem, a design point and m noise rows whose scales spread over
    seven decades; the point and the rows do not depend on the strength."""
    config = ProblemConfig(
        3, 1, (2, 2, 2), (4, 4, 4), coupling_strength=coupling_strength, seed=seed
    )
    rng = np.random.default_rng(seed)
    U = 0.01 * rng.standard_normal((m, config.p)) * 10.0 ** rng.uniform(-6, 1, (m, 1))
    return generate(config), rng.random(config.d), U


@pytest.mark.parametrize("m", [1, 20])
def test_jacobi_sweep_evaluates_h_once(monkeypatch, m):
    # s sweeps from the zero start take s products with B: every h is also
    # the next iterate, and the first, h(0) = rhs, needs no product. A warm
    # start takes s + 1, the first being B @ y0 as one vector product, not
    # one per row of the block.
    # The count holds for a solve that converges and for one that stops
    # unconverged: at the 30-sweep floor of a strength-0.95 copy with
    # ||B||_inf >= 1, or at its derived budget under a residual floor above
    # tol.
    import umdobench.mda as mda

    problem, x, U = noisy_block(seed=1, m=m)
    system = assemble(problem)
    strong = noisy_block(seed=1, m=m, coupling_strength=0.95)[0]
    cases = (
        (system, 1e-8, contextlib.nullcontext),
        (assemble(non_contracting_copy(strong)), 1e-8, contextlib.nullcontext),
        (system, 1e-13, residual_floor),
    )
    products = []
    original = mda._matvec

    def counted(A, Y):
        products.append((A is B, Y.ndim))
        return original(A, Y)

    monkeypatch.setattr(mda, "_matvec", counted)
    ndim = 1 if m == 1 else 2
    for target, tol, context in cases:
        B = target.iteration_matrix
        center = solve_mda(target, x).y
        for y0 in (None, center):
            products.clear()
            with context():
                result = solve_mda(target, x, U if m > 1 else U[0], MDASettings(tol=tol), y0)
            assert result.converged == (target is system and tol == 1e-8)
            assert result.row_converged.any() == result.converged
            sweeps = int(result.row_iterations.max())
            assert sweeps == len(result.residual_history)
            first = [] if y0 is None else [(True, 1)]
            assert products == first + [(True, ndim)] * sweeps


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_residual_is_y_minus_h_at_returned_iterate(method):
    # Every row converges on the strength-0.7 problem; on a strength-0.95
    # copy with ||B||_inf >= 1 every row stops unconverged at sweep 30.
    problem, x, U = noisy_block(seed=2, m=20)
    strong = noisy_block(seed=2, m=20, coupling_strength=0.95)[0]
    settings = MDASettings(method, tol=1e-6)
    for problem, converges in ((problem, True), (non_contracting_copy(strong), False)):
        system = assemble(problem)
        B = np.eye(system.p) - system.C
        center = solve_mda(system, x).y
        for y0 in (None, center):
            result = solve_mda(system, x, U, settings, y0)
            assert result.row_converged.all() == result.row_converged.any() == converges
            res = np.array([
                np.linalg.norm(y - (system.a - system.D @ x + u + B @ y))
                for y, u in zip(result.y, U)
            ])
            assert result.residual == pytest.approx(res.max(), rel=1e-13)
            # The last sweep swept only the rows that needed the most sweeps.
            last = result.row_iterations == result.row_iterations.max()
            assert result.residual_history[-1] == pytest.approx(res[last].max(), rel=1e-13)
            one = solve_mda(system, x, U[0], settings, y0)
            assert one.converged == converges
            res_one = np.linalg.norm(one.y - (system.a - system.D @ x + U[0] + B @ one.y))
            assert one.residual == one.residual_history[-1] == pytest.approx(res_one, rel=1e-13)
