"""Coupling-equation solvers (multidisciplinary analysis).

For a fixed design point x and noise realization u the coupling equations of
an assembled system read ``C y = a - D x + u``. This module solves them
either directly through the cached LU factorization or by block fixed-point
iteration (Jacobi or Gauss-Seidel sweeps over the disciplines) of the
coupling map ``h(x, y) = a - D x + u + B y``, with ``B = I - C`` the stacked
coupling blocks. Generated problems make the assembled coupling matrix
strictly diagonally dominant, so the fixed-point iterations contract and the
residual ``y - h(x, y)`` decays geometrically.

The number of sweeps is derived, not set. A fixed-point solve sweeps until
its residual meets the tolerance; one still unconverged at sweep 30 gets the
further sweeps that its contraction bound, through ``q = ||B||_inf``, says it
needs (:func:`_extra_sweeps`), and one that converges within 30 sweeps never
computes that bound. On a system with ``q < 1``, which generation
guarantees, only round-off against a tiny tolerance can leave a solve
unconverged; one with ``q >= 1`` (only a hand-edited file holds one) stops at
sweep 30.

The residual of a Jacobi iterate is measured against its image under h,
which is also the next iterate, so a Jacobi sweep takes one product with B.
The first iterate is h at the start: from the zero start that is the
right-hand side itself, so s sweeps take s products with B, and from a warm
start y0 they take s + 1. Gauss-Seidel takes one product with B per sweep for
its residual, on top of its block updates. Sweep counts, which the benchmark
reports as discipline evaluations, count sweeps, not products.

One noise realization is swept as a (p,) vector. A block of m realizations
(the Monte-Carlo samples of one design point) is solved in one call over an
(m, p) iterate, whose converged rows leave the sweep. Its products are
computed row by row with the gemv of a single solve, so each row gets bit for
bit the result of a solve of its own.

Only the direct method imports ``scipy.linalg``, for its triangular solves;
the fixed-point sweeps use numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MDASettings", "MDAResult", "solve_mda"]

_METHODS = ("jacobi", "gauss_seidel", "direct")

# The sweeps every fixed-point solve may take before its budget is derived.
_FLOOR = 30


@dataclass(frozen=True)
class MDASettings:
    """How to solve the coupling equations.

    ``tol`` bounds the Euclidean norm of the coupling residual
    ``y - h(x, y)``, measured after every sweep. The number of fixed-point
    sweeps is derived from ``tol`` and the system (see the module
    docstring). A Jacobi solve of s sweeps takes s products with B from the
    zero start and s + 1 from a warm start, because each sweep's next iterate
    is the h its residual needed.
    """

    method: str = "jacobi"
    tol: float = 1e-4

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass
class MDAResult:
    """Outcome of one coupling solve, for one noise realization or a block.

    For a single realization ``y`` has shape (p,); for a block of m
    realizations it has shape (m, p), one row per realization. Each row stops
    sweeping once it has converged, so ``iterations``, the total number of
    sweeps over all rows, counts the same discipline evaluations as m
    separate solves; ``row_iterations`` splits it per row. ``converged`` is
    True when every row converged and ``row_converged`` says which did.
    ``residual`` is the largest final Euclidean norm of ``y - h(x, y)`` over
    the rows and ``residual_history`` records, after every sweep, the largest
    residual among the rows swept in it. Non-convergence, which on a system
    with ``||B||_inf < 1`` only round-off against a tiny ``tol`` can cause,
    is reported, not raised.
    """

    y: np.ndarray
    iterations: int
    residual: float
    converged: bool
    row_converged: np.ndarray
    row_iterations: np.ndarray
    residual_history: list[float] = field(default_factory=list)


def _matvec(A, Y):
    """``A @ y`` for a vector y, or for every row y of a stack Y.

    A stack takes one stacked gemv per row, the gemv that ``A @ y`` calls. A
    plain ``Y @ A.T`` gemm rounds differently in the last bits, so block
    results would not match single-realization solves.
    """
    if Y.ndim == 1:
        return A @ Y
    return np.matmul(A[None], Y[:, :, None])[:, :, 0]


def _row_norms(R):
    """Euclidean norm of a vector R (a float) or of every row of a stack R,
    each one dot product like ``norm(r)``."""
    if R.ndim == 1:
        return math.sqrt(R @ R)
    return np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])


def solve_mda(
    system,
    x,
    u=None,
    settings: MDASettings | None = None,
    y0=None,
) -> MDAResult:
    """Solve ``C y = a - D x + u`` for the coupling vector y.

    One realization is swept as a (p,) vector. A block of noise realizations
    is solved at once: every row of ``u`` gets exactly the iterates, sweep
    count, residual and convergence flag it would get on its own, and a
    block of one gets the result of the vector solve.

    Parameters
    ----------
    system : BlockSystem
        Assembled problem (owns the cached LU factorization).
    x : array_like, shape (d,)
        Design point. Points outside [0, 1]^d are solved like any other.
    u : array_like, shape (p,) or (m, p), optional
        Additive noise on the coupling equations: one realization or a block
        of m realizations, one per row (default 0).
    settings : MDASettings, optional
        Method and tolerance (default Jacobi, tol 1e-4). Every row of a
        block gets the sweep budget its own solve would get.
    y0 : array_like, shape (p,), optional
        Initial iterate of every row for the fixed-point methods (default 0).
        Ignored by the direct method.
    """
    if settings is None:
        settings = MDASettings()
    x = np.asarray(x, dtype=float)
    if x.shape != (system.d,):
        raise ValueError(f"x must have shape ({system.d},), got {x.shape}")
    p = system.p
    u = np.zeros(p) if u is None else np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != p or u.size == 0:
        raise ValueError(f"u must have shape ({p},) or (m, {p}) with m >= 1, got {u.shape}")
    if y0 is not None and settings.method != "direct":
        y0 = np.array(y0, dtype=float)  # a contiguous copy, for Gauss-Seidel to sweep
        if y0.shape != (p,):
            raise ValueError(f"y0 must have shape ({p},), got {y0.shape}")

    rhs = system.a - system.D @ x + u

    if settings.method == "direct":
        import scipy.linalg

        y = np.ascontiguousarray(scipy.linalg.lu_solve(system.lu, rhs.T, check_finite=False).T)
        residual = _row_norms(_matvec(system.C, y) - rhs)
        sweeps = 1 if u.ndim == 1 else np.ones(len(u), dtype=int)
        history = [float(np.max(residual))]
    else:
        fixed_point = _fixed_point_vector if u.ndim == 1 else _fixed_point_block
        # Sweeps that diverge (q >= 1) overflow to inf and NaN; those rows
        # stop unconverged, which reports the divergence.
        with np.errstate(over="ignore", invalid="ignore"):
            y, residual, sweeps, history = fixed_point(system, rhs, y0, settings)

    if u.ndim == 1:
        converged = residual <= settings.tol
        return MDAResult(
            y=y,
            iterations=sweeps,
            residual=residual,
            converged=converged,
            row_converged=np.array([converged]),
            row_iterations=np.array([sweeps]),
            residual_history=history,
        )
    row_converged = residual <= settings.tol
    return MDAResult(
        y=y,
        iterations=int(sweeps.sum()),
        residual=float(residual.max()),
        converged=bool(row_converged.all()),
        row_converged=row_converged,
        row_iterations=sweeps,
        residual_history=history,
    )


def _first_h(B, rhs, y0):
    """``rhs + B @ y0``: h at the start iterate, which is the first Jacobi
    iterate.

    From the zero start it takes no product with B: ``rhs + 0.0`` is bit for
    bit ``rhs + B @ 0``, because gemv's ``B @ 0`` is +0.0 everywhere (both
    turn a -0.0 in rhs into +0.0). A warm start takes ``B @ y0`` once, as one
    vector, which every row of a block shares.
    """
    return rhs + (0.0 if y0 is None else _matvec(B, y0))


def _extra_sweeps(system, jacobi, tol, residual):
    """Sweeps past sweep 30 that bring the residual's bound to ``tol``.

    ``residual`` is the residual at sweep 30 of one solve (a float) or of
    every row of a block (an array); the result is an int array of its
    shape. Let ``q = ||B||_inf``. A Jacobi residual obeys ``r_k = B r_{k-1}``,
    so ``||r_{30+n}||_2 <= sqrt(p) q^n ||r_30||_2``. A Gauss-Seidel sweep
    shrinks the max norm of the error e by q as well, and its residual is
    ``C e`` with ``||C||_inf <= 1 + q`` and ``||C^-1||_inf <= 1 / (1 - q)``,
    which adds the factor ``(1 + q) / (1 - q)`` to that bound. The count is
    the least n that brings the bound to ``tol``. A system with ``q >= 1``
    and a residual that is not finite get none. One numpy expression serves
    a single solve and a block, so each row gets the count of its own solve.
    """
    q = system.iteration_norm
    if not q < 1.0:
        return np.zeros(np.shape(residual), dtype=int)
    bound = math.sqrt(system.p) * (1.0 if jacobi else (1.0 + q) / (1.0 - q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = np.ceil(np.log(tol / (bound * residual)) / np.log(q))
    return np.where(np.isfinite(n), n, 0.0).astype(int)


def _fixed_point_vector(system, rhs, y0, settings):
    """Jacobi or Gauss-Seidel sweeps of one (p,) iterate.

    Returns ``(y, final residual, sweeps, history)``, the residual a float.
    """
    B = system.iteration_matrix
    jacobi = settings.method == "jacobi"
    if jacobi:
        h = _first_h(B, rhs, y0)
    else:
        y = np.zeros_like(rhs) if y0 is None else y0
    history = []
    budget = _FLOOR
    for sweep in itertools.count(1):
        if jacobi:
            y = h
        else:
            # Gauss-Seidel: sweep discipline blocks in order. The diagonal
            # blocks of B are zero, so B[block] @ y picks up fresh values for
            # already-updated blocks and stale ones for the rest.
            for block in system.block_slices:
                y[block] = rhs[block] + _matvec(B[block], y)
        h = rhs + _matvec(B, y)
        residual = _row_norms(y - h)
        history.append(residual)
        if residual <= settings.tol:
            break
        if sweep == _FLOOR:
            budget += int(_extra_sweeps(system, jacobi, settings.tol, residual))
        if sweep == budget:
            break
    return y, residual, sweep, history


def _fixed_point_block(system, rhs, y0, settings):
    """Jacobi or Gauss-Seidel sweeps over the rows of an (m, p) block.

    Only rows that have not yet converged are swept: they are kept packed in
    ``active`` (iterates), ``active_rhs``, ``h`` (``rhs + B y`` of each
    iterate y, which is also its next Jacobi iterate), ``rows`` (their row
    numbers) and, from sweep 30, ``budget`` (their sweep budgets). A row is
    written back to Y when it converges or its budget runs out. Returns
    ``(Y, final residual per row, sweeps per row, history)``.
    """
    B = system.iteration_matrix
    jacobi = settings.method == "jacobi"
    m = rhs.shape[0]
    Y = np.zeros_like(rhs)
    if y0 is not None:
        Y[:] = y0
    residual = np.empty(m)
    sweeps = np.empty(m, dtype=int)
    history = []
    rows = np.arange(m)
    active, active_rhs = Y, rhs
    if jacobi:
        h = _first_h(B, rhs, y0)
    for sweep in itertools.count(1):
        if jacobi:
            active = h
        else:
            for block in system.block_slices:
                active[:, block] = active_rhs[:, block] + _matvec(B[block], active)
        h = active_rhs + _matvec(B, active)
        res = _row_norms(active - h)
        history.append(float(res.max()))
        done = res <= settings.tol
        if sweep >= _FLOOR:
            if sweep == _FLOOR:
                budget = _FLOOR + _extra_sweeps(system, jacobi, settings.tol, res)
            done |= budget == sweep
        if done.any():
            finished = rows[done]
            Y[finished] = active[done]
            residual[finished] = res[done]
            sweeps[finished] = sweep
            if done.all():
                break
            keep = ~done
            rows, active, active_rhs, h = rows[keep], active[keep], active_rhs[keep], h[keep]
            if sweep >= _FLOOR:
                budget = budget[keep]
    return Y, residual, sweeps, history
