"""Coupling-equation solvers (multidisciplinary analysis).

For a fixed design point x and noise realization u the coupling equations of
an assembled system read ``C y = a - D x + u``. This module solves them
either directly through the cached LU factorization or by block fixed-point
iteration (Jacobi or Gauss-Seidel sweeps over the disciplines). Generated
problems make the assembled coupling matrix strictly diagonally dominant, so
the fixed-point iterations contract and the residual decays geometrically.

A block of m noise realizations (the Monte-Carlo samples of one design point)
is solved in one call over an (m, p) iterate. Its products are computed row by
row, so each row gets bit for bit the result of a solve of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["MDASettings", "MDAResult", "solve_mda"]

_METHODS = ("jacobi", "gauss_seidel", "direct")


@dataclass(frozen=True)
class MDASettings:
    """How to solve the coupling equations.

    ``tol`` bounds the Euclidean norm of the coupling residual
    ``y - h(x, y)``; ``max_iter`` caps the number of fixed-point sweeps.
    ``warm_start`` lets callers start the fixed-point methods from a nearby
    coupling vector instead of zero; the Monte-Carlo estimator of
    :class:`~umdobench.driver.RobustEvaluator` then starts every realization
    from the mean-noise solution at the same design point. The direct method
    ignores it.
    """

    method: str = "jacobi"
    tol: float = 1e-4
    max_iter: int = 30
    warm_start: bool = True

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    residual among the rows swept in it. Non-convergence is reported, not
    raised.
    """

    y: np.ndarray
    iterations: int
    residual: float
    converged: bool
    row_converged: np.ndarray
    row_iterations: np.ndarray
    residual_history: list[float] = field(default_factory=list)


def _matvec(A, Y):
    """``A @ y`` for every row y of Y, as one stacked gemv per row.

    A plain ``Y @ A.T`` gemm rounds differently in the last bits, so block
    results would not match single-realization solves.
    """
    return np.matmul(A[None], Y[:, :, None])[:, :, 0]


def _row_norms(R):
    """Euclidean norm of every row of R, each a dot product like ``norm(r)``."""
    return np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])


def solve_mda(
    system,
    x,
    u=None,
    settings: MDASettings | None = None,
    y0=None,
) -> MDAResult:
    """Solve ``C y = a - D x + u`` for the coupling vector y.

    A block of noise realizations is solved at once: every row of ``u`` gets
    exactly the iterates, sweep count and convergence flag it would get on
    its own.

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
        Method and stopping rule (default Jacobi, tol 1e-4, 30 sweeps).
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
    m = 1 if u.ndim == 1 else u.shape[0]

    rhs = system.a - system.D @ x + u.reshape(m, p)

    if settings.method == "direct":
        Y = np.ascontiguousarray(scipy.linalg.lu_solve(system.lu, rhs.T, check_finite=False).T)
        residual = _row_norms(_matvec(system.C, Y) - rhs)
        sweeps = np.ones(m, dtype=int)
        history = [float(residual.max())]
    else:
        Y = np.zeros((m, p))
        if y0 is not None:
            y0 = np.asarray(y0, dtype=float)
            if y0.shape != (p,):
                raise ValueError(f"y0 must have shape ({p},), got {y0.shape}")
            Y[:] = y0
        residual, sweeps, history = _fixed_point(system, Y, rhs, settings)

    row_converged = residual <= settings.tol
    return MDAResult(
        y=Y if u.ndim == 2 else Y[0],
        iterations=int(sweeps.sum()),
        residual=float(residual.max()),
        converged=bool(row_converged.all()),
        row_converged=row_converged,
        row_iterations=sweeps,
        residual_history=history,
    )


def _fixed_point(system, Y, rhs, settings):
    """Jacobi or Gauss-Seidel sweeps over the rows of Y, in place.

    Only rows that have not yet converged are swept: they are kept packed in
    ``active`` (iterates), ``active_rhs`` and ``rows`` (their row numbers),
    and a row is written back to Y when it converges or the budget runs out.
    Returns ``(final residual per row, sweeps per row, history)``.
    """
    B = system.iteration_matrix
    m = Y.shape[0]
    residual = np.empty(m)
    sweeps = np.empty(m, dtype=int)
    history = []
    rows = np.arange(m)
    active, active_rhs = Y, rhs
    for sweep in range(1, settings.max_iter + 1):
        if settings.method == "jacobi":
            active = active_rhs + _matvec(B, active)
        else:
            # Gauss-Seidel: sweep discipline blocks in order. The diagonal
            # blocks of B are zero, so B[block] @ y picks up fresh values for
            # already-updated blocks and stale ones for the rest.
            for block in system.block_slices:
                active[:, block] = active_rhs[:, block] + _matvec(B[block], active)
        res = _row_norms(_matvec(system.C, active) - active_rhs)
        history.append(float(res.max()))
        # A row leaves when it converges or the budget runs out.
        done = (res <= settings.tol) | (sweep == settings.max_iter)
        if done.any():
            finished = rows[done]
            Y[finished] = active[done]
            residual[finished] = res[done]
            sweeps[finished] = sweep
            keep = ~done
            rows, active, active_rhs = rows[keep], active[keep], active_rhs[keep]
            if rows.size == 0:
                break
    return residual, sweeps, history
