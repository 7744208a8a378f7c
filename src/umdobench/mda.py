"""Coupling-equation solvers (multidisciplinary analysis).

For a fixed design point x and noise realization u the coupling equations of
an assembled system read ``C y = a - D x + u``. This module solves them
either directly through the cached LU factorization or by block fixed-point
iteration (Jacobi or Gauss-Seidel sweeps over the disciplines). Generated
problems make the assembled coupling matrix strictly diagonally dominant, so
the fixed-point iterations contract and the residual decays geometrically.
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
    """Outcome of one coupling solve.

    ``residual`` is the Euclidean norm of ``y - h(x, y)`` at the returned
    iterate and ``residual_history`` records it after every sweep.
    ``in_domain`` flags whether the design point lay inside the unit
    hypercube; out-of-box points are solved anyway. Non-convergence is
    reported through ``converged``, not raised.
    """

    y: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    in_domain: bool = True


def solve_mda(
    system,
    x,
    u=None,
    settings: MDASettings | None = None,
    y0=None,
) -> MDAResult:
    """Solve ``C y = a - D x + u`` for the coupling vector y.

    Parameters
    ----------
    system : BlockSystem
        Assembled problem (owns the cached LU factorization).
    x : array_like, shape (d,)
        Design point. Points outside [0, 1]^d are flagged via
        ``MDAResult.in_domain`` but still solved.
    u : array_like, shape (p,), optional
        Additive noise realization on the coupling equations (default 0).
    settings : MDASettings, optional
        Method and stopping rule (default Jacobi, tol 1e-4, 30 sweeps).
    y0 : array_like, shape (p,), optional
        Initial iterate for the fixed-point methods (default 0). Ignored by
        the direct method.
    """
    if settings is None:
        settings = MDASettings()
    x = np.asarray(x, dtype=float)
    if x.shape != (system.d,):
        raise ValueError(f"x must have shape ({system.d},), got {x.shape}")
    if u is None:
        u = np.zeros(system.p)
    else:
        u = np.asarray(u, dtype=float)
        if u.shape != (system.p,):
            raise ValueError(f"u must have shape ({system.p},), got {u.shape}")
    in_domain = bool(np.all((x >= 0.0) & (x <= 1.0)))

    rhs = system.a - system.D @ x + u

    if settings.method == "direct":
        y = scipy.linalg.lu_solve(system.lu, rhs, check_finite=False)
        residual = float(np.linalg.norm(system.C @ y - rhs))
        return MDAResult(
            y=y,
            iterations=1,
            residual=residual,
            converged=residual <= settings.tol,
            residual_history=[residual],
            in_domain=in_domain,
        )

    B = system.iteration_matrix
    y = np.zeros(system.p) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (system.p,):
        raise ValueError(f"y0 must have shape ({system.p},), got {y.shape}")

    history = []
    converged = False
    iterations = 0
    for _ in range(settings.max_iter):
        if settings.method == "jacobi":
            y = rhs + B @ y
        else:
            # Gauss-Seidel: sweep discipline blocks in order. The diagonal
            # blocks of B are zero, so B[rows] @ y picks up fresh values for
            # already-updated blocks and stale ones for the rest.
            for rows in system.block_slices:
                y[rows] = rhs[rows] + B[rows] @ y
        iterations += 1
        residual = float(np.linalg.norm(system.C @ y - rhs))
        history.append(residual)
        if residual <= settings.tol:
            converged = True
            break

    return MDAResult(
        y=y,
        iterations=iterations,
        residual=history[-1],
        converged=converged,
        residual_history=history,
        in_domain=in_domain,
    )

