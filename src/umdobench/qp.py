"""Convex-QP reductions and the interior-point reference solver.

Eliminating the coupling variables through the exact linear map turns the
deterministic problem into a convex QP over the unit design box

    min 0.5 x'Qx + c'x + d0   s.t.  A x <= b,  0 <= x <= 1

with Q = 2(beta'beta + I_s), c = 2 beta'alpha, d0 = alpha'alpha, A = -beta
and b = alpha - t, where I_s is the identity on the first d_shared (shared)
design variables and zero elsewhere. The robust variants keep Q, c and A
and only move the right-hand side by kappa propagated standard deviations
of each coupling output (:func:`reduce_margin`): kappa = 0 for the expectation, the margin
width for the margin, and kappa = -Phi^-1(epsilon) for the Gaussian chance
constraint at level epsilon (:func:`reduce_probability`). The shift reads
the noise only through the propagated variances diag(P Sigma P') of
:meth:`~umdobench.problem.BlockSystem.output_variance`, and it adds the
expected quadratic noise energy trace(P'P Sigma) to the objective constant
so that reported optima are comparable with sampled estimates of the robust
objective.

Solutions come from a dense primal-dual path-following interior-point method
(predictor-corrector), giving reference optima certified by their KKT
residuals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .problem import _emit

__all__ = [
    "QPData",
    "QPSolution",
    "reduce_deterministic",
    "reduce_margin",
    "reduce_probability",
    "solve_qp",
    "check_positive_definite",
    "export_qp",
]


@dataclass(frozen=True)
class QPData:
    """An inequality QP on the unit box: min 0.5 x'Qx + c'x + d0 subject to
    Ax <= b and 0 <= x <= 1.

    ``d0`` is an additive objective constant carried along so that optimal
    values can be compared across problem variants.
    """

    Q: np.ndarray
    c: np.ndarray
    d0: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        d = c.size
        if Q.shape != (d, d):
            raise ValueError(f"Q must have shape ({d}, {d}), got {Q.shape}")
        if not np.allclose(Q, Q.T, atol=1e-10):
            raise ValueError("Q must be symmetric")
        if A.size == 0:
            A = A.reshape(0, d)
        if A.shape[1] != d:
            raise ValueError(f"A must have {d} columns, got {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got {b.shape}")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "d0", float(self.d0))

    @property
    def dim(self) -> int:
        return self.c.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x + self.d0)

    def constraints(self, x) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) - self.b


@dataclass
class QPSolution:
    """Certified solution of a :class:`QPData` instance.

    ``kkt_residual`` is the maximum over the stationarity, primal
    feasibility and complementarity residuals at the returned point.
    ``status`` is ``optimal``, ``infeasible`` (Farkas certificate found) or
    ``max_iter``.
    """

    status: str
    x_star: np.ndarray
    f_star: float
    g_star: np.ndarray
    kkt_residual: float
    iterations: int = 0


def reduce_deterministic(system, t: float) -> QPData:
    """Eliminate the coupling variables of the noise-free problem.

    The resulting QP is exactly equivalent: its objective equals the summed
    squares of the shared design variables and the coupling outputs, and row
    j of ``A x - b`` equals ``t - y_j(x)``.
    """
    alpha, beta, _ = system.linear_map
    Q = 2.0 * (beta.T @ beta)
    shared = np.arange(system.d_shared)
    Q[shared, shared] += 2.0
    c = 2.0 * beta.T @ alpha
    d0 = float(alpha @ alpha)
    A = -beta
    b = alpha - t
    return QPData(Q=Q, c=c, d0=d0, A=A, b=b)


def reduce_margin(system, t: float, sigma, kappa: float) -> QPData:
    """Reduce the mean-plus-kappa-standard-deviations robust problem.

    The constraint right-hand side tightens by kappa propagated standard
    deviations per coupling output; the objective constant grows by the
    expected quadratic noise energy trace(P'P Sigma). Both come from
    :meth:`~umdobench.problem.BlockSystem.output_variance`. A non-finite
    ``kappa`` raises ValueError.
    """
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    base = reduce_deterministic(system, t)
    var = system.output_variance(sigma)
    return QPData(
        Q=base.Q,
        c=base.c,
        d0=base.d0 + float(var.sum()),
        A=base.A,
        b=base.b - kappa * np.sqrt(var),
    )


def reduce_probability(system, t: float, epsilon: float, sigma) -> QPData:
    """Reduce the Gaussian chance-constrained robust problem.

    Componentwise semantics: constraint row j becomes
    ``(A x - b)_j <= q_epsilon_j`` with q the epsilon-quantile of the j-th
    propagated noise component, ``sqrt(diag(P Sigma P')) * z_epsilon``. That
    is the margin at ``kappa = -z_epsilon``, so this is
    :func:`reduce_margin` at that kappa, bit for bit.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return reduce_margin(system, t, sigma, -scipy.special.ndtri(epsilon))


def check_positive_definite(qp: QPData) -> tuple[bool, float]:
    """Smallest eigenvalue test of the quadratic form.

    Returns ``(is_pd, lambda_min)`` with the threshold scaled by the trace,
    so near-singular forms from rank-deficient design maps report False.
    """
    w = np.linalg.eigvalsh(0.5 * (qp.Q + qp.Q.T))
    lambda_min = float(w[0])
    threshold = 1e-12 * max(np.trace(qp.Q) / qp.dim, np.finfo(float).tiny)
    return lambda_min > threshold, lambda_min


def _stack_inequalities(qp: QPData):
    """Fold the unit box into the inequality system G x <= h."""
    d = qp.dim
    eye = np.eye(d)
    G = np.vstack([qp.A, eye, -eye])
    h = np.concatenate([qp.b, np.ones(d), -np.zeros(d)])  # x <= 1 and -x <= -0
    return G, h


# The interior-point iteration budget; the benchmark's reference QPs (p = 6
# to 600) converge in 9-11 iterations. A solve that exhausts it reports
# status "max_iter".
_MAX_ITER = 100


def solve_qp(qp: QPData, tol: float = 1e-9) -> QPSolution:
    """Solve the QP with a predictor-corrector interior-point method.

    The iterate starts at the midpoint of the box. The box is folded into
    the inequality system and the slack/dual pair is driven along the
    central path; each iteration factors the dense normal matrix
    ``Q + G' W G`` (always positive definite thanks to the box rows) and
    takes a Mehrotra predictor plus corrector step with a 0.995
    fraction-to-boundary rule. Convergence is declared when the maximum of
    the stationarity, primal-feasibility and complementarity residuals drops
    below ``tol``, within at most 100 iterations (``status="max_iter"``
    otherwise).

    Primal infeasibility is recognized through a Farkas certificate carried
    by the diverging duals (``G'z ~ 0`` with ``h'z < 0``) and reported as
    ``status="infeasible"`` rather than raised.
    """
    G, h = _stack_inequalities(qp)
    d, m = qp.dim, G.shape[0]
    Q, c = qp.Q, qp.c

    x = np.full(d, 0.5)
    s = np.maximum(h - G @ x, 1e-2)
    z = np.ones(m)

    def residuals(x, s, z):
        r_d = Q @ x + c + G.T @ z
        r_p = G @ x + s - h
        mu = s @ z / m
        return r_d, r_p, mu

    status = "max_iter"
    kkt = np.inf
    iterations = 0
    # The distance of the iterate to the argmin scales like mu divided by
    # the smallest curvature, so complementarity is pushed three decades
    # below the KKT tolerance; Mehrotra steps make that 1-2 extra iterations.
    mu_target = 1e-3 * tol
    for iterations in range(1, _MAX_ITER + 1):
        r_d, r_p, mu = residuals(x, s, z)
        feas = max(float(np.abs(r_d).max()), float(np.abs(r_p).max()))
        kkt = max(feas, float(mu))
        if feas <= tol and mu <= mu_target:
            status = "optimal"
            break

        # Farkas certificate for an empty feasible set: a nonnegative dual
        # combination of the rows vanishing while the right-hand side
        # combination is negative.
        z_scale = float(z.sum())
        if z_scale > 1e8:
            zn = z / z_scale
            if h @ zn < -1e-10 and np.abs(G.T @ zn).max() <= 1e-8 * (-(h @ zn)):
                status = "infeasible"
                break

        w = z / np.maximum(s, 1e-300)
        M = Q + (G.T * w) @ G
        try:
            chol = scipy.linalg.cho_factor(M, check_finite=False)
        except scipy.linalg.LinAlgError:
            M = M + 1e-12 * max(1.0, np.trace(M)) * np.eye(d)
            chol = scipy.linalg.cho_factor(M, check_finite=False)

        def newton_step(r_c):
            rhs = -r_d - G.T @ ((z * r_p - r_c) / s)
            dx = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
            ds = -r_p - G @ dx
            dz = -(r_c + z * ds) / s
            return dx, ds, dz

        def max_step(v, dv):
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            return min(1.0, float(np.min(-v[neg] / dv[neg])))

        # Predictor (affine scaling) step.
        dx_a, ds_a, dz_a = newton_step(s * z)
        alpha_a = min(max_step(s, ds_a), max_step(z, dz_a))
        mu_aff = (s + alpha_a * ds_a) @ (z + alpha_a * dz_a) / m
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        # Corrector step re-using the factorization.
        dx, ds, dz = newton_step(s * z + ds_a * dz_a - sigma * mu)
        alpha = 0.995 * min(max_step(s, ds), max_step(z, dz))

        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

    return QPSolution(
        x_star=x,
        f_star=qp.objective(x),
        g_star=qp.constraints(x),
        kkt_residual=float(kkt),
        status=status,
        iterations=iterations,
    )


def export_qp(qp: QPData) -> bytes:
    """Render the QP as canonical JSON bytes for external cross-checks; the
    unit box follows ``b`` as ``lower`` and ``upper``."""
    box = {"lower": np.zeros(qp.dim), "upper": np.ones(qp.dim)}
    return _emit({**asdict(qp), **box}).encode("ascii")
