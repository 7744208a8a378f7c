"""Statistic-wrapped optimization of the coupled problem (MDF form).

The robust problem is posed directly on the coupled system: at every design
point the objective and constraint statistics are estimated through coupling
solves (one block solve over all Monte-Carlo realizations, or a single solve
for the Taylor estimator) and handed to a gradient-based optimizer (SLSQP).
Every coupled output is affine in the design, ``y = alpha + beta x + P u``,
so the gradients come from the mean outputs of the same evaluation and the
cached ``beta``, at no extra coupling solve. Reference solutions from the QP
reduction quantify the estimation error of each pipeline.

An evaluator reads an assembled system and never builds one, so a
benchmark's reference QP and all of its runs share one system and its caches.

``scipy.optimize`` is loaded on the first :func:`optimize` call, not when
the package is imported: the reference chain never needs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .mda import MDASettings, solve_mda
# ``assemble`` and ``exact_stats`` are unused here; perfbench's SPAN_POINTS
# and tests/test_tracer_points.py look them up under ``umdobench.driver``.
from .problem import UncertaintyModel, assemble  # noqa: F401
from .uq import GaussianSampler, composed_value, exact_stats, mc_estimate  # noqa: F401

__all__ = [
    "OptimizerSettings",
    "RunResult",
    "RobustEvaluator",
    "optimize",
    "percent_errors",
]

# The estimator kinds, and the sample size of ``mc`` when a label or caller
# gives none.
_ESTIMATORS = ("mc", "taylor", "exact")
_DEFAULT_M = 200

# SLSQP's stopping tolerance on the objective change. It can be this tight
# because the gradients are analytic: runs on the benchmark problems stop
# after 10-30 iterations.
_FTOL = 1e-12

# The feasibility tolerance on the composed constraints that a run must meet
# to count as converged.
_G_TOL = 1e-4


@dataclass(frozen=True)
class OptimizerSettings:
    """Iteration budget of the optimizer (SLSQP).

    ``max_iter`` caps SLSQP's iterations. Every run starts at the midpoint
    of the unit box, and counts as converged only with every composed
    constraint below the fixed tolerance ``1e-4``.
    """

    max_iter: int = 100

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class RunResult:
    """Outcome of one optimizer run on the statistic-wrapped problem.

    ``message`` is SLSQP's stop reason. ``converged`` also requires that the
    evaluation at ``x_opt`` converged (see
    :attr:`RobustEvaluator.point_converged`), so a run whose reported values
    rest on unconverged coupling solves never reads as converged.
    """

    x_opt: np.ndarray
    f_opt: float
    g_opt: np.ndarray
    n_discipline_evals: int
    n_optimizer_iters: int
    converged: bool
    message: str
    estimator: str
    wall_time: float


class RobustEvaluator:
    """Shared objective/constraint evaluation with per-point caching.

    ``system`` is the problem's assembled ``BlockSystem`` and ``t`` its
    threshold. The system is only read, so evaluators and the reference QP
    can share it and the maps cached on it.

    The optimizer queries the objective, the constraints and their gradients
    separately at the same design point; a single-entry cache makes all of
    them read one statistical evaluation. The evaluator owns the
    discipline-evaluation counter (one unit = one sweep of all disciplines,
    i.e. one fixed-point iteration or one direct solve, counted per
    realization) and the dropped-realization counter. A Monte-Carlo design
    point costs one block coupling solve over all ``m`` realizations; the
    deterministic estimators ignore ``m``. ``point_converged`` says whether
    the cached evaluation converged: for ``taylor`` its coupling solve, for
    ``mc`` every realization's (none was dropped); ``exact`` solves none.

    No solver state is carried between design points: every coupling solve
    starts from an iterate computed at the same point, so each evaluation is
    a pure function of ``(x, seed)`` and does not depend on the path the
    optimizer took to reach ``x``. Monte-Carlo runs reuse the same noise
    realizations at every design point (common random numbers); repetitions
    differ only through their seeds.

    ``sigma`` is the coupling noise, an
    :class:`~umdobench.problem.UncertaintyModel` whose ``p_coupling`` matches
    the system's, or None for zero noise.

    What does not depend on the design point is computed once, when the
    evaluator is built, so its errors surface from the constructor rather
    than from the first evaluation:

    * ``mc``: the (m, p) noise sample, one ``GaussianSampler.draw(m, seed)``
      that every design point reuses; ``m`` and ``seed`` serve only this
      draw. Under a fixed-point method every realization starts from the
      mean-noise solution at the same point, one more coupling solve.
    * ``exact`` and ``taylor``: the propagated constraint std and, for
      ``exact``, the noise energy (a singular coupling matrix or a negative
      propagated variance raises here). These two estimators differ only in
      the mean-noise outputs, the affine map or a coupling solve, and build
      no sampler.
    """

    def __init__(self, system, t, sigma, spec, estimator, m=_DEFAULT_M, seed=0, mda_settings=None):
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        if estimator == "mc" and m < 2:
            raise ValueError("mc estimator needs m >= 2")
        model = _noise_model(system.p_coupling, sigma)
        self.system = system
        self.t = t
        self.spec = spec
        self.estimator = estimator
        self.mda_settings = mda_settings or MDASettings()
        if estimator == "mc":
            # Common random numbers: one sample serves every design point.
            self._samples = GaussianSampler(model).draw(m, seed)
        else:
            # Constraints are linear in the noise with gradient -P', so the
            # first-order std is exact. The Taylor objective is the value at
            # the mean noise and misses the noise energy by design.
            var = system.output_variance(model.sigma)
            self._std = np.sqrt(var)
            self._noise_energy = float(var.sum()) if estimator == "exact" else 0.0

        self.n_discipline_evals = 0
        self.n_point_evals = 0
        self.n_failed_samples = 0
        self._cache_key = None
        self._cache_value = None
        self._cache_y = None
        self.point_converged = True

    # -- per-sample physics -----------------------------------------------

    def _coupled_outputs(self, x, U, y0):
        """One block coupling solve over the rows of U.

        Returns one row ``[objective, constraints...]`` per realization; the
        rows whose solve did not converge are NaN, so the estimator drops them.
        """
        result = solve_mda(self.system, x, U, self.mda_settings, y0=y0)
        self.n_discipline_evals += result.iterations
        Y = result.y
        x0 = x[: self.system.d_shared]
        # Row-wise dot products, each rounded exactly like y @ y.
        f = x0 @ x0 + np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0]
        values = np.concatenate([f[:, None], self.t - Y], axis=1)
        values[~result.row_converged] = np.nan
        return values

    # -- statistic composition per estimator --------------------------------

    def _evaluate_point(self, x):
        if self.estimator != "mc":
            if self.estimator == "exact":
                alpha, beta, _ = self.system.linear_map
                y = alpha + beta @ x
                self.n_discipline_evals += 1
                converged = True
            else:
                result = solve_mda(self.system, x, settings=self.mda_settings)
                self.n_discipline_evals += result.iterations + 1
                y, converged = result.y, result.converged
            x0 = x[: self.system.d_shared]
            f = float(x0 @ x0 + y @ y + self._noise_energy)
            g = composed_value(self.t - y, self._std, self.spec)
            return f, g, y, converged

        # Warm start every realization from the mean-noise solution at this
        # same point, so the value at x does not depend on the points
        # evaluated before it. The direct method needs no start.
        y0 = None
        if self.mda_settings.method != "direct":
            center = solve_mda(self.system, x, settings=self.mda_settings)
            self.n_discipline_evals += center.iterations
            y0 = center.y
        est = mc_estimate(self._coupled_outputs(x, self._samples, y0))
        self.n_failed_samples += est.n_failed
        f = float(est.mean[0])
        g = composed_value(est.mean[1:], est.std[1:], self.spec)
        # The mean of the kept rows' outputs.
        return f, g, self.t - est.mean[1:], est.n_failed == 0

    def evaluate(self, x):
        """Objective and constraint statistics at x, cached per point with
        the mean outputs that :meth:`gradient` reads."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != self._cache_key:
            f, g, self._cache_y, self.point_converged = self._evaluate_point(x)
            self._cache_value = f, g
            self._cache_key = key
            self.n_point_evals += 1
        return self._cache_value

    def gradient(self, x):
        """Objective gradient and constraint Jacobian at x, shapes (d,), (p, d).

        Every output is affine in x with slope ``beta``, so with ``ybar`` the
        mean outputs of the cached evaluation at x, the objective gradient is
        ``2 [x0; 0] + 2 beta' ybar`` and the constraint Jacobian is
        ``-beta``. The std part of the constraints does not depend on x: it
        is a closed form, or a sample std under common random numbers. So
        this adds no evaluation at a point that was already evaluated.
        """
        self.evaluate(x)
        beta = self.system.linear_map[1]
        grad_f = 2.0 * (self._cache_y @ beta)
        d_shared = self.system.d_shared
        grad_f[:d_shared] += 2.0 * np.asarray(x, dtype=float)[:d_shared]
        return grad_f, -beta

    def objective(self, x) -> float:
        return self.evaluate(x)[0]

    def constraints(self, x) -> np.ndarray:
        return self.evaluate(x)[1]


def _noise_model(p_coupling, sigma) -> UncertaintyModel:
    """The noise on coupling blocks ``p_coupling``: ``sigma``, or zero if None.

    Raises ValueError unless ``sigma`` is None or an
    :class:`~umdobench.problem.UncertaintyModel` with these blocks.
    """
    if sigma is None:
        return UncertaintyModel.isotropic(p_coupling, 0.0)
    got = sigma.p_coupling if isinstance(sigma, UncertaintyModel) else type(sigma).__name__
    if got != p_coupling:
        raise ValueError(
            f"sigma must be an UncertaintyModel with p_coupling {p_coupling}, got {got}"
        )
    return sigma


def optimize(evaluator: RobustEvaluator, settings: OptimizerSettings | None = None) -> RunResult:
    """Minimize the evaluator's objective subject to its constraints <= 0
    and the unit box, in the evaluator's ``system.d`` design variables.

    Runs SLSQP from the midpoint of the box on the evaluator's values and
    analytic gradients, with the box as bounds, and returns its final
    iterate. ``converged`` is True when SLSQP reports success, every
    constraint is below ``1e-4`` and the evaluation at the final iterate
    converged; ``message`` says why SLSQP stopped.
    """
    if settings is None:
        settings = OptimizerSettings()
    dim = evaluator.system.d
    evals_before = evaluator.n_discipline_evals

    # Local so that importing the package does not load scipy.optimize.
    import scipy.optimize

    start = time.perf_counter()
    res = scipy.optimize.minimize(
        evaluator.objective,
        np.full(dim, 0.5),
        method="SLSQP",
        jac=lambda x: evaluator.gradient(x)[0],
        bounds=[(0.0, 1.0)] * dim,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda x: -evaluator.constraints(x),
                "jac": lambda x: -evaluator.gradient(x)[1],
            }
        ],
        options={"maxiter": settings.max_iter, "ftol": _FTOL},
    )
    x_opt = np.array(res.x, dtype=float)
    f_opt, g_opt = evaluator.evaluate(x_opt)
    wall = time.perf_counter() - start

    return RunResult(
        x_opt=x_opt,
        f_opt=f_opt,
        g_opt=g_opt,
        n_discipline_evals=evaluator.n_discipline_evals - evals_before,
        n_optimizer_iters=int(res.nit),
        converged=bool(res.success)
        and float(np.max(g_opt)) <= _G_TOL
        and evaluator.point_converged,
        message=str(res.message),
        estimator=evaluator.estimator,
        wall_time=wall,
    )


def percent_errors(run: RunResult, ref) -> tuple[float, float, float]:
    """Percent deviations of a run from the QP reference solution.

    Returns ``(dx, df, dg)``: 100 times the Euclidean distance between the
    run and reference design/objective/constraint values, divided by the
    norm of the reference quantity.
    """
    if ref.status != "optimal":
        raise ValueError(f"reference solution is not optimal (status={ref.status!r})")

    def pct(delta, ref_norm, label):
        if ref_norm == 0.0:
            raise UndefinedMetricError(f"reference {label} has zero norm")
        return 100.0 * delta / ref_norm

    dx = pct(
        float(np.linalg.norm(run.x_opt - ref.x_star)),
        float(np.linalg.norm(ref.x_star)),
        "design",
    )
    df = pct(abs(run.f_opt - ref.f_star), abs(ref.f_star), "objective")
    dg = pct(
        float(np.linalg.norm(run.g_opt - ref.g_star)),
        float(np.linalg.norm(ref.g_star)),
        "constraints",
    )
    return dx, df, dg
