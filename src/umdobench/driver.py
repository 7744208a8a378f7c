"""Statistic-wrapped optimization of the coupled problem (MDF form).

The robust problem is posed directly on the coupled system: at every design
point the objective and constraint statistics are estimated through coupling
solves (one block solve over all Monte-Carlo realizations, or a single solve
for the Taylor estimator) and handed to a derivative-free trust-region
optimizer (COBYLA). Reference solutions from the QP reduction quantify the
estimation error of each pipeline.

An evaluator reads an assembled system and never builds one, so a
benchmark's reference QP and all of its runs share one system and its caches.

``scipy.optimize`` is loaded on the first :func:`optimize` call, not when
the package is imported: the reference chain never needs it.
"""

from __future__ import annotations

import functools
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

_ESTIMATORS = ("mc", "taylor", "exact")


@dataclass(frozen=True)
class OptimizerSettings:
    """Budget and tolerances of the derivative-free optimizer (COBYLA).

    ``max_iter`` caps objective evaluations. ``g_tol`` is the feasibility
    tolerance on the composed constraints. The trust radius shrinks from
    ``initial_trust_radius`` to ``final_trust_radius``. ``x0`` defaults to
    the midpoint of the unit box.
    """

    max_iter: int = 100
    g_tol: float = 1e-4
    initial_trust_radius: float = 0.5
    final_trust_radius: float = 1e-6
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.g_tol > 0:
            raise ValueError("g_tol must be > 0")
        if not self.final_trust_radius < self.initial_trust_radius:
            raise ValueError("final_trust_radius must be below initial_trust_radius")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


@dataclass
class RunResult:
    """Outcome of one optimizer run on the statistic-wrapped problem."""

    x_opt: np.ndarray
    f_opt: float
    g_opt: np.ndarray
    n_discipline_evals: int
    n_optimizer_iters: int
    converged: bool
    estimator: str
    wall_time: float


class RobustEvaluator:
    """Shared objective/constraint evaluation with per-point caching.

    ``system`` is the problem's assembled ``BlockSystem`` and ``t`` its
    threshold. The system is only read, so evaluators and the reference QP
    can share it and the maps cached on it.

    The optimizer queries the objective and the constraints separately at the
    same design point; a single-entry cache makes both read one statistical
    evaluation. The evaluator owns the discipline-evaluation counter (one
    unit = one sweep of all disciplines, i.e. one fixed-point iteration or
    one direct solve, counted per realization) and the dropped-realization
    counter. A Monte-Carlo design point costs one block coupling solve over
    all ``m`` realizations.

    No solver state is carried between design points: every coupling solve
    starts from an iterate computed at the same point, so each evaluation is
    a pure function of ``(x, seed)`` and does not depend on the path the
    optimizer took to reach ``x``. Monte-Carlo runs reuse the same noise
    realizations at every design point (common random numbers); repetitions
    differ only through their seeds.

    ``sigma`` is the coupling noise, an
    :class:`~umdobench.problem.UncertaintyModel` whose ``p_coupling`` matches
    the system's, or None for zero noise.

    The ``exact`` and ``taylor`` estimators differ only in the mean-noise
    outputs (the affine map or a coupling solve). Their propagated std and
    noise energy do not depend on the design point, so they are computed
    once, when the evaluator is built: their errors (a singular coupling
    matrix, a negative propagated variance) surface from the constructor
    rather than from the first evaluation.
    """

    def __init__(self, system, t, sigma, spec, estimator, m=200, seed=0, mda_settings=None):
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        if spec.constraint_stat == "probability":
            raise ValueError(
                "probability-constrained runs are reference-only; solve them "
                "through the chance-constrained QP reduction"
            )
        if estimator == "mc" and m < 2:
            raise ValueError("mc estimator needs m >= 2")
        model = _noise_model(system.p_coupling, sigma)
        self.system = system
        self.t = t
        self.spec = spec
        self.estimator = estimator
        self.m = m
        self.seed = seed
        self.mda_settings = mda_settings or MDASettings()
        self.sampler = GaussianSampler(model.sigma_blocks)
        if estimator != "mc":
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
            else:
                result = solve_mda(self.system, x, settings=self.mda_settings)
                self.n_discipline_evals += result.iterations + 1
                y = result.y
            x0 = x[: self.system.d_shared]
            f = float(x0 @ x0 + y @ y + self._noise_energy)
            g = composed_value(self.t - y, self._std, self.spec)
            return f, g

        # Warm start every realization from the mean-noise solution at this
        # same point, so the value at x does not depend on the points
        # evaluated before it.
        y0 = None
        if self.mda_settings.warm_start and self.mda_settings.method != "direct":
            center = solve_mda(self.system, x, settings=self.mda_settings)
            self.n_discipline_evals += center.iterations
            y0 = center.y
        est = mc_estimate(
            functools.partial(self._coupled_outputs, y0=y0),
            x,
            self.sampler,
            self.m,
            self.seed,
            spec=None,
        )
        self.n_failed_samples += est.n_failed
        f = float(est.mean[0])
        g = composed_value(est.mean[1:], est.std[1:], self.spec)
        return f, g

    def evaluate(self, x):
        """Objective and constraint statistics at x, cached per point."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != self._cache_key:
            self._cache_value = self._evaluate_point(x)
            self._cache_key = key
            self.n_point_evals += 1
        return self._cache_value

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

    Runs COBYLA (linear-approximation trust region) with the box encoded as
    extra linear constraints and returns the best iterate that is feasible up
    to ``g_tol``; ``converged`` is COBYLA's own success flag. If no such
    iterate exists the least infeasible one is returned with
    ``converged=False``.
    """
    if settings is None:
        settings = OptimizerSettings()
    dim = evaluator.system.d
    x0 = settings.x0 if settings.x0 is not None else np.full(dim, 0.5)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x0.shape}")

    evals_before = evaluator.n_discipline_evals
    history = []

    def violation(x, g):
        box = max(float(np.max(-x, initial=0.0)), float(np.max(x - 1.0, initial=0.0)))
        return max(float(np.max(g, initial=0.0)), box)

    def wrapped_obj(x):
        x = np.asarray(x, dtype=float)
        f = evaluator.objective(x)
        g = evaluator.constraints(x)
        history.append((x.copy(), f, g))
        return f

    constraints = [
        {"type": "ineq", "fun": lambda x: -evaluator.constraints(x)},
        {"type": "ineq", "fun": lambda x: np.asarray(x, dtype=float)},
        {"type": "ineq", "fun": lambda x: 1.0 - np.asarray(x, dtype=float)},
    ]

    # Local so that importing the package does not load scipy.optimize.
    import scipy.optimize

    start = time.perf_counter()
    res = scipy.optimize.minimize(
        wrapped_obj,
        x0,
        method="COBYLA",
        constraints=constraints,
        tol=settings.final_trust_radius,
        options={
            "rhobeg": settings.initial_trust_radius,
            "maxiter": settings.max_iter,
            "catol": settings.g_tol,
        },
    )
    wall = time.perf_counter() - start

    feasible = [(x, f, g) for x, f, g in history if violation(x, g) <= settings.g_tol]
    if feasible:
        x_best, f_best, g_best = min(feasible, key=lambda rec: rec[1])
        converged = bool(res.success)
    else:
        x_best, f_best, g_best = min(history, key=lambda rec: violation(rec[0], rec[2]))
        converged = False

    return RunResult(
        x_opt=x_best,
        f_opt=f_best,
        g_opt=g_best,
        n_discipline_evals=evaluator.n_discipline_evals - evals_before,
        n_optimizer_iters=len(history),
        converged=converged,
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
