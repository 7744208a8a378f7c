"""Statistic-wrapped optimization of the coupled problem (MDF form).

The robust problem is posed directly on the coupled system: at every design
point the objective and constraint statistics are estimated through coupling
solves (one per Monte-Carlo realization, or a single one for the Taylor and
closed-form estimators) and handed to a derivative-free trust-region
optimizer (COBYLA). Reference solutions from the QP reduction quantify the
estimation error of each pipeline.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import EvaluationError, UndefinedMetricError
from .mda import MDASettings, solve_mda
from .problem import UncertaintyModel, assemble
from .uq import GaussianSampler, composed_value, exact_stats, mc_estimate

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
    metadata: dict = field(default_factory=dict)


class RobustEvaluator:
    """Shared objective/constraint evaluation with per-point caching.

    The optimizer queries the objective and the constraints separately at the
    same design point; a single-entry cache makes both read one statistical
    evaluation. The evaluator owns the discipline-evaluation counter (one
    unit = one sweep of all disciplines, i.e. one fixed-point iteration or
    one direct solve) and the dropped-realization counter.

    No solver state is carried between design points: every coupling solve
    starts from an iterate computed at the same point, so each evaluation is
    a pure function of ``(x, seed)`` and does not depend on the path the
    optimizer took to reach ``x``. Monte-Carlo runs reuse the same noise
    realizations at every design point (common random numbers); repetitions
    differ only through their seeds.
    """

    def __init__(self, problem, sigma, spec, estimator, m=200, seed=0, mda_settings=None):
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        if spec.constraint_stat == "probability":
            raise ValueError(
                "probability-constrained runs are reference-only; solve them "
                "through the chance-constrained QP reduction"
            )
        if estimator == "mc" and m < 2:
            raise ValueError("mc estimator needs m >= 2")
        self.system = assemble(problem)
        self.t = problem.t
        self.spec = spec
        self.estimator = estimator
        self.m = m
        self.seed = seed
        self.mda_settings = mda_settings or MDASettings()
        blocks = _coerce_sigma_blocks(problem.config.p_coupling, sigma)
        self.sampler = GaussianSampler(blocks)
        self.sigma = self.sampler.sigma

        self.n_discipline_evals = 0
        self.n_point_evals = 0
        self.n_failed_samples = 0
        self._cache_key = None
        self._cache_value = None

    # -- per-sample physics -----------------------------------------------

    def _coupled_outputs(self, x, u, y0):
        """One coupling solve; returns [objective, constraints...] samples."""
        result = solve_mda(self.system, x, u, self.mda_settings, y0=y0)
        self.n_discipline_evals += result.iterations
        if not result.converged:
            raise EvaluationError("coupling solve did not converge")
        y = result.y
        x0 = x[: self.system.d_shared]
        return np.concatenate([[x0 @ x0 + y @ y], self.t - y])

    # -- statistic composition per estimator --------------------------------

    def _evaluate_point(self, x):
        if self.estimator == "exact":
            stats = exact_stats(self.system, self.t, self.sigma, x, self.spec)
            self.n_discipline_evals += 1
            return float(stats.objective.value[0]), stats.constraints.value

        if self.estimator == "taylor":
            result = solve_mda(self.system, x, settings=self.mda_settings)
            self.n_discipline_evals += result.iterations + 1
            y = result.y
            x0 = x[: self.system.d_shared]
            # Constraints are linear in the noise with gradient -P', so the
            # first-order std is exact; the objective mean is the plain value
            # at the mean noise (the quadratic noise term is second order).
            std = np.sqrt(np.diag(self.system.output_covariance(self.sigma)))
            f = float(x0 @ x0 + y @ y)
            g = composed_value(self.t - y, std, self.spec)
            return f, g

        # Warm start from the mean-noise solution at this same point, so the
        # value at x does not depend on the points evaluated before it.
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


def _coerce_sigma_blocks(p_coupling, sigma):
    """Accept an UncertaintyModel, per-block covariances or a full matrix."""
    if sigma is None:
        return tuple(np.zeros((p, p)) for p in p_coupling)
    if isinstance(sigma, UncertaintyModel):
        return sigma.sigma_blocks
    if isinstance(sigma, (tuple, list)):
        blocks = tuple(np.asarray(b, dtype=float) for b in sigma)
        if tuple(b.shape[0] for b in blocks) != tuple(p_coupling):
            raise ValueError("sigma blocks do not match the coupling dimensions")
        return blocks
    sigma = np.asarray(sigma, dtype=float)
    p = sum(p_coupling)
    if sigma.shape != (p, p):
        raise ValueError(f"sigma must have shape ({p}, {p}), got {sigma.shape}")
    offsets = np.concatenate([[0], np.cumsum(p_coupling)]).astype(int)
    blocks = []
    mask = np.ones_like(sigma, dtype=bool)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        blocks.append(sigma[lo:hi, lo:hi])
        mask[lo:hi, lo:hi] = False
    if np.any(np.abs(sigma[mask]) > 1e-14):
        raise ValueError("cross-discipline noise correlations are not supported")
    return tuple(blocks)


def optimize(obj, cons, settings: OptimizerSettings | None = None, dim: int | None = None) -> RunResult:
    """Minimize ``obj`` subject to ``cons(x) <= 0`` and the unit box.

    Runs COBYLA (linear-approximation trust region) with the box encoded as
    extra linear constraints and returns the best iterate that is feasible up
    to ``g_tol``; ``converged`` is COBYLA's own success flag. If no such
    iterate exists the least infeasible one is returned with
    ``converged=False``.
    """
    if settings is None:
        settings = OptimizerSettings()
    evaluator = getattr(obj, "__self__", None)
    if dim is None:
        if evaluator is not None and hasattr(evaluator, "system"):
            dim = evaluator.system.d
        elif settings.x0 is not None:
            dim = settings.x0.size
        else:
            raise ValueError("dim is required when x0 and evaluator are absent")
    x0 = settings.x0 if settings.x0 is not None else np.full(dim, 0.5)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x0.shape}")

    evals_before = getattr(evaluator, "n_discipline_evals", 0)
    history = []

    def violation(x, g):
        box = max(float(np.max(-x, initial=0.0)), float(np.max(x - 1.0, initial=0.0)))
        return max(float(np.max(g, initial=0.0)), box)

    def wrapped_obj(x):
        x = np.asarray(x, dtype=float)
        f = float(obj(x))
        g = np.atleast_1d(np.asarray(cons(x), dtype=float))
        history.append((x.copy(), f, g))
        return f

    constraints = [
        {"type": "ineq", "fun": lambda x: np.asarray(x, dtype=float)},
        {"type": "ineq", "fun": lambda x: 1.0 - np.asarray(x, dtype=float)},
    ]
    if np.atleast_1d(np.asarray(cons(x0), dtype=float)).size:
        constraints.insert(
            0,
            {"type": "ineq", "fun": lambda x: -np.atleast_1d(np.asarray(cons(x), dtype=float))},
        )

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
        n_discipline_evals=getattr(evaluator, "n_discipline_evals", 0) - evals_before,
        n_optimizer_iters=len(history),
        converged=converged,
        estimator=getattr(evaluator, "estimator", "custom"),
        wall_time=wall,
        metadata={
            "x0": x0.tolist(),
            "initial_trust_radius": settings.initial_trust_radius,
            "final_trust_radius": settings.final_trust_radius,
            "n_objective_evals": len(history),
            "n_failed_samples": getattr(evaluator, "n_failed_samples", 0),
            "common_random_numbers": getattr(evaluator, "estimator", "") == "mc",
        },
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
