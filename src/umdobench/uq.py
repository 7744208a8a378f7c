"""Statistical estimators for the robust problem variants.

Two estimators of the objective/constraint statistics are provided here:

* Monte-Carlo sampling (:func:`mc_estimate`): unbiased sample mean and
  (M-1)-denominator standard deviation over the outputs of M i.i.d. noise
  realizations, one row per realization. The caller draws the realizations,
  typically once per optimization run (common random numbers), and
  evaluates them, typically in one block coupling solve.
* Closed forms (:func:`exact_stats`): ground truth available because the
  coupling solution is affine in both design and noise. Used as the oracle
  when benchmarking the sampled and Taylor estimators.

The first-order Taylor estimator (one coupling solve at the mean noise plus
the propagated standard deviation) and the closed-form ``"exact"``
estimator are paths of :class:`~umdobench.driver.RobustEvaluator`. They,
:func:`exact_stats` and the QP reductions read the noise through one
function, :meth:`~umdobench.problem.BlockSystem.output_variance`.

Every constraint statistic is one expression, ``mean + kappa * std``
(:func:`composed_value`): ``kappa = 0`` for the expectation and the margin
width for the margin. The Gaussian chance constraint is the same shift at
``kappa = -Phi^-1(epsilon)`` and exists only as a reference QP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .problem import UncertaintyModel

__all__ = [
    "StatisticSpec",
    "StatEstimate",
    "ExactStats",
    "GaussianSampler",
    "composed_value",
    "mc_estimate",
    "exact_stats",
]

_CONSTRAINT_STATS = ("expectation", "margin")


@dataclass(frozen=True)
class StatisticSpec:
    """Which statistic the robust formulation applies to each constraint.

    The objective always uses the expectation. Each constraint uses
    ``mean + kappa * std``: the margin with a finite ``kappa``, or the
    expectation, for which ``kappa`` is set to 0. The Gaussian chance
    constraint at level epsilon is the same shift with
    ``kappa = -Phi^-1(epsilon)``; it exists only as a reference QP
    (:func:`~umdobench.qp.reduce_probability`), so it is not a statistic here.
    """

    constraint_stat: str = "margin"
    kappa: float = 2.0

    def __post_init__(self):
        if self.constraint_stat not in _CONSTRAINT_STATS:
            raise ValueError(
                f"constraint_stat must be one of {_CONSTRAINT_STATS}, "
                f"got {self.constraint_stat!r}"
            )
        if self.constraint_stat == "expectation":
            object.__setattr__(self, "kappa", 0.0)
        elif not math.isfinite(self.kappa):
            raise ValueError("margin statistic needs a finite kappa")


@dataclass
class StatEstimate:
    """Mean/std estimate of a vector output plus the composed statistic.

    ``value`` is the statistic the caller asked for (the mean by default,
    ``mean + kappa * std`` under a :class:`StatisticSpec`). ``n_failed``
    counts the Monte-Carlo realizations dropped because their coupling solve
    did not converge.
    """

    mean: np.ndarray
    std: np.ndarray
    value: np.ndarray
    n_failed: int = 0

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_1d(np.asarray(self.std, dtype=float))
        self.value = np.atleast_1d(np.asarray(self.value, dtype=float))
        if np.any(self.std < 0):
            raise ValueError("std must be nonnegative")


@dataclass
class ExactStats:
    """Closed-form objective and constraint statistics at one design point."""

    objective: StatEstimate
    constraints: StatEstimate


def composed_value(mean, std, spec: StatisticSpec | None) -> np.ndarray:
    """The constraint statistic ``mean + kappa * std``; None means the
    expectation (``kappa = 0``)."""
    kappa = 0.0 if spec is None else spec.kappa
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return mean + kappa * np.atleast_1d(np.asarray(std, dtype=float))


class GaussianSampler:
    """Centered Gaussian noise drawn from an
    :class:`~umdobench.problem.UncertaintyModel`.

    The model has already checked that its blocks are square, symmetric and
    positive semi-definite. Each block covariance is factored once
    (eigenvalue factorization, robust to semi-definite blocks) and
    realizations are drawn block by block from a PCG64 stream, so draws are
    reproducible functions of the seed.
    """

    def __init__(self, model: UncertaintyModel):
        self._factors = []
        for block in model.sigma_blocks:
            w, v = np.linalg.eigh(0.5 * (block + block.T))
            self._factors.append(v * np.sqrt(np.maximum(w, 0.0)))

    def draw(self, m: int, seed) -> np.ndarray:
        """Draw ``m`` realizations, shape (m, p)."""
        rng = np.random.default_rng(seed)
        parts = [
            rng.standard_normal((m, factor.shape[0])) @ factor.T
            for factor in self._factors
        ]
        return np.concatenate(parts, axis=1)


def mc_estimate(values) -> StatEstimate:
    """Monte-Carlo mean/std over the rows of ``values``.

    ``values`` holds one row of outputs per noise realization, shape (m,) or
    (m, k). Returns the sample mean and the unbiased (m-1)-denominator
    standard deviation per output component; ``value`` is the mean. A
    realization whose evaluation failed (e.g. a non-converged coupling
    solve) is marked by NaN in its row; such rows are excluded and counted
    in ``n_failed``. Raises :class:`~umdobench.errors.NumericalError` when
    fewer than two rows remain.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    m = len(values)
    values = values[~np.isnan(values).any(axis=1)]
    if len(values) < 2:
        raise NumericalError(
            f"only {len(values)} of {m} realizations converged; cannot estimate"
        )
    mean = values.mean(axis=0)
    std = values.std(axis=0, ddof=1)
    return StatEstimate(mean=mean, std=std, value=mean.copy(), n_failed=m - len(values))


def exact_stats(system, t: float, sigma, x, spec: StatisticSpec | None = None) -> ExactStats:
    """Closed-form statistics of the objective and constraints.

    The coupling solution is affine in the Gaussian noise, so everything is
    available in closed form: the objective mean carries the expected
    quadratic noise energy ``trace(P Sigma P')`` and its variance the usual
    linear-plus-quadratic Gaussian form; the constraint values ``t - y`` are
    Gaussian with mean ``Ax - b`` and standard deviation
    ``sqrt(diag(P Sigma P'))``. Only the objective std needs the full
    covariance ``P Sigma P'``; everything else reads
    :meth:`~umdobench.problem.BlockSystem.output_variance`. Serves as the
    ground-truth oracle for benchmarking the sampled estimators.
    """
    x = np.asarray(x, dtype=float)
    alpha, beta, P = system.linear_map
    y_mean = alpha + beta @ x
    x_shared = x[: system.d_shared]

    var_cons = system.output_variance(sigma)
    std_cons = np.sqrt(var_cons)
    noise_energy = float(var_cons.sum())

    obj_mean = float(x_shared @ x_shared + y_mean @ y_mean + noise_energy)
    # Gaussian variance of |y_mean + PU|^2: linear term 4 y_mean' cov y_mean
    # plus quadratic term 2 tr(cov^2) = 2 |cov|_F^2.
    cov = P @ np.asarray(sigma, dtype=float) @ P.T
    obj_var = float(4.0 * y_mean @ cov @ y_mean + 2.0 * np.vdot(cov, cov))
    obj_std = math.sqrt(max(obj_var, 0.0))

    cons_mean = t - y_mean

    objective = StatEstimate(mean=[obj_mean], std=[obj_std], value=[obj_mean])
    constraints = StatEstimate(
        mean=cons_mean, std=std_cons, value=composed_value(cons_mean, std_cons, spec)
    )
    return ExactStats(objective=objective, constraints=constraints)
