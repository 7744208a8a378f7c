"""
Estimating statistics of the coupled outputs
============================================

At a fixed design point, compare the Monte-Carlo and first-order Taylor
estimates of the objective and constraint statistics against their exact
values, and watch the Monte-Carlo error shrink with the sample size.
"""

import numpy as np

from umdobench import (
    GaussianSampler,
    MDASettings,
    RobustEvaluator,
    StatisticSpec,
    assemble,
    default_benchmark_problem,
    exact_stats,
    mc_estimate,
)

problem = default_benchmark_problem(seed=70)
system = assemble(problem)
sigma = problem.uncertainty.sigma
spec = StatisticSpec(constraint_stat="margin", kappa=2.0)
x = np.full(system.d, 0.5)

############################################################
# Exact statistics
#
# The linear noise propagation makes every mean and standard deviation
# available in closed form; these are the values the estimators chase.

exact = exact_stats(system, problem.t, sigma, x, spec)
print("exact objective mean:", f"{exact.objective.mean[0]:.6f}")
print("exact margin constraints:", np.round(exact.constraints.value, 4))

############################################################
# Monte-Carlo estimation through the coupled solver
#
# The robust evaluator draws noise realizations, solves the coupled
# system for all of them in one block solve and composes the requested
# statistic.

for m in (50, 200, 1000):
    evaluator = RobustEvaluator(
        system, problem.t, problem.uncertainty, spec, f"mc:{m}", seed=123,
        mda_settings=MDASettings(method="direct"),
    )
    f_hat = evaluator.objective(x)
    gap = abs(f_hat - exact.objective.mean[0])
    print(f"mc m={m:5d}: objective {f_hat:.6f} (gap {gap:.2e}, "
          f"{evaluator.n_discipline_evals} discipline evals)")

############################################################
# First-order Taylor estimation
#
# Two coupled evaluations (value and noise Jacobian) give the means and
# standard deviations; constraint margins are nearly exact here, the
# objective mean misses the quadratic noise energy.

taylor = RobustEvaluator(system, problem.t, problem.uncertainty, spec, "taylor",
                         mda_settings=MDASettings(method="direct"))
print("taylor objective:", f"{taylor.objective(x):.6f}")
print("taylor margin gap:", f"{np.max(np.abs(taylor.constraints(x) - exact.constraints.value)):.2e}")

############################################################
# The square-root law
#
# Averaged over repeated runs, the Monte-Carlo error of the objective mean
# falls like one over the square root of the sample size.

sampler = GaussianSampler(problem.uncertainty)
alpha, beta, P = system.linear_map
ybar = alpha + beta @ x
x0 = x[: system.d_shared]

def objective_sample(U):
    # One objective value per noise realization (row of U).
    Y = ybar + U @ P.T
    return x0 @ x0 + np.sum(Y * Y, axis=1)

truth = exact.objective.mean[0]
for m in (100, 1000, 10_000):
    gaps = [abs(mc_estimate(objective_sample(sampler.draw(m, s))).mean[0] - truth)
            for s in range(10)]
    print(f"m={m:6d}: mean |error| = {np.mean(gaps):.2e}")
