"""
Solving the coupled disciplines
===============================

Compare the fixed-point solvers against the direct solve on one design
point: iteration counts, residual decay and the effect of warm starting.
"""

import numpy as np

from umdobench import MDASettings, ProblemConfig, assemble, generate, solve_mda

############################################################
# A problem and a design point

config = ProblemConfig(n_disciplines=2, d_shared=1, d_local=(2, 2), p_coupling=(3, 3), seed=7)
system = assemble(generate(config))
x = np.random.default_rng(0).random(system.d)

############################################################
# Direct solve versus fixed-point sweeps
#
# The direct solve factorizes the coupling matrix once; the Jacobi and
# Gauss-Seidel sweeps iterate to the same fixed point. Diagonally dominant
# coupling keeps both contractive.

direct = solve_mda(system, x, settings=MDASettings(method="direct"))
jacobi = solve_mda(system, x, settings=MDASettings(method="jacobi", tol=1e-10, max_iter=200))
seidel = solve_mda(system, x, settings=MDASettings(method="gauss_seidel", tol=1e-10, max_iter=200))

print("direct residual:", f"{direct.residual:.2e}")
print("jacobi iterations:", jacobi.iterations, "gap to direct:",
      f"{np.max(np.abs(jacobi.y - direct.y)):.2e}")
print("gauss-seidel iterations:", seidel.iterations, "gap to direct:",
      f"{np.max(np.abs(seidel.y - direct.y)):.2e}")

############################################################
# Geometric residual decay

print("jacobi residual history (first 8):")
for k, r in enumerate(jacobi.residual_history[:8]):
    print(f"  sweep {k + 1}: {r:.3e}")

############################################################
# Warm starts
#
# Reusing the coupling state of a nearby design point saves sweeps. The
# optimization driver does not: it carries no coupling state from one design
# point to the next, so each evaluation is a pure function of (x, seed).

x_next = x + 0.01
cold = solve_mda(system, x_next, settings=MDASettings(tol=1e-8, max_iter=200))
warm = solve_mda(system, x_next, settings=MDASettings(tol=1e-8, max_iter=200), y0=jacobi.y)
print("cold start sweeps:", cold.iterations, "| warm start sweeps:", warm.iterations)
