"""The l1 solver that rebuilds stego pixels from modified measurements.

Reconstruction solves min 0.5||phi s - y||^2 + lam ||s||_1 with ADMM. The
iteration is three cheap steps (a product with a cached inverse, a soft
threshold, a dual update), and one factorization serves every block of an
image.
"""

import numpy as np

from sabmis import (LassoProblem, SolverConfig, default_lambda, prepare,
                    soft_threshold, solve_lasso)

rng = np.random.default_rng(11)
m, n = 320, 32
phi = rng.standard_normal((m, n))

# a 5-sparse ground truth, observed through phi
truth = np.zeros(n)
truth[rng.choice(n, 5, replace=False)] = rng.uniform(2, 6, 5) * rng.choice([-1, 1], 5)
y = phi @ truth

lam = default_lambda(phi, y, scale=1e-3)
cfg = SolverConfig(rho=32.0, eps_abs=1e-10, eps_rel=1e-8, max_iter=2000)
cache = prepare(phi, cfg.rho)
result = solve_lasso(LassoProblem(phi, y, lam), cfg, cache)

print(f"lam = {lam:.4f}, converged in {result.iterations} iterations")
print(f"support recovered exactly: {np.array_equal(result.s != 0, truth != 0)}")
print(f"max coefficient error: {np.abs(result.s - truth).max():.2e}")
print(f"objective {result.objective:.6f}, fit residual ||phi s - y|| "
      f"{result.fit_residual:.2e}, primal residual {result.primal_residual:.2e}")

# the stationarity conditions at the solution
grad = phi.T @ (phi @ result.s - y)
on = result.s != 0
print("KKT check: active coords match -lam*sign to",
      f"{np.abs(grad[on] + lam * np.sign(result.s[on])).max():.2e};",
      "inactive coords bounded by lam:",
      bool(np.all(np.abs(grad[~on]) <= lam * 1.001)))

print("soft threshold example:", soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0))
