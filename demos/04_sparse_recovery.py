"""The l1 solver that rebuilds stego pixels from modified measurements.

Reconstruction solves min 0.5||phi s - y||^2 + lam ||s||_1. With phi of full
column rank the minimizer is unique, and the solver settles it exactly: it
guesses the sign pattern (first from the least-squares solution), solves the
KKT equations on that support and certifies the result when the KKT
conditions hold. Rows the certificate cannot settle in three rounds fall back
to ADMM, whose linear step is a product with one cached inverse.
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
cfg = SolverConfig()
cache = prepare(phi)  # also derives ADMM's penalty, rho = m/10 = 32
result = solve_lasso(LassoProblem(phi, y, lam), cfg, cache)

print(f"lam = {lam:.4f}, certified in round {result.iterations} "
      f"(converged {result.converged}, primal residual {result.primal_residual})")
print(f"support recovered exactly: {np.array_equal(result.s != 0, truth != 0)}")
print(f"max coefficient error: {np.abs(result.s - truth).max():.2e}")
print(f"objective {result.objective:.6f}, fit residual ||phi s - y|| {result.fit_residual:.2e}")

# the KKT conditions that certify the solution
corr = phi.T @ (y - phi @ result.s)
on = result.s != 0
print("KKT check: on the support phi_j^T (y - phi s) matches lam*sign(s_j) to",
      f"{np.abs(corr[on] - lam * np.sign(result.s[on])).max():.2e};",
      "off it |phi_j^T (y - phi s)| <= lam:", bool(np.all(np.abs(corr[~on]) <= lam)))

# a weight near ||phi^T y||_inf leaves one or two nonzeros, far from the
# least-squares signs; the rows three rounds cannot settle fall back to ADMM
ys = rng.standard_normal((64, m))
stack = solve_lasso(LassoProblem(phi, ys, 0.95 * default_lambda(phi, ys, 1.0)), cfg, cache)
settled = np.bincount(np.minimum(stack.iterations, 4), minlength=5)
print(f"64 rows at lam = 0.95 ||phi^T y||_inf: certified in rounds 1/2/3: "
      f"{settled[1]}/{settled[2]}/{settled[3]}, solved by ADMM: {settled[4]}, "
      f"all converged: {bool(stack.converged.all())}")

print("soft threshold example:", soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0))
