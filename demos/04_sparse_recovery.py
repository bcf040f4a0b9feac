"""The l1 solver behind the paper's per-block rebuild (`reconstruct_block`).

Reconstruction solves min 0.5||phi s - y||^2 + lam ||s||_1 by ADMM. Its
penalty rho = max(1, m/10) comes from phi, and (phi^T phi + rho I) is
inverted once per solve, so each iteration's linear step is one matrix
product. The same path solves every phi shape, including m < n, and a stack
of problems runs as one product per iteration, each row stopping where its
lone solve would.
"""

import numpy as np

from sabmis import default_lambda, soft_threshold, solve_lasso

rng = np.random.default_rng(11)
m, n = 320, 32
phi = rng.standard_normal((m, n))

# a 5-sparse ground truth, observed through phi
truth = np.zeros(n)
truth[rng.choice(n, 5, replace=False)] = rng.uniform(2, 6, 5) * rng.choice([-1, 1], 5)
y = phi @ truth

lam = default_lambda(phi, y, scale=1e-3)
# ADMM's default stopping rule; rho = m/10 = 32 comes from phi
result = solve_lasso(phi, y, lam)

print(f"lam = {lam:.4f}, ADMM iterations {result.iterations} "
      f"(converged {result.converged}, primal residual {result.primal_residual:.1e}, "
      f"dual residual {result.dual_residual:.1e})")
print(f"support recovered exactly: {np.array_equal(result.s != 0, truth != 0)}")
print(f"max coefficient error: {np.abs(result.s - truth).max():.2e}")
print(f"objective {result.objective:.6f}, fit residual ||phi s - y|| {result.fit_residual:.2e}")

# the lasso's KKT conditions, met to ADMM's stopping tolerance (relative to
# ||phi^T y||_inf, the scale of every term in them)
corr = phi.T @ (y - phi @ result.s)
on = result.s != 0
scale = np.abs(phi.T @ y).max()
print("KKT check: on the support phi_j^T (y - phi s) matches lam*sign(s_j) to",
      f"{np.abs(corr[on] - lam * np.sign(result.s[on])).max() / scale:.1e} of ||phi^T y||_inf;",
      "off it |phi_j^T (y - phi s)| <= lam:", bool(np.all(np.abs(corr[~on]) <= lam)))

# a stack on an m < n phi: fewer measurements than unknowns, the same path
wide = rng.standard_normal((24, n))
sparse = np.zeros((64, n))
for row in sparse:
    row[rng.choice(n, 3, replace=False)] = rng.uniform(2, 6, 3) * rng.choice([-1, 1], 3)
ys = sparse @ wide.T
stack = solve_lasso(wide, ys, default_lambda(wide, ys, 1e-2))
print(f"64 rows on a 24 x {n} phi: all converged {bool(stack.converged.all())}, "
      f"ADMM iterations mean {stack.iterations.mean():.1f}, max {stack.iterations.max()}; "
      f"support recovered on {np.sum(np.all((stack.s != 0) == (sparse != 0), axis=1))} rows")

print("soft threshold example:", soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0))
