"""l1-regularized least squares by ADMM, in numpy alone.

Solves min 0.5 * ||phi @ s - y||^2 + lam * ||s||_1 for one measurement vector
or a stack of them sharing phi; this is the paper's per-block rebuild
(`codec.reconstruct_block`). ADMM splits the objective into the smooth data
term in s and the l1 term in z, tied by s = z. It solves every phi shape,
m < n and rank-deficient ones included. Its penalty rho = max(1, m/10)
follows from phi's m rows, and (phi^T phi + rho I) is inverted once per
solve, through its Cholesky factor, so each iteration's linear step is one
matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParamError, SolverError

LAMBDA_SCALE = 1e-3  # reconstruct_block's weight, a fraction of ||phi^T y||_inf


def soft_threshold(v: np.ndarray, kappa: float | np.ndarray) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - kappa, 0), the l1 proximal operator; kappa broadcasts."""
    if np.any(np.asarray(kappa) < 0):
        raise ParamError(f"soft threshold needs kappa >= 0, got {kappa}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def default_lambda(phi: np.ndarray, y: np.ndarray,
                   scale: float = LAMBDA_SCALE) -> float | np.ndarray:
    """Scale-aware regularization weight scale * ||phi^T y||_inf, one per row of y."""
    return scale * np.max(np.abs(y @ phi), axis=-1)


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Per-row solution and diagnostics (Python scalars for a 1-D problem):
    ADMM's iteration count, whether it met the stopping rule within
    max_iter, and its final primal and dual residuals."""

    s: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool
    fit_residual: float  # ||phi s - y||_2, the data term of `objective`


def _prepare(phi: np.ndarray) -> tuple[float, np.ndarray]:
    """ADMM's penalty rho and the inverse of (phi^T phi + rho I), as
    L^-T L^-1 from its Cholesky factor L.

    The Gram matrix of an m x n unit-variance Gaussian matrix has eigenvalues
    near m, so rho = max(1, m/10); rho = 1 on such problems needs roughly ten
    times more ADMM iterations for the same solution.
    """
    m, n = phi.shape
    rho = max(1.0, m / 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = phi.T @ phi
    if not np.isfinite(gram).all():
        raise SolverError("phi^T phi overflows")
    try:
        chol = np.linalg.cholesky(gram + rho * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"(phi^T phi + rho I) is not positive definite: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    return rho, chol_inv.T @ chol_inv


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _admm(aty: np.ndarray, lam: np.ndarray, rho: float, inverse: np.ndarray,
          eps_abs: float, eps_rel: float, max_iter: int):
    """ADMM on every row from z = u = 0; returns (z, iterations, converged,
    primal residual, dual residual), one entry per row."""
    count, n = aty.shape
    sqrt_n = math.sqrt(n)
    iterations = np.full(count, max_iter)
    converged = np.zeros(count, dtype=bool)
    r_norm, d_norm, z_out = np.zeros(count), np.zeros(count), np.zeros((count, n))
    # rows still iterating; they shrink only on iterations where some row stops
    live, kappa = np.arange(count), (lam / rho)[:, None]
    z, u = np.zeros((count, n)), np.zeros((count, n))
    for it in range(1, max_iter + 1):
        s = (aty + rho * (z - u)) @ inverse
        z_prev = z
        z = soft_threshold(s + u, kappa)
        u = u + s - z
        r = _row_norms(s - z)
        d = rho * _row_norms(z - z_prev)
        eps_pri = sqrt_n * eps_abs + eps_rel * np.maximum(_row_norms(s), _row_norms(z))
        eps_dual = sqrt_n * eps_abs + eps_rel * rho * _row_norms(u)
        r_norm[live], d_norm[live] = r, d
        done = (r <= eps_pri) & (d <= eps_dual)
        if done.any():
            iterations[live[done]], converged[live[done]], z_out[live[done]] = it, True, z[done]
            live, aty, kappa, z, u = (a[~done] for a in (live, aty, kappa, z, u))
            if not live.size:
                break
    z_out[live] = z
    return z_out, iterations, converged, r_norm, d_norm


def solve_lasso(phi: np.ndarray, y: np.ndarray, lam: float | np.ndarray, *,
                eps_abs: float = 1e-6, eps_rel: float = 1e-4,
                max_iter: int = 500) -> SolverResult:
    """Solve each row of y by ADMM, then add its objective and fit ||phi s - y||.

    y is one measurement vector (m,) with a scalar lam, or a stack (count, m)
    with lam (count,). From z = u = 0, with rho and the inverse from phi:
    s = (phi^T phi + rho I)^-1 (phi^T y + rho (z - u)),
    z = soft_threshold(s + u, lam / rho), u += s - z. A row stops when
    ||s - z|| <= eps_pri and ||rho (z - z_prev)|| <= eps_dual with
    eps_pri  = sqrt(n) eps_abs + eps_rel * max(||s||, ||z||),
    eps_dual = sqrt(n) eps_abs + eps_rel * ||rho u||,
    or after max_iter iterations.

    A stack runs as one (live, n) @ (n, n) product per iteration, and its
    result fields are per-row arrays, each row stopping at the iteration its
    lone solve would and equal to it up to floating-point rounding. Hitting
    max_iter is reported through `converged`, not raised.
    """
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.ndim != 2 or y.ndim not in (1, 2) or y.shape[-1] != phi.shape[0]:
        raise DimensionError(f"inconsistent problem: phi {phi.shape}, y shape {y.shape}")
    if np.shape(lam) != y.shape[:-1]:
        raise DimensionError(f"lam shape {np.shape(lam)} does not match y {y.shape}")
    if not np.isfinite(phi).all():
        raise SolverError("matrix contains non-finite values")
    if not np.isfinite(y).all():
        raise SolverError("measurements contain non-finite values")
    if not (np.isfinite(lam).all() and np.all(np.asarray(lam) >= 0)):
        raise ParamError(f"lam must be finite and nonnegative, got {lam}")
    if not all(math.isfinite(eps) and eps > 0 for eps in (eps_abs, eps_rel)):
        raise ParamError(f"stopping tolerances must be finite and positive, "
                         f"got {eps_abs}, {eps_rel}")
    if max_iter < 1:
        raise ParamError(f"max_iter must be at least 1, got {max_iter}")
    ys, lams = np.atleast_2d(y), np.atleast_1d(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        aty = ys @ phi
    if not np.isfinite(aty).all():
        raise SolverError("phi^T y overflows")
    s, iterations, converged, r_norm, d_norm = _admm(aty, lams, *_prepare(phi),
                                                     eps_abs, eps_rel, max_iter)
    fit = _row_norms(s @ phi.T - ys)
    objective = 0.5 * fit * fit + lams * np.abs(s).sum(axis=1)
    fields = (iterations, r_norm, d_norm, objective, converged, fit)
    if y.ndim == 1:
        return SolverResult(s[0], *(a[0].item() for a in fields))
    return SolverResult(s, *fields)
