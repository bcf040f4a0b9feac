"""l1-regularized least squares via ADMM with a reusable direct factorization.

Solves min 0.5 * ||phi @ s - y||^2 + lam * ||s||_1 for one measurement vector
or a stack of them. The quadratic subproblem matrix (phi^T phi + rho I) is
small (p2 x p2) and well conditioned, so it is factorized and inverted once
per (phi, rho) pair, and each iteration's linear step for every block of a
stack is one matrix product with that inverse.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionError, ParamError, SolverError


def soft_threshold(v: np.ndarray, kappa: float | np.ndarray) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - kappa, 0), the l1 proximal operator; kappa broadcasts."""
    if np.any(np.asarray(kappa) < 0):
        raise ParamError(f"soft threshold needs kappa >= 0, got {kappa}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def default_lambda(phi: np.ndarray, y: np.ndarray, scale: float = 1e-3) -> float | np.ndarray:
    """Scale-aware regularization weight scale * ||phi^T y||_inf, one per row of y."""
    return scale * np.max(np.abs(y @ phi), axis=-1)


@dataclass(frozen=True, eq=False)
class LassoProblem:
    """One problem, or a stack sharing phi: y (count, m) with lam (count,)."""

    phi: np.ndarray
    y: np.ndarray
    lam: float | np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if phi.ndim != 2 or y.ndim not in (1, 2) or y.shape[-1] != phi.shape[0]:
            raise DimensionError(
                f"inconsistent problem: phi {phi.shape}, y shape {y.shape}")
        if np.shape(self.lam) != y.shape[:-1]:
            raise DimensionError(f"lam shape {np.shape(self.lam)} does not match y {y.shape}")
        if not np.isfinite(y).all():
            raise SolverError("measurements contain non-finite values")
        if not (np.isfinite(self.lam).all() and np.all(np.asarray(self.lam) >= 0)):
            raise ParamError(f"lam must be finite and nonnegative, got {self.lam}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 500
    lambda_scale: float = 1e-3  # multiplies ||phi^T y||_inf when the caller derives lam

    def __post_init__(self):
        if self.rho <= 0:
            raise ParamError(f"rho must be positive, got {self.rho}")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ParamError("stopping tolerances must be positive")
        if self.max_iter < 1:
            raise ParamError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class SolverResult:
    s: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool
    fit_residual: float  # ||phi s - y||_2, the data term of `objective`


@dataclass(frozen=True, eq=False)
class CachedFactorization:
    """Cholesky factor of (phi^T phi + rho I) and the inverse it yields, valid
    for exactly one (phi, rho); the ADMM iteration multiplies by `inverse`."""

    phi: np.ndarray
    rho: float
    chol: tuple
    inverse: np.ndarray
    fingerprint: str


def _fingerprint(phi: np.ndarray, rho: float) -> str:
    h = hashlib.sha256()
    h.update(np.int64(phi.shape[0]).tobytes())
    h.update(np.int64(phi.shape[1]).tobytes())
    h.update(np.float64(rho).tobytes())
    h.update(np.ascontiguousarray(phi).tobytes())
    return h.hexdigest()


def prepare(phi: np.ndarray, rho: float) -> CachedFactorization:
    """Factor (phi^T phi + rho I) once; reusable across right-hand sides."""
    if rho <= 0:
        raise ParamError(f"rho must be positive, got {rho}")
    phi = np.asarray(phi, dtype=np.float64)
    if not np.isfinite(phi).all():
        raise SolverError("matrix contains non-finite values")
    gram = phi.T @ phi + rho * np.eye(phi.shape[1])
    try:
        chol = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"(phi^T phi + rho I) is not positive definite: {exc}") from exc
    inverse = cho_solve(chol, np.eye(phi.shape[1]))
    return CachedFactorization(phi, float(rho), chol, inverse, _fingerprint(phi, rho))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def solve_lasso(problem: LassoProblem, cfg: SolverConfig | None = None,
                cache: CachedFactorization | None = None) -> SolverResult:
    """Run the ADMM iteration and return the sparse z iterate.

    Per iteration: s = (phi^T phi + rho I)^-1 (phi^T y + rho (z - u)),
    z = soft_threshold(s + u, lam / rho), u += s - z. Stops when
    ||s - z|| <= eps_pri and ||rho (z - z_prev)|| <= eps_dual with
    eps_pri  = sqrt(n) eps_abs + eps_rel * max(||s||, ||z||),
    eps_dual = sqrt(n) eps_abs + eps_rel * ||rho u||.
    Hitting max_iter is reported through `converged`, not raised.

    A stack is solved as (n, count) right-hand sides at once, each column
    stopping where its lone solve would; its result fields are per-row arrays.
    """
    cfg = SolverConfig() if cfg is None else cfg
    phi = problem.phi
    if cache is None:
        cache = prepare(phi, cfg.rho)
    elif cache.rho != cfg.rho or not (cache.phi is phi
                                      or cache.fingerprint == _fingerprint(phi, cfg.rho)):
        raise ParamError("cached factorization does not match (phi, rho)")

    y = np.atleast_2d(problem.y)
    lam = np.atleast_1d(problem.lam)
    count, n = y.shape[0], phi.shape[1]
    rho = cfg.rho
    sqrt_n = math.sqrt(n)
    iterations = np.full(count, cfg.max_iter)
    converged = np.zeros(count, dtype=bool)
    r_norm, d_norm, z_out = np.zeros(count), np.zeros(count), np.zeros((count, n))
    # rows still iterating; they shrink only on iterations where some row stops
    live, aty, kappa = np.arange(count), y @ phi, (lam / rho)[:, None]
    z, u = np.zeros((count, n)), np.zeros((count, n))
    for it in range(1, cfg.max_iter + 1):
        s = (aty + rho * (z - u)) @ cache.inverse
        z_prev = z
        z = soft_threshold(s + u, kappa)
        u = u + s - z
        r = _row_norms(s - z)
        d = rho * _row_norms(z - z_prev)
        eps_pri = sqrt_n * cfg.eps_abs + cfg.eps_rel * np.maximum(_row_norms(s), _row_norms(z))
        eps_dual = sqrt_n * cfg.eps_abs + cfg.eps_rel * rho * _row_norms(u)
        r_norm[live], d_norm[live] = r, d
        done = (r <= eps_pri) & (d <= eps_dual)
        if done.any():
            iterations[live[done]], converged[live[done]], z_out[live[done]] = it, True, z[done]
            live, aty, kappa, z, u = (a[~done] for a in (live, aty, kappa, z, u))
            if not live.size:
                break
    z_out[live] = z
    fit = _row_norms(z_out @ phi.T - y)
    objective = 0.5 * fit * fit + lam * np.abs(z_out).sum(axis=1)
    fields = (iterations, r_norm, d_norm, objective, converged, fit)
    if problem.y.ndim == 1:
        return SolverResult(z_out[0], *(a[0].item() for a in fields))
    return SolverResult(z_out, *fields)
