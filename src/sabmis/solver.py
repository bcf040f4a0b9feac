"""l1-regularized least squares: an exact active-set certificate first, ADMM
as the fallback.

Solves min 0.5 * ||phi @ s - y||^2 + lam * ||s||_1 for one measurement vector
or a stack of them. The objective sees y only through phi^T y (plus a
constant), so the solve itself, `solve_normal`, takes phi^T y; `solve_lasso`
forms it once from a `LassoProblem` and adds the objective and the fit.
When phi has full column rank the minimizer is unique, and once its sign
pattern is known it has a closed form: s solves the KKT equations
phi_S^T (y - phi s) = lam * sign(s_S) on the support S and is zero
elsewhere. Each row starts from the signs of its least-squares solution; a
round solves the KKT equations on the guessed support with the cached inverse
of phi^T phi and certifies the rows whose signs agree, whose stationarity
holds on the support and whose correlations on the zeros stay within lam.
Rows left after three rounds, and every row when phi lacks full column rank
or is too close to it, go to ADMM. Its penalty rho = max(1, m/10) follows
from phi's m rows, and (phi^T phi + rho I) is factorized and inverted once per
phi, so each iteration's linear step is one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionError, ParamError, SolverError

_ROUNDS = 3  # certificate rounds before the rows still open go to ADMM
_KKT_RTOL = 1e-9  # stationarity tolerance on the support, relative to ||phi^T y||_inf
_GRAM_RCOND = math.sqrt(np.finfo(np.float64).eps)  # least eigenvalue ratio of phi^T phi certified
LAMBDA_SCALE = 1e-3  # the pipelines' weight, a fraction of ||phi^T y||_inf


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
    """ADMM's stopping rule; its penalty comes with the factorization."""

    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 500

    def __post_init__(self):
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ParamError("stopping tolerances must be positive")
        if self.max_iter < 1:
            raise ParamError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Per-row solution and diagnostics (Python scalars for a 1-D problem).

    A row the certificate settled has `iterations` equal to the round that
    certified it (1 to 3), `converged` True and 0.0 primal and dual
    residuals. A row solved by ADMM has `iterations` equal to the certificate
    rounds it went through (3, or 0 when phi lacks full column rank) plus its
    ADMM iterations, and ADMM's final residuals.
    """

    s: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool
    fit_residual: float  # ||phi s - y||_2, the data term of `objective`


@dataclass(frozen=True, eq=False)
class CachedFactorization:
    """What the solver reuses for one phi: phi^T phi (`gram`) and its
    inverse for the certificate, and ADMM's penalty rho with the inverse of
    (phi^T phi + rho I) for its iteration, all read-only.
    `gram_inverse` is None when phi lacks full column rank (m < n) or
    phi^T phi is too ill-conditioned (eigenvalue ratio below sqrt(eps)),
    and then ADMM solves every row."""

    phi: np.ndarray
    rho: float
    gram: np.ndarray
    gram_inverse: np.ndarray | None
    inverse: np.ndarray


def _gram_inverse(phi: np.ndarray, gram: np.ndarray) -> np.ndarray | None:
    """(phi^T phi)^-1, or None when phi lacks full column rank or is so close
    to it that the certificate's solves with phi^T phi would lose more than
    half their digits."""
    if phi.shape[0] < phi.shape[1]:
        return None
    eig = np.linalg.eigvalsh(gram)
    if not eig[0] > _GRAM_RCOND * eig[-1]:
        return None
    return cho_solve(cho_factor(gram, lower=True), np.eye(len(gram)))


def prepare(phi: np.ndarray) -> CachedFactorization:
    """Invert (phi^T phi + rho I) through its Cholesky factor, and phi^T phi,
    once; reusable across right-hand sides.

    The Gram matrix of an m x n unit-variance Gaussian matrix has eigenvalues
    near m, so rho = max(1, m/10); rho = 1 on such problems needs roughly ten
    times more ADMM iterations for the same solution.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if not np.isfinite(phi).all():
        raise SolverError("matrix contains non-finite values")
    m, n = phi.shape
    rho = max(1.0, m / 10.0)
    gram = phi.T @ phi
    try:
        chol = cho_factor(gram + rho * np.eye(n), lower=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"(phi^T phi + rho I) is not positive definite: {exc}") from exc
    inverse = cho_solve(chol, np.eye(n))
    gram_inverse = _gram_inverse(phi, gram)
    for a in (gram, gram_inverse, inverse):
        if a is not None:
            a.setflags(write=False)
    return CachedFactorization(phi, rho, gram, gram_inverse, inverse)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _support_solve(b: np.ndarray, zero: np.ndarray, gram_inverse: np.ndarray) -> np.ndarray:
    """Per row, the s with s = 0 on `zero` and (phi^T phi s) = b off it.

    With x = G^-1 b, s = x + G^-1[:, D] w where G^-1_DD w = -x_D zeros the set
    D; rows are grouped by |D|, so each group is one batched |D| x |D| solve.
    """
    s = b @ gram_inverse
    size = np.count_nonzero(zero, axis=1)
    for k in np.unique(size[size > 0]):
        rows = np.flatnonzero(size == k)
        d = np.nonzero(zero[rows])[1].reshape(-1, k)
        w = np.linalg.solve(gram_inverse[d[:, :, None], d[:, None, :]],
                            -np.take_along_axis(s[rows], d, axis=1)[..., None])
        s[rows] += (w.transpose(0, 2, 1) @ gram_inverse[d])[:, 0]
    s[zero] = 0.0
    return s


def _certify(aty: np.ndarray, lam: np.ndarray,
             cache: CachedFactorization) -> tuple[np.ndarray, np.ndarray]:
    """Settle rows exactly by the lasso's KKT conditions.

    Returns the certified solutions and, per row, the round that certified
    it (0 for rows still open after `_ROUNDS` rounds, whose s rows are zero).
    A row is certified only when its signs agree with the guess, stationarity
    holds on the support to `_KKT_RTOL` and |phi_j^T (y - phi s)| <= lam on
    the zeros. The next guess drops coefficients whose sign flipped and adds
    the zeros that violate the bound, with the sign of their correlation.
    """
    count, n = aty.shape
    s_out, rounds = np.zeros((count, n)), np.zeros(count, dtype=int)
    open_, lam_o = np.arange(count), lam[:, None]
    tol = _KKT_RTOL * np.abs(aty).max(axis=1, keepdims=True)
    sigma = np.sign(aty @ cache.gram_inverse)  # least-squares signs
    for rnd in range(1, _ROUNDS + 1):
        zero = sigma == 0
        s = _support_solve(aty - lam_o * sigma, zero, cache.gram_inverse)
        corr = aty - s @ cache.gram  # phi^T (y - phi s)
        agree = np.sign(s) == sigma
        ok = np.where(zero, np.abs(corr) <= lam_o,
                      agree & (np.abs(corr - lam_o * sigma) <= tol)).all(axis=1)
        s_out[open_[ok]], rounds[open_[ok]] = s[ok], rnd
        if ok.all():
            break
        sigma = np.where(zero, np.where(np.abs(corr) > lam_o, np.sign(corr), 0.0),
                         np.where(agree, sigma, 0.0))
        open_, aty, lam_o, tol, sigma = (a[~ok] for a in (open_, aty, lam_o, tol, sigma))
    return s_out, rounds


def _admm(aty: np.ndarray, lam: np.ndarray, cfg: SolverConfig, cache: CachedFactorization):
    """ADMM on every row from z = u = 0; returns (z, iterations, converged,
    primal residual, dual residual), one entry per row."""
    count, n = aty.shape
    rho = cache.rho
    sqrt_n = math.sqrt(n)
    iterations = np.full(count, cfg.max_iter)
    converged = np.zeros(count, dtype=bool)
    r_norm, d_norm, z_out = np.zeros(count), np.zeros(count), np.zeros((count, n))
    # rows still iterating; they shrink only on iterations where some row stops
    live, kappa = np.arange(count), (lam / rho)[:, None]
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
    return z_out, iterations, converged, r_norm, d_norm


def solve_normal(aty: np.ndarray, lam: np.ndarray, cfg: SolverConfig,
                 cache: CachedFactorization):
    """Solve a stack of lasso problems on `cache.phi` given phi^T y per row.

    aty is (count, n) and lam (count,). Certificate: up to three rounds on
    the whole stack (see `_certify`), starting from the signs of the
    least-squares solution. It needs a well-conditioned phi^T phi (see
    `prepare`); otherwise every row goes straight to ADMM.

    ADMM, on the rows still open, from z = u = 0 with rho = cache.rho:
    s = (phi^T phi + rho I)^-1 (phi^T y + rho (z - u)),
    z = soft_threshold(s + u, lam / rho), u += s - z. Stops when
    ||s - z|| <= eps_pri and ||rho (z - z_prev)|| <= eps_dual with
    eps_pri  = sqrt(n) eps_abs + eps_rel * max(||s||, ||z||),
    eps_dual = sqrt(n) eps_abs + eps_rel * ||rho u||.

    Returns per-row arrays (s, iterations, converged, primal residual, dual
    residual), each row equal to its lone solve up to floating-point
    rounding; `SolverResult` says what they hold. Hitting max_iter is
    reported through `converged`, not raised.
    """
    count, n = aty.shape[0], cache.phi.shape[1]
    if aty.shape != (count, n) or np.shape(lam) != (count,):
        raise DimensionError(f"phi^T y {aty.shape} and lam {np.shape(lam)} do not match "
                             f"a stack of {n}-column problems")
    if not np.isfinite(aty).all():
        raise SolverError("measurements contain non-finite values")
    if not (np.isfinite(lam).all() and np.all(lam >= 0)):
        raise ParamError(f"lam must be finite and nonnegative, got {lam}")
    if cache.gram_inverse is None:
        s, iterations, rounds_run = np.zeros((count, n)), np.zeros(count, dtype=int), 0
    else:
        (s, iterations), rounds_run = _certify(aty, lam, cache), _ROUNDS
    converged = iterations > 0
    r_norm, d_norm = np.zeros(count), np.zeros(count)
    rest = np.flatnonzero(~converged)
    if rest.size:
        s[rest], its, converged[rest], r_norm[rest], d_norm[rest] = _admm(
            aty[rest], lam[rest], cfg, cache)
        iterations[rest] = rounds_run + its
    return s, iterations, converged, r_norm, d_norm


def solve_lasso(problem: LassoProblem, cfg: SolverConfig | None = None,
                cache: CachedFactorization | None = None) -> SolverResult:
    """Solve each row exactly by the KKT certificate, and by ADMM where it fails.

    Forms phi^T y once and runs `solve_normal`, then adds each row's
    objective and fit ||phi s - y||. A certified row reports the round that
    certified it as `iterations` and 0.0 primal and dual residuals; an ADMM
    row reports the certificate rounds it went through plus its ADMM
    iterations. A stack's result fields are per-row arrays, each row equal
    to its lone solve up to floating-point rounding.
    """
    cfg = SolverConfig() if cfg is None else cfg
    phi = problem.phi
    if cache is None:
        cache = prepare(phi)
    elif not (cache.phi is phi or np.array_equal(cache.phi, phi)):
        raise ParamError("cached factorization does not match phi")
    y = np.atleast_2d(problem.y)
    lam = np.atleast_1d(problem.lam)
    s, iterations, converged, r_norm, d_norm = solve_normal(y @ phi, lam, cfg, cache)
    fit = _row_norms(s @ phi.T - y)
    objective = 0.5 * fit * fit + lam * np.abs(s).sum(axis=1)
    fields = (iterations, r_norm, d_norm, objective, converged, fit)
    if problem.y.ndim == 1:
        return SolverResult(s[0], *(a[0].item() for a in fields))
    return SolverResult(s, *fields)
