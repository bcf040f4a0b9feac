import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sabmis import (DimensionError, ParamError, SolverError, StegoParams, default_lambda,
                    soft_threshold, solve_lasso)
from sabmis.solver import _prepare

from reference import lasso_fista, lasso_objective

TIGHT = dict(eps_abs=1e-12, eps_rel=1e-12, max_iter=20000)


def test_soft_threshold_definition():
    out = soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0)
    assert np.array_equal(out, [2.0, 0.0, 0.0])


def test_soft_threshold_zero_kappa_is_identity():
    v = np.array([1.5, -2.5, 0.25])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_shrinks_sup_norm():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50) * 3
    for kappa in (0.1, 1.0, 5.0):
        out = soft_threshold(v, kappa)
        assert np.abs(out).max() <= max(np.abs(v).max() - kappa, 0.0) + 1e-15


def test_soft_threshold_rejects_negative_kappa():
    with pytest.raises(ParamError):
        soft_threshold(np.zeros(3), -1.0)


def test_prepare_identity_system():
    rho, inverse = _prepare(np.eye(2))
    # rho = 1 for two rows, so (phi^T phi + rho I) = 2 I and its inverse
    # halves any right-hand side; one ulp below 0.5: the Cholesky factor
    # holds sqrt(2) on its diagonal
    assert rho == 1.0
    assert np.allclose(inverse, 0.5 * np.eye(2), rtol=0.0, atol=1e-15)


def test_prepare_inverse_inverts_the_system():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = rng.integers(4, 41), rng.integers(2, 33)
        phi = rng.standard_normal((m, n))
        rho, inverse = _prepare(phi)
        system = phi.T @ phi + rho * np.eye(n)
        assert np.abs(inverse @ system - np.eye(n)).max() <= 1e-12


def test_prepare_derives_rho_from_the_row_count():
    # the Gram matrix of m unit-variance rows has eigenvalues near m
    rng = np.random.default_rng(15)
    for m, rho in ((320, 32.0), (8, 1.0), (15, 1.5)):
        assert _prepare(rng.standard_normal((m, 4)))[0] == rho


def test_zero_measurements_solve_immediately():
    phi = np.random.default_rng(5).standard_normal((10, 4))
    result = solve_lasso(phi, np.zeros(10), 0.5)
    assert np.all(result.s == 0)
    assert result.iterations == 1
    assert result.converged


def test_identity_problem_matches_prox_closed_form():
    # argmin 0.5||s - y||^2 + ||s||_1 is the soft threshold of y
    result = solve_lasso(np.eye(2), np.array([3.0, 0.5]), 1.0, **TIGHT)
    assert np.allclose(result.s, [2.0, 0.0], atol=1e-8)


def test_zero_lambda_full_rank_reproduces_least_squares():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        result = solve_lasso(phi, y, 0.0, **TIGHT)
        ls = np.linalg.lstsq(phi, y, rcond=None)[0]
        assert np.linalg.norm(result.s - ls) <= 1e-8 * max(np.linalg.norm(ls), 1.0)


def test_objective_matches_prox_gradient_reference():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m, n = rng.integers(4, 21), rng.integers(2, 11)
        phi = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        lam = rng.uniform(0.01, 0.9) * default_lambda(phi, y, 1.0)
        got = solve_lasso(phi, y, lam, **TIGHT)
        ref = lasso_fista(phi, y, lam, tol=1e-10)
        obj_ref = lasso_objective(phi, y, lam, ref)
        assert got.converged
        assert got.objective <= obj_ref + 1e-4 * max(abs(obj_ref), 1e-12) + 1e-12
        assert abs(got.objective - obj_ref) <= 1e-4 * max(abs(obj_ref), 1e-12) + 1e-12


def test_kkt_residuals_at_convergence():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = rng.integers(6, 21), rng.integers(2, 11)
        phi = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        lam = rng.uniform(0.05, 0.8) * default_lambda(phi, y, 1.0)
        z = solve_lasso(phi, y, lam, **TIGHT).s
        grad = phi.T @ (phi @ z - y)
        zero = z == 0
        assert np.all(np.abs(grad[zero]) <= lam * (1 + 1e-3) + 1e-6)
        if np.any(~zero):
            assert np.abs(grad[~zero] + lam * np.sign(z[~zero])).max() <= 1e-4


def test_solver_is_bitwise_deterministic():
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    a = solve_lasso(phi, y, 0.3)
    b = solve_lasso(phi, y, 0.3)
    assert np.array_equal(a.s, b.s)
    assert (a.iterations, a.primal_residual, a.dual_residual) == \
           (b.iterations, b.primal_residual, b.dual_residual)


def test_unconverged_result_is_flagged_not_fatal():
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((20, 30))
    y = rng.standard_normal(20)
    result = solve_lasso(phi, y, 0.1, eps_abs=1e-14, eps_rel=1e-14, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    assert result.primal_residual > 0


def test_fit_residual_is_the_measurement_misfit():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((30, 10))
    y = rng.standard_normal(30)
    lone = solve_lasso(phi, y, 0.2)
    assert isinstance(lone.fit_residual, float)
    assert lone.fit_residual == pytest.approx(np.linalg.norm(phi @ lone.s - y), rel=1e-12)
    ys = rng.standard_normal((5, 30))
    stacked = solve_lasso(phi, ys, default_lambda(phi, ys, 0.1))
    assert stacked.fit_residual.shape == (5,)
    for i in range(5):
        misfit = np.linalg.norm(phi @ stacked.s[i] - ys[i])
        assert stacked.fit_residual[i] == pytest.approx(misfit, rel=1e-12)


def _check_stacked_matches_lone(m):
    # a cap can stop some rows and not others
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((m, 10))
    ys = rng.standard_normal((6, m))
    ys[2] = 0.0  # stops at the first iteration
    lam = default_lambda(phi, ys, 1.0) * np.array([0.01, 0.05, 0.0, 0.2, 0.5, 0.9])
    assert lam.shape == (6,)
    free = [solve_lasso(phi, y, w) for y, w in zip(ys, lam)]
    # cap the iterations so the slowest row runs out while the others converge
    cap = max(r.iterations for r in free) - 1
    lone = [solve_lasso(phi, y, w, max_iter=cap) for y, w in zip(ys, lam)]
    stacked = solve_lasso(phi, ys, lam, max_iter=cap)
    assert stacked.s.shape == (6, 10)
    assert 0 < sum(r.converged for r in lone) < len(lone)
    assert np.all(stacked.s[2] == 0) and stacked.iterations[2] == 1
    for i, r in enumerate(lone):
        assert isinstance(r.iterations, int) and isinstance(r.converged, bool)
        assert np.abs(stacked.s[i] - r.s).max() <= 1e-12
        assert stacked.iterations[i] == r.iterations
        assert stacked.converged[i] == r.converged
    with pytest.raises(DimensionError, match="lam"):
        solve_lasso(phi, ys, 0.1)


def test_stacked_solve_matches_lone_solves():
    _check_stacked_matches_lone(8)  # m < n


def test_stacked_full_rank_solve_matches_lone_solves():
    _check_stacked_matches_lone(30)  # m >= n


def _paper_slab():
    """The first 512 carriers of a real embed at the paper's m = 320, p2 = 32."""
    from sabmis import (cover_raster, embed_rule, gen_matrix, make_key, measure,
                        partition_blocks, secret_raster, secret_to_coeffs, sparsify,
                        subsample)
    p = StegoParams(N=512, M=256, num_secrets=1)
    key = make_key(0xC0FFEE, p)
    phi = gen_matrix(key)
    blocks = partition_blocks(subsample(cover_raster(p.N, 1101))[key.assignment[0] - 1],
                              p.b)[:512]
    payload = secret_to_coeffs(secret_raster(p.M, 2201), p)[:512]
    carrier = embed_rule(measure(sparsify(blocks), phi), payload, p)
    return phi, carrier[:, p.p1:]


def test_admm_matches_the_reference_on_a_paper_slab():
    # the default stopping rule on a real embed's carriers, against FISTA
    phi, ys = _paper_slab()
    lam = default_lambda(phi, ys)
    result = solve_lasso(phi, ys, lam)
    assert result.converged.all()
    for i in range(len(ys)):
        obj_ref = lasso_objective(phi, ys[i], lam[i], lasso_fista(phi, ys[i], lam[i], tol=1e-10))
        assert abs(result.objective[i] - obj_ref) <= 1e-6 * abs(obj_ref)


def test_nearly_collinear_columns_fall_back_to_admm():
    # m >= n but phi^T phi is singular to working precision
    rng = np.random.default_rng(14)
    phi = rng.standard_normal((20, 8))
    phi[:, 6] = phi[:, 0]
    phi[:, 7] = 2.0 * phi[:, 1] - phi[:, 2] + 1e-9 * rng.standard_normal(20)
    ys = rng.standard_normal((5, 20))
    lam = default_lambda(phi, ys, 0.1)
    result = solve_lasso(phi, ys, lam, eps_abs=1e-10, eps_rel=1e-10, max_iter=5000)
    for i in range(5):
        obj_ref = lasso_objective(phi, ys[i], lam[i], lasso_fista(phi, ys[i], lam[i], tol=1e-8))
        assert abs(result.objective[i] - obj_ref) <= 1e-4 * abs(obj_ref)


def test_problem_validation():
    rng = np.random.default_rng(16)
    gauss = rng.standard_normal((20, 8))
    cases = [
        ((np.eye(2), np.zeros(2), -1.0), {}, ParamError, "lam"),
        ((np.eye(2), np.zeros(3), 1.0), {}, DimensionError, "inconsistent"),
        ((np.array([[1.0, np.inf], [0.0, 1.0]]), np.zeros(2), 1.0), {}, SolverError, "matrix"),
        ((np.eye(2), np.array([0.0, np.nan]), 1.0), {}, SolverError, "measurements"),
        # finite inputs whose phi^T phi or phi^T y overflows
        ((gauss * 1e160, np.zeros(20), 0.0), {}, SolverError, r"phi\^T phi overflows"),
        ((gauss * 1e10, rng.standard_normal(20) * 1e300, 0.1), {}, SolverError,
         r"phi\^T y overflows"),
        # rank 4 of 8 columns, with phi^T phi far above rho
        ((rng.standard_normal((4, 8)) * 1e100, np.zeros(4), 0.0), {}, SolverError,
         "not positive definite"),
        ((np.eye(2), np.zeros(2), 1.0), {"eps_abs": np.nan}, ParamError, "tolerances"),
        ((np.eye(2), np.zeros(2), 1.0), {"eps_rel": np.inf}, ParamError, "tolerances"),
        ((np.eye(2), np.zeros(2), 1.0), {"eps_abs": 0.0}, ParamError, "tolerances"),
        ((np.eye(2), np.zeros(2), 1.0), {"max_iter": 0}, ParamError, "max_iter"),
    ]
    for args, kwargs, exc, match in cases:
        with pytest.raises(exc, match=match):
            solve_lasso(*args, **kwargs)


_L1_PROBE = """
import json, sys
import numpy as np
from sabmis import (StegoParams, default_lambda, embed_rule, gen_matrix, make_key, measure,
                    reconstruct_block, solve_lasso)

p = StegoParams(N=64, M=32, num_secrets=1)
phi = gen_matrix(make_key(3, p))
rng = np.random.default_rng(0)
ys = rng.standard_normal((4, p.m))
assert solve_lasso(phi, ys, default_lambda(phi, ys)).converged.all()
carriers = embed_rule(measure(rng.standard_normal((4, p.b ** 2)), phi),
                      rng.standard_normal((4, p.l ** 2)), p)
assert reconstruct_block(carriers, phi, p)[1].converged.all()
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_the_l1_path_loads_no_scipy():
    # the solver factors (phi^T phi + rho I) with numpy, so the paper's
    # per-block rebuild costs a fresh process no scipy import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _L1_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
