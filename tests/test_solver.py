import numpy as np
import pytest

from sabmis import (DimensionError, LassoProblem, ParamError, SolverConfig, SolverError,
                    StegoParams, default_lambda, prepare, soft_threshold, solve_lasso,
                    solve_normal)
from sabmis.solver import _ROUNDS

from reference import lasso_fista, lasso_objective

TIGHT = SolverConfig(eps_abs=1e-12, eps_rel=1e-12, max_iter=20000)


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
    cache = prepare(np.eye(2))
    # rho = 1 for two rows, so (phi^T phi + rho I) = 2 I and its inverse
    # halves any right-hand side; one ulp below 0.5: the Cholesky factor
    # holds sqrt(2) on its diagonal
    assert np.allclose(cache.inverse, 0.5 * np.eye(2), rtol=0.0, atol=1e-15)


def test_prepare_inverse_inverts_the_system():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, n = rng.integers(4, 41), rng.integers(2, 33)
        phi = rng.standard_normal((m, n))
        cache = prepare(phi)
        system = phi.T @ phi + cache.rho * np.eye(n)
        assert np.abs(cache.inverse @ system - np.eye(n)).max() <= 1e-12


def test_prepare_derives_rho_from_the_row_count():
    # the Gram matrix of m unit-variance rows has eigenvalues near m
    rng = np.random.default_rng(15)
    for m, rho in ((320, 32.0), (8, 1.0), (15, 1.5)):
        assert prepare(rng.standard_normal((m, 4))).rho == rho


def test_cached_factorization_reuse_matches_fresh():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((12, 5))
    cfg = SolverConfig()
    cache = prepare(phi)
    for _ in range(100):
        y = rng.standard_normal(12)
        lam = 0.1 * default_lambda(phi, y, 1.0)
        with_cache = solve_lasso(LassoProblem(phi, y, lam), cfg, cache)
        fresh = solve_lasso(LassoProblem(phi, y, lam), cfg)
        assert np.array_equal(with_cache.s, fresh.s)
        assert with_cache.iterations == fresh.iterations


def test_cache_accepted_for_an_equal_copy_of_phi():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    copy = phi.copy()
    got = solve_lasso(LassoProblem(copy, y, 0.1), SolverConfig(), prepare(phi))
    assert np.array_equal(got.s, solve_lasso(LassoProblem(phi, y, 0.1)).s)


def test_cache_rejected_when_phi_changes():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((8, 4))
    cache = prepare(phi)
    other = LassoProblem(phi + 1e-9, rng.standard_normal(8), 0.1)
    with pytest.raises(ParamError, match="cached factorization"):
        solve_lasso(other, SolverConfig(), cache)


def test_zero_measurements_solve_immediately():
    phi = np.random.default_rng(5).standard_normal((10, 4))
    result = solve_lasso(LassoProblem(phi, np.zeros(10), 0.5))
    assert np.all(result.s == 0)
    assert result.iterations == 1
    assert result.converged


def test_identity_problem_matches_prox_closed_form():
    # argmin 0.5||s - y||^2 + ||s||_1 is the soft threshold of y
    result = solve_lasso(LassoProblem(np.eye(2), np.array([3.0, 0.5]), 1.0), TIGHT)
    assert np.allclose(result.s, [2.0, 0.0], atol=1e-8)


def test_zero_lambda_full_rank_reproduces_least_squares():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        result = solve_lasso(LassoProblem(phi, y, 0.0), TIGHT)
        ls = np.linalg.lstsq(phi, y, rcond=None)[0]
        assert np.linalg.norm(result.s - ls) <= 1e-8 * max(np.linalg.norm(ls), 1.0)


def test_objective_matches_prox_gradient_reference():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m, n = rng.integers(4, 21), rng.integers(2, 11)
        phi = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        lam = rng.uniform(0.01, 0.9) * default_lambda(phi, y, 1.0)
        got = solve_lasso(LassoProblem(phi, y, lam), TIGHT)
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
        z = solve_lasso(LassoProblem(phi, y, lam), TIGHT).s
        grad = phi.T @ (phi @ z - y)
        zero = z == 0
        assert np.all(np.abs(grad[zero]) <= lam * (1 + 1e-3) + 1e-6)
        if np.any(~zero):
            assert np.abs(grad[~zero] + lam * np.sign(z[~zero])).max() <= 1e-4


def test_solver_is_bitwise_deterministic():
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    problem = LassoProblem(phi, y, 0.3)
    a = solve_lasso(problem, SolverConfig())
    b = solve_lasso(problem, SolverConfig())
    assert np.array_equal(a.s, b.s)
    assert (a.iterations, a.primal_residual, a.dual_residual) == \
           (b.iterations, b.primal_residual, b.dual_residual)


def test_unconverged_result_is_flagged_not_fatal():
    # m < n: no certificate applies, so ADMM alone meets the cap
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((20, 30))
    y = rng.standard_normal(20)
    result = solve_lasso(LassoProblem(phi, y, 0.1),
                         SolverConfig(eps_abs=1e-14, eps_rel=1e-14, max_iter=3))
    assert not result.converged
    assert result.iterations == 3
    assert result.primal_residual > 0


def test_full_rank_rows_are_certified_whatever_max_iter():
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((30, 10))
    y = rng.standard_normal(30)
    results = [solve_lasso(LassoProblem(phi, y, 0.1),
                           SolverConfig(eps_abs=1e-14, eps_rel=1e-14, max_iter=cap))
               for cap in (1, 3, 500)]
    for result in results:
        assert result.converged
        assert 1 <= result.iterations <= _ROUNDS
        assert result.primal_residual == 0.0 and result.dual_residual == 0.0
        assert np.array_equal(result.s, results[0].s)


def test_fit_residual_is_the_measurement_misfit():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((30, 10))
    y = rng.standard_normal(30)
    lone = solve_lasso(LassoProblem(phi, y, 0.2))
    assert isinstance(lone.fit_residual, float)
    assert lone.fit_residual == pytest.approx(np.linalg.norm(phi @ lone.s - y), rel=1e-12)
    ys = rng.standard_normal((5, 30))
    stacked = solve_lasso(LassoProblem(phi, ys, default_lambda(phi, ys, 0.1)))
    assert stacked.fit_residual.shape == (5,)
    for i in range(5):
        misfit = np.linalg.norm(phi @ stacked.s[i] - ys[i])
        assert stacked.fit_residual[i] == pytest.approx(misfit, rel=1e-12)


def test_embed_residual_mean_matches_a_recomputation():
    # rebuild each block's carrier and solved v-part from the pipeline's own
    # steps and measure ||phi s - y_v|| outside the solver
    from sabmis import (StegoParams, cover_raster, embed_images, embed_rule, gen_matrix,
                        make_dct_basis, make_key, make_zigzag, measure,
                        partition_blocks, secret_raster, secret_to_coeffs, sparsify,
                        subsample)
    p = StegoParams(N=128, M=64, num_secrets=2)
    key = make_key(16, p)
    cover = cover_raster(p.N, 35)
    secrets = [secret_raster(p.M, 36 + i) for i in range(2)]
    stego, report = embed_images(cover, secrets, key)
    basis, zz = make_dct_basis(p.b), make_zigzag(p.b)
    phi = gen_matrix(key)
    for secret, k, stats in zip(secrets, key.assignment, report.sub_images):
        assert stats.sub_index == k
        payload = secret_to_coeffs(secret, p, basis, zz)
        n = len(payload)
        before = partition_blocks(subsample(cover).sub[k - 1], p.b)[:n]
        after = partition_blocks(subsample(stego).sub[k - 1], p.b)[:n]
        carrier = embed_rule(measure(sparsify(before, basis, zz), phi), payload, p)
        s = sparsify(after, basis, zz)[:, p.p1:]
        misfit = np.linalg.norm(s @ phi.entries.T - carrier[:, p.p1:], axis=1)
        assert stats.residual_mean == pytest.approx(misfit.mean(), rel=1e-9)


def test_stacked_solve_matches_lone_solves():
    # m < n: every row runs ADMM, so a cap can stop some rows and not others
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((8, 10))
    ys = rng.standard_normal((6, 8))
    ys[2] = 0.0  # stops at the first iteration
    lam = default_lambda(phi, ys, 1.0) * np.array([0.01, 0.05, 0.0, 0.2, 0.5, 0.9])
    assert lam.shape == (6,)
    free = [solve_lasso(LassoProblem(phi, y, w), SolverConfig()) for y, w in zip(ys, lam)]
    # cap the iterations so the slowest row runs out while the others converge
    cfg = SolverConfig(max_iter=max(r.iterations for r in free) - 1)
    lone = [solve_lasso(LassoProblem(phi, y, w), cfg) for y, w in zip(ys, lam)]
    stacked = solve_lasso(LassoProblem(phi, ys, lam), cfg, prepare(phi))
    assert stacked.s.shape == (6, 10)
    assert 0 < sum(r.converged for r in lone) < len(lone)
    for i, r in enumerate(lone):
        assert isinstance(r.iterations, int) and isinstance(r.converged, bool)
        assert np.abs(stacked.s[i] - r.s).max() <= 1e-12
        assert stacked.iterations[i] == r.iterations
        assert stacked.converged[i] == r.converged
    with pytest.raises(DimensionError, match="lam"):
        LassoProblem(phi, ys, 0.1)


def test_stacked_full_rank_solve_matches_lone_solves():
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((30, 10))
    ys = rng.standard_normal((6, 30))
    ys[2] = 0.0
    lam = default_lambda(phi, ys, 1.0) * np.array([0.01, 0.05, 0.0, 0.2, 0.5, 0.9])
    for cap in (1, 500):
        cfg = SolverConfig(max_iter=cap)
        lone = [solve_lasso(LassoProblem(phi, y, w), cfg) for y, w in zip(ys, lam)]
        stacked = solve_lasso(LassoProblem(phi, ys, lam), cfg, prepare(phi))
        assert stacked.converged.all() and stacked.iterations.max() <= _ROUNDS
        assert np.all(stacked.s[2] == 0) and stacked.iterations[2] == 1
        for i, r in enumerate(lone):
            assert np.abs(stacked.s[i] - r.s).max() <= 1e-12
            assert stacked.iterations[i] == r.iterations
            assert stacked.converged[i] == r.converged


def _paper_slab():
    """The first 512 carriers of a real embed at the paper's m = 320, p2 = 32."""
    from sabmis import (cover_raster, embed_rule, gen_matrix, make_dct_basis, make_key,
                        make_zigzag, measure, partition_blocks, secret_raster,
                        secret_to_coeffs, sparsify, subsample)
    p = StegoParams(N=512, M=256, num_secrets=1)
    key = make_key(0xC0FFEE, p)
    basis, zz = make_dct_basis(p.b), make_zigzag(p.b)
    phi = gen_matrix(key)
    blocks = partition_blocks(subsample(cover_raster(p.N, 1101)).sub[key.assignment[0] - 1],
                              p.b)[:512]
    payload = secret_to_coeffs(secret_raster(p.M, 2201), p, basis, zz)[:512]
    carrier = embed_rule(measure(sparsify(blocks, basis, zz), phi), payload, p)
    return phi.entries, carrier[:, p.p1:]


def test_certified_rows_meet_the_kkt_conditions():
    phi, ys = _paper_slab()
    lam = default_lambda(phi, ys)
    result = solve_lasso(LassoProblem(phi, ys, lam))
    certified = result.iterations <= _ROUNDS
    assert certified.all()
    assert (result.iterations > 1).any()  # some rows needed a sign update
    assert np.all(result.primal_residual == 0.0) and np.all(result.dual_residual == 0.0)
    corr = ys @ phi - result.s @ (phi.T @ phi)  # phi^T (y - phi s)
    tol = 1e-9 * np.abs(ys @ phi).max(axis=1, keepdims=True)
    on = result.s != 0
    slack = np.where(on, np.abs(corr - lam[:, None] * np.sign(result.s)),
                     np.abs(corr) - lam[:, None])
    assert np.all(slack <= tol)
    assert (~on).any()


def test_stack_mixing_certified_and_fallback_rows_matches_lone_solves():
    phi = _paper_slab()[0]
    rng = np.random.default_rng(20)
    ys = rng.standard_normal((16, 320))[[0, 9, 1, 2, 13, 3]]
    # lam near ||phi^T y||_inf leaves one or two nonzeros, which the least-squares
    # signs cannot reach in three rounds on rows 1 and 4
    fallback = np.array([False, True, False, False, True, False])
    lam = default_lambda(phi, ys, 1.0) * np.where(fallback, 0.95, 1e-3)
    lone = [solve_lasso(LassoProblem(phi, y, w)) for y, w in zip(ys, lam)]
    stacked = solve_lasso(LassoProblem(phi, ys, lam), cache=prepare(phi))
    assert np.array_equal(stacked.iterations > _ROUNDS, fallback)
    assert stacked.converged.all()
    for i, r in enumerate(lone):
        assert np.abs(stacked.s[i] - r.s).max() <= 1e-12
        assert stacked.iterations[i] == r.iterations
        assert stacked.converged[i] == r.converged
    for i in np.flatnonzero(fallback):
        assert 1 <= np.count_nonzero(stacked.s[i]) <= 2
        ref = lasso_fista(phi, ys[i], lam[i], tol=1e-10)
        obj_ref = lasso_objective(phi, ys[i], lam[i], ref)
        assert abs(stacked.objective[i] - obj_ref) <= 1e-4 * abs(obj_ref)


def test_solve_normal_on_aty_matches_solve_lasso():
    # the core that the pipeline calls with phi^T y, against the LassoProblem
    # entry on y, on a stack mixing certified and fallback rows
    phi = _paper_slab()[0]
    cfg = SolverConfig()
    rng = np.random.default_rng(20)
    ys = rng.standard_normal((16, 320))[[0, 9, 1, 2, 13, 3]]
    lam = default_lambda(phi, ys, 1.0) * np.array([1e-3, 0.95, 1e-3, 0.5, 0.95, 0.0])
    cache = prepare(phi)
    ref = solve_lasso(LassoProblem(phi, ys, lam), cfg, cache)
    s, iterations, converged, primal, dual = solve_normal(ys @ phi, lam, cfg, cache)
    assert (iterations > _ROUNDS).any() and (iterations <= _ROUNDS).any()
    assert np.abs(s - ref.s).max() <= 1e-12
    assert np.array_equal(iterations, ref.iterations)
    assert np.array_equal(converged, ref.converged)
    assert np.abs(primal - ref.primal_residual).max() <= 1e-12
    assert np.abs(dual - ref.dual_residual).max() <= 1e-12
    with pytest.raises(DimensionError):
        solve_normal(ys @ phi, lam[:5], cfg, cache)
    with pytest.raises(DimensionError):
        solve_normal(ys, lam, cfg, cache)
    bad = ys @ phi
    bad[2, 3] = np.nan
    with pytest.raises(SolverError):
        solve_normal(bad, lam, cfg, cache)
    with pytest.raises(ParamError):
        solve_normal(ys @ phi, -lam, cfg, cache)


def test_a_support_solve_is_never_certified_on_signs_alone():
    # a slightly wrong inverse keeps the signs and the zero bounds but breaks
    # stationarity, so no row may be certified and ADMM must solve them all
    from dataclasses import replace
    phi, ys = _paper_slab()
    ys = ys[:64]
    lam = default_lambda(phi, ys)
    good = prepare(phi)
    skewed = replace(good, gram_inverse=good.gram_inverse * (1 + 1e-6))
    exact = solve_lasso(LassoProblem(phi, ys, lam), SolverConfig(), good)
    result = solve_lasso(LassoProblem(phi, ys, lam), SolverConfig(), skewed)
    assert np.all(exact.iterations <= _ROUNDS)
    assert np.all(result.iterations > _ROUNDS) and result.converged.all()
    assert np.abs(result.objective - exact.objective).max() <= 1e-4 * exact.objective.min()


def test_nearly_collinear_columns_fall_back_to_admm():
    # m >= n but phi^T phi is singular to working precision: no certificate
    rng = np.random.default_rng(14)
    phi = rng.standard_normal((20, 8))
    phi[:, 6] = phi[:, 0]
    phi[:, 7] = 2.0 * phi[:, 1] - phi[:, 2] + 1e-9 * rng.standard_normal(20)
    ys = rng.standard_normal((5, 20))
    lam = default_lambda(phi, ys, 0.1)
    cfg = SolverConfig(eps_abs=1e-10, eps_rel=1e-10, max_iter=5000)
    assert prepare(phi).gram_inverse is None
    result = solve_lasso(LassoProblem(phi, ys, lam), cfg)
    for i in range(5):
        obj_ref = lasso_objective(phi, ys[i], lam[i], lasso_fista(phi, ys[i], lam[i], tol=1e-8))
        assert abs(result.objective[i] - obj_ref) <= 1e-4 * abs(obj_ref)


def test_problem_validation():
    with pytest.raises(ParamError):
        LassoProblem(np.eye(2), np.zeros(2), -1.0)
    with pytest.raises(DimensionError):
        LassoProblem(np.eye(2), np.zeros(3), 1.0)
