"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured values (run with -s to see them).

The paper-scale tests use the deterministic synthetic stand-ins from the
synth module in place of the usual (non-redistributable) gray-scale test
images: covers are upsampled textured fields, secrets smooth moderate-range
fields. All thresholds below are fixed; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from sabmis import (SolverConfig, StegoParams, cover_raster,
                    compare, default_params, embed_images, embed_rule,
                    extract_images, extract_rule, gen_matrix, make_dct_basis,
                    make_key, make_zigzag, measure, partition_blocks,
                    quantize_u8, read_pgm, read_srf, secret_raster,
                    secret_to_coeffs, sparsify, subsample, write_pgm,
                    write_srf)
from sabmis.cli import main as cli_main
from sabmis.solver import LassoProblem, default_lambda, solve_lasso

from reference import lasso_fista, lasso_objective

KEY_SEED = 0xC0FFEE
COVER_SEEDS = (1101, 1102)
SECRET_SEEDS = (2201, 2202, 2203, 2204)


@pytest.fixture(scope="module")
def paper_setup():
    # inputs are quantized like any 8-bit source image would be
    key = make_key(KEY_SEED)
    covers = [quantize_u8(cover_raster(1024, s)) for s in COVER_SEEDS]
    secrets = [quantize_u8(secret_raster(512, s)) for s in SECRET_SEEDS]
    return key, covers, secrets


@pytest.fixture(scope="module")
def paper_stego(paper_setup):
    key, covers, secrets = paper_setup
    out = []
    for cover in covers:
        start = time.perf_counter()
        stego, report = embed_images(cover, secrets, key)
        out.append((stego, report, time.perf_counter() - start))
    return out


def test_unit_inverse_of_embedding_rules():
    """Criterion 1: extract_rule inverts embed_rule on 1000 random pairs."""
    p = default_params()
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        y = rng.standard_normal(p.p1 + p.m)
        t = rng.standard_normal(p.l * p.l)
        got = extract_rule(embed_rule(y, t, p), p)
        rel = np.linalg.norm(got[: p.p3] - t[: p.p3]) / np.linalg.norm(t[: p.p3])
        worst = max(worst, rel)
        assert np.all(got[p.p3 :] == 0.0)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPT PASS unit-inverse: worst relative error {worst:.3e}, {elapsed:.2f}s")


def test_solver_against_independent_reference():
    """Criterion 2: ADMM matches a tight proximal-gradient oracle on 200
    random problems, and the KKT residual bounds hold."""
    rng = np.random.default_rng(777)
    tight = SolverConfig(eps_abs=1e-12, eps_rel=1e-12, max_iter=20000)
    start = time.perf_counter()
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        m = int(rng.integers(4, 21))
        n = int(rng.integers(2, 11))
        phi = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        lam = float(rng.uniform(0.02, 0.9)) * default_lambda(phi, y, 1.0)
        result = solve_lasso(LassoProblem(phi, y, lam), tight)
        ref = lasso_fista(phi, y, lam, tol=1e-10)
        obj_ref = lasso_objective(phi, y, lam, ref)
        rel = abs(result.objective - obj_ref) / max(abs(obj_ref), 1e-12)
        worst_obj = max(worst_obj, rel)
        assert rel <= 1e-4
        z = result.s
        grad = phi.T @ (phi @ z - y)
        zero = z == 0
        assert np.all(np.abs(grad[zero]) <= lam * (1 + 1e-3) + 1e-6)
        if np.any(~zero):
            kkt = float(np.abs(grad[~zero] + lam * np.sign(z[~zero])).max())
            worst_kkt = max(worst_kkt, kkt)
            assert kkt <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPT PASS solver-oracle: worst objective rel {worst_obj:.2e}, "
          f"worst KKT {worst_kkt:.2e}, {elapsed:.1f}s")


def test_structural_identities(tmp_path):
    """Criterion 3: orthonormality, transform round trips, container round
    trips, sub-sampling identity."""
    start = time.perf_counter()
    basis, zz = make_dct_basis(8), make_zigzag(8)
    ortho = np.abs(basis.matrix.T @ basis.matrix - np.eye(64)).max()
    assert ortho <= 1e-12

    rng = np.random.default_rng(99)
    worst_rt = 0.0
    from sabmis import desparsify
    for _ in range(200):
        block = rng.uniform(0, 255, size=(8, 8))
        back = desparsify(sparsify(block, basis, zz), basis, zz)
        worst_rt = max(worst_rt, float(np.abs(back - block).max()))
    assert worst_rt <= 1e-10

    from sabmis import Raster, inverse_subsample
    r = Raster(rng.uniform(0, 255, size=(64, 64)))
    assert np.array_equal(inverse_subsample(subsample(r)).pixels, r.pixels)

    srf_path = tmp_path / "x.srf"
    float_raster = Raster(rng.standard_normal((32, 48)) * 500)
    write_srf(float_raster, srf_path)
    assert np.array_equal(read_srf(srf_path).pixels, float_raster.pixels)

    pgm_a, pgm_b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    u8 = quantize_u8(Raster(rng.uniform(0, 255, size=(17, 23))))
    write_pgm(u8, pgm_a, depth=8)
    write_pgm(read_pgm(pgm_a), pgm_b, depth=8)
    assert pgm_a.read_bytes() == pgm_b.read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPT PASS structural: orthonormality {ortho:.2e}, "
          f"transform round trip {worst_rt:.2e}, containers bit-exact, {elapsed:.2f}s")


def test_u_channel_end_to_end_exactness(paper_setup):
    """Criterion 4: the directly-copied channel survives a full embed/extract
    at reference scale to 1e-6 relative, per block."""
    _, covers, secrets = paper_setup
    p1 = StegoParams(num_secrets=1)
    key1 = make_key(KEY_SEED, p1)
    start = time.perf_counter()
    stego, _ = embed_images(covers[0], [secrets[0]], key1)

    basis, zz = make_dct_basis(p1.b), make_zigzag(p1.b)
    phi = gen_matrix(key1)
    t_in = secret_to_coeffs(secrets[0], p1, basis, zz)
    sub = subsample(stego).sub[key1.assignment[0] - 1]
    blocks = partition_blocks(sub, p1.b)
    worst = 0.0
    for i in range(p1.secret_blocks):
        spec = sparsify(blocks[i], basis, zz)
        t_out = extract_rule(measure(spec, phi), p1)
        num = np.linalg.norm(t_out[: p1.c] - t_in[i, : p1.c])
        den = max(np.linalg.norm(t_in[i, : p1.c]), 1e-9)
        worst = max(worst, num / den)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 180.0
    print(f"\nACCEPT PASS u-channel: worst per-block relative error {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_stego_quality_at_paper_scale(paper_setup, paper_stego):
    """Criterion 5: four secrets in each of two 1024x1024 covers, metrics on
    the 8-bit-quantized pair."""
    _, covers, _ = paper_setup
    for cover, (stego, _, elapsed) in zip(covers, paper_stego):
        report = compare(cover, stego)
        delta_h = abs(report.entropy_test - report.entropy_ref)
        assert report.psnr_db >= 35.0
        assert report.mssim >= 0.99
        assert 0.99 <= report.ncc <= 1.01
        assert report.nae <= 0.03
        assert delta_h <= 0.15
        assert elapsed <= 300.0
        print(f"\nACCEPT PASS stego-quality: psnr {report.psnr_db:.2f} dB, "
              f"mssim {report.mssim:.5f}, ncc {report.ncc:.5f}, "
              f"nae {report.nae:.4f}, dH {delta_h:.4f}, embed {elapsed:.1f}s")


def test_extraction_quality_float_path(paper_setup, paper_stego):
    """Criterion 6: extracted secrets match the originals on the float path;
    the 8-bit stego path is reported, not asserted."""
    key, _, secrets = paper_setup
    stego = paper_stego[0][0]
    extracted = extract_images(stego, key)
    for i, (orig, ext) in enumerate(zip(secrets, extracted), start=1):
        rep = compare(orig, ext)
        delta_h = abs(rep.entropy_test - rep.entropy_ref)
        assert rep.ncc >= 0.98
        assert rep.mssim >= 0.9
        assert delta_h <= 0.4
        print(f"\nACCEPT PASS extraction (secret {i}): ncc {rep.ncc:.4f}, "
              f"mssim {rep.mssim:.4f}, dH {delta_h:.3f}")
    # 8-bit container path: pixel depth is unspecified upstream, so the
    # degradation is reported for information only
    eight_bit = [compare(o, e) for o, e in
                 zip(secrets, extract_images(quantize_u8(stego), key))]
    print("REPORT 8-bit-stego extraction: "
          + ", ".join(f"ncc {r.ncc:.4f}/mssim {r.mssim:.4f}" for r in eight_bit))


def test_psnr_monotone_in_secret_count(tmp_path):
    """Criterion 7: on every bench cover the stego PSNR is non-increasing as
    the secret count goes 1 to 4 (run through the bench harness)."""
    import json

    from sabmis import write_key
    params = StegoParams(N=256, M=128, num_secrets=4)
    key_path = tmp_path / "k.skey"
    write_key(make_key(KEY_SEED, params), key_path)
    covers_dir = tmp_path / "covers"
    secrets_dir = tmp_path / "secrets"
    covers_dir.mkdir()
    secrets_dir.mkdir()
    for i, seed in enumerate((3301, 3302)):
        write_pgm(cover_raster(256, seed), covers_dir / f"cover{i}.pgm", depth=8)
    for i, seed in enumerate(SECRET_SEEDS):
        write_pgm(secret_raster(128, seed), secrets_dir / f"secret{i}.pgm", depth=8)
    report_path = tmp_path / "bench.json"
    rc = cli_main(["bench", "--covers", str(covers_dir), "--secrets", str(secrets_dir),
                   "--key", str(key_path), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["covers"]) == 2
    for name, entry in report["covers"].items():
        curve = [entry["psnr_curve"][str(k)] for k in (1, 2, 3, 4)]
        assert all(np.isfinite(curve))
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert curve[0] >= 38.0
        print(f"\nACCEPT PASS monotonicity ({name}): "
              + " >= ".join(f"{v:.2f}" for v in curve))


def test_determinism_across_runs_and_workers(tmp_path):
    """Criterion 8: identical key and inputs give bitwise-identical stego
    files on every run."""
    params = StegoParams(N=256, M=128, num_secrets=4)
    key = make_key(KEY_SEED, params)
    cover = cover_raster(256, 4401)
    secrets = [secret_raster(128, s) for s in SECRET_SEEDS]
    paths = []
    for tag in ("a", "b", "c"):
        stego, _ = embed_images(cover, secrets, key)
        path = tmp_path / f"{tag}.srf"
        write_srf(stego, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    print("\nACCEPT PASS determinism: stego files bitwise identical over three runs")
