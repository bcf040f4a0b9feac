import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sabmis import (DimensionError, FormatError, ParamError, SolverError, StegoParams,
                    cover_raster, make_key, ncc, quantize_u8, read_key, read_pgm,
                    secret_raster, write_key, write_pgm)
from sabmis.cli import main

SMALL = StegoParams(N=128, M=64, num_secrets=1)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def small_setup(tmp_path):
    key = make_key(3, SMALL)
    key_path = tmp_path / "k.skey"
    write_key(key, key_path)
    cover = cover_raster(SMALL.N, 51)
    cover_path = tmp_path / "cover.pgm"
    write_pgm(cover, cover_path, depth=8)
    secret = secret_raster(SMALL.M, 52)
    secret_path = tmp_path / "secret.pgm"
    write_pgm(secret, secret_path, depth=8)
    return tmp_path, key_path, cover_path, secret_path


def test_keygen_writes_reference_defaults(tmp_path, capsys):
    out = tmp_path / "k.skey"
    assert run("keygen", "--seed", "42", "--out", str(out)) == 0
    key = read_key(out)
    assert key.seed == 42
    assert key.params == StegoParams()
    payload = json.loads(capsys.readouterr().out)
    assert payload["assignment"] == list(key.assignment)


def assert_sub_image_reports(sub_images, count):
    # the embed writes without an l1 solve: its residual is rounding-sized,
    # and the solver figures kept for earlier report readers read 0
    assert len(sub_images) == count
    for stats in sub_images:
        assert set(stats) == {"sub_index", "write_residual", "blocks", "iterations_mean",
                              "iterations_max", "unconverged"}
        assert type(stats["sub_index"]) is int and 1 <= stats["sub_index"] <= 4
        assert type(stats["write_residual"]) is float and stats["write_residual"] <= 1e-9
        assert (stats["blocks"], stats["iterations_mean"], stats["iterations_max"],
                stats["unconverged"]) == (0, 0.0, 0, 0)


def test_keygen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.skey", tmp_path / "b.skey"
    run("keygen", "--seed", "9", "--out", str(a))
    run("keygen", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_keygen_rejects_invalid_c(tmp_path, capsys):
    rc = run("keygen", "--seed", "1", "--out", str(tmp_path / "k.skey"), "--c", "20")
    assert rc == 2
    assert "p1-2c >= 1 violated" in capsys.readouterr().err


def test_keygen_refuses_more_written_rows_than_p2(tmp_path, capsys):
    # --p1 48 leaves p2 = 16 for the default p3 - c = 24 written rows
    out = tmp_path / "k.skey"
    assert run("keygen", "--seed", "1", "--out", str(out), "--p1", "48") == 2
    assert "p3-c <= p2 violated (p3=32, c=8, p2=16)" in capsys.readouterr().err
    assert not out.exists()


def test_keygen_and_extract_refuse_a_zero_strength(small_setup, capsys):
    # the receiver divides by the strengths: keygen writes no key holding a
    # zero one, and a key file edited to hold one is refused on reading
    tmp, key_path, cover_path, _ = small_setup
    out = tmp / "zero.skey"
    assert run("keygen", "--seed", "1", "--out", str(out), "--alpha", "0") == 2
    assert "alpha must be finite and nonzero" in capsys.readouterr().err
    assert not out.exists()
    text = key_path.read_text(encoding="utf-8")
    key_path.write_text(text.replace("gamma = 1\n", "gamma = 0\n"), encoding="utf-8")
    assert run("extract", "--stego", str(cover_path), "--key", str(key_path),
               "--out-prefix", str(tmp / "recovered")) == 2
    assert "gamma must be finite and nonzero" in capsys.readouterr().err
    assert not list(tmp.glob("recovered*"))


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_keygen_rejects_a_non_finite_m_factor(tmp_path, capsys, value):
    out = tmp_path / "k.skey"
    assert run("keygen", "--seed", "1", "--out", str(out), "--m-factor", value) == 2
    assert "--m-factor must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_keygen_refuses_an_m_too_large_for_phi(tmp_path, capsys):
    out = tmp_path / "k.skey"
    assert run("keygen", "--seed", "1", "--out", str(out), "--m-factor", "1e300") == 2
    assert "m * p2 <= 2^24 violated" in capsys.readouterr().err
    assert not out.exists()


def test_embed_extract_round_trip(small_setup, capsys):
    tmp, key_path, cover_path, secret_path = small_setup
    stego_path = tmp / "stego.srf"
    view_path = tmp / "stego.pgm"
    rc = run("embed", "--cover", str(cover_path), "--secret", str(secret_path),
             "--key", str(key_path), "--out", str(stego_path),
             "--export-pgm8", str(view_path))
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["capacity_bpp"] == 2
    assert_sub_image_reports(report["sub_images"], 1)
    assert stego_path.exists() and view_path.exists()

    rc = run("extract", "--stego", str(stego_path), "--key", str(key_path),
             "--out-prefix", str(tmp / "rec"))
    assert rc == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert files == [str(tmp / "rec1.pgm")]
    recovered = read_pgm(files[0])
    assert recovered.pixels.shape == (SMALL.M, SMALL.M)
    secret = read_pgm(secret_path)
    assert ncc(quantize_u8(secret), quantize_u8(recovered)) >= 0.99


def test_extract_accepts_pgm_stego(small_setup, capsys):
    # the 8-bit view is a valid (noisier) extraction source
    tmp, key_path, cover_path, secret_path = small_setup
    stego_srf = tmp / "stego.srf"
    stego_pgm = tmp / "stego.pgm"
    run("embed", "--cover", str(cover_path), "--secret", str(secret_path),
        "--key", str(key_path), "--out", str(stego_srf),
        "--export-pgm8", str(stego_pgm))
    capsys.readouterr()
    rc = run("extract", "--stego", str(stego_pgm), "--key", str(key_path),
             "--out-prefix", str(tmp / "q"))
    assert rc == 0
    recovered = read_pgm(json.loads(capsys.readouterr().out)["files"][0])
    secret = read_pgm(secret_path)
    assert ncc(quantize_u8(secret), quantize_u8(recovered)) >= 0.95


def test_embed_rejects_five_secrets(small_setup, capsys):
    tmp, key_path, cover_path, secret_path = small_setup
    args = ["embed", "--cover", str(cover_path), "--key", str(key_path),
            "--out", str(tmp / "s.srf")]
    for _ in range(5):
        args += ["--secret", str(secret_path)]
    assert main(args) == 2
    assert "between 1 and 4" in capsys.readouterr().err


def test_embed_rejects_wrong_cover_size(small_setup, capsys):
    tmp, key_path, _, secret_path = small_setup
    bad_cover = tmp / "bad.pgm"
    write_pgm(cover_raster(64, 5), bad_cover, depth=8)
    rc = run("embed", "--cover", str(bad_cover), "--secret", str(secret_path),
             "--key", str(key_path), "--out", str(tmp / "s.srf"))
    assert rc == 2
    assert "128" in capsys.readouterr().err


def test_embed_missing_file_is_io_error(small_setup, capsys):
    tmp, key_path, _, secret_path = small_setup
    rc = run("embed", "--cover", str(tmp / "nope.pgm"), "--secret", str(secret_path),
             "--key", str(key_path), "--out", str(tmp / "s.srf"))
    assert rc == 3


def test_extract_with_wrong_seed_gives_low_ncc(small_setup, capsys):
    tmp, key_path, cover_path, secret_path = small_setup
    stego_path = tmp / "stego.srf"
    run("embed", "--cover", str(cover_path), "--secret", str(secret_path),
        "--key", str(key_path), "--out", str(stego_path))
    capsys.readouterr()
    wrong = make_key(2, SMALL)  # different derived assignment than seed 3
    wrong_path = tmp / "wrong.skey"
    write_key(wrong, wrong_path)
    rc = run("extract", "--stego", str(stego_path), "--key", str(wrong_path),
             "--out-prefix", str(tmp / "g"))
    assert rc == 0
    garbled = read_pgm(json.loads(capsys.readouterr().out)["files"][0])
    secret = read_pgm(secret_path)
    assert ncc(quantize_u8(secret), quantize_u8(garbled)) < 0.5


def test_extract_with_a_binary_key_file_is_a_format_error(small_setup, capsys):
    tmp, _, cover_path, _ = small_setup
    bad_key = tmp / "binary.skey"
    bad_key.write_bytes(b"version = 1\n\xff\n")
    rc = run("extract", "--stego", str(cover_path), "--key", str(bad_key),
             "--out-prefix", str(tmp / "x"))
    assert rc == 3
    assert "UTF-8" in capsys.readouterr().err
    assert not list(tmp.glob("x*"))


def test_extract_with_a_hand_edited_m_is_a_parameter_error(small_setup, capsys):
    tmp, key_path, cover_path, _ = small_setup
    lines = key_path.read_text().splitlines()
    edited = tmp / "edited.skey"
    edited.write_text("\n".join(ln if not ln.startswith("m =") else f"m = {10 ** 301}"
                                for ln in lines) + "\n")
    rc = run("extract", "--stego", str(cover_path), "--key", str(edited),
             "--out-prefix", str(tmp / "x"))
    assert rc == 2
    assert "m * p2 <= 2^24 violated" in capsys.readouterr().err
    assert not list(tmp.glob("x*"))


def test_extract_rejects_wrong_stego_size(small_setup, capsys):
    tmp, key_path, _, _ = small_setup
    bad = tmp / "bad.pgm"
    write_pgm(cover_raster(64, 6), bad, depth=8)
    rc = run("extract", "--stego", str(bad), "--key", str(key_path),
             "--out-prefix", str(tmp / "x"))
    assert rc == 2


def test_metrics_identical_files(small_setup, capsys):
    tmp, _, cover_path, _ = small_setup
    json_path = tmp / "m.json"
    rc = run("metrics", "--ref", str(cover_path), "--test", str(cover_path),
             "--json", str(json_path))
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psnr_db"] == "inf"
    assert payload["mssim"] == pytest.approx(1.0)
    assert payload["nae"] == 0.0
    assert json.loads(json_path.read_text()) == payload


def test_metrics_rejects_size_mismatch(small_setup, capsys):
    tmp, _, cover_path, secret_path = small_setup
    rc = run("metrics", "--ref", str(cover_path), "--test", str(secret_path))
    assert rc == 2


def test_usage_error_exit_code(capsys):
    assert main(["embed"]) == 2  # missing required flags


FAILURES = [(ParamError, 2), (DimensionError, 2), (FormatError, 3), (OSError, 3),
            (SolverError, 4)]


@pytest.mark.parametrize("kind, code", FAILURES, ids=[kind.__name__ for kind, _ in FAILURES])
def test_each_failure_kind_exits_with_its_code_and_fails_only_its_bench_cover(
        small_setup, capsys, monkeypatch, kind, code):
    from sabmis import cli

    def fail(*args):
        raise kind("boom")

    tmp, key_path, cover_path, secret_path = small_setup
    monkeypatch.setattr(cli, "compare", fail)
    assert run("metrics", "--ref", str(cover_path), "--test", str(cover_path)) == code
    assert capsys.readouterr() == ("", "error: boom\n")

    # inside a bench cover the failure is that cover's error, and the cover
    # stays out of the manifest, so the next run retries it
    covers, secrets = tmp / "covers", tmp / "secrets"
    covers.mkdir()
    secrets.mkdir()
    shutil.copy(cover_path, covers)
    shutil.copy(secret_path, secrets)
    report_path = tmp / "report.json"
    assert run("bench", "--covers", str(covers), "--secrets", str(secrets),
               "--key", str(key_path), "--report", str(report_path)) == 0
    assert json.loads(capsys.readouterr().out)["covers"] == 0
    report = json.loads(report_path.read_text())
    assert report["completed"] == []
    assert report["covers"]["cover"]["error"] == f"{kind.__name__}: boom"


def test_bench_curves_and_restart(tmp_path, capsys, monkeypatch):
    from dataclasses import replace
    from itertools import combinations

    from sabmis import Raster, cli, codec, embed_images, psnr, write_srf
    built, embedded = [], []
    monkeypatch.setattr(cli, "_stego", lambda *a: built.append(a) or codec._stego(*a))
    original = codec._embed_walk
    monkeypatch.setattr(codec, "_embed_walk", lambda *a: embedded.append(a[:2]) or original(*a))
    # M=40 fills 25 of a sub-image's 64 blocks; the SRF cover holds samples
    # below 0 and above 255, so the 8-bit scoring clamps
    for M in (64, 40):
        params = StegoParams(N=128, M=M, num_secrets=4)
        key = make_key(17, params)
        root = tmp_path / f"m{M}"
        root.mkdir()
        key_path = root / "k.skey"
        write_key(key, key_path)
        covers = root / "covers"
        secrets = root / "secrets"
        covers.mkdir()
        secrets.mkdir()
        write_pgm(cover_raster(128, 61), covers / "alpha.pgm", depth=8)
        wild = cover_raster(128, 63).pixels * 2.0 - 120.0
        assert wild.min() < 0.0 and wild.max() > 255.0
        write_srf(Raster(wild), covers / "gamma.srf")
        for i in range(4):
            write_pgm(secret_raster(M, 70 + i), secrets / f"s{i}.pgm", depth=8)
        report_path = root / "report.json"
        csv_path = root / "report.csv"

        built.clear()
        embedded.clear()
        rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
                 "--key", str(key_path), "--report", str(report_path),
                 "--csv", str(csv_path))
        assert rc == 0
        capsys.readouterr()
        # one stego per cover, and each (sub-image, secret) pair embedded
        # once, in one walk per cover, none into the cover's own rows
        assert len(built) == 2
        assert len(embedded) == 2
        assert sum(len(jobs) for _, jobs in embedded) == 2 * 4 * 5 // 2
        assert not any(np.shares_memory(rows, pixels)
                       for pixels, jobs in embedded for rows, *_ in jobs)
        report = json.loads(report_path.read_text())
        assert report["completed"] == ["alpha", "gamma"]
        chosen = [cli.read_image(f) for f in sorted(secrets.iterdir())]
        for name in ("alpha", "gamma"):
            entry = report["covers"][name]
            curve = [entry["psnr_curve"][str(k)] for k in (1, 2, 3, 4)]
            assert all(np.isfinite(curve))
            assert all(a >= b for a, b in zip(curve, curve[1:]))
            # each point is the mean PSNR of the 8-bit subset stegos, bitwise,
            # each built by a standalone embed under its count's key, which
            # shares no sweep code with bench
            cover = cli.read_image(Path(entry["file"]))
            values = [[] for _ in range(4)]
            for count in (1, 2, 3, 4):
                key_k = make_key(17, replace(params, num_secrets=count))
                for combo in combinations(range(4), count):
                    stego, _ = embed_images(cover, [chosen[i] for i in combo], key_k)
                    values[count - 1].append(psnr(quantize_u8(cover), quantize_u8(stego)))
            assert curve == [sum(v) / len(v) for v in values]
            assert len(entry["extracted_metrics"]) == 4
            assert "stego_metrics" in entry
            assert_sub_image_reports(entry["solver"]["sub_images"], 4)
            # one sweep wall time per secret subset: C(4, k) of them for k secrets
            walls = entry["subset_wall_s"]
            assert {k: len(v) for k, v in walls.items()} == {
                str(k): math.comb(4, k) for k in (1, 2, 3, 4)}
            assert all(t >= 0.0 for v in walls.values() for t in v)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "cover,secrets,psnr_db"
        assert len(lines) == 9

        # restart safety: a new cover is processed, the others are not recomputed
        stamp = report["covers"]["alpha"]["wall_clock_s"]
        write_pgm(cover_raster(128, 62), covers / "beta.pgm", depth=8)
        built.clear()
        rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
                 "--key", str(key_path), "--report", str(report_path))
        assert rc == 0
        assert len(built) == 1
        report = json.loads(report_path.read_text())
        assert sorted(report["completed"]) == ["alpha", "beta", "gamma"]
        assert report["covers"]["alpha"]["wall_clock_s"] == stamp


def _one_secret_corpus(tmp_path):
    key_path = tmp_path / "k.skey"
    write_key(make_key(3, SMALL), key_path)
    covers, secrets = tmp_path / "covers", tmp_path / "secrets"
    covers.mkdir()
    secrets.mkdir()
    write_pgm(secret_raster(SMALL.M, 52), secrets / "s0.pgm", depth=8)
    return key_path, covers, secrets


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00",
                                     b'{"version": 2, "covers": {}, "completed": []}',
                                     b'{"version": 1, "covers": []}',
                                     b'{"version": 1, "covers": {"c0": {"psnr_curve": '
                                     b'{"1": NaN}}}, "completed": ["c0"]}',
                                     b'{"version": 1, "covers": {"c0": {"psnr_curve": '
                                     b'{"1": -Infinity}}}, "completed": ["c0"]}'],
                         ids=["not-json", "not-utf8", "version-2", "covers-not-a-dict",
                              "nan", "minus-infinity"])
def test_bench_refuses_a_report_it_cannot_resume(tmp_path, capsys, content):
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    write_pgm(cover_raster(SMALL.N, 51), covers / "c0.pgm", depth=8)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(content)
    rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
             "--key", str(key_path), "--report", str(report_path))
    assert rc == 3
    assert "report" in capsys.readouterr().err
    assert report_path.read_bytes() == content
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "covers", "k.skey", "report.json", "secrets"]


@pytest.mark.parametrize("seed, p3", [(18, 8), (18, 32), (17, 8)],
                         ids=["seed-and-p3", "seed", "p3"])
def test_bench_refuses_a_report_made_under_another_key(tmp_path, capsys, seed, p3):
    from dataclasses import replace
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    write_pgm(cover_raster(SMALL.N, 51), covers / "c0.pgm", depth=8)
    report_path = tmp_path / "report.json"
    argv = ("bench", "--covers", str(covers), "--secrets", str(secrets),
            "--key", str(key_path), "--report", str(report_path))
    write_key(make_key(17, SMALL), key_path)
    assert run(*argv) == 0
    write_pgm(cover_raster(SMALL.N, 52), covers / "c1.pgm", depth=8)
    content = report_path.read_bytes()
    write_key(make_key(seed, replace(SMALL, p3=p3)), key_path)
    capsys.readouterr()
    assert run(*argv) == 3
    assert "another key" in capsys.readouterr().err
    assert report_path.read_bytes() == content
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "covers", "k.skey", "report.json", "secrets"]
    # the key it was made under resumes it; the secret count is not part of it
    write_key(make_key(17, replace(SMALL, num_secrets=2)), key_path)
    assert run(*argv) == 0
    assert json.loads(report_path.read_text())["completed"] == ["c0", "c1"]


def test_bench_refuses_a_report_that_records_no_key(tmp_path, capsys):
    from dataclasses import replace
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    write_pgm(cover_raster(SMALL.N, 51), covers / "c0.pgm", depth=8)
    report_path = tmp_path / "report.json"
    argv = ("bench", "--covers", str(covers), "--secrets", str(secrets),
            "--key", str(key_path), "--report", str(report_path))
    assert run(*argv) == 0
    report = json.loads(report_path.read_text())
    del report["params"]
    content = json.dumps(report, indent=2).encode()
    report_path.write_bytes(content)
    write_pgm(cover_raster(SMALL.N, 52), covers / "c1.pgm", depth=8)
    # neither another key nor the one it was made under may adopt it
    for key in (make_key(4, replace(SMALL, alpha=0.05)), make_key(3, SMALL)):
        write_key(key, key_path)
        capsys.readouterr()
        assert run(*argv) == 3
        assert "records no key" in capsys.readouterr().err
        assert report_path.read_bytes() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "covers", "k.skey", "report.json", "secrets"]


@pytest.mark.parametrize("names", [("a.pgm", "a.srf"), ("a.pgm", "a.PGM")],
                         ids=["pgm-and-srf", "pgm-and-upper-case-pgm"])
def test_bench_refuses_two_covers_of_one_stem(tmp_path, capsys, names):
    from sabmis import write_srf
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    for i, name in enumerate(names):
        cover = cover_raster(SMALL.N, 51 + i)
        if name.endswith(".srf"):
            write_srf(cover, covers / name)
        else:
            write_pgm(cover, covers / name, depth=8)
    report_path = tmp_path / "report.json"
    rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
             "--key", str(key_path), "--report", str(report_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert all(str(covers / name) in err for name in names)
    assert not report_path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["covers", "k.skey", "secrets"]


def test_bench_retries_a_cover_that_errored(tmp_path, capsys):
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    write_pgm(cover_raster(SMALL.N // 2, 51), covers / "c0.pgm", depth=8)  # wrong size
    report_path = tmp_path / "report.json"
    argv = ("bench", "--covers", str(covers), "--secrets", str(secrets),
            "--key", str(key_path), "--report", str(report_path))
    assert run(*argv) == 0
    report = json.loads(report_path.read_text())
    assert "error" in report["covers"]["c0"]
    assert report["completed"] == []

    write_pgm(cover_raster(SMALL.N, 51), covers / "c0.pgm", depth=8)
    assert run(*argv) == 0
    report = json.loads(report_path.read_text())
    assert report["completed"] == ["c0"]
    assert "error" not in report["covers"]["c0"]
    assert set(report["covers"]["c0"]["psnr_curve"]) == {"1"}


def test_bench_records_a_wrong_size_secret(tmp_path, capsys):
    key_path, covers, secrets = _one_secret_corpus(tmp_path)
    write_pgm(secret_raster(SMALL.M // 2, 53), secrets / "s1.pgm", depth=8)
    write_pgm(cover_raster(SMALL.N, 51), covers / "c0.pgm", depth=8)
    report_path = tmp_path / "report.json"
    assert run("bench", "--covers", str(covers), "--secrets", str(secrets),
               "--key", str(key_path), "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    error = report["covers"]["c0"]["error"]
    assert error.startswith("DimensionError")
    assert "secret 2 must be 64x64 per key, got 32x32" in error
    assert report["completed"] == []


def test_bench_records_a_solver_failure_before_scoring_any_subset_and_retries(tmp_path, capsys, monkeypatch):
    from sabmis import Raster, cli, read_srf, write_srf
    params = StegoParams(N=128, M=64, num_secrets=2)
    key = make_key(5, params)
    key_path = tmp_path / "k.skey"
    write_key(key, key_path)
    covers, secrets = tmp_path / "covers", tmp_path / "secrets"
    covers.mkdir()
    secrets.mkdir()
    for i in range(2):
        write_pgm(secret_raster(params.M, 80 + i), secrets / f"s{i}.pgm", depth=8)
    # a NaN in the sub-image the second secret goes to (sub-image k keeps the
    # pixels from ((k-1) % 2, (k-1) // 2) on), which only the two-secret
    # subset uses: the one walk embeds every pair first, so no subset is scored
    k = key.assignment[1]
    pixels = np.full((params.N, params.N), 100.0)
    pixels[(k - 1) % 2, (k - 1) // 2] = np.nan
    write_srf(Raster(pixels), covers / "c0.srf")
    report_path = tmp_path / "report.json"
    argv = ("bench", "--covers", str(covers), "--secrets", str(secrets),
            "--key", str(key_path), "--report", str(report_path))
    # one PSNR per scored subset, each from the sum of its pairs' SSEs
    scored = []
    original = cli._psnr_of_sse
    monkeypatch.setattr(cli, "_psnr_of_sse", lambda *a: scored.append(a) or original(*a))
    # read_image refuses a NaN sample outright; read the cover unchecked so
    # that the failure comes from the embed's own check
    monkeypatch.setattr(cli, "read_image", lambda path: (
        read_srf(path) if path.suffix == ".srf" else read_pgm(path)))
    assert run(*argv) == 0
    assert scored == []
    entry = json.loads(report_path.read_text())["covers"]["c0"]
    assert entry["error"].startswith("SolverError")
    assert "psnr_curve" not in entry and "subset_wall_s" not in entry
    assert json.loads(report_path.read_text())["completed"] == []

    write_srf(Raster(np.full((params.N, params.N), 100.0)), covers / "c0.srf")
    assert run(*argv) == 0
    report = json.loads(report_path.read_text())
    assert report["completed"] == ["c0"]
    assert set(report["covers"]["c0"]["psnr_curve"]) == {"1", "2"}


def test_bench_writes_an_infinite_psnr_as_json_and_resumes_a_bare_infinity(tmp_path, capsys):
    from sabmis import Raster

    def strict(text):
        def refuse(name):
            raise ValueError(f"not RFC 8259 JSON: {name}")
        return json.loads(text, parse_constant=refuse)

    # a constant cover and secret: every 8-bit stego pixel equals the cover's
    key_path = tmp_path / "k.skey"
    write_key(make_key(5, SMALL), key_path)
    covers, secrets = tmp_path / "covers", tmp_path / "secrets"
    covers.mkdir()
    secrets.mkdir()
    write_pgm(Raster(np.full((SMALL.N, SMALL.N), 100.0)), covers / "c0.pgm", depth=8)
    write_pgm(Raster(np.full((SMALL.M, SMALL.M), 1.0)), secrets / "s0.pgm", depth=8)
    report_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    argv = ("bench", "--covers", str(covers), "--secrets", str(secrets),
            "--key", str(key_path), "--report", str(report_path), "--csv", str(csv_path))
    assert run(*argv) == 0
    entry = strict(report_path.read_text())["covers"]["c0"]
    assert entry["psnr_curve"] == {"1": "inf"}
    assert entry["stego_metrics"]["psnr_db"] == "inf"
    assert csv_path.read_text().splitlines()[1:] == ["c0,1,inf"]

    # a report written with a bare Infinity still resumes
    text = report_path.read_text()
    assert text.count('"1": "inf"') == 1
    report_path.write_text(text.replace('"1": "inf"', '"1": Infinity'))
    write_pgm(cover_raster(SMALL.N, 51), covers / "c1.pgm", depth=8)
    assert run(*argv) == 0
    report = strict(report_path.read_text())
    assert report["completed"] == ["c0", "c1"]
    assert report["covers"]["c0"]["psnr_curve"] == {"1": "inf"}
    assert math.isfinite(report["covers"]["c1"]["psnr_curve"]["1"])
    assert csv_path.read_text().splitlines()[1] == "c0,1,inf"


def test_non_finite_cover_is_numerical_failure(small_setup, capsys):
    import numpy as np

    from sabmis import Raster, write_srf
    tmp, key_path, _, secret_path = small_setup
    pixels = np.full((SMALL.N, SMALL.N), 100.0)
    # seed 3 assigns sub-image 2, which holds the odd-row/even-column pixels
    pixels[1, 0] = np.nan
    bad = tmp / "nan.srf"
    write_srf(Raster(pixels), bad)
    rc = run("embed", "--cover", str(bad), "--secret", str(secret_path),
             "--key", str(key_path), "--out", str(tmp / "s.srf"))
    assert rc == 4


def _write_nan_srf(path, row, col):
    from sabmis import Raster, write_srf
    pixels = np.full((SMALL.N, SMALL.N), 100.0)
    pixels[row, col] = np.nan
    write_srf(Raster(pixels), path)


def test_extract_refuses_a_non_finite_stego(small_setup, capsys):
    tmp, key_path, _, _ = small_setup
    bad = tmp / "nan.srf"
    _write_nan_srf(bad, 1, 0)  # in sub-image 2, the one seed 3 assigns
    rc = run("extract", "--stego", str(bad), "--key", str(key_path),
             "--out-prefix", str(tmp / "x"))
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp.glob("x*"))


@pytest.mark.parametrize("count", [1, 2])
def test_extract_refuses_a_stego_whose_extraction_overflows(tmp_path, capsys, count):
    # samples near the float limit in the last assigned sub-image are finite,
    # so the stego is read, but its extraction overflows: no secret is
    # written, not even a first one that extracts cleanly
    from sabmis import Raster, write_srf
    key = make_key(7, StegoParams(N=64, M=32, num_secrets=count))
    key_path = tmp_path / "k.skey"
    write_key(key, key_path)
    pixels = np.full((64, 64), 100.0)
    k = key.assignment[-1]
    pixels[(k - 1) % 2 :: 2, (k - 1) // 2 :: 2] = 1e308
    stego = tmp_path / "huge.srf"
    write_srf(Raster(pixels), stego)
    rc = run("extract", "--stego", str(stego), "--key", str(key_path),
             "--out-prefix", str(tmp_path / "x"))
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_metrics_refuses_a_non_finite_image(small_setup, capsys):
    tmp, _, cover_path, _ = small_setup
    bad = tmp / "nan.srf"
    _write_nan_srf(bad, 1, 0)
    json_path = tmp / "m.json"
    rc = run("metrics", "--ref", str(cover_path), "--test", str(bad), "--json", str(json_path))
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
    assert not json_path.exists()


def test_embed_refuses_a_non_finite_cover_outside_the_assigned_sub_image(small_setup,
                                                                          capsys):
    tmp, key_path, _, secret_path = small_setup
    bad = tmp / "nan.srf"
    _write_nan_srf(bad, 0, 0)  # in sub-image 1, which seed 3 leaves untouched
    out, view = tmp / "s.srf", tmp / "s.pgm"
    rc = run("embed", "--cover", str(bad), "--secret", str(secret_path),
             "--key", str(key_path), "--out", str(out), "--export-pgm8", str(view))
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists() and not view.exists()


def test_bench_rejects_empty_corpus(tmp_path, capsys):
    key_path = tmp_path / "k.skey"
    write_key(make_key(1, SMALL), key_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run("bench", "--covers", str(empty), "--secrets", str(empty),
             "--key", str(key_path), "--report", str(tmp_path / "r.json"))
    assert rc == 2


_SCIPY_PROBE = """
import json, sys
import sabmis, sabmis.cli
from sabmis import (block_sparse_raster, cover_raster, edge_map, secret_raster, smooth_raster,
                    textured_raster)

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

seen = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    if sabmis.cli.main(argv) != 0:
        sys.exit(f"sabmis {argv[0]} failed")
    seen[argv[0]] = scipy_modules()
for name, stage in [("textured_raster", lambda: textured_raster(32, 5)),
                    ("cover_raster", lambda: cover_raster(32, 3)),
                    ("secret_raster", lambda: secret_raster(32, 7)),
                    ("smooth_raster", lambda: smooth_raster(32, 7)),
                    ("block_sparse_raster", lambda: block_sparse_raster(cover_raster(32, 3))),
                    ("edge_map", lambda: edge_map(cover_raster(32, 3)))]:
    stage()
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_and_the_cli_commands_load_no_scipy(small_setup):
    # numpy is the only runtime dependency: the import, every command, each
    # synth generator and edge_map run in a fresh process that never loads
    # scipy (tests/test_solver.py probes the l1 path the same way)
    tmp, _, cover_path, secret_path = small_setup
    covers, secrets = tmp / "covers", tmp / "secrets"
    covers.mkdir()
    secrets.mkdir()
    shutil.copy(cover_path, covers / "c0.pgm")
    shutil.copy(secret_path, secrets / "s0.pgm")
    key, stego = str(tmp / "kg.skey"), str(tmp / "stego.srf")
    commands = [
        ["keygen", "--seed", "3", "--out", key, "--cover-size", "128",
         "--secret-size", "64", "--num-secrets", "1"],
        ["embed", "--cover", str(cover_path), "--secret", str(secret_path),
         "--key", key, "--out", stego, "--export-pgm8", str(tmp / "stego.pgm")],
        ["extract", "--stego", stego, "--key", key, "--out-prefix", str(tmp / "rec")],
        ["metrics", "--ref", str(secret_path), "--test", str(tmp / "rec1.pgm")],
        ["bench", "--covers", str(covers), "--secrets", str(secrets), "--key", key,
         "--report", str(tmp / "report.json")],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import", "keygen", "embed", "extract", "metrics", "bench",
                          "textured_raster", "cover_raster", "secret_raster",
                          "smooth_raster", "block_sparse_raster", "edge_map"]
    assert seen == {stage: [] for stage in seen}
