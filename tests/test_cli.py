import json
import math

import numpy as np
import pytest

from sabmis import (StegoParams, cover_raster, make_key, ncc, quantize_u8,
                    read_key, read_pgm, secret_raster, write_key, write_pgm)
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


def test_keygen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.skey", tmp_path / "b.skey"
    run("keygen", "--seed", "9", "--out", str(a))
    run("keygen", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_keygen_rejects_invalid_c(tmp_path, capsys):
    rc = run("keygen", "--seed", "1", "--out", str(tmp_path / "k.skey"), "--c", "20")
    assert rc == 2
    assert "p1-2c >= 1 violated" in capsys.readouterr().err


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


def test_bench_curves_and_restart(tmp_path, capsys):
    params = StegoParams(N=128, M=64, num_secrets=4)
    key = make_key(17, params)
    key_path = tmp_path / "k.skey"
    write_key(key, key_path)
    covers = tmp_path / "covers"
    secrets = tmp_path / "secrets"
    covers.mkdir()
    secrets.mkdir()
    write_pgm(cover_raster(128, 61), covers / "alpha.pgm", depth=8)
    for i in range(4):
        write_pgm(secret_raster(64, 70 + i), secrets / f"s{i}.pgm", depth=8)
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"

    rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
             "--key", str(key_path), "--report", str(report_path),
             "--csv", str(csv_path))
    assert rc == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["completed"] == ["alpha"]
    entry = report["covers"]["alpha"]
    curve = [entry["psnr_curve"][str(k)] for k in (1, 2, 3, 4)]
    assert all(np.isfinite(curve))
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert len(entry["extracted_metrics"]) == 4
    assert "stego_metrics" in entry and "solver" in entry
    # one embed wall time per secret subset: C(4, k) of them for k secrets
    walls = entry["subset_wall_s"]
    assert {k: len(v) for k, v in walls.items()} == {
        str(k): math.comb(4, k) for k in (1, 2, 3, 4)}
    assert all(t >= 0.0 for v in walls.values() for t in v)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "cover,secrets,psnr_db"
    assert len(lines) == 5

    # restart safety: a second cover is processed, the first is not recomputed
    stamp = entry["wall_clock_s"]
    write_pgm(cover_raster(128, 62), covers / "beta.pgm", depth=8)
    rc = run("bench", "--covers", str(covers), "--secrets", str(secrets),
             "--key", str(key_path), "--report", str(report_path))
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert sorted(report["completed"]) == ["alpha", "beta"]
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
                                     b'{"version": 1, "covers": []}'],
                         ids=["not-json", "not-utf8", "version-2", "covers-not-a-dict"])
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


def test_bench_rejects_empty_corpus(tmp_path, capsys):
    key_path = tmp_path / "k.skey"
    write_key(make_key(1, SMALL), key_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run("bench", "--covers", str(empty), "--secrets", str(empty),
             "--key", str(key_path), "--report", str(tmp_path / "r.json"))
    assert rc == 2
