import numpy as np
import pytest

from sabmis import (DimensionError, FormatError, Raster, inverse_subsample,
                    quantize_u8, read_pgm, read_srf, round_half_away, subsample,
                    write_pgm, write_srf)


def test_read_pgm_maps_bytes_directly(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    assert np.array_equal(read_pgm(path).pixels, [[0, 128], [255, 64]])


def test_read_pgm_rejects_ascii_magic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError, match="P2"):
        read_pgm(path)


def test_read_pgm_handles_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x2a")
    assert read_pgm(path).pixels[0, 0] == 42


def test_read_pgm_rejects_bad_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n1000\n\x00\x00")
    with pytest.raises(FormatError, match="maxval"):
        read_pgm(path)


def test_read_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_pgm(path)


def test_write_pgm_clamps_below_range(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(Raster([[-3.2]]), path, depth=8)
    assert read_pgm(path).pixels[0, 0] == 0


def test_write_pgm_rounds_half_away(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(Raster([[254.5]]), path, depth=8)
    assert read_pgm(path).pixels[0, 0] == 255


def test_write_pgm_16bit_scale(tmp_path):
    # round(100 * 65535 / 255) = 25700
    path = tmp_path / "a.pgm"
    write_pgm(Raster([[100.0]]), path, depth=16)
    raw = path.read_bytes()
    assert raw.endswith((25700).to_bytes(2, "big"))
    assert read_pgm(path).pixels[0, 0] == pytest.approx(100.0, abs=1e-12)


@pytest.mark.parametrize("depth", [8, 16])
def test_write_pgm_refuses_a_nan_sample_and_writes_no_file(tmp_path, depth):
    # a NaN has no level; infinite samples still clamp, as
    # test_every_integer_level_rounds_by_one_rule pins
    from sabmis import SolverError
    path = tmp_path / "a.pgm"
    with pytest.raises(SolverError, match="NaN"):
        write_pgm(Raster([[10.0, np.nan], [np.inf, -np.inf]]), path, depth=depth)
    assert not path.exists()


@pytest.mark.parametrize("depth", [0, 12, 32])
def test_write_pgm_refuses_another_depth_and_writes_no_file(tmp_path, depth):
    from sabmis import ParamError
    path = tmp_path / "a.pgm"
    with pytest.raises(ParamError, match="depth must be 8 or 16"):
        write_pgm(Raster([[10.0]]), path, depth=depth)
    assert not path.exists()


def test_pgm_u8_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    r = quantize_u8(Raster(rng.uniform(0, 255, size=(6, 9))))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(r, p1, depth=8)
    write_pgm(read_pgm(p1), p2, depth=8)
    assert p1.read_bytes() == p2.read_bytes()


def test_srf_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(6)
    r = Raster(rng.standard_normal((5, 7)) * 300.0)
    path = tmp_path / "a.srf"
    write_srf(r, path)
    assert np.array_equal(read_srf(path).pixels, r.pixels)


def test_srf_rejects_wrong_magic(tmp_path):
    path = tmp_path / "a.srf"
    path.write_bytes(b"SRF2\n1 1\n" + bytes(8))
    with pytest.raises(FormatError, match="magic"):
        read_srf(path)


def test_srf_rejects_truncated_payload(tmp_path):
    path = tmp_path / "a.srf"
    payload = np.zeros(15).tobytes()  # declared 4x4 needs 16 doubles
    path.write_bytes(b"SRF1\n4 4\n" + payload)
    with pytest.raises(FormatError, match="truncated"):
        read_srf(path)


def test_srf_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "a.srf"
    path.write_bytes(b"SRF1\n1 1\n" + bytes(9))
    with pytest.raises(FormatError, match="mismatch"):
        read_srf(path)


def test_read_srf_holds_the_file_and_the_grid_but_no_payload_copy(tmp_path):
    # a 1024x1024 read peaks at the file's bytes plus the new grid; slicing
    # the payload out of the file first would add a third 8 MiB buffer
    import tracemalloc

    r = Raster(np.random.default_rng(11).standard_normal((1024, 1024)) * 300.0)
    path = tmp_path / "a.srf"
    write_srf(r, path)
    tracemalloc.start()
    try:
        out = read_srf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.pixels, r.pixels)
    assert peak < r.pixels.nbytes + path.stat().st_size + 2**20


def test_srf_io_holds_no_byte_copy_of_the_file(tmp_path):
    # the write streams the header and then the samples' own little-endian
    # buffer, and the read fills the new grid straight from the file, so
    # neither holds the 8 MiB payload as bytes; the file's bytes stay the
    # format's: the header, then the samples as little-endian doubles
    import tracemalloc

    r = Raster(np.random.default_rng(12).standard_normal((1024, 1024)) * 300.0)
    path = tmp_path / "a.srf"
    peaks = []
    for io in (lambda: write_srf(r, path), lambda: read_srf(path)):
        tracemalloc.start()
        try:
            out = io()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert path.read_bytes() == b"SRF1\n1024 1024\n" + r.pixels.astype("<f8").tobytes()
    assert np.array_equal(out.pixels, r.pixels) and out.pixels.dtype == np.float64
    assert peaks[0] < 2**16
    assert peaks[1] < r.pixels.nbytes + 2**16


def test_subsample_2x2_example():
    q = subsample(Raster([[1.0, 3.0], [2.0, 4.0]]))
    assert len(q) == 4
    assert [q[k].pixels[0, 0] for k in range(4)] == [1.0, 2.0, 3.0, 4.0]


def test_subsample_constant_raster():
    for sub in subsample(Raster(np.full((4, 4), 9.5))):
        assert np.all(sub.pixels == 9.5)


def test_subsample_round_trip_bitwise():
    rng = np.random.default_rng(7)
    for r in (Raster(rng.uniform(0, 255, size=(8, 8))),
              quantize_u8(Raster(np.arange(16.0).reshape(4, 4)))):
        assert np.array_equal(inverse_subsample(subsample(r)).pixels, r.pixels)


def test_subsample_conserves_pixels():
    rng = np.random.default_rng(8)
    r = Raster(rng.uniform(0, 255, size=(6, 10)))
    combined = np.concatenate([s.pixels.ravel() for s in subsample(r)])
    assert np.array_equal(np.sort(combined), np.sort(r.pixels.ravel()))


def test_subsample_rejects_odd_dimensions():
    with pytest.raises(DimensionError, match="even"):
        subsample(Raster(np.zeros((3, 4))))


def test_inverse_subsample_rejects_mismatched_subs():
    a = Raster(np.zeros((2, 2)))
    b = Raster(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="differ"):
        inverse_subsample((a, a, a, b))
    for count in (3, 5):
        with pytest.raises(DimensionError, match="exactly four"):
            inverse_subsample((a,) * count)


def test_quantize_u8_rounds_and_clamps():
    r = quantize_u8(Raster([[127.4, 260.0, -5.0, 127.5]]))
    assert np.array_equal(r.pixels, [[127.0, 255.0, 0.0, 128.0]])


def test_quantize_u8_idempotent():
    rng = np.random.default_rng(9)
    r = Raster(rng.uniform(-30, 300, size=(4, 4)))
    once = quantize_u8(r)
    twice = quantize_u8(once)
    assert np.array_equal(once.pixels, twice.pixels)


def test_rasters_built_inside_the_package_are_not_copied_again(tmp_path):
    # a public Raster copies the caller's grid; quantize_u8, assemble_blocks,
    # inverse_subsample and read_pgm make one grid of their own and the
    # raster adopts it
    import tracemalloc

    from sabmis import assemble_blocks, partition_blocks
    grid = np.random.default_rng(10).uniform(0, 255, (64, 64))
    r = Raster(grid)
    grid[0, 0] = -1.0
    assert r.pixels[0, 0] != -1.0 and not r.pixels.flags.writeable
    blocks = partition_blocks(r, 8)
    subs = subsample(r)
    write_pgm(r, tmp_path / "r.pgm")
    for build in (lambda: quantize_u8(r), lambda: assemble_blocks(blocks, 64, 64),
                  lambda: inverse_subsample(subs), lambda: read_pgm(tmp_path / "r.pgm")):
        tracemalloc.start()
        try:
            out = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not out.pixels.flags.writeable
        assert peak < 1.5 * grid.nbytes


def test_in_place_rounding_is_bitwise_the_plain_formula():
    def plain(x):
        return np.copysign(np.floor(np.abs(x) + 0.5), x)

    rng = np.random.default_rng(10)
    ties = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 254.5, 255.5]
    edges = [0.0, -0.0, -0.4, -0.49999999999999994, 0.49999999999999994,
             -7.3, -1e6, 255.49, 256.0, 300.7, 1e6]
    x = np.concatenate([ties, edges, rng.uniform(-40, 300, 211)]).reshape(10, 23)
    bits = np.dtype(np.uint64)
    assert np.array_equal(round_half_away(x).view(bits), plain(x).view(bits))
    assert np.signbit(round_half_away(np.array([-0.0, -0.4]))).all()
    q = quantize_u8(Raster(x)).pixels
    assert np.array_equal(q.view(bits), np.floor(np.clip(x, 0, 255) + 0.5).view(bits))
    assert np.array_equal(q, np.clip(plain(x), 0.0, 255.0))
    assert round_half_away(-2.5) == -3.0 and np.ndim(round_half_away(2.5)) == 0


def test_every_integer_level_rounds_by_one_rule(tmp_path):
    # quantize_u8, both PGM payloads, entropy and compare all take the levels
    # of rounding half away from zero and then clamping
    from sabmis import MetricsReport, compare, entropy, mssim, nae, ncc, psnr

    def levels(x, top=255):
        return np.clip(np.copysign(np.floor(np.abs(x) + 0.5), x), 0, top)

    def payloads(x):
        out = []
        for depth, maxval in ((8, 255), (16, 65535)):
            write_pgm(Raster(x), tmp_path / "x.pgm", depth=depth)
            head = f"P5\n{x.shape[1]} {x.shape[0]}\n{maxval}\n".encode("ascii")
            data = (tmp_path / "x.pgm").read_bytes()
            assert data.startswith(head)
            out.append(data[len(head):])
        return tuple(out)

    def old_16_bit(x):
        # the 16-bit writer's former rule, kept as the oracle
        return np.clip(round_half_away(x * 257.0), 0, 65535).astype(">u2").tobytes()

    rng = np.random.default_rng(11)
    edges = [0.5, -0.5, 254.5, 255.5, -0.0, -0.4, -0.49999999999999994,
             -7.3, -1e6, 255.49, 300.7, 1e6]
    x = np.concatenate([edges, rng.uniform(-40, 300, 13 * 17 - len(edges))]).reshape(13, 17)
    y = x + rng.normal(0.0, 5.0, x.shape)
    q = quantize_u8(Raster(x)).pixels
    assert np.array_equal(q, levels(x)) and not np.signbit(q).any()
    assert payloads(x) == (levels(x).astype(np.uint8).tobytes(), old_16_bit(x))
    lx, ly = Raster(levels(x)), Raster(levels(y))
    assert entropy(Raster(x)) == entropy(lx)
    assert compare(Raster(x), Raster(y)) == MetricsReport(
        psnr(lx, ly), mssim(lx, ly), ncc(lx, ly), nae(lx, ly), entropy(lx), entropy(ly))

    # every 16-bit tie (k + 0.5) / 257 with its two neighbours, every half
    # step of the 8-bit range and past it, and the extremes of the doubles
    ties = (np.arange(65536) + 0.5) / 257.0
    sweep = np.concatenate([
        ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
        np.arange(-6, 520) / 2.0, rng.uniform(-400, 700, 10000),
        [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, 5e-324, -5e-324]])
    sweep = np.concatenate([sweep, np.zeros(-len(sweep) % 64)]).reshape(-1, 64)
    assert payloads(sweep) == (levels(sweep).astype(np.uint8).tobytes(), old_16_bit(sweep))


def test_textured_raster_refuses_octaves_outside_one_to_three():
    from sabmis import ParamError, textured_raster
    for octaves in (0, 4):
        with pytest.raises(ParamError, match="octaves"):
            textured_raster(16, 1, octaves=octaves)
