import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, sobel

from sabmis import (DimensionError, MetricsReport, ParamError, Raster, SolverError,
                    compare, edge_map, entropy, mssim, nae, ncc, psnr, quantize_u8,
                    textured_raster)

from reference import mssim_windows


def test_psnr_identical_is_infinite():
    r = textured_raster(32, 0)
    assert math.isinf(psnr(r, r))


def test_psnr_full_scale_error_is_zero_db():
    assert psnr(Raster([[0.0]]), Raster([[255.0]])) == pytest.approx(0.0, abs=1e-12)


def test_psnr_hand_value():
    # 10*log10(255^2 / 25.5^2) = 20
    assert psnr(Raster([[0.0]]), Raster([[25.5]])) == pytest.approx(20.0, abs=1e-12)


def test_psnr_is_symmetric():
    a, b = textured_raster(32, 1), textured_raster(32, 2)
    assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-15)


def test_psnr_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        psnr(Raster(np.zeros((4, 4))), Raster(np.zeros((4, 5))))


def test_mssim_identical_is_one():
    r = textured_raster(48, 3)
    assert mssim(r, r) == pytest.approx(1.0, abs=1e-12)


def test_mssim_inverted_image_scores_low():
    r = textured_raster(64, 4)
    inverted = Raster(255.0 - r.pixels)
    assert mssim(r, inverted) < 0.5


# (43, 43): one full 32-row strip plus one row; (75, 140): several strips
# with a ragged last strip and tile; (11, 200) and (200, 11): a single output
# row across several column tiles, and a single output column; (42, 42): one
# strip and exactly one whole tile; (74, 74): two strips, 10 rows carried once,
# two whole tiles; (24, 43): 14 output rows, not a whole number of 8-row
# sub-strips; (107, 75): four strips, rows carried three times, and a 1-row
# last strip; (52, 300): a full strip, windowed along the rows with the
# C-ordered band, then a 10-row strip with the transposed one, across nine
# whole tiles; heights 14, 22, 30, 38 and 54: a last strip of 4, 12, 20, 28
# and (after a full strip) 12 rows, none a whole number of 8-row sub-strips,
# so each is windowed down with its whole band
@pytest.mark.parametrize("shape", [(11, 11), (23, 31), (40, 17), (43, 43), (75, 140),
                                   (11, 200), (200, 11), (42, 42), (74, 74), (24, 43),
                                   (107, 75), (52, 300), (14, 50), (22, 43), (30, 75),
                                   (38, 60), (54, 90)])
def test_mssim_matches_the_window_by_window_loop(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    x = rng.integers(0, 256, shape).astype(np.float64)
    # a correlated partner keeps the windowed covariance away from zero
    y = np.clip(x + rng.integers(-40, 41, shape), 0, 255).astype(np.float64)
    for a, b in ((x, y), (x, rng.integers(0, 256, shape).astype(np.float64))):
        assert abs(mssim(Raster(a), Raster(b)) - mssim_windows(a, b)) <= 1e-12


def test_mssim_is_exactly_symmetric():
    rng = np.random.default_rng(11)
    for shape in ((11, 11), (43, 43), (75, 140), (11, 200), (200, 11), (42, 42), (74, 74),
                  (24, 43), (107, 75), (52, 300)):
        a = Raster(rng.integers(0, 256, shape).astype(np.float64))
        b = Raster(rng.uniform(0.0, 255.0, shape))
        assert mssim(a, b) == mssim(b, a)


def _traced_peak_on_a_1024_pair(measure):
    rng = np.random.default_rng(12)
    x = rng.integers(0, 256, (1024, 1024)).astype(np.float64)
    y = np.clip(x + rng.integers(-20, 21, x.shape), 0, 255).astype(np.float64)
    a, b = Raster(x), Raster(y)
    tracemalloc.start()
    try:
        measure(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mssim_working_set_stays_bounded():
    # full-size windowed maps of a 1024x1024 pair take about 63 MiB, and one
    # full-size float map 8 MiB, so mssim may build none of them
    peak = _traced_peak_on_a_1024_pair(mssim)
    assert peak < 8 * 2**20


def test_compare_working_set_stays_bounded():
    # one full-size float map of a 1024x1024 pair takes 8 MiB, so compare
    # may hold no 8-bit copy of either image, nor any full-size temporary
    peak = _traced_peak_on_a_1024_pair(compare)
    assert peak < 8 * 2**20


def test_mssim_rejects_tiny_images():
    with pytest.raises(DimensionError):
        mssim(Raster(np.zeros((10, 10))), Raster(np.zeros((10, 10))))


def test_ncc_identity_and_scaling():
    a = textured_raster(32, 5)
    assert ncc(a, a) == pytest.approx(1.0, rel=1e-14)
    doubled = Raster(2.0 * a.pixels)
    assert ncc(a, doubled) == pytest.approx(2.0, rel=1e-14)


def test_ncc_rejects_zero_reference():
    with pytest.raises(ParamError):
        ncc(Raster(np.zeros((4, 4))), Raster(np.ones((4, 4))))


def test_nae_identity_and_hand_value():
    a = textured_raster(32, 6)
    assert nae(a, a) == 0.0
    x = Raster(np.full((3, 3), 128.0))
    y = Raster(np.full((3, 3), 129.0))
    assert nae(x, y) == pytest.approx(1.0 / 128.0, rel=1e-14)


def test_nae_rejects_zero_reference():
    with pytest.raises(ParamError):
        nae(Raster(np.zeros((4, 4))), Raster(np.ones((4, 4))))


def test_entropy_constant_image_is_zero():
    assert entropy(Raster(np.full((16, 16), 7.0))) == 0.0


def test_a_flat_image_has_an_entropy_of_plus_zero():
    # one histogram level sums to +0.0, whose negation would print as -0.0
    flat = Raster(np.full((16, 16), 7.0))
    report = compare(flat, flat)
    for value in (entropy(flat), report.entropy_ref, report.entropy_test):
        assert math.copysign(1.0, value) == 1.0
    assert "-0.0" not in report.to_json()


def test_entropy_uniform_histogram_is_eight_bits():
    values = np.arange(256.0).reshape(16, 16)
    assert entropy(Raster(values)) == pytest.approx(8.0, abs=1e-12)


def test_entropy_is_permutation_invariant():
    rng = np.random.default_rng(7)
    r = textured_raster(32, 8)
    shuffled = rng.permutation(r.pixels.ravel()).reshape(r.pixels.shape)
    assert entropy(Raster(shuffled)) == pytest.approx(entropy(r), abs=1e-12)


def test_edge_map_constant_image_is_empty():
    m = edge_map(Raster(np.full((8, 8), 50.0)), threshold=0.2)
    assert np.all(m.pixels == 0)


def test_edge_map_vertical_step():
    img = np.zeros((8, 8))
    img[:, 4:] = 200.0
    m = edge_map(Raster(img), threshold=0.5)
    assert set(np.unique(m.pixels)) <= {0.0, 1.0}
    cols = np.unique(np.nonzero(m.pixels)[1])
    assert set(cols) <= {3, 4}
    assert len(cols) > 0


def _scipy_edge_map(x, threshold):
    mag = np.hypot(sobel(x, axis=1, mode="reflect"), sobel(x, axis=0, mode="reflect"))
    peak = float(mag.max())
    if peak == 0.0:
        return np.zeros_like(mag)
    return (mag >= threshold * peak).astype(np.float64)


def _with_infinities(shape, seed):
    x = np.random.default_rng(seed).uniform(0.0, 255.0, shape)
    x[0, 0], x[4, 5], x[5, 5] = np.inf, np.inf, -np.inf
    return x


@pytest.mark.parametrize("threshold", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("x", [
    np.random.default_rng(3).uniform(0.0, 255.0, (3, 3)),
    np.kron(np.random.default_rng(4).integers(0, 4, (4, 5)) * 60.0, np.ones((6, 6))),
    np.random.default_rng(17).uniform(0.0, 255.0, (17, 40)),
    np.random.default_rng(256).standard_normal((256, 256)),
    _with_infinities((10, 12), 10),
], ids=["3x3", "flat-regions", "17x40", "256x256", "infinite"])
def test_edge_map_equals_scipys_sobel_bitwise(x, threshold):
    assert np.array_equal(edge_map(Raster(x), threshold).pixels, _scipy_edge_map(x, threshold))


def test_edge_map_rejects_tiny_input():
    with pytest.raises(DimensionError):
        edge_map(Raster(np.zeros((2, 2))))


@pytest.mark.parametrize("threshold", [-0.1, 1.5, np.nan])
def test_edge_map_refuses_a_threshold_outside_zero_to_one(threshold):
    with pytest.raises(ParamError, match=r"threshold must be a fraction in \[0, 1\]"):
        edge_map(Raster(np.zeros((3, 3))), threshold)


def test_report_serialization_with_infinity(tmp_path):
    r = textured_raster(32, 9)
    report = compare(r, r)
    data = json.loads(report.to_json())
    assert data["psnr_db"] == "inf"
    assert data["mssim"] == pytest.approx(1.0)
    assert data["nae"] == 0.0
    assert set(data) == {"psnr_db", "mssim", "ncc", "nae", "entropy_ref", "entropy_test"}


def test_compare_quantizes_before_measuring():
    a = Raster(np.full((16, 16), 100.2))
    b = Raster(np.full((16, 16), 99.8))
    # both quantize to 100, so the report sees identical images
    report = compare(a, b)
    assert math.isinf(report.psnr_db)
    assert report.nae == 0.0


def test_compare_is_deterministic():
    ref = textured_raster(64, 13)
    test = Raster(ref.pixels + np.random.default_rng(13).normal(0.0, 3.0, ref.pixels.shape))
    assert compare(ref, test).to_dict() == compare(ref, test).to_dict()


def test_compare_entropies_match_entropy():
    ref = textured_raster(32, 14)
    test = Raster(ref.pixels * 0.7 + 20.3)
    report = compare(ref, test)
    assert report.entropy_ref == entropy(ref)
    assert report.entropy_test == entropy(test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["ref", "test"])
def test_compare_and_entropy_refuse_a_non_finite_sample(bad, side):
    good = textured_raster(32, 15)
    pixels = good.pixels.copy()
    pixels[3, 7] = bad
    pair = (Raster(pixels), good) if side == "ref" else (good, Raster(pixels))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(SolverError, match="non-finite"):
            compare(*pair)
        with pytest.raises(SolverError, match="non-finite"):
            entropy(Raster(pixels))


# heights 11, 42, 43, 74, 75 and 107: one strip, exactly one full strip, a
# full strip and a 1-row tail, two full strips, two full strips and a tail,
# and three full strips and a 1-row tail; 14, 22, 30, 38 and 54: a last strip
# of 4, 12, 20, 28 and (after a full strip) 12 rows
@pytest.mark.parametrize("height", [11, 42, 43, 74, 75, 107, 14, 22, 30, 38, 54])
@pytest.mark.parametrize("width", [11, 200])
def test_compare_counts_each_row_once(height, width):
    rng = np.random.default_rng(height * 1000 + width)
    x = rng.uniform(0.0, 255.0, (height, width))
    y = x + rng.normal(0.0, 6.0, x.shape)
    for p in (x, y):
        # in every row: ties, values in (-0.5, 0) and values above 255
        p[:, 0::5] = rng.integers(-1, 257, p[:, 0::5].shape) + 0.5
        p[:, 1::5] = -rng.uniform(0.0, 0.5, p[:, 1::5].shape)
        p[:, 2::5] = rng.uniform(255.0, 400.0, p[:, 2::5].shape)
    a, b = Raster(x), Raster(y)
    qa, qb = quantize_u8(a), quantize_u8(b)
    assert compare(a, b) == MetricsReport(psnr(qa, qb), mssim(qa, qb), ncc(qa, qb),
                                          nae(qa, qb), entropy(qa), entropy(qb))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["ref", "test"])
def test_compare_refuses_a_non_finite_sample_before_checking_the_size(bad, side):
    small = np.random.default_rng(16).uniform(0.0, 255.0, (10, 10))
    pixels = small.copy()
    pixels[3, 7] = bad
    pair = (pixels, small) if side == "ref" else (small, pixels)
    with pytest.raises(SolverError, match="non-finite"):
        compare(Raster(pair[0]), Raster(pair[1]))


def test_compare_checks_the_size_before_the_reference():
    for shape in ((10, 10), (10, 40), (40, 10)):
        with pytest.raises(DimensionError):
            compare(Raster(np.zeros(shape)), Raster(np.ones(shape)))
    # an all-zero reference once quantized, -0.3 included
    for zero in (0.0, -0.3):
        with pytest.raises(ParamError, match="all-zero reference"):
            compare(Raster(np.full((11, 11), zero)), Raster(np.ones((11, 11))))


def _integer_pair(shape, low, high, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(low, high, shape)
    x.flat[0] = high - 1  # a reference that is not all zero
    return x, x + rng.integers(-30, 31, shape)


def _exact_psnr_ncc_nae(x, y):
    # int / int is the correctly rounded quotient of the exact sums
    sq = int(((x - y) ** 2).sum())
    return (math.inf if sq == 0 else 10.0 * math.log10(255.0 * 255.0 / (sq / x.size)),
            int((x * y).sum()) / int((x * x).sum()),
            int(np.abs(x - y).sum()) / int(np.abs(x).sum()))


# (1024, 1024) at full scale: every square and product sum reaches
# 255^2 * 1024^2, about 6.8e10, still an integer below 2^53. compare takes
# its figures on the pair clipped to 0..255, from its histograms and strip
# sums; the pairs narrower than the SSIM window are too small for it
@pytest.mark.parametrize("shape, low, high", [((1, 1), 0, 256), ((7, 13), 0, 256),
                                              ((64, 64), -300, 600), ((300, 257), 0, 256),
                                              ((1024, 1024), 255, 256)])
def test_psnr_ncc_nae_equal_their_exact_integer_values(shape, low, high):
    x, y = _integer_pair(shape, low, high, shape[0] * 1000 + shape[1])
    a, b = Raster(x.astype(np.float64)), Raster(y.astype(np.float64))
    assert (psnr(a, b), ncc(a, b), nae(a, b)) == _exact_psnr_ncc_nae(x, y)
    if min(shape) < 11:
        with pytest.raises(DimensionError):
            compare(a, b)
        return
    report = compare(a, b)
    assert ((report.psnr_db, report.ncc, report.nae)
            == _exact_psnr_ncc_nae(np.clip(x, 0, 255), np.clip(y, 0, 255)))


# compare(...).to_dict() for five pairs: the 43x43 pair recorded before the
# report moved to array-level cores on one quantized pair, the extracted
# secret when the embed became the exact write, the stego when the write
# became the pseudo-inverse of the rule's reads, the 107x75 pair before
# mssim carried each strip's overlap rows and batched its products, and the
# 45x77 pair before mssim's full strips took a C-ordered band along the rows;
# each must stay bitwise equal
PINNED_REPORTS = {
    "cover-1101-stego": {
        "psnr_db": 51.96365698693419, "mssim": 0.9961242639875758,
        "ncc": 0.9999832439540293, "nae": 0.003148954183397514,
        "entropy_ref": 6.943536092593771, "entropy_test": 6.943708063645105},
    "secret-2201-extracted": {
        "psnr_db": 71.9940457952159, "mssim": 0.9999345862318364,
        "ncc": 1.0000039944017607, "nae": 7.084824824910428e-05,
        "entropy_ref": 6.518199437795963, "entropy_test": 6.518234692646823},
    "43x43": {
        "psnr_db": 26.847275814506965, "mssim": 0.9874188866200042,
        "ncc": 0.9982829837581577, "nae": 0.07189160064992466,
        "entropy_ref": 7.906806620434253, "entropy_test": 7.8440245230540295},
    "107x75": {
        "psnr_db": 26.735665263617857, "mssim": 0.986978163857527,
        "ncc": 0.9983123295009514, "nae": 0.0727931070271193,
        "entropy_ref": 7.9767393414869225, "entropy_test": 7.922017343389258},
    "45x77": {
        "psnr_db": 26.690037451124745, "mssim": 0.9868477173032941,
        "ncc": 0.9995288174455444, "nae": 0.07235142118863049,
        "entropy_ref": 7.937755526613189, "entropy_test": 7.8902583206637615},
}


# the seed and shape of each pinned noise pair. 43x43: one full strip plus a
# one-row strip, and a one-column last tile; 107x75: three full strips plus a
# one-row strip, two whole tiles and a one-column last tile; 45x77: one full
# strip plus a three-row strip, two whole tiles and a three-column last tile.
# Its mssim moves, under SkylakeX kernels, if the three-row strip's tiles take
# the C-ordered band
PINNED_NOISE = {"43x43": (43, (43, 43)), "107x75": (107, (107, 75)), "45x77": (31, (45, 77))}


# one case per pair, so that a BLAS kernel family that moves one report can
# deselect that one alone (see the CI matrix)
@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_compare_reports_are_pinned(name, request):
    if name in PINNED_NOISE:
        seed, shape = PINNED_NOISE[name]
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 255.0, shape)
        pair = Raster(x), Raster(x + rng.normal(0.0, 12.0, x.shape))
    else:
        from sabmis import extract_images
        # the paper fixture of the acceptance suite, built only for its pairs
        key, (cover, _), secrets = request.getfixturevalue("paper_setup")
        stego = request.getfixturevalue("paper_stego")[0][0]
        pair = ((cover, stego) if name == "cover-1101-stego"
                else (secrets[0], extract_images(stego, key)[0]))
    assert compare(*pair).to_dict() == PINNED_REPORTS[name]


def _edged_cover(side, seed):
    # smooth background plus high-contrast discs: a cover with genuine edges,
    # built at half resolution and pixel-replicated like the other stand-ins
    rng = np.random.default_rng(seed)
    half = side // 2
    img = 40.0 + 30.0 * gaussian_filter(rng.standard_normal((half, half)), 10.0,
                                        mode="wrap")
    yy, xx = np.mgrid[0:half, 0:half]
    for _ in range(6):
        cy, cx = rng.uniform(0.15, 0.85, 2) * half
        radius = rng.uniform(0.08, 0.18) * half
        disc = ((yy - cy) ** 2 + (xx - cx) ** 2) < radius ** 2
        img = img + rng.uniform(90, 150) * gaussian_filter(disc.astype(float), 1.5)
    return Raster(np.kron(np.clip(img, 0, 255), np.ones((2, 2))))


def test_edge_maps_barely_change_under_embedding():
    from sabmis import StegoParams, embed_images, make_key, quantize_u8, secret_raster
    params = StegoParams(N=256, M=128, num_secrets=4)
    key = make_key(0xC0FFEE, params)
    cover = _edged_cover(256, 9)
    secrets = [secret_raster(128, 60 + i) for i in range(4)]
    stego, _ = embed_images(cover, secrets, key)
    before = edge_map(quantize_u8(cover), threshold=0.2)
    after = edge_map(quantize_u8(stego), threshold=0.2)
    assert np.mean(before.pixels != after.pixels) < 0.02
