"""Image fidelity measures: PSNR, mean SSIM, normalized cross-correlation,
normalized absolute error, histogram entropy, and Sobel edge maps.

Each figure has a core that takes a few sums over the pair (`_psnr_of_sse`,
`_ncc_of_sums`, `_nae_of_sums`, `_entropy_of_counts`) or, for SSIM, the
pair's strips of rows (`_mssim`); the public functions feed their core from
one raster or raster pair. `mssim` applies its window (Wang et al., IEEE TIP
2004) as banded-matrix products over strips of rows, into strip buffers
allocated once per call, and builds no full-size windowed map: its working
set grows with the image width, not its area.

`compare` refuses a NaN or infinite sample, then reads the pair in one walk
over `mssim`'s strips, so reported numbers always correspond to viewable
images without a full-size 8-bit copy of either. It rounds each strip into
one of two strip buffers by `quantize_u8`'s rule. The strips feed `mssim`'s
windowing, and the rows no later strip reads feed the sums and histograms
behind PSNR, NCC, NAE and both entropies, so each row is counted once. Its
working set is about 4 MiB under tracemalloc for a 1024x1024 pair, and it
too grows with width, not area. The individual metric functions evaluate
whatever they are given.

PSNR and NCC sum through BLAS dot products. On integer-valued pixels every
product and partial sum is an integer below 2^53 (at most 255^2 * 1024^2,
about 6.8e10, for a 1024x1024 pair), so the sums are exact and independent of
summation order, strip boundaries and BLAS threads; on other floats they may
differ from a pairwise sum by rounding only. So `compare`'s figures equal
the individual functions' on `quantize_u8` views, bitwise, and on an 8-bit
pair that differs only in a few regions, the squared error is the sum of the
regions' own sums, bitwise: `sabmis bench` takes each subset's PSNR that way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParamError, SolverError
from .raster import Raster, _rounded_u8

_PEAK = 255.0
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_STRIP = 32      # output rows per strip and output columns per tile in mssim


def _paired(a: Raster, b: Raster) -> tuple[np.ndarray, np.ndarray]:
    if a.pixels.shape != b.pixels.shape:
        raise DimensionError(f"image dimensions differ: {a.pixels.shape} vs {b.pixels.shape}")
    return a.pixels, b.pixels


def _finite(x: np.ndarray) -> np.ndarray:
    # NaN would fail in the histogram and +-inf would clamp to a valid-looking
    # 255 or 0
    if not np.isfinite(x).all():
        raise SolverError("image holds non-finite samples")
    return x


def _sse(x: np.ndarray, y: np.ndarray) -> float:
    # sum of squared differences, one BLAS dot: exact on integer pixels
    d = (x - y).ravel()
    return float(d @ d)


def _psnr_of_sse(sse: float, size: int) -> float:
    # PSNR of `size` pixels whose squared differences sum to `sse`
    mse = sse / size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(_PEAK * _PEAK / mse)


def psnr(a: Raster, b: Raster) -> float:
    """10 * log10(255^2 / MSE) in dB; +inf when the rasters are identical."""
    x, y = _paired(a, b)
    return _psnr_of_sse(_sse(x, y), x.size)


def _gauss_kernel() -> np.ndarray:
    half = _SSIM_WINDOW // 2
    g = np.exp(-0.5 * (np.arange(-half, half + 1) / _SSIM_SIGMA) ** 2)
    return g / g.sum()


def _strip_rows(height: int) -> list[tuple[int, int]]:
    # (start, stop) of each strip of rows `_mssim` reads, in order: its
    # `_SSIM_STRIP` output rows (fewer in the last strip) and the 10 below them
    reach = _SSIM_WINDOW - 1
    rows = height - reach
    return [(r, min(r + _SSIM_STRIP, rows) + reach) for r in range(0, rows, _SSIM_STRIP)]


def _mssim(shape: tuple[int, int], strips) -> float:
    # mean SSIM of a pair of `shape`, read from `strips`: its (x, y) rows
    # as `_strip_rows` bounds them, each strip a C-ordered pair of arrays
    if min(shape) < _SSIM_WINDOW:
        raise DimensionError(f"images must be at least {_SSIM_WINDOW} pixels per side")
    reach, width = _SSIM_WINDOW - 1, shape[1]
    rows, cols = shape[0] - reach, width - reach
    n = _SSIM_STRIP
    # band[i, i:i + 11] holds the weights, so band[:t, :t + 10] windows t rows
    band, i = np.zeros((n, n + reach)), np.arange(n)[:, None]
    band[i, i + np.arange(_SSIM_WINDOW)] = _gauss_kernel()
    c1 = (_SSIM_K1 * _PEAK) ** 2
    c2 = (_SSIM_K2 * _PEAK) ** 2
    # flat buffers for the tallest strip; a shorter one uses their leading part
    tall = min(n, rows)
    sums = np.empty(2 * (tall + reach) * width)     # x^2 + y^2 and xy
    down = np.empty(4 * tall * width)               # the four maps windowed down
    win = np.empty(4 * tall * cols)                 # ... and along the rows
    prod = np.empty(tall * cols)                    # mu_x mu_y
    total = 0.0
    for xs, ys in strips:
        t = len(xs) - reach
        sq, xy = sums[:2 * xs.size].reshape(2, *xs.shape)
        np.multiply(xs, xs, out=sq)
        sq += np.multiply(ys, ys, out=xy)
        np.multiply(xs, ys, out=xy)
        d = down[:4 * t * width].reshape(4, t, width)
        for src, out in zip((xs, ys, sq, xy), d):
            np.matmul(band[:t, :t + reach], src, out=out)
        d = d.reshape(4 * t, width)
        w = win[:4 * t * cols].reshape(4 * t, cols)
        for c in range(0, cols, n):
            u = min(n, cols - c)
            np.matmul(d[:, c:c + u + reach], band[:u, :u + reach].T, out=w[:, c:c + u])
        mu_x, mu_y, sq, xy = w.reshape(4, t, cols)
        # the SSIM formula in place, in the operation order of
        # (2 mu_xy + c1) (2 (xy - mu_xy) + c2) / ((mu_sq + c1) (sq - mu_sq + c2))
        mu_xy = np.multiply(mu_x, mu_y, out=prod[:t * cols].reshape(t, cols))
        mu_sq = mu_x
        mu_sq *= mu_x
        mu_sq += np.multiply(mu_y, mu_y, out=mu_y)
        ssim = np.multiply(mu_xy, 2, out=mu_y)
        ssim += c1
        xy -= mu_xy
        xy *= 2
        xy += c2
        ssim *= xy
        sq -= mu_sq
        sq += c2
        mu_sq += c1
        mu_sq *= sq
        ssim /= mu_sq
        total += float(ssim.sum())
    return total / (rows * cols)


def mssim(a: Raster, b: Raster) -> float:
    """Mean local SSIM over all full 11x11 windows (Gaussian weights, sigma 1.5).

    Walks strips of `_SSIM_STRIP` output rows. Each strip windows x, y,
    x^2 + y^2 and xy (only var_x + var_y enters the formula) down the columns
    with one banded-matrix product per map, then along the rows tile by tile
    with the same band, evaluates the SSIM formula in place and adds its values
    to a running sum. x and y are windowed where they lie; the other two maps,
    the windowed strip and the formula's one extra map live in buffers
    allocated once per call, so no full-size map is ever built.
    """
    x, y = _paired(a, b)
    return _mssim(x.shape, ((x[r:e], y[r:e]) for r, e in _strip_rows(len(x))))


def _ncc_of_sums(xy: float, xx: float) -> float:
    # NCC of a pair whose products sum to `xy` and reference squares to `xx`
    if xx == 0.0:
        raise ParamError("NCC is undefined for an all-zero reference")
    return xy / xx


def ncc(a: Raster, b: Raster) -> float:
    """sum(a * b) / sum(a^2); asymmetric, the first raster is the reference."""
    x, y = (p.ravel() for p in _paired(a, b))
    return _ncc_of_sums(float(x @ y), float(x @ x))


def _nae_of_sums(sad: float, total: float) -> float:
    # NAE of a pair whose absolute differences sum to `sad` and reference
    # magnitudes to `total`
    if total == 0.0:
        raise ParamError("NAE is undefined for an all-zero reference")
    return sad / total


def nae(a: Raster, b: Raster) -> float:
    """sum(|a - b|) / sum(|a|); asymmetric, the first raster is the reference."""
    x, y = _paired(a, b)
    d = x - y
    return _nae_of_sums(float(np.abs(d, out=d).sum()), float(np.abs(x).sum()))


def _entropy_of_counts(counts: np.ndarray, size: int) -> float:
    # entropy of a 256-bin histogram of `size` pixels
    prob = counts[counts > 0] / size
    return float(-(prob * np.log2(prob)).sum())


def entropy(a: Raster) -> float:
    """Shannon entropy in bits of the 256-bin histogram of the quantized pixels."""
    q = _rounded_u8(_finite(a.pixels))
    return _entropy_of_counts(np.bincount(q.astype(np.uint8).ravel(), minlength=256), q.size)


def edge_map(a: Raster, threshold: float = 0.2) -> Raster:
    """Binary Sobel edge map, thresholded at `threshold` times the peak gradient.

    Edges are reflected (d c b a | a b c d | d c b a): the gradients equal scipy's
    `sobel(mode="reflect")` bitwise.
    """
    if a.height < 3 or a.width < 3:
        raise DimensionError(f"edge map needs at least 3x3 pixels, got {a.height}x{a.width}")
    if not 0.0 <= threshold <= 1.0:
        raise ParamError(f"threshold must be a fraction in [0, 1], got {threshold}")
    p = np.pad(a.pixels, 1, mode="symmetric")
    # as in scipy, each difference starts from 0 * centre, so an infinite sample
    # leaves a NaN there, and non-finite arithmetic raises no warning
    with np.errstate(invalid="ignore"):
        dx = 0.0 * p[:, 1:-1] + (p[:, 2:] - p[:, :-2])
        dy = 0.0 * p[1:-1] + (p[2:] - p[:-2])
        gx = 2 * dx[1:-1] + (dx[:-2] + dx[2:])
        gy = 2 * dy[:, 1:-1] + (dy[:, :-2] + dy[:, 2:])
    mag = np.hypot(gx, gy)
    peak = float(mag.max())
    if peak == 0.0:
        return Raster._adopt(np.zeros_like(mag))
    return Raster._adopt((mag >= threshold * peak).astype(np.float64))


@dataclass(frozen=True)
class MetricsReport:
    psnr_db: float
    mssim: float
    ncc: float
    nae: float
    entropy_ref: float
    entropy_test: float

    def to_dict(self) -> dict:
        return {"psnr_db": "inf" if math.isinf(self.psnr_db) else self.psnr_db,
                "mssim": self.mssim, "ncc": self.ncc, "nae": self.nae,
                "entropy_ref": self.entropy_ref, "entropy_test": self.entropy_test}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _rounded_strips(x: np.ndarray, y: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    # `_mssim`'s strips of the pair, each rounded into one of two strip
    # buffers by `_rounded_u8`. The rows no later strip reads, a strip's
    # first `_SSIM_STRIP` and every row of the last, add x.x, x.y, sum x,
    # sum (x - y)^2 and sum |x - y| to `sums` and their levels to `counts`.
    bounds = _strip_rows(len(x))
    qx, qy = np.empty((2, bounds[0][1], x.shape[1]))   # the first strip is the tallest
    diff = np.empty(qx.size)
    for start, stop in bounds:
        xs, ys = qx[:stop - start], qy[:stop - start]
        _rounded_u8(x[start:stop], out=xs)
        _rounded_u8(y[start:stop], out=ys)
        own = stop - start if stop == len(x) else _SSIM_STRIP
        xo, yo = xs[:own].ravel(), ys[:own].ravel()
        d = np.subtract(xo, yo, out=diff[:xo.size])
        sums += (xo @ xo, xo @ yo, xo.sum(), d @ d, np.abs(d, out=d).sum())
        counts[0] += np.bincount(xo.astype(np.uint8), minlength=256)
        counts[1] += np.bincount(yo.astype(np.uint8), minlength=256)
        yield xs, ys


def compare(ref: Raster, test: Raster) -> MetricsReport:
    """Full report on the 8-bit-quantized pair, matching what a viewer would see.

    Rounds strip by strip by `quantize_u8`'s rule, so no full-size copy is
    made. Each figure equals `psnr`, `mssim`, `ncc`, `nae` or `entropy` on
    `quantize_u8` views, bitwise.

    Raises SolverError if either raster holds a NaN or infinite sample."""
    x, y = map(_finite, _paired(ref, test))
    sums = np.zeros(5)
    counts = np.zeros((2, 256), dtype=np.int64)
    ssim = _mssim(x.shape, _rounded_strips(x, y, sums, counts))
    xx, xy, xsum, sse, sad = sums.tolist()
    return MetricsReport(_psnr_of_sse(sse, x.size), ssim, _ncc_of_sums(xy, xx),
                         _nae_of_sums(sad, xsum), _entropy_of_counts(counts[0], x.size),
                         _entropy_of_counts(counts[1], x.size))
