"""Image fidelity measures: PSNR, mean SSIM, normalized cross-correlation,
normalized absolute error, histogram entropy, and Sobel edge maps.

Each measure is an array-level core (`_psnr`, `_mssim`, `_ncc`, `_nae`); the
public functions apply it to a raster pair. `compare` refuses a NaN or
infinite sample, quantizes both rasters to 8 bits once into plain arrays, so
reported numbers always correspond to viewable images, and runs every core on
that one pair; the individual metric functions evaluate whatever they are
given.

PSNR and NCC sum through BLAS dot products. On integer-valued pixels every
product and partial sum is an integer below 2^53 (at most 255^2 * 1024^2,
about 6.8e10, for a 1024x1024 pair), so the sums are exact and independent of
summation order and BLAS threads; on other floats they may differ from a
pairwise sum by rounding only. So on an 8-bit pair that differs only in a few
regions, the squared error is the sum of the regions' own sums, bitwise, and
`sabmis bench` takes each subset's PSNR that way. `mssim` applies its window
(Wang et al., IEEE TIP 2004) as banded-matrix products over strips of rows,
into strip buffers allocated once per call, and builds no full-size windowed
map: its working set grows with the image width, not its area (2.9 MiB under
tracemalloc for a 1024x1024 pair).
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


def _quantized(r: Raster) -> np.ndarray:
    # the 8-bit view as a plain array; NaN would fail in the histogram and
    # +-inf would clamp to a valid-looking 255 or 0
    if not np.isfinite(r.pixels).all():
        raise SolverError("image holds non-finite samples")
    return _rounded_u8(r.pixels)


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


def _psnr(x: np.ndarray, y: np.ndarray) -> float:
    return _psnr_of_sse(_sse(x, y), x.size)


def psnr(a: Raster, b: Raster) -> float:
    """10 * log10(255^2 / MSE) in dB; +inf when the rasters are identical."""
    return _psnr(*_paired(a, b))


def _gauss_kernel() -> np.ndarray:
    half = _SSIM_WINDOW // 2
    g = np.exp(-0.5 * (np.arange(-half, half + 1) / _SSIM_SIGMA) ** 2)
    return g / g.sum()


def _mssim(x: np.ndarray, y: np.ndarray) -> float:
    if min(x.shape) < _SSIM_WINDOW:
        raise DimensionError(f"images must be at least {_SSIM_WINDOW} pixels per side")
    reach, width = _SSIM_WINDOW - 1, x.shape[1]
    rows, cols = x.shape[0] - reach, width - reach
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
    for r in range(0, rows, n):
        t = min(n, rows - r)
        xs, ys = x[r:r + t + reach], y[r:r + t + reach]
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
    return _mssim(*_paired(a, b))


def _ncc(x: np.ndarray, y: np.ndarray) -> float:
    x, y = x.ravel(), y.ravel()
    denom = float(x @ x)
    if denom == 0.0:
        raise ParamError("NCC is undefined for an all-zero reference")
    return float(x @ y) / denom


def ncc(a: Raster, b: Raster) -> float:
    """sum(a * b) / sum(a^2); asymmetric, the first raster is the reference."""
    return _ncc(*_paired(a, b))


def _nae(x: np.ndarray, y: np.ndarray) -> float:
    denom = float(np.abs(x).sum())
    if denom == 0.0:
        raise ParamError("NAE is undefined for an all-zero reference")
    d = x - y
    return float(np.abs(d, out=d).sum()) / denom


def nae(a: Raster, b: Raster) -> float:
    """sum(|a - b|) / sum(|a|); asymmetric, the first raster is the reference."""
    return _nae(*_paired(a, b))


def _histogram_entropy(q: np.ndarray) -> float:
    # q holds already-quantized pixels, integers in [0, 255]
    counts = np.bincount(q.astype(np.int64).ravel(), minlength=256)
    prob = counts[counts > 0] / q.size
    return float(-(prob * np.log2(prob)).sum())


def entropy(a: Raster) -> float:
    """Shannon entropy in bits of the 256-bin histogram of the quantized pixels."""
    return _histogram_entropy(_quantized(a))


def edge_map(a: Raster, threshold: float = 0.2) -> Raster:
    """Binary Sobel edge map, thresholded at `threshold` times the peak gradient."""
    if a.height < 3 or a.width < 3:
        raise DimensionError(f"edge map needs at least 3x3 pixels, got {a.height}x{a.width}")
    if not 0.0 <= threshold <= 1.0:
        raise ParamError(f"threshold must be a fraction in [0, 1], got {threshold}")
    # imported here: ~0.3 s per fresh process that hide/recover and `compare` never need
    from scipy import ndimage

    gx = ndimage.sobel(a.pixels, axis=1, mode="reflect")
    gy = ndimage.sobel(a.pixels, axis=0, mode="reflect")
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


def compare(ref: Raster, test: Raster) -> MetricsReport:
    """Full report on the 8-bit-quantized pair, matching what a viewer would see.

    Raises SolverError if either raster holds a NaN or infinite sample."""
    _paired(ref, test)
    qx, qy = _quantized(ref), _quantized(test)
    return MetricsReport(_psnr(qx, qy), _mssim(qx, qy), _ncc(qx, qy), _nae(qx, qy),
                         _histogram_entropy(qx), _histogram_entropy(qy))
