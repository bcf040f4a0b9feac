"""Image fidelity measures: PSNR, mean SSIM, normalized cross-correlation,
normalized absolute error, histogram entropy, and Sobel edge maps.

`compare` quantizes both rasters to 8 bits once, first, so reported numbers
always correspond to viewable images; the individual metric functions evaluate
whatever they are given. `mssim` applies its window as banded-matrix products
over strips of rows and builds no full-size windowed map: its working set grows
with the image width, not its area (about 5 MB for a 1024x1024 pair).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionError, ParamError
from .raster import Raster, quantize_u8

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


def psnr(a: Raster, b: Raster) -> float:
    """10 * log10(255^2 / MSE) in dB; +inf when the rasters are identical."""
    x, y = _paired(a, b)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(_PEAK * _PEAK / mse)


def _gauss_kernel() -> np.ndarray:
    half = _SSIM_WINDOW // 2
    g = np.exp(-0.5 * (np.arange(-half, half + 1) / _SSIM_SIGMA) ** 2)
    return g / g.sum()


def mssim(a: Raster, b: Raster) -> float:
    """Mean local SSIM over all full 11x11 windows (Gaussian weights, sigma 1.5).

    Walks strips of `_SSIM_STRIP` output rows. Each strip stacks x, y,
    x^2 + y^2 and xy (only var_x + var_y enters the formula), windows the stack
    down the columns with one banded-matrix product, then along the rows tile by
    tile with the same band, and adds its SSIM values to a running sum. Memory
    stays at a few strip-high slices of the image width, never a full-size map.
    """
    x, y = _paired(a, b)
    if min(x.shape) < _SSIM_WINDOW:
        raise DimensionError(f"images must be at least {_SSIM_WINDOW} pixels per side")
    n, reach = _SSIM_STRIP, _SSIM_WINDOW - 1
    # band[i, i:i + 11] holds the weights, so band[:t, :t + 10] windows t rows
    band, i = np.zeros((n, n + reach)), np.arange(n)[:, None]
    band[i, i + np.arange(_SSIM_WINDOW)] = _gauss_kernel()
    c1 = (_SSIM_K1 * _PEAK) ** 2
    c2 = (_SSIM_K2 * _PEAK) ** 2
    rows, cols = x.shape[0] - reach, x.shape[1] - reach
    total = 0.0
    for r in range(0, rows, n):
        t = min(n, rows - r)
        xs, ys = x[r:r + t + reach], y[r:r + t + reach]
        stack = np.stack((xs, ys, xs * xs + ys * ys, xs * ys))
        down = (band[:t, :t + reach] @ stack).reshape(4 * t, -1)
        win = np.empty((4 * t, cols))
        for c in range(0, cols, n):
            u = min(n, cols - c)
            win[:, c:c + u] = down[:, c:c + u + reach] @ band[:u, :u + reach].T
        mu_x, mu_y, sq, xy = win.reshape(4, t, cols)
        mu_xy, mu_sq = mu_x * mu_y, mu_x * mu_x + mu_y * mu_y
        ssim = (2 * mu_xy + c1) * (2 * (xy - mu_xy) + c2) / ((mu_sq + c1) * (sq - mu_sq + c2))
        total += float(ssim.sum())
    return total / (rows * cols)


def ncc(a: Raster, b: Raster) -> float:
    """sum(a * b) / sum(a^2); asymmetric, the first raster is the reference."""
    x, y = _paired(a, b)
    denom = float((x * x).sum())
    if denom == 0.0:
        raise ParamError("NCC is undefined for an all-zero reference")
    return float((x * y).sum() / denom)


def nae(a: Raster, b: Raster) -> float:
    """sum(|a - b|) / sum(|a|); asymmetric, the first raster is the reference."""
    x, y = _paired(a, b)
    denom = float(np.abs(x).sum())
    if denom == 0.0:
        raise ParamError("NAE is undefined for an all-zero reference")
    return float(np.abs(x - y).sum() / denom)


def _histogram_entropy(q: np.ndarray) -> float:
    # q holds already-quantized pixels, integers in [0, 255]
    counts = np.bincount(q.astype(np.int64).ravel(), minlength=256)
    prob = counts[counts > 0] / q.size
    return float(-(prob * np.log2(prob)).sum())


def entropy(a: Raster) -> float:
    """Shannon entropy in bits of the 256-bin histogram of the quantized pixels."""
    return _histogram_entropy(quantize_u8(a).pixels)


def edge_map(a: Raster, threshold: float = 0.2) -> Raster:
    """Binary Sobel edge map, thresholded at `threshold` times the peak gradient."""
    if a.height < 3 or a.width < 3:
        raise DimensionError(f"edge map needs at least 3x3 pixels, got {a.height}x{a.width}")
    if not 0.0 <= threshold <= 1.0:
        raise ParamError(f"threshold must be a fraction in [0, 1], got {threshold}")
    gx = ndimage.sobel(a.pixels, axis=1, mode="reflect")
    gy = ndimage.sobel(a.pixels, axis=0, mode="reflect")
    mag = np.hypot(gx, gy)
    peak = float(mag.max())
    if peak == 0.0:
        return Raster(np.zeros_like(mag), "u8")
    return Raster((mag >= threshold * peak).astype(np.float64), "u8")


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
    """Full report on the 8-bit-quantized pair, matching what a viewer would see."""
    qr, qt = quantize_u8(ref), quantize_u8(test)
    return MetricsReport(psnr(qr, qt), mssim(qr, qt), ncc(qr, qt), nae(qr, qt),
                         _histogram_entropy(qr.pixels), _histogram_entropy(qt.pixels))
