"""Image fidelity measures: PSNR, mean SSIM, normalized cross-correlation,
normalized absolute error, histogram entropy, and Sobel edge maps.

Each figure has a core that takes a few sums over the pair (`_psnr_of_sse`,
`_ncc_of_sums`, `_nae_of_sums`, `_entropy_of_counts`) or, for SSIM, the
pair's rows, filled strip by strip (`_mssim`); the public functions feed
their core from one raster or raster pair. `_mssim` applies its window (Wang
et al., IEEE TIP 2004) as banded-matrix products over strips of rows. One
strip buffer holds x, y, x^2 + y^2 and xy (only var_x + var_y enters the
formula); consecutive strips share 10 rows, which the buffer carries over,
so each row is filled and squared once.
Each strip is windowed in one batched product down the columns and one along
the rows, plus one for a ragged last column tile, over views made once per
call: every full strip shares them, and only a shorter last strip makes its
own. No full-size windowed map is built: the working set grows with the
image width, not its area.

`compare` refuses a NaN or infinite sample, then reads the pair in one walk
over `_mssim`'s strips, so reported numbers always correspond to viewable
images without a full-size 8-bit copy of either. It rounds each row once,
by `quantize_u8`'s rule, straight into the strip buffer, and adds it there
to two sums, of xy and of min(x, y), and to each image's 256-bin level
histogram, which gives both entropies. Every other sum comes from the
histograms once per call, in integers: sum x = sum_v v c_x[v], sum x^2 =
sum_v v^2 c_x[v], and sum y and sum y^2 likewise. The squared error is then
sum x^2 + sum y^2 - 2 sum xy, and the absolute error sum x + sum y - 2 sum
min(x, y).
Its working set is about 4 MiB under tracemalloc for a 1024x1024 pair, and
it too grows with width, not area. The individual metric functions evaluate
whatever they are given.

PSNR and NCC sum through BLAS dot products. On integer-valued pixels every
product and partial sum is an integer below 2^53 (at most 255^2 * 1024^2,
about 6.8e10, for a 1024x1024 pair), so the sums are exact and independent of
summation order, strip boundaries and BLAS threads; on other floats they may
differ from a pairwise sum by rounding only. `compare`'s sums are such
integers too, whichever way it takes them, and each figure divides the same
two exact integers. So its figures equal the individual functions' on
`quantize_u8` views, bitwise, and on an 8-bit pair that differs only in a
few regions, the squared error is the sum of the regions' own sums, bitwise:
`sabmis bench` takes each subset's PSNR that way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, ParamError, SolverError
from .raster import Raster, _levels

_PEAK = 255.0
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_STRIP = 32      # output rows per strip and output columns per tile in mssim
# output rows per product of a strip's windowing down the columns. 4-row
# products would take 14 multiply-adds per output, against 18, but under
# SkylakeX kernels they move last bits at every width of 1 to 4 mod 8
_SSIM_SUB = 8


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


def _mssim(shape: tuple[int, int], fill) -> float:
    # mean SSIM of a pair of `shape`, whose rows `fill(start, stop, xs, ys)`
    # writes into the C-ordered (stop - start, width) arrays xs and ys; it is
    # called once per row, in order
    if min(shape) < _SSIM_WINDOW:
        raise DimensionError(f"images must be at least {_SSIM_WINDOW} pixels per side")
    reach, (height, width) = _SSIM_WINDOW - 1, shape
    rows, cols = height - reach, width - reach
    n = _SSIM_STRIP
    # band[i, i:i + 11] holds the weights, so band[:t, :t + 10] windows t rows;
    # it is Toeplitz, so band[:h, :h + 10] windows every h-row sub-strip
    band, i = np.zeros((n, n + reach)), np.arange(n)[:, None]
    band[i, i + np.arange(_SSIM_WINDOW)] = _gauss_kernel()
    along = band.T.copy()               # C-ordered, for full strips' whole tiles
    c1 = (_SSIM_K1 * _PEAK) ** 2
    c2 = (_SSIM_K2 * _PEAK) ** 2
    # buffers for the tallest strip; a shorter one uses their leading part.
    # buf holds the strip's x, y, x^2 + y^2 and xy rows, and keeps its last
    # 10 rows for the next strip, which reads them too
    tall = min(n, rows)
    buf = np.empty((4, tall + reach, width))
    down = np.empty(4 * tall * width)               # the four maps windowed down
    win = np.empty(4 * tall * cols)                 # ... and along the rows
    prod = np.empty(tall * cols)                    # mu_x mu_y
    f, b = buf.itemsize, buf.strides
    c = cols - cols % n                             # columns in whole tiles

    def windowing(t):
        # the products that window a t-row strip of buf, over views made
        # once: every full strip shares one set, built before the loop.
        # Down the columns: all four maps in one product over sub-strips of h
        # rows. 8-row sub-strips give the bits of the strip's whole band, but
        # a ragged last one does not (OpenBLAS takes another kernel for it),
        # so a strip that _SSIM_SUB does not divide keeps its whole band
        h = _SSIM_SUB if t % _SSIM_SUB == 0 else t
        d = down[:4 * t * width]
        subs = as_strided(buf, (4, t // h, h + reach, width), (b[0], h * b[1], b[1], f),
                          writeable=False)
        sub_band, subs_out = band[:h, :h + reach], d.reshape(4, t // h, h, width)
        # along the rows: every whole n-column tile in one product, then the
        # rest. A full strip's tiles take the C-ordered band, which OpenBLAS
        # runs about twice as fast as the transposed view, with the same bits
        # at the product's 4n rows. At 4t <= 36 rows (t <= 9) the copy moved
        # last bits under SkylakeX kernels, and on the ragged last tile at
        # any t, so a shorter strip and the ragged tile keep the view
        d = d.reshape(4 * t, width)
        w = win[:4 * t * cols].reshape(4 * t, cols)
        tiles = as_strided(d, (c // n, 4 * t, n + reach), (n * f, d.strides[0], f),
                           writeable=False)
        tiles_out = w[:, :c].reshape(4 * t, c // n, n).swapaxes(0, 1)
        tile_band = along if t == n else band.T
        rest, rest_band, rest_out = d[:, c:], band[:cols - c, :width - c].T, w[:, c:]
        maps = (*w.reshape(4, t, cols), prod[:t * cols].reshape(t, cols))

        def window():
            # mu_x, mu_y, the windowed x^2 + y^2 and xy, and room for mu_x mu_y
            np.matmul(sub_band, subs, out=subs_out)
            np.matmul(tiles, tile_band, out=tiles_out)
            np.matmul(rest, rest_band, out=rest_out)
            return maps
        return window

    full = windowing(tall)
    total = 0.0
    for r in range(0, rows, n):
        t = min(n, rows - r)
        kept = reach if r else 0        # rows the last strip read too
        if kept:
            buf[:, :kept] = buf[:, n:n + kept]
        xs, ys, sq, xy = buf[:, kept:t + reach]
        fill(r + kept, r + t + reach, xs, ys)
        np.multiply(xs, xs, out=sq)
        sq += np.multiply(ys, ys, out=xy)
        np.multiply(xs, ys, out=xy)
        mu_x, mu_y, sq, xy, mu_xy = (full if t == tall else windowing(t))()
        # the SSIM formula in place, in the operation order of
        # (2 mu_xy + c1) (2 (xy - mu_xy) + c2) / ((mu_sq + c1) (sq - mu_sq + c2))
        np.multiply(mu_x, mu_y, out=mu_xy)
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

    Computed strip by strip by `_mssim`, as the module notes describe, so no
    full-size map is ever built.
    """
    x, y = _paired(a, b)

    def fill(start, stop, xs, ys):
        np.copyto(xs, x[start:stop])
        np.copyto(ys, y[start:stop])

    return _mssim(x.shape, fill)


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
    # entropy of a 256-bin histogram of `size` pixels; 0.0 - s, not -s, so
    # that one level reads +0.0
    prob = counts[counts > 0] / size
    return float(0.0 - (prob * np.log2(prob)).sum())


def entropy(a: Raster) -> float:
    """Shannon entropy in bits of the 256-bin histogram of the quantized pixels."""
    q = _levels(_finite(a.pixels))
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


def _report_value(x: float) -> float | str:
    # RFC 8259 JSON has no Infinity: every report, `MetricsReport`'s and the
    # bench's, writes the +inf of a lossless PSNR as "inf"
    return "inf" if math.isinf(x) else x


def _report_constant(name: str) -> str:
    # json.loads's parse_constant for a report: a bare Infinity, as an older
    # bench wrote for a lossless subset, reads as "inf"; no report value can
    # be -inf or NaN
    if name == "Infinity":
        return "inf"
    raise ValueError(f"{name} is not a bench value")


@dataclass(frozen=True)
class MetricsReport:
    psnr_db: float
    mssim: float
    ncc: float
    nae: float
    entropy_ref: float
    entropy_test: float

    def to_dict(self) -> dict:
        return {"psnr_db": _report_value(self.psnr_db),
                "mssim": self.mssim, "ncc": self.ncc, "nae": self.nae,
                "entropy_ref": self.entropy_ref, "entropy_test": self.entropy_test}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compare(ref: Raster, test: Raster) -> MetricsReport:
    """Full report on the 8-bit-quantized pair, matching what a viewer would see.

    Rounds strip by strip by `quantize_u8`'s rule, so no full-size copy is
    made. Each figure equals `psnr`, `mssim`, `ncc`, `nae` or `entropy` on
    `quantize_u8` views, bitwise.

    Raises SolverError if either raster holds a NaN or infinite sample, and
    ParamError if the reference's 8-bit view is all zero: NCC is undefined
    for it."""
    x, y = map(_finite, _paired(ref, test))
    # sum xy and sum min(x, y) strip by strip, and each image's levels
    sums = np.zeros(2)
    counts = np.zeros((2, 256), dtype=np.int64)
    low = np.empty(min(len(x), _SSIM_STRIP + _SSIM_WINDOW - 1) * x.shape[1])

    def fill(start, stop, xs, ys):
        xo = _levels(x[start:stop], out=xs).ravel()
        yo = _levels(y[start:stop], out=ys).ravel()
        sums[:] += (xo @ yo, np.minimum(xo, yo, out=low[:xo.size]).sum())
        counts[0] += np.bincount(xo.astype(np.intp), minlength=256)
        counts[1] += np.bincount(yo.astype(np.intp), minlength=256)

    ssim = _mssim(x.shape, fill)
    # the other sums from the histograms; (x - y)^2 = x^2 + y^2 - 2xy and
    # |x - y| = x + y - 2 min(x, y) give the rest, all in integers
    levels = np.arange(256)
    (xsum, ysum), (xx, yy) = (counts @ levels).tolist(), (counts @ levels ** 2).tolist()
    xy, common = map(int, sums.tolist())
    sse, sad = xx + yy - 2 * xy, xsum + ysum - 2 * common
    return MetricsReport(_psnr_of_sse(sse, x.size), ssim, _ncc_of_sums(xy, xx),
                         _nae_of_sums(sad, xsum), _entropy_of_counts(counts[0], x.size),
                         _entropy_of_counts(counts[1], x.size))
