"""Deterministic synthetic gray-scale rasters.

Standard test images are not redistributed with this package; these band
limited noise fields stand in for them in the demos, the bench harness and
the test suite. `cover_raster` mirrors how large test covers are usually
produced (a natural-resolution image upsampled 2x), which is also the regime
this hiding scheme is built for: the parity sub-images must be smooth at
block scale or their measurement tails drown the payload.

The periodic Gaussian smoothing is bitwise equal to scipy's `gaussian_filter(mode="wrap")`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParamError
from .raster import Raster, inverse_subsample, subsample
from .spectral import assemble_blocks, desparsify, partition_blocks, sparsify


def _unit(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std()


def _smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    # scipy's kernel down axis 0, then down axis 0 of the transpose; each sum adds
    # the tap pairs outermost first after the centre, so it rounds as scipy's C loop
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum())[r:]
    for _ in range(2):
        p = np.pad(x, ((r, r), (0, 0)), mode="wrap")
        n = len(x)
        x = p[r:r + n] * w[0]
        for j in range(r, 0, -1):
            x += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[j]
        x = x.T
    return x


def textured_raster(side: int, seed: int, smoothness: float = 10.0, octaves: int = 3,
                    low: float = 4.0, high: float = 251.0) -> Raster:
    """Band-limited noise field normalized to [low, high].

    More octaves (1..3) add finer detail; larger smoothness pushes energy
    toward low frequencies. Reproducible for a given (side, seed).
    """
    if octaves not in (1, 2, 3):
        raise ParamError(f"octaves must be 1, 2 or 3, got {octaves!r}")
    rng = np.random.default_rng(seed)
    weights = (1.0, 0.4, 0.15)
    img = np.zeros((side, side))
    for o in range(octaves):
        sigma = max(1.0, smoothness / (3.0 ** o))
        img += weights[o] * _smooth(rng.standard_normal((side, side)), sigma)
    lo, hi = float(img.min()), float(img.max())
    img = (img - lo) / (hi - lo) * (high - low) + low
    return Raster(img)


def cover_raster(side: int, seed: int) -> Raster:
    """A stand-in cover: textured half-resolution field, pixel-replicated 2x.

    Matches the usual provenance of large gray-scale test covers (an upsampled
    natural image), so each parity sub-image is a native-scale textured image
    whose 8x8 blocks keep their energy in the low zig-zag coefficients.
    """
    if side % 2:
        raise DimensionError(f"cover side must be even, got {side}")
    half = side // 2
    rng = np.random.default_rng(seed)
    img = 0.55 * _unit(_smooth(rng.standard_normal((half, half)), 12.0))
    img += _unit(_smooth(rng.standard_normal((half, half)), 4.0))
    img = (img - img.min()) / (img.max() - img.min()) * 247.0 + 4.0
    return Raster(np.kron(img, np.ones((2, 2))))


def secret_raster(side: int, seed: int, low: float = 6.0, high: float = 106.0) -> Raster:
    """A stand-in secret: a smooth field over a moderate brightness range.

    Smoothness keeps the payload concentrated in the coefficients the scheme
    actually transplants, and the default range keeps the DC payload small so
    the stego distortion stays low at the reference embedding strengths.
    """
    return textured_raster(side, seed, smoothness=side / 12.0, octaves=1,
                           low=low, high=high)


def smooth_raster(side: int, seed: int, smoothness: float = 12.0) -> Raster:
    """Single-octave, heavily band-limited field over the full gray range."""
    return textured_raster(side, seed, smoothness=smoothness, octaves=1)


def block_sparse_raster(r: Raster, keep: int = 32, side: int = 8) -> Raster:
    """Project a raster onto the hiding scheme's per-block sparsity model.

    Zeroes all but the first `keep` zig-zag DCT coefficients of every
    side x side block of each parity sub-image. The result is the ideal input
    class for the scheme: its measurement tails vanish, so nothing competes
    with the embedded payload.
    """
    subs = []
    for sub in subsample(r):
        coeffs = sparsify(partition_blocks(sub, side))
        coeffs[:, keep:] = 0.0
        subs.append(assemble_blocks(desparsify(coeffs), sub.height, sub.width))
    return inverse_subsample(subs)
