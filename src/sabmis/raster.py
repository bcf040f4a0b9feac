"""Gray-scale rasters and their file containers.

Samples are double precision end to end; binary PGM (8/16-bit) and the
lossless SRF float container are conversions at the file boundary only.
Parity sub-sampling splits an even-sized raster into four quarter rasters.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionError, FormatError, ParamError, SolverError

SRF_MAGIC = b"SRF1"
# one PGM header field after any whitespace and '#' comments; '$' makes a
# comment run to the end of its line, so backtracking cannot split it into fields
_PGM_TOKEN = re.compile(rb"(?:\s|#.*$)*([^\s#]\S*)", re.MULTILINE)


@dataclass(frozen=True, eq=False)
class Raster:
    """A gray-scale image: (height, width) float64 grid, nominal range [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.pixels, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> Raster:
        """A raster over `pixels` itself, not over a copy: for a C-ordered
        float64 grid that the caller made and never touches again. The grid
        becomes read-only."""
        r = object.__new__(cls)
        r._own(pixels)
        return r

    def _own(self, px: np.ndarray) -> None:
        if px.ndim != 2 or px.size == 0:
            raise DimensionError("raster pixels must form a non-empty 2-D grid")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _levels(x: np.ndarray, top: float = 255.0, out: np.ndarray | None = None) -> np.ndarray:
    # levels 0..top of float64 samples, into `out` or one new array: for every
    # input, rounding half away from zero, then clamping to [0, top], but no
    # zero is negative; NaN stays NaN
    q = x.clip(0.0, top, out=out)
    q += 0.5
    return np.floor(q, out=q)


def quantize_u8(r: Raster) -> Raster:
    """Round and clamp samples to integers in [0, 255]; idempotent."""
    return Raster._adopt(_levels(r.pixels))


def _parity(pixels: np.ndarray, k: int) -> np.ndarray:
    # parity sub-image k = 1..4 of a grid, as a strided view: (odd, odd),
    # (even, odd), (odd, even), (even, even) rows and columns, 1-based
    return pixels[(k - 1) % 2 :: 2, (k - 1) // 2 :: 2]


def subsample(r: Raster) -> tuple[Raster, Raster, Raster, Raster]:
    """Split into four (h/2, w/2) rasters by (row, column) parity, as a
    4-tuple whose entry k - 1 is sub-image k.

    In 1-based pixel coordinates sub 1 keeps (odd, odd), sub 2 (even, odd),
    sub 3 (odd, even) and sub 4 (even, even), so every parent pixel lands in
    exactly one sub-raster.
    """
    if r.height % 2 or r.width % 2:
        raise DimensionError(f"raster dimensions must be even, got {r.height}x{r.width}")
    return tuple(Raster(_parity(r.pixels, k)) for k in range(1, 5))


def inverse_subsample(subs: Sequence[Raster]) -> Raster:
    """Reassemble the parent raster from four equal-shape sub-rasters, sub k
    at entry k - 1: the exact inverse of subsample."""
    if len(subs) != 4:
        raise DimensionError(f"expected exactly four sub-rasters, got {len(subs)}")
    h, w = subs[0].pixels.shape
    if any(s.pixels.shape != (h, w) for s in subs[1:]):
        raise DimensionError("sub-raster dimensions differ")
    out = np.empty((2 * h, 2 * w))
    for k, s in enumerate(subs, start=1):
        _parity(out, k)[...] = s.pixels
    return Raster._adopt(out)


def _pgm_header(data: bytes) -> tuple[list[bytes], int]:
    # magic, width, height, maxval, then the payload's offset
    tokens, i = [], 0
    for _ in range(4):
        match = _PGM_TOKEN.match(data, i)
        if match is None:
            raise FormatError("PGM header ended early (need magic, width, height, maxval)")
        tokens.append(match[1])
        i = match.end()
    if not data[i : i + 1].isspace():
        raise FormatError("PGM header not terminated by whitespace before payload")
    return tokens, i + 1


def read_pgm(path) -> Raster:
    """Read a binary PGM (P5) file with maxval 255 or 65535."""
    data = Path(path).read_bytes()
    tokens, offset = _pgm_header(data)
    if tokens[0] != b"P5":
        raise FormatError(f"unsupported magic {tokens[0]!r}: only binary PGM (P5) is accepted")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError(f"non-numeric PGM header fields {tokens[1:4]!r}") from None
    if width <= 0 or height <= 0:
        raise FormatError(f"invalid PGM dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise FormatError(f"unsupported maxval {maxval}: must be 255 or 65535")
    dtype = np.dtype(np.uint8 if maxval == 255 else ">u2")
    need = dtype.itemsize * width * height
    if len(data) - offset < need:
        raise FormatError(f"truncated payload: expected {need} bytes, got {len(data) - offset}")
    px = np.frombuffer(data, dtype=dtype, count=width * height, offset=offset)
    px = px.astype(np.float64).reshape(height, width)
    if maxval == 65535:
        px *= 255.0 / 65535.0
    return Raster._adopt(px)


def write_pgm(r: Raster, path, depth: int = 8) -> None:
    """Write binary PGM, maxval 255 (depth 8) or 65535 (depth 16): samples
    are scaled to [0, maxval], clamped to it and rounded half up, as in every
    8-bit view. Any other depth raises ParamError, and a NaN sample, which
    has no level, SolverError, each before any file is written; infinite
    samples clamp like any other."""
    if depth not in (8, 16):
        raise ParamError(f"depth must be 8 or 16, got {depth}")
    if np.isnan(r.pixels).any():
        raise SolverError(f"{path}: image holds NaN samples")
    maxval = (1 << depth) - 1
    scaled = r.pixels * (maxval / 255.0)  # x * 1.0 is x; 65535 / 255 is 257 exactly
    body = _levels(scaled, maxval, out=scaled).astype(f">u{depth // 8}").tobytes()
    header = f"P5\n{r.width} {r.height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + body)


def write_srf(r: Raster, path) -> None:
    """Write the lossless float container: bit-exact round trip of the samples.

    The header, then the samples' own little-endian buffer: no byte copy of
    the payload on a little-endian host."""
    head = SRF_MAGIC + b"\n" + f"{r.width} {r.height}".encode("ascii") + b"\n"
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.ascontiguousarray(r.pixels, dtype="<f8").data)


def read_srf(path) -> Raster:
    """Read the lossless float container. The header is parsed and the
    payload size checked against the file's before the samples are read
    straight into the new grid."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic[:4] != SRF_MAGIC or magic[4:5] != b"\n":
            raise FormatError(f"bad magic {magic!r}: not an SRF v1 file")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise FormatError("SRF dimensions line missing")
        dims = line[:-1]
        parts = dims.split()
        if len(parts) != 2:
            raise FormatError(f"SRF dimensions line malformed: {dims!r}")
        try:
            width, height = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-numeric SRF dimensions {parts!r}") from None
        if width <= 0 or height <= 0:
            raise FormatError(f"invalid SRF dimensions {width}x{height}")
        have, need = os.fstat(fh.fileno()).st_size - fh.tell(), 8 * width * height
        if have < need:
            raise FormatError(f"truncated payload: expected {need} bytes, got {have}")
        if have > need:
            raise FormatError(f"size mismatch: {have - need} trailing bytes")
        px = np.empty((height, width), dtype="<f8")
        got = fh.readinto(memoryview(px).cast("B"))
    if got != need:  # the file shrank since its size was read
        raise FormatError(f"truncated payload: expected {need} bytes, got {got}")
    if not px.dtype.isnative:  # a big-endian host keeps the file's order until here
        px = px.astype(np.float64)
    return Raster._adopt(px)
