"""Block transforms: separable 2-D DCT basis, zig-zag coefficient order,
block partitioning, and the mapping between pixel blocks and coefficient
vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .raster import Raster


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal 1-D DCT-II matrix; row k maps a length-n signal to coefficient k."""
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * x + 1) * k / (2.0 * n))
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


@dataclass(frozen=True, eq=False)
class DctBasis:
    """Sparsification basis for side x side blocks.

    `matrix` is the side^2 x side^2 orthonormal synthesis matrix. Its transpose
    is the separable 2-D DCT: matrix.T @ vec(block) equals vec(C @ block @ C.T)
    for the row-major vec and the 1-D DCT matrix C, so a constant block of
    value v transforms to a single DC coefficient side * v.
    """

    side: int
    matrix: np.ndarray


def make_dct_basis(side: int) -> DctBasis:
    if side < 2:
        raise DimensionError(f"block side must be at least 2, got {side}")
    c = dct_matrix(side)
    mat = np.kron(c, c).T.copy()
    mat.setflags(write=False)
    return DctBasis(side, mat)


@dataclass(frozen=True, eq=False)
class ZigZagOrder:
    """Anti-diagonal scan of an n x n grid, alternating direction, low to high frequency."""

    side: int
    perm: np.ndarray  # flat row-major grid indices in scan order

    def positions(self) -> list[tuple[int, int]]:
        """Scan positions as 1-based (row, column) pairs."""
        n = self.side
        return [(int(f) // n + 1, int(f) % n + 1) for f in self.perm]


def make_zigzag(side: int) -> ZigZagOrder:
    if side < 1:
        raise DimensionError(f"grid side must be at least 1, got {side}")
    order: list[int] = []
    for d in range(2 * side - 1):
        lo, hi = max(0, d - side + 1), min(d, side - 1)
        # odd diagonals run top-right to bottom-left, even ones the reverse
        rows = range(lo, hi + 1) if d % 2 else range(hi, lo - 1, -1)
        order.extend(r * side + (d - r) for r in rows)
    perm = np.array(order, dtype=np.intp)
    perm.setflags(write=False)
    return ZigZagOrder(side, perm)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Zig-zag-ordered coefficients, a vector or (count, n) stack; `split` marks u/v."""

    coeffs: np.ndarray
    split: int | None = None

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.float64, copy=True)
        if c.ndim not in (1, 2) or c.size == 0:
            raise DimensionError("spectrum coefficients must form a non-empty vector or stack")
        if self.split is not None and not 0 < self.split < c.shape[-1]:
            raise DimensionError(f"split {self.split} out of range for {c.shape[-1]} coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def u(self) -> np.ndarray:
        if self.split is None:
            raise DimensionError("spectrum has no u/v split")
        return self.coeffs[..., : self.split]

    @property
    def v(self) -> np.ndarray:
        if self.split is None:
            raise DimensionError("spectrum has no u/v split")
        return self.coeffs[..., self.split :]


def sparsify(block: np.ndarray, basis: DctBasis, zz: ZigZagOrder,
             split: int | None = None) -> Spectrum:
    """Transform a pixel block, or a (count, b, b) stack of blocks, into its
    zig-zag-ordered DCT coefficients: shape (b*b,) or (count, b*b)."""
    b = basis.side
    block = np.asarray(block, dtype=np.float64)
    if block.ndim not in (2, 3) or block.shape[-2:] != (b, b):
        raise DimensionError(f"block shape {block.shape} does not match basis side {b}")
    if zz.side != b:
        raise DimensionError(f"zig-zag side {zz.side} does not match basis side {b}")
    return Spectrum(block.reshape(*block.shape[:-2], b * b) @ basis.matrix[:, zz.perm], split)


def desparsify(s: Spectrum, basis: DctBasis, zz: ZigZagOrder) -> np.ndarray:
    """Exact inverse of sparsify: coefficients back to a pixel block or stack of blocks."""
    b = basis.side
    if s.coeffs.shape[-1] != b * b:
        raise DimensionError(f"{s.coeffs.shape[-1]} coefficients do not fill a {b}x{b} block")
    if zz.side != b:
        raise DimensionError(f"zig-zag side {zz.side} does not match basis side {b}")
    return (s.coeffs @ basis.matrix[:, zz.perm].T).reshape(*s.coeffs.shape[:-1], b, b)


def partition_blocks(r: Raster, side: int) -> np.ndarray:
    """Cut a raster into side x side blocks in row-major block order.

    Returns an array of shape (count, side, side) with count = area / side^2.
    """
    h, w = r.pixels.shape
    if side < 1 or h % side or w % side:
        raise DimensionError(f"block side {side} must divide raster dimensions {h}x{w}")
    grid = r.pixels.reshape(h // side, side, w // side, side)
    # one copy, writable also where the swapped view needs none (one block wide)
    return grid.swapaxes(1, 2).copy().reshape(-1, side, side)


def assemble_blocks(blocks: np.ndarray, height: int, width: int) -> Raster:
    """Inverse of partition_blocks for the given raster dimensions."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise DimensionError("blocks must have shape (count, side, side)")
    count, side = blocks.shape[0], blocks.shape[1]
    if height % side or width % side or count * side * side != height * width:
        raise DimensionError(f"{count} blocks of side {side} do not tile {height}x{width}")
    grid = blocks.reshape(height // side, width // side, side, side).swapaxes(1, 2)
    return Raster(grid.reshape(height, width))
