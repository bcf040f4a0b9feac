"""Block transforms: separable 2-D DCT basis, zig-zag coefficient order,
block partitioning, and the mapping between pixel blocks and coefficient
vectors."""

from __future__ import annotations

import math

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


def make_dct_basis(side: int) -> np.ndarray:
    """The read-only (side^2, side^2) orthonormal synthesis matrix for side x
    side blocks. Its transpose is the separable 2-D DCT: basis.T @ vec(block)
    equals vec(C @ block @ C.T) for the row-major vec and the 1-D DCT matrix
    C, so a constant block of value v transforms to a single DC coefficient
    side * v."""
    if side < 2:
        raise DimensionError(f"block side must be at least 2, got {side}")
    c = dct_matrix(side)
    mat = np.kron(c, c).T.copy()
    mat.setflags(write=False)
    return mat


def make_zigzag(side: int) -> np.ndarray:
    """Anti-diagonal scan of a side x side grid, alternating direction, low to
    high frequency: the flat row-major grid indices in scan order, read-only."""
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
    return perm


def forward_matrix(side: int) -> np.ndarray:
    """The read-only (side^2, side^2) matrix `sparsify` applies: a row-major
    side x side block times it is the block's zig-zag-ordered DCT
    coefficients, and its transpose, which `desparsify` applies, inverts it."""
    fwd = make_dct_basis(side)[:, make_zigzag(side)]
    fwd.setflags(write=False)
    return fwd


def sparsify(block: np.ndarray) -> np.ndarray:
    """Transform a b x b pixel block, or a (count, b, b) stack of blocks, into
    its spectrum: the zig-zag-ordered DCT coefficients, shape (b*b,) or
    (count, b*b). Under a key, the first p1 entries are the u-part."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim not in (2, 3) or block.shape[-1] != block.shape[-2]:
        raise DimensionError(f"block shape {block.shape} is not a square block "
                             f"or a stack of them")
    b = block.shape[-1]
    return block.reshape(*block.shape[:-2], b * b) @ forward_matrix(b)


def desparsify(s: np.ndarray) -> np.ndarray:
    """Exact inverse of sparsify: b*b coefficients back to a b x b pixel
    block, row by row along leading axes."""
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[-1] if s.ndim else 0
    b = math.isqrt(n)
    if n == 0 or b * b != n:
        raise DimensionError(f"{n} coefficients do not fill a square block")
    return (s @ forward_matrix(b).T).reshape(*s.shape[:-1], b, b)


def _tiles(pixels: np.ndarray, side: int) -> np.ndarray:
    # a (h, w) grid's side x side blocks in row-major block order, as a
    # (rows, cols, side, side) view: block row, block column, pixel row, pixel column
    h, w = pixels.shape
    return pixels.reshape(h // side, side, w // side, side).swapaxes(1, 2)


def partition_blocks(r: Raster, side: int) -> np.ndarray:
    """Cut a raster into side x side blocks in row-major block order.

    Returns an array of shape (count, side, side) with count = area / side^2.
    """
    h, w = r.pixels.shape
    if side < 1 or h % side or w % side:
        raise DimensionError(f"block side {side} must divide raster dimensions {h}x{w}")
    # one copy, writable also where the swapped view needs none (one block wide)
    return _tiles(r.pixels, side).copy().reshape(-1, side, side)


def assemble_blocks(blocks: np.ndarray, height: int, width: int) -> Raster:
    """Inverse of partition_blocks for the given raster dimensions."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise DimensionError("blocks must have shape (count, side, side)")
    count, side = blocks.shape[0], blocks.shape[1]
    if height % side or width % side or count * side * side != height * width:
        raise DimensionError(f"{count} blocks of side {side} do not tile {height}x{width}")
    # one copy, never a view of the caller's blocks, which the raster then owns
    out = np.empty((height, width))
    _tiles(out, side)[...] = blocks.reshape(height // side, width // side, side, side)
    return Raster._adopt(out)
