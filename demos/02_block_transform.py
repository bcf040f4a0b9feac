"""The block transform that makes hiding possible.

Each 8x8 block becomes its spectrum: a plain array of 64 DCT coefficients
read in zig-zag order, a handful of large low-frequency values up front, then
a long near-zero tail. `sparsify` takes one block or a stack and returns one
row per block. The hiding scheme keeps the first 32 entries verbatim (the
u-part) and compresses the rest (the v-part) into random measurements.
"""

import numpy as np

from sabmis import (desparsify, make_dct_basis, make_zigzag, partition_blocks,
                    sparsify, subsample, textured_raster)

basis, zz = make_dct_basis(8), make_zigzag(8)
print("basis is orthonormal to",
      f"{np.abs(basis.matrix.T @ basis.matrix - np.eye(64)).max():.2e}")
print("zig-zag scan starts at", zz.positions()[:6], "...")

r = textured_raster(128, seed=7, smoothness=8)
blocks = partition_blocks(subsample(r).sub[0], 8)
spectra = sparsify(blocks, basis, zz)  # (count, 64)

energy = (spectra ** 2).sum()
head = (spectra[:, :32] ** 2).sum()
print(f"{blocks.shape[0]} blocks; first 32 zig-zag coefficients hold "
      f"{100 * head / energy:.3f}% of the energy")

mags = np.abs(spectra).mean(axis=0)
for pos in (0, 1, 4, 8, 16, 32, 48, 63):
    print(f"  mean |coefficient| at zig-zag position {pos:2d}: {mags[pos]:8.3f}")

rebuilt = desparsify(spectra[0], basis, zz)
print("round trip max error:", f"{np.abs(rebuilt - blocks[0]).max():.2e}")
