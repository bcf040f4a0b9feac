"""Rasters, file containers, and parity sub-sampling.

Pixels live as doubles end to end. Binary PGM is the viewable 8/16-bit
container; SRF is the lossless float container the stego pipeline writes so
that nothing is quantized away before extraction.
"""

import tempfile
from pathlib import Path

import numpy as np

from sabmis import (inverse_subsample, quantize_u8, read_pgm, read_srf,
                    subsample, textured_raster, write_pgm, write_srf)

out = Path(tempfile.mkdtemp(prefix="sabmis_demo_"))
r = textured_raster(64, seed=1)
print(f"synthetic raster: {r.width}x{r.height}, range "
      f"[{r.pixels.min():.1f}, {r.pixels.max():.1f}]")

# 8-bit PGM round trip is byte-identical once the raster is quantized
pgm = out / "demo.pgm"
write_pgm(r, pgm, depth=8)
back = read_pgm(pgm)
print(f"PGM(8) round trip: max|diff| vs quantized source = "
      f"{np.abs(back.pixels - quantize_u8(r).pixels).max():.1f}")

# the SRF float container is bit-exact
srf = out / "demo.srf"
write_srf(r, srf)
print("SRF round trip bit-exact:", np.array_equal(read_srf(srf).pixels, r.pixels))

# parity sub-sampling: four quarter images, every parent pixel used once
subs = subsample(r)  # a 4-tuple, sub-image k at index k - 1
print("sub-raster sizes:", [f"{s.width}x{s.height}" for s in subs])
print("inverse gives the original back bitwise:",
      np.array_equal(inverse_subsample(subs).pixels, r.pixels))
print("files in", out)
