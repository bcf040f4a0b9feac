"""Hide a secret image in a cover and get it back with only the key.

Runs the full pipeline at a reduced size (256x256 cover, 128x128 secret) so
it finishes in seconds, then prints the fidelity numbers for both sides and
writes viewable PGMs to a temp directory.
"""

import tempfile
import time
from pathlib import Path

from sabmis import (StegoParams, compare, cover_raster, edge_map, embed_images,
                    extract_images, make_key, quantize_u8, secret_raster,
                    write_pgm, write_srf)

params = StegoParams(N=256, M=128, num_secrets=1)
key = make_key(seed=90210, params=params)
cover = cover_raster(256, seed=5)
secret = secret_raster(128, seed=6)
print("sub-image carrying the secret:", key.assignment[0])

start = time.perf_counter()
stego, report = embed_images(cover, [secret], key)
print(f"embedded in {1e3 * (time.perf_counter() - start):.0f} ms: {params.secret_blocks} blocks, "
      f"write identity error {report.write_check['identity_error']:.1e}, "
      f"capacity {report.capacity_bpp} bpp")

quality = compare(cover, stego)
print(f"cover vs stego: psnr {quality.psnr_db:.2f} dB, mssim {quality.mssim:.4f}, "
      f"ncc {quality.ncc:.5f}, nae {quality.nae:.4f}")

recovered = extract_images(stego, key)[0]
fidelity = compare(secret, recovered)
print(f"secret vs extracted: psnr {fidelity.psnr_db:.2f} dB, "
      f"mssim {fidelity.mssim:.4f}, ncc {fidelity.ncc:.4f}")

# edge maps barely move: the payload hides below the structural content
cover_edges = edge_map(quantize_u8(cover), threshold=0.2)
stego_edges = edge_map(quantize_u8(stego), threshold=0.2)
changed = (cover_edges.pixels != stego_edges.pixels).mean()
print(f"edge map pixels changed by embedding: {100 * changed:.3f}%")

out = Path(tempfile.mkdtemp(prefix="sabmis_demo_"))
write_pgm(cover, out / "cover.pgm")
write_srf(stego, out / "stego.srf")
write_pgm(stego, out / "stego_view.pgm")
write_pgm(recovered, out / "recovered.pgm")
print("wrote cover.pgm, stego.srf, stego_view.pgm, recovered.pgm to", out)
