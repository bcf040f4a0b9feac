"""The paper-scale fixture the acceptance, codec, metrics and README tests
share, built once per session: key 0xC0FFEE with the default params, covers
1101 and 1102 at 1024x1024 and secrets 2201-2204 at 512x512, quantized like
any 8-bit source image would be."""

import time

import pytest

from sabmis import cover_raster, embed_images, make_key, quantize_u8, secret_raster


@pytest.fixture(scope="session")
def paper_setup():
    key = make_key(0xC0FFEE)
    covers = [quantize_u8(cover_raster(1024, s)) for s in (1101, 1102)]
    secrets = [quantize_u8(secret_raster(512, s)) for s in (2201, 2202, 2203, 2204)]
    return key, covers, secrets


@pytest.fixture(scope="session")
def paper_stego(paper_setup):
    # (stego, report, seconds the embed took) per cover
    key, covers, secrets = paper_setup
    out = []
    for cover in covers:
        start = time.perf_counter()
        stego, report = embed_images(cover, secrets, key)
        out.append((stego, report, time.perf_counter() - start))
    return out
