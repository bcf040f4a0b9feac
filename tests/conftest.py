"""The paper-scale fixture the acceptance, codec, metrics and README tests
share, built once per session: key 0xC0FFEE with the default params, covers
1101 and 1102 at 1024x1024 and secrets 2201-2204 at 512x512, quantized like
any 8-bit source image would be; and the paper's own l1 embed of cover 1101."""

import time

import numpy as np
import pytest

from sabmis import (assemble_blocks, cover_raster, embed_images, embed_rule, gen_matrix,
                    inverse_subsample, make_key, measure, partition_blocks, quantize_u8,
                    reconstruct_block, secret_raster, secret_to_coeffs, sparsify, subsample)


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


@pytest.fixture(scope="session")
def paper_l1_stego(paper_setup):
    # the paper's embed of cover 1101, block by block: each assigned
    # sub-image's measurements through embed_rule, then the l1 rebuild;
    # (stego, every block's ADMM iterations, every block's converged flag)
    key, (cover, _), secrets = paper_setup
    p, phi = key.params, gen_matrix(key)
    subs = list(subsample(cover))
    iterations, converged = [], []
    for secret, k in zip(secrets, key.assignment, strict=True):
        y = measure(sparsify(partition_blocks(subs[k - 1], p.b)), phi)
        blocks, result = reconstruct_block(embed_rule(y, secret_to_coeffs(secret, p), p), phi, p)
        subs[k - 1] = assemble_blocks(blocks, p.N // 2, p.N // 2)
        iterations.append(result.iterations)
        converged.append(result.converged)
    return inverse_subsample(subs), np.concatenate(iterations), np.concatenate(converged)
