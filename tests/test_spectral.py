import numpy as np
import pytest

from sabmis import (DimensionError, Raster, assemble_blocks, desparsify,
                    make_dct_basis, make_zigzag, partition_blocks, sparsify)
from sabmis.spectral import dct_matrix


def test_dct_matrix_2_closed_form():
    c = dct_matrix(2)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(c, [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]], atol=1e-15)


def test_basis_2_forward_first_row():
    basis = make_dct_basis(2)
    # forward transform is the basis transpose; a constant vector maps to pure DC
    assert np.allclose(basis.T[0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_basis_orthonormality(side):
    m = make_dct_basis(side)
    eye = np.eye(side * side)
    assert np.abs(m.T @ m - eye).max() <= 1e-12
    assert np.abs(m @ m.T - eye).max() <= 1e-12


def test_constant_block_is_pure_dc():
    s = sparsify(np.full((8, 8), 100.0))
    assert s[0] == pytest.approx(800.0, abs=1e-10)
    assert np.abs(s[1:]).max() < 1e-10


def test_zigzag_3_matches_known_scan():
    assert [(f // 3 + 1, f % 3 + 1) for f in make_zigzag(3).tolist()] == [
        (1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3)]


def test_zigzag_1():
    assert make_zigzag(1).tolist() == [0]


def test_zigzag_8_matches_jpeg_table():
    jpeg = [0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
            12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
            35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
            58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63]
    assert make_zigzag(8).tolist() == jpeg


@pytest.mark.parametrize("side", [1, 2, 4, 7, 8])
def test_zigzag_is_a_bijection(side):
    perm = make_zigzag(side)
    assert sorted(perm.tolist()) == list(range(side * side))


def test_zigzag_round_trip_on_vectors():
    zz = make_zigzag(5)
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(25)
    scanned = vec[zz]
    restored = np.empty(25)
    restored[zz] = scanned
    assert np.array_equal(restored, vec)


def test_partition_blocks_row_major():
    r = Raster(np.arange(16.0).reshape(4, 4))
    blocks = partition_blocks(r, 2)
    assert blocks.shape == (4, 2, 2)
    assert np.array_equal(blocks[0], [[0, 1], [4, 5]])
    assert np.array_equal(blocks[1], [[2, 3], [6, 7]])


def test_partition_block_count_at_reference_size():
    # a 512x512 sub-image in 8x8 blocks yields 512^2/64 = 4096 of them
    blocks = partition_blocks(Raster(np.zeros((512, 512))), 8)
    assert blocks.shape[0] == 4096


def test_partition_assemble_round_trip():
    rng = np.random.default_rng(4)
    r = Raster(rng.uniform(0, 255, size=(12, 8)))
    back = assemble_blocks(partition_blocks(r, 4), 12, 8)
    assert np.array_equal(back.pixels, r.pixels)


def test_partition_blocks_copies_once_and_stays_writable():
    # one copy of the pixels, bitwise the swapped grid, writable also for a
    # raster one block wide, where the swapped view reshapes without a copy
    import tracemalloc
    r = Raster(np.arange(256.0 * 256).reshape(256, 256))
    tracemalloc.start()
    try:
        blocks = partition_blocks(r, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * r.pixels.nbytes
    grid = r.pixels.reshape(32, 8, 32, 8).swapaxes(1, 2)
    assert np.array_equal(blocks, grid.reshape(-1, 8, 8))
    narrow = Raster(np.arange(16.0).reshape(8, 2))
    for got in (blocks, partition_blocks(narrow, 2)):
        assert got.flags.writeable
        got[0, 0, 0] = -1.0
    assert narrow.pixels[0, 0] == 0.0


def test_partition_rejects_non_divisible():
    with pytest.raises(DimensionError):
        partition_blocks(Raster(np.zeros((10, 10))), 4)


@pytest.mark.parametrize("blocks, height, width, message", [
    (np.zeros((2, 2, 3)), 4, 4, r"blocks must have shape \(count, side, side\)"),
    (np.zeros((4, 4)), 4, 4, r"blocks must have shape \(count, side, side\)"),
    (np.zeros((3, 2, 2)), 4, 4, "3 blocks of side 2 do not tile 4x4"),
    (np.zeros((4, 2, 2)), 3, 4, "4 blocks of side 2 do not tile 3x4"),
], ids=["not-square", "not-a-stack", "too-few", "side-does-not-divide"])
def test_assemble_blocks_refuses_blocks_that_do_not_tile(blocks, height, width, message):
    with pytest.raises(DimensionError, match=message):
        assemble_blocks(blocks, height, width)


def test_zigzag_refuses_an_empty_grid():
    with pytest.raises(DimensionError, match="grid side must be at least 1, got 0"):
        make_zigzag(0)


def test_sparsify_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        block = rng.uniform(0, 255, size=(8, 8))
        back = desparsify(sparsify(block))
        assert np.abs(back - block).max() <= 1e-10


def test_sparsify_conserves_energy():
    rng = np.random.default_rng(6)
    for _ in range(20):
        block = rng.uniform(0, 255, size=(8, 8))
        s = sparsify(block)
        a, b = float((s ** 2).sum()), float((block ** 2).sum())
        assert abs(a - b) <= 1e-8 * b


def test_sparsify_rejects_wrong_shape():
    # the block side comes from the block's shape, so only a non-square
    # block, a flat vector or a block side below 2 is rejected
    for bad in (np.zeros((4, 5)), np.zeros(64), np.zeros((1, 1)), np.zeros((3, 1, 1))):
        with pytest.raises(DimensionError):
            sparsify(bad)
    # and desparsify rejects a coefficient count that fills no square block
    for bad in (np.zeros(63), np.zeros((3, 63)), np.zeros(1), np.float64(1.0)):
        with pytest.raises(DimensionError):
            desparsify(bad)


def test_stacked_blocks_match_row_by_row_calls():
    blocks = np.random.default_rng(7).uniform(0, 255, size=(5, 8, 8))
    stacked = sparsify(blocks)
    assert stacked.shape == (5, 64)
    rebuilt = desparsify(stacked)
    assert rebuilt.shape == (5, 8, 8)
    for i, block in enumerate(blocks):
        row = sparsify(block)
        np.testing.assert_allclose(stacked[i], row, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(rebuilt[i], desparsify(row),
                                   rtol=1e-13, atol=1e-12)
    with pytest.raises(DimensionError):
        sparsify(blocks[None])
    with pytest.raises(DimensionError):
        sparsify(np.zeros((5, 8, 4)))
    # a stack of 4 x 4 blocks is transformed with the side-4 matrix
    assert sparsify(np.zeros((5, 4, 4))).shape == (5, 16)


@pytest.mark.parametrize("side", [2, 3, 8])
def test_forward_matrix_is_the_scanned_basis_and_read_only(side):
    from sabmis.spectral import forward_matrix
    fwd = forward_matrix(side)
    assert np.array_equal(fwd, make_dct_basis(side)[:, make_zigzag(side)])
    block = np.random.default_rng(side).uniform(0, 255, size=(side, side))
    assert np.array_equal(sparsify(block), block.reshape(-1) @ fwd)
    assert np.array_equal(desparsify(fwd[0]), (fwd[0] @ fwd.T).reshape(side, side))
    for a in (fwd, make_dct_basis(side), make_zigzag(side)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
