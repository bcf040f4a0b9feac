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
    assert np.allclose(basis.matrix.T[0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_basis_orthonormality(side):
    m = make_dct_basis(side).matrix
    eye = np.eye(side * side)
    assert np.abs(m.T @ m - eye).max() <= 1e-12
    assert np.abs(m @ m.T - eye).max() <= 1e-12


def test_constant_block_is_pure_dc():
    basis, zz = make_dct_basis(8), make_zigzag(8)
    s = sparsify(np.full((8, 8), 100.0), basis, zz)
    assert s[0] == pytest.approx(800.0, abs=1e-10)
    assert np.abs(s[1:]).max() < 1e-10


def test_zigzag_3_matches_known_scan():
    assert make_zigzag(3).positions() == [
        (1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3)]


def test_zigzag_1():
    assert make_zigzag(1).positions() == [(1, 1)]


def test_zigzag_8_matches_jpeg_table():
    jpeg = [0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
            12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
            35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
            58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63]
    assert make_zigzag(8).perm.tolist() == jpeg


@pytest.mark.parametrize("side", [1, 2, 4, 7, 8])
def test_zigzag_is_a_bijection(side):
    perm = make_zigzag(side).perm
    assert sorted(perm.tolist()) == list(range(side * side))


def test_zigzag_round_trip_on_vectors():
    zz = make_zigzag(5)
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(25)
    scanned = vec[zz.perm]
    restored = np.empty(25)
    restored[zz.perm] = scanned
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


def test_sparsify_round_trip():
    basis, zz = make_dct_basis(8), make_zigzag(8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        block = rng.uniform(0, 255, size=(8, 8))
        back = desparsify(sparsify(block, basis, zz), basis, zz)
        assert np.abs(back - block).max() <= 1e-10


def test_sparsify_conserves_energy():
    basis, zz = make_dct_basis(8), make_zigzag(8)
    rng = np.random.default_rng(6)
    for _ in range(20):
        block = rng.uniform(0, 255, size=(8, 8))
        s = sparsify(block, basis, zz)
        a, b = float((s ** 2).sum()), float((block ** 2).sum())
        assert abs(a - b) <= 1e-8 * b


def test_sparsify_rejects_wrong_shape():
    basis, zz = make_dct_basis(8), make_zigzag(8)
    with pytest.raises(DimensionError):
        sparsify(np.zeros((4, 4)), basis, zz)


def test_stacked_blocks_match_row_by_row_calls():
    basis, zz = make_dct_basis(8), make_zigzag(8)
    blocks = np.random.default_rng(7).uniform(0, 255, size=(5, 8, 8))
    stacked = sparsify(blocks, basis, zz)
    assert stacked.shape == (5, 64)
    rebuilt = desparsify(stacked, basis, zz)
    assert rebuilt.shape == (5, 8, 8)
    for i, block in enumerate(blocks):
        row = sparsify(block, basis, zz)
        np.testing.assert_allclose(stacked[i], row, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(rebuilt[i], desparsify(row, basis, zz),
                                   rtol=1e-13, atol=1e-12)
    with pytest.raises(DimensionError):
        sparsify(blocks[None], basis, zz)
    with pytest.raises(DimensionError):
        sparsify(np.zeros((5, 4, 4)), basis, zz)
