import hashlib

import numpy as np
import pytest

from sabmis import (DimensionError, ParamError, Raster, SolverError,
                    StegoParams, cover_raster, embed_images, embed_rule,
                    embed_subsets, extract_images, extract_rule, gen_matrix,
                    make_key, measure, ncc, quantize_u8,
                    reconstruct_block, rule_index_sets,
                    secret_raster, secret_to_coeffs, sparsify, subsample)

from reference import min_norm_write

# smallest parameter set matching the worked trace (p1=8, p3=4, c=2) on which
# the embed can write its p3 - c = 2 measurement rows: that takes p2 >= 2,
# so b = 4, p2 = 8 and m = 9 > p2, and measurement vectors are 17 long
TRACE = StegoParams(N=16, M=4, b=4, l=2, p1=8, p2=8, p3=4, m=9,
                    alpha=1.0, beta=1.0, gamma=1.0, c=2, num_secrets=1)

SMALL = StegoParams(N=128, M=64, num_secrets=1)


def test_embed_rule_hand_trace():
    y = np.arange(1.0, 18.0)
    t = np.array([100.0, 200.0, 300.0, 400.0])
    out = embed_rule(y, t, TRACE)
    expected = [1, 2, 3, 4, 5, 6, 205, 104, 9, 10, 11, 12, 311, 412, 15, 16, 17]
    assert np.array_equal(out, expected)


def test_embed_rule_zero_payload_copies_donors():
    y = np.arange(1.0, 18.0)
    out = embed_rule(y, np.zeros(4), TRACE)
    p1, p3, c = TRACE.p1, TRACE.p3, TRACE.c
    assert out[p1 - 1] == y[p1 - 2 * c - 1]
    assert np.array_equal(out[p1 - c: p1 - 1], y[p1 - 2 * c: p1 - c - 1])
    assert np.array_equal(out[p1 + p3: p1 + 2 * p3 - c], y[p1 + c: p1 + p3])


def test_embed_rule_leaves_other_positions_unchanged():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(17)
    out = embed_rule(y, rng.standard_normal(4), TRACE)
    written, _ = rule_index_sets(TRACE)
    untouched = [i for i in range(17) if i + 1 not in written]
    assert np.array_equal(out[untouched], y[untouched])


def test_extract_rule_inverts_hand_trace():
    y2 = np.array([1, 2, 3, 4, 5, 6, 205, 104, 9, 10, 11, 12, 311, 412, 15, 16, 17.0])
    t = extract_rule(y2, TRACE)
    assert np.array_equal(t, [100.0, 200.0, 300.0, 400.0])


def test_extract_rule_zero_input_gives_zero_output():
    t = extract_rule(np.zeros(17), TRACE)
    assert np.all(t == 0)


def test_extract_rule_rejects_zero_strengths():
    # extract_rule divides by the strengths, so params holding a zero one
    # are refused when they are made, before any rule can run on them
    from dataclasses import replace
    with pytest.raises(ParamError, match="alpha must be finite and nonzero"):
        replace(TRACE, alpha=0.0)


def test_rules_invert_on_random_pairs():
    rng = np.random.default_rng(1)
    p = StegoParams()  # reference parameters
    for _ in range(50):
        y = rng.standard_normal(p.p1 + p.m)
        t = rng.standard_normal(p.l * p.l)
        got = extract_rule(embed_rule(y, t, p), p)
        assert np.allclose(got[: p.p3], t[: p.p3], rtol=1e-12, atol=1e-12)
        assert np.all(got[p.p3:] == 0)


@pytest.mark.parametrize("c", [6, 8])
def test_rule_writes_and_donors_are_disjoint(c):
    p = StegoParams(c=c)
    written, donors = rule_index_sets(p)
    assert len(written) == p.p3
    assert not written & donors
    assert all(1 <= i <= p.p1 + p.m for i in written | donors)


def test_rule_index_arrays_repeat_and_match_the_rule_sets():
    from sabmis import codec
    p = StegoParams(c=6)
    first = codec._rule(p)
    again = codec._rule(StegoParams(c=6))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    written, donor, _ = first
    assert (set((written + 1).tolist()), set((donor + 1).tolist())) == rule_index_sets(p)


def test_reconstruct_block_round_trip_on_smooth_blocks():
    p = SMALL
    key = make_key(5, p)
    phi = gen_matrix(key)
    rng = np.random.default_rng(2)
    for _ in range(10):
        # low-frequency content plus a vanishing high-frequency tail
        coeffs = np.zeros(64)
        coeffs[: p.p1] = rng.uniform(-40, 40, p.p1) / (1 + np.arange(p.p1))
        coeffs[p.p1:] = rng.standard_normal(p.p2) * 1e-9
        from sabmis import desparsify
        block = desparsify(coeffs)
        y = measure(sparsify(block), phi)
        rebuilt, result = reconstruct_block(y, phi, p)
        assert result.converged
        assert np.abs(rebuilt - block).max() <= 1e-6


def test_reconstruct_block_zero_tail_stays_zero():
    p = SMALL
    key = make_key(6, p)
    phi = gen_matrix(key)
    coeffs = np.zeros(64)
    coeffs[: p.p1] = np.linspace(50, 1, p.p1)
    from sabmis import desparsify
    block = desparsify(coeffs)
    y = measure(sparsify(block), phi)
    rebuilt, _ = reconstruct_block(y, phi, p)
    tail = sparsify(rebuilt)[p.p1:]
    assert np.abs(tail).max() <= 1e-8


def test_reconstruct_block_copies_u_channel_verbatim():
    p = SMALL
    key = make_key(7, p)
    phi = gen_matrix(key)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(p.p1 + p.m)
    rebuilt, result = reconstruct_block(y, phi, p)
    # the u-part of the rebuilt block's spectrum is y_u up to the exact
    # orthonormal round trip
    coeffs = sparsify(rebuilt)
    assert np.allclose(coeffs[: p.p1], y[: p.p1], rtol=0, atol=1e-10)
    # the split is y's length less phi's m rows; the u-part and p2 must fill b^2
    for bad in (y[1:], y[p.p1:]):
        with pytest.raises(DimensionError, match="u-part"):
            reconstruct_block(bad, phi, p)


def test_embed_leaves_unassigned_sub_images_untouched():
    key = make_key(9, SMALL)
    cover = cover_raster(SMALL.N, 21)
    secret = secret_raster(SMALL.M, 22)
    stego, report = embed_images(cover, [secret], key)
    assert report.capacity_bpp == 2
    before = subsample(cover)
    after = subsample(stego)
    assigned = set(key.assignment)
    for k in range(1, 5):
        same = np.array_equal(after[k - 1].pixels, before[k - 1].pixels)
        assert same == (k not in assigned)
    # 25 secret blocks fill three block rows and one block of an 8-block-wide
    # sub-image: every pixel outside them passes through bitwise
    from sabmis import inverse_subsample
    p = StegoParams(N=128, M=40, num_secrets=2)
    key = make_key(9, p)
    cover = cover_raster(p.N, 21)
    secrets = [secret_raster(p.M, 22 + i) for i in range(2)]
    g = p.N // 2 // p.b
    carried = np.zeros((p.N // 2, p.N // 2))
    for i in range(p.secret_blocks):
        row, col = divmod(i, g)
        carried[row * p.b : (row + 1) * p.b, col * p.b : (col + 1) * p.b] = 1.0
    empty = np.zeros_like(carried)
    stegos = [(key, embed_images(cover, secrets, key)[0])]
    stegos += [(key_k, stego) for _, key_k, stego, _ in embed_subsets(cover, secrets, key)]
    assert len(stegos) == 4
    for key_k, stego in stegos:
        subs = [carried if k in key_k.assignment else empty for k in range(1, 5)]
        touched = inverse_subsample([Raster(m) for m in subs]).pixels == 1.0
        assert np.array_equal(stego.pixels[~touched], cover.pixels[~touched])
        assert not np.array_equal(stego.pixels[touched], cover.pixels[touched])


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("N, M", [(128, 40), (1024, 480)], ids=["m40", "m480"])
def test_embed_passes_every_other_pixel_through_bitwise(N, M, count):
    # the stego starts unfilled, so a region the embed forgot would hold
    # garbage, not the cover: every pixel outside the rebuilt blocks must be
    # the cover's bit for bit, non-finite ones too. M=40 ends one block into
    # the fourth of a sub-image's eight block rows, and M=480 leaves 56 of
    # 512 pixel rows past its 57 carrier rows, the last one partial
    from sabmis import inverse_subsample
    p = StegoParams(N=N, M=M, num_secrets=count)
    key = make_key(9, p)
    secrets = [secret_raster(M, 22 + i) for i in range(count)]
    g = p.N // 2 // p.b
    carried = np.zeros((p.N // 2, p.N // 2), dtype=bool)
    for i in range(p.secret_blocks):
        row, col = divmod(i, g)
        carried[row * p.b : (row + 1) * p.b, col * p.b : (col + 1) * p.b] = True
    rows = -(-p.secret_blocks // g) * p.b
    pixels = cover_raster(p.N, 21).pixels.copy()
    for k in range(1, 5):
        sub = pixels[(k - 1) % 2 :: 2, (k - 1) // 2 :: 2]
        if k in key.assignment:
            sub[rows, -1] = np.nan  # past the carrier rows
            sub[rows - 1, -1] = -np.inf  # past the last rebuilt block in its row
        else:
            sub[0, 0], sub[-1, -1] = np.nan, np.inf
    cover = Raster(pixels)
    stegos = [(key, embed_images(cover, secrets, key)[0])]
    stegos += [(key_k, stego) for _, key_k, stego, _ in embed_subsets(cover, secrets, key)]
    for key_k, stego in stegos:
        subs = [carried if k in key_k.assignment else np.zeros_like(carried)
                for k in range(1, 5)]
        touched = inverse_subsample([Raster(m.astype(float)) for m in subs]).pixels == 1.0
        assert stego.pixels[~touched].tobytes() == cover.pixels[~touched].tobytes()
        assert np.isfinite(stego.pixels[touched]).all()


def test_embed_capacity_scales_with_secret_count():
    p = StegoParams(N=128, M=64, num_secrets=4)
    key = make_key(10, p)
    cover = cover_raster(p.N, 23)
    secrets = [secret_raster(p.M, 30 + i) for i in range(4)]
    _, report = embed_images(cover, secrets, key)
    assert report.capacity_bpp == 8
    assert len(report.sub_images) == 4
    assert sorted(s.sub_index for s in report.sub_images) == [1, 2, 3, 4]


@pytest.mark.parametrize("count", [4, 3])
def test_embed_subsets_matches_embed_images_and_embeds_each_pair_once(monkeypatch, count):
    # every subset equals a standalone embed under its count's key, and each
    # (sub-image, secret) pair is embedded once: count*(count+1)/2 in all
    from importlib import import_module
    from itertools import combinations

    from sabmis import codec
    measure = import_module("sabmis.measure")  # the package's `measure` is the function
    key = make_key(13, StegoParams(N=128, M=64))
    cover = cover_raster(128, 26)
    secrets = [secret_raster(64, 40 + i) for i in range(count)]
    walks, derived = [], []
    original = codec._embed_walk
    monkeypatch.setattr(codec, "_embed_walk",
                        lambda *a: walks.append(a[:2]) or original(*a))
    derive = measure.derive_assignment
    monkeypatch.setattr(measure, "derive_assignment",
                        lambda *a: derived.append(a) or derive(*a))
    swept = list(embed_subsets(cover, secrets, key))
    # the sweep derives the full count's assignment once and cuts each
    # count's key from it
    assert derived == [(13, count)]
    # one walk, with the pairs (order[j], secret i) for i >= j, order being
    # the full count's assignment, none into the cover's own rows
    order = make_key(13, StegoParams(N=128, M=64, num_secrets=count)).assignment
    [(pixels, jobs)] = walks
    assert pixels is cover.pixels
    assert [(k, id(secret)) for _, secret, k in jobs] == [
        (order[j], id(secrets[i])) for j in range(count) for i in range(j, count)]
    assert not any(np.shares_memory(rows, cover.pixels) for rows, *_ in jobs)
    assert [combo for combo, *_ in swept] == [
        c for k in range(1, count + 1) for c in combinations(range(count), k)]
    for combo, key_k, stego, report in swept:
        ref_key = make_key(13, StegoParams(N=128, M=64, num_secrets=len(combo)))
        ref_stego, ref_report = embed_images(cover, [secrets[i] for i in combo], ref_key)
        assert key_k == ref_key
        assert np.array_equal(stego.pixels, ref_stego.pixels)
        assert report.to_dict() == ref_report.to_dict()


def test_embed_subsets_refuses_a_non_finite_secret_before_its_first_subset():
    # the one walk embeds every pair, so a NaN in the last secret, or in the
    # carrier rows of the sub-image only two-secret subsets use, stops the
    # sweep before the first one-secret subset is yielded
    key = make_key(13, StegoParams(N=128, M=64))
    cover = cover_raster(128, 26)
    secrets = [secret_raster(64, 40 + i) for i in range(4)]
    pixels = secrets[3].pixels.copy()
    pixels[5, 9] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        next(embed_subsets(cover, secrets[:3] + [Raster(pixels)], key))
    # pixel (3, 5) of sub-image k, which keeps every second pixel from
    # ((k-1) % 2, (k-1) // 2) on
    k = key.assignment[1]
    pixels = cover.pixels.copy()
    pixels[6 + (k - 1) % 2, 10 + (k - 1) // 2] = np.nan
    with pytest.raises(SolverError, match=f"sub-image {k} "):
        next(embed_subsets(Raster(pixels), secrets, key))


def test_embed_validates_sizes_and_counts():
    key = make_key(11, SMALL)
    cover = cover_raster(SMALL.N, 24)
    secret = secret_raster(SMALL.M, 25)
    with pytest.raises(DimensionError, match="128"):
        embed_images(cover_raster(64, 1), [secret], key)
    with pytest.raises(ParamError, match="secret"):
        embed_images(cover, [secret, secret], key)
    with pytest.raises(DimensionError, match="secret 1"):
        embed_images(cover, [secret_raster(32, 1)], key)


def test_extract_validates_size():
    key = make_key(12, SMALL)
    with pytest.raises(DimensionError, match="128"):
        extract_images(cover_raster(64, 2), key)


@pytest.mark.parametrize("strength", ["alpha", "beta", "gamma"])
def test_extract_rejects_zero_strengths(strength):
    # the receiver's per-key fold divides by the strengths, so no key can
    # hold a zero one: the params refuse it when they are made (a key file
    # holding one is refused on reading, see test_cli)
    from dataclasses import replace
    for zero in (0.0, -0.0):
        with pytest.raises(ParamError, match=f"{strength} must be finite and nonzero"):
            replace(SMALL, **{strength: zero})


@pytest.mark.parametrize("p", [TRACE, SMALL, StegoParams(N=128, M=40, num_secrets=1),
                               StegoParams(N=512, M=160, num_secrets=1)],
                         ids=["trace", "small", "m40-partial-row", "m160-two-chunks"])
def test_block_gather_matches_partition_blocks(p, monkeypatch):
    # each chunk's block rows, as `_chunks` gives them, over a cover
    # sub-image's b x b carrier rows and a secret's l x l grid (the trace key
    # has l != b), at several chunk lengths: M=40 walks one chunk that ends
    # inside a block row (25 blocks of an 8-block-wide grid), and M=160 at
    # N=512 two chunks at 64, 192 and 256, the last ending inside one (400 of
    # 32 a row)
    import tracemalloc

    from sabmis import assemble_blocks, codec, inverse_subsample, partition_blocks

    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def assembled(base, k, blocks, side):
        # the raster whose sub-image k (or, for k = 0, whose own grid) has these blocks
        sub = subsample(base)[k - 1] if k else base
        back = assemble_blocks(blocks, sub.height, sub.width)
        if not k:
            return back.pixels
        subs = list(subsample(base))
        subs[k - 1] = back
        return inverse_subsample(subs).pixels

    r, secret = cover_raster(p.N, 3), secret_raster(p.M, 4)
    secret_ref = partition_blocks(secret, p.l)
    for chunk_blocks in (1, 64, 192, 256, 512):
        monkeypatch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
        walk = codec._chunks(p)
        starts = np.cumsum([0] + [count for count, *_ in walk])
        for k in range(1, 5):
            ref = partition_blocks(subsample(r)[k - 1], p.b)
            # the last chunk's cover rows end where the carrier rows do
            assert walk[-1][1].stop == codec._carrier_rows(r.pixels, k, p).shape[0]
            for start, (count, cover_rows, _) in zip(starts, walk):
                grid = codec._carrier_rows(r.pixels, k, p)
                rows, peak = traced(lambda: grid[cover_rows].reshape(-1, p.b * p.b))
                assert np.array_equal(rows[:count], ref[start:start + count].reshape(count, -1))
                assert not np.shares_memory(rows, r.pixels)
                # one copy, of the whole block rows that hold the chunk; the
                # slack is the array objects' own few hundred bytes
                assert rows.shape[0] < count + grid.shape[1]
                assert peak < 1.5 * rows.nbytes + 1024
                # the pipeline's write-back: the rebuilt first count rows and
                # the rest of the last block row as they were read go back
                # whole, so exactly the chunk's blocks change
                out = r.pixels.copy()
                grid = codec._carrier_rows(out, k, p)
                assert np.shares_memory(grid, out)  # a copy would drop the writes
                rows = grid[cover_rows].reshape(-1, p.b * p.b)
                grid[cover_rows] = rows.reshape(-1, *grid.shape[1:])
                assert np.array_equal(out, r.pixels)
                rows[:count] += 1
                grid[cover_rows] = rows.reshape(-1, *grid.shape[1:])
                blocks = ref.copy()
                blocks[start:start + count] += 1
                expected = assembled(r, k, blocks, p.b)
                assert np.array_equal(out != r.pixels, expected != r.pixels)
                assert np.array_equal(out, expected)
        for start, (count, _, secret_rows) in zip(starts, walk):
            # the secret rows hold exactly the chunk's secret blocks, and the
            # extract's write changes exactly their pixels
            grid = codec._tiles(secret.pixels, p.l)
            rows, peak = traced(lambda: grid[secret_rows].reshape(count, -1))
            assert np.array_equal(rows, secret_ref[start:start + count].reshape(count, -1))
            assert peak < 1.5 * rows.nbytes + 1024
            out = secret.pixels.copy()
            grid = codec._tiles(out, p.l)
            grid[secret_rows] = (rows + 1).reshape(-1, *grid.shape[1:])
            blocks = secret_ref.copy()
            blocks[start:start + count] += 1
            expected = assembled(secret, 0, blocks, p.l)
            assert np.array_equal(out != secret.pixels, expected != secret.pixels)
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("p", [TRACE, SMALL, StegoParams(N=128, M=40), StegoParams(N=128, M=48),
                               StegoParams(N=256, M=120), StegoParams(N=512, M=144),
                               StegoParams()],
                         ids=["trace", "small", "m40", "m48", "m120", "m144", "default"])
@pytest.mark.parametrize("chunk_blocks", [1, 64, 192, 256, 512])
def test_chunks_walk_whole_block_rows_of_both_grids(p, chunk_blocks, monkeypatch):
    # the walk covers the first secret_blocks blocks once, in order, and each
    # chunk starts on a block row of the cover sub-image's grid and of the
    # secret's, whatever the chunk length, and holds exactly its blocks'
    # rows of both. The last chunk takes the remainder: products much
    # shorter than the whole can move the last bits, and M=144 at N=512
    # would leave 36 of 324 blocks to a last chunk
    import math

    from sabmis import codec
    monkeypatch.setattr(codec, "_CHUNK_BLOCKS", chunk_blocks)
    g, gm = p.N // (2 * p.b), p.M // p.l
    walk = codec._chunks(p)
    counts = [count for count, *_ in walk]
    assert all(count > 0 for count in counts) and sum(counts) == p.secret_blocks
    start = 0
    for count, cover_rows, secret_rows in walk:
        assert start % g == 0 and start % gm == 0
        assert (cover_rows.start, cover_rows.stop, cover_rows.step) == (
            start // g, -(-(start + count) // g), None)
        assert (secret_rows.start, secret_rows.stop, secret_rows.step) == (
            start // gm, (start + count) // gm, None)
        assert (start + count) % gm == 0  # the secret rows hold exactly the chunk
        start += count
    step = max(chunk_blocks // math.lcm(g, gm), 1) * math.lcm(g, gm)
    assert all(count == step for count in counts[:-1])
    assert min(step, p.secret_blocks) <= counts[-1] < 2 * step
    assert walk[-1][1].stop == -(-p.secret_blocks // g)


def test_the_paper_key_walks_three_block_rows_a_chunk():
    # both grids are 64 blocks wide, so a chunk is three block rows, and the
    # last takes the remainder: 20 chunks of 192 blocks and one of 256
    from sabmis import codec
    walk = codec._chunks(StegoParams())
    assert [count for count, *_ in walk] == [192] * 20 + [256]
    assert [(cover_rows.start, cover_rows.stop) for _, cover_rows, _ in walk] == [
        (3 * i, 3 * i + 3) for i in range(20)] + [(60, 64)]
    assert all(cover_rows == secret_rows for _, cover_rows, secret_rows in walk)


def test_extractor_is_kept_per_key_and_read_only():
    # one per-key cache serves both pipelines: the rule's factors for the
    # embed and the receiver's fold for the extract, each C-ordered, which
    # OpenBLAS multiplies faster than the transposed view
    from dataclasses import replace

    from sabmis import codec
    key = make_key(18, SMALL)
    equal_params = StegoParams(N=128, M=64, num_secrets=1)
    b2, l2, p3 = SMALL.b ** 2, SMALL.l ** 2, SMALL.p3
    cover, secret = cover_raster(SMALL.N, 40), secret_raster(SMALL.M, 41)
    first = codec._key_factors(key.seed, SMALL)
    *arrays, check = first
    assert [a.shape for a in arrays] == [(b2, p3), (l2, p3), (p3, b2), (b2, l2)]
    assert codec._key_factors(18, equal_params) is first
    # the seed, m and the p1/p2 split each get factors of their own
    others = [codec._key_factors(19, SMALL), codec._key_factors(18, replace(SMALL, m=160)),
              codec._key_factors(18, replace(SMALL, p1=40, p2=24))]
    assert all(other is not first for other in others)
    assert len({id(o) for o in others}) == len(others)
    for a in arrays:
        assert a.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    # every report under the key carries the one check, so no caller may edit it
    with pytest.raises(TypeError):
        check["identity_error"] = 0.0
    # an extract after an embed under the same key builds nothing
    codec._cached_key_factors.cache_clear()
    embed_images(cover, [secret], key)
    extract_images(cover, key)
    info = codec._cached_key_factors.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _runs_with_fortran_factors(p, monkeypatch):
    # an embed and an extract with the per-key factors as they are, then
    # with F-ordered copies of them, which numpy hands OpenBLAS transposed
    from sabmis import codec
    key = make_key(3, p)
    cover = cover_raster(p.N, 41)
    secrets = [secret_raster(p.M, 50 + i) for i in range(p.num_secrets)]

    def run():
        stego, report = embed_images(cover, secrets, key)
        return stego, report, extract_images(stego, key)

    real = run()
    original = codec._key_factors

    def fortran_factors(seed, q):
        *arrays, check = original(seed, q)
        return (*(np.asfortranarray(a) for a in arrays), check)

    monkeypatch.setattr(codec, "_key_factors", fortran_factors)
    return real, run()


def test_factor_layout_keeps_the_bits_of_the_default_block_size_and_p3(monkeypatch):
    # with b = l = 8 and p3 = 32, OpenBLAS's SkylakeX, Haswell and
    # Sandybridge kernels give the same bits whichever order the factors
    # are in, so the float outputs do not depend on the layout
    (stego, report, secrets), (f_stego, f_report, f_secrets) = \
        _runs_with_fortran_factors(StegoParams(N=256, M=128), monkeypatch)
    assert stego.pixels.tobytes() == f_stego.pixels.tobytes()
    assert report.to_dict() == f_report.to_dict()
    for got, want in zip(f_secrets, secrets, strict=True):
        assert got.pixels.tobytes() == want.pixels.tobytes()


def test_factor_layout_moves_at_most_the_last_bits_of_a_short_walk(monkeypatch):
    # M = 40 gives 25 secret blocks, one chunk of 25 rows. Under SkylakeX
    # kernels, products that short take a small-matrix kernel whose sums
    # run in another order for transposed and C-ordered operands, so the
    # float stego and the secrets may differ by rounding;
    # no 8-bit pixel may
    (stego, _, secrets), (f_stego, _, f_secrets) = \
        _runs_with_fortran_factors(StegoParams(N=128, M=40), monkeypatch)
    assert np.array_equal(quantize_u8(stego).pixels, quantize_u8(f_stego).pixels)
    for got, want in zip(f_secrets, secrets, strict=True):
        assert np.array_equal(quantize_u8(got).pixels, quantize_u8(want).pixels)


PREFIX_KEYS = [(0xC0FFEE, StegoParams()), (3, StegoParams(N=256, M=128)),
               (11, StegoParams(p1=16, p2=48, m=49, c=6, p3=24)),
               (12, StegoParams(c=6)), (13, StegoParams(p3=8)),
               (2 ** 64 - 1, StegoParams(p3=40)), (14, StegoParams(m=33, p3=20)),
               (15, StegoParams(p1=33, p2=31, c=7))]  # an odd count of draws


@pytest.mark.parametrize("seed, p", PREFIX_KEYS,
                         ids=["default", "n256", "near-square", "c6", "p3-8", "max-seed",
                              "m33", "odd-draws"])
def test_key_factors_equal_those_of_the_full_matrix(seed, p):
    # the factors draw only phi's first 2 p3 - c rows, the last the rule
    # touches; built from the whole of gen_matrix they are bitwise the same
    from sabmis import codec
    from sabmis.spectral import forward_matrix
    written, donor, strength = codec._rule(p)
    x = measure(forward_matrix(p.b), gen_matrix(make_key(seed, p)))
    reads = x[:, written] - x[:, donor]
    secret = forward_matrix(p.l)[:, : p.p3]
    full = (reads, secret * strength, np.linalg.pinv(reads),
            (reads / strength) @ secret.T)
    for got, want in zip(codec._key_factors(seed, p)[:4], full, strict=True):
        assert got.tobytes() == want.tobytes()


def test_factorization_is_kept_per_key(monkeypatch):
    # the one factorization, the pseudo-inverse of the rule's (b^2, p3)
    # reads, is taken once per key and reused by every later embed and
    # extract under it
    from dataclasses import replace

    from sabmis import codec
    key = make_key(18, SMALL)
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a.shape) or pinv(a))
    codec._cached_key_factors.cache_clear()
    cover, secret = cover_raster(SMALL.N, 38), secret_raster(SMALL.M, 39)
    first, _ = embed_images(cover, [secret], key)
    extract_images(first, key)
    again, _ = embed_images(cover, [secret], key)
    assert calls == [(SMALL.b ** 2, SMALL.p3)]
    np.testing.assert_array_equal(again.pixels, first.pixels)
    # the seed, m and the p1/p2 split each factorize on their own
    for seed, p in [(19, SMALL), (18, replace(SMALL, m=160)),
                    (18, replace(SMALL, p1=40, p2=24))]:
        codec._key_factors(seed, p)
    assert calls[1:] == [(SMALL.b ** 2, SMALL.p3)] * 3

def test_round_trip_recovers_secret():
    key = make_key(13, SMALL)
    cover = cover_raster(SMALL.N, 26)
    secret = secret_raster(SMALL.M, 27)
    stego, _ = embed_images(cover, [secret], key)
    recovered = extract_images(stego, key)[0]
    assert recovered.pixels.shape == (SMALL.M, SMALL.M)
    assert ncc(quantize_u8(secret), quantize_u8(recovered)) >= 0.99


def test_constant_secret_extracts_within_one_gray_level():
    from sabmis import block_sparse_raster, textured_raster
    key = make_key(14, SMALL)
    # extraction noise scales with the cover's coefficient tail, so use a
    # cover from the scheme's ideal signal class (zero measurement tail)
    cover = block_sparse_raster(textured_raster(SMALL.N, 28, smoothness=16, octaves=1))
    secret = Raster(np.full((SMALL.M, SMALL.M), 77.0))
    stego, _ = embed_images(cover, [secret], key)
    recovered = extract_images(stego, key)[0]
    assert np.abs(recovered.pixels - 77.0).max() <= 1.0


def test_wrong_seed_extracts_garbage():
    # seeds chosen so the derived single-secret assignments differ
    from sabmis import derive_assignment
    key = make_key(3, SMALL)
    wrong = make_key(2, SMALL)
    assert derive_assignment(3, 1) != derive_assignment(2, 1)
    cover = cover_raster(SMALL.N, 29)
    secret = secret_raster(SMALL.M, 31)
    stego, _ = embed_images(cover, [secret], key)
    garbled = extract_images(stego, wrong)[0]
    assert ncc(quantize_u8(secret), quantize_u8(garbled)) < 0.5


def test_wrong_seed_with_the_same_assignment_still_recovers_the_secret():
    # a known weakness: the verbatim channel that carries the DC and low
    # coefficients never touches the keyed matrix, so a wrong seed that derives
    # the same assignment (1 seed in 4 with one secret) reads the payload; with
    # four secrets any wrong seed reads them all, in another order (next
    # test); it closes once that channel is keyed too
    from sabmis import derive_assignment
    assert derive_assignment(68, 4) == derive_assignment(0xC0FFEE, 4) == (3, 2, 4, 1)
    key, wrong = make_key(3, SMALL), make_key(11, SMALL)
    assert wrong.assignment == key.assignment
    assert np.mean(gen_matrix(key) != gen_matrix(wrong)) > 0.99
    cover = cover_raster(SMALL.N, 29)
    secret = secret_raster(SMALL.M, 31)
    stego, _ = embed_images(cover, [secret], key)
    recovered = extract_images(stego, wrong)[0]
    assert ncc(quantize_u8(secret), quantize_u8(recovered)) >= 0.99


def test_wrong_seed_with_another_assignment_reads_every_secret_of_a_full_key():
    # a known weakness: with four secrets every sub-image carries one, so a
    # wrong seed's assignment only reorders them, and each extracted image is
    # the secret in the sub-image it read, short of the mid coefficients that
    # phi keys; it closes once the verbatim channel is keyed too
    from sabmis import compare
    key = make_key(13, StegoParams(N=128, M=64))
    cover = cover_raster(128, 26)
    secrets = [secret_raster(64, 40 + i) for i in range(4)]
    stego, _ = embed_images(cover, secrets, key)
    for seed in (1, 2, 3, 4):
        wrong = make_key(seed, key.params)
        assert wrong.assignment != key.assignment
        for k, extracted in zip(wrong.assignment, extract_images(stego, wrong)):
            report = compare(secrets[key.assignment.index(k)], extracted)
            assert report.ncc >= 0.99 and report.psnr_db >= 40.0


def test_key_with_p3_equal_to_c_round_trips(tmp_path):
    # p3 = c writes no payload into the measured channel, so the embed has
    # no measurement row to write; its write still undoes the p3 reads
    from sabmis import read_key, write_key
    p = StegoParams(N=128, M=64, p3=8, c=8, num_secrets=1)
    key = make_key(5, p)
    write_key(key, tmp_path / "k.skey")
    assert read_key(tmp_path / "k.skey") == key
    written, _ = rule_index_sets(p)
    assert max(written) == p.p1 and len(written) == p.c
    secret = secret_raster(p.M, 37)
    stego, report = embed_images(cover_raster(p.N, 38), [secret], key)
    assert report.write_check["identity_error"] <= 1e-12
    recovered = extract_images(stego, key)[0]
    assert ncc(quantize_u8(secret), quantize_u8(recovered)) >= 0.99


def test_payload_channels_at_default_parameters():
    # float path: the alpha (DC) and beta (low) channels ride on the verbatim
    # part and the gamma (mid) channel on the measurement rows the embed
    # writes exactly, so all three come back to rounding
    p = StegoParams()
    key = make_key(0xC0FFEE, p)
    cover = quantize_u8(cover_raster(p.N, 1101))
    secrets = [quantize_u8(secret_raster(p.M, s)) for s in (2201, 2202, 2203, 2204)]
    stego, _ = embed_images(cover, secrets, key)
    channels = {"alpha": slice(0, 1), "beta": slice(1, p.c), "gamma": slice(p.c, p.p3)}
    for secret, recovered in zip(secrets, extract_images(stego, key)):
        sent = secret_to_coeffs(secret, p)
        got = secret_to_coeffs(recovered, p)
        rel = {name: np.linalg.norm(got[:, c] - sent[:, c]) / np.linalg.norm(sent[:, c])
               for name, c in channels.items()}
        assert rel["alpha"] < 1e-9 and rel["beta"] < 1e-9 and rel["gamma"] < 1e-9


# keys for the per-block references: the defaults at N=128, a key whose rule
# writes no measurement (p3 = c), one that moves the touched rows, and one
# whose 25 secret blocks end one block into the fourth row of an 8-block grid
REFERENCE_PARAMS = [SMALL, StegoParams(N=128, M=64, p3=8, c=8, num_secrets=1),
                    StegoParams(N=128, M=64, c=4, p3=20, m=64, num_secrets=1),
                    StegoParams(N=128, M=40, num_secrets=1)]
REFERENCE_IDS = ["small", "p3-equals-c", "c4-p3-20-m64", "m40-partial-row"]


@pytest.mark.parametrize("p", REFERENCE_PARAMS, ids=REFERENCE_IDS)
def test_embed_matches_per_block_reference(p):
    # the minimum-norm write of one block at a time, built from the public
    # per-block definitions of what the receiver reads, against the
    # pipeline's rule factors applied to the whole sub-image
    from sabmis import desparsify, partition_blocks
    key = make_key(15, p)
    cover = cover_raster(p.N, 32)
    secret = secret_raster(p.M, 33)
    phi = gen_matrix(key)
    payload = secret_to_coeffs(secret, p)
    k = key.assignment[0]
    cover_blocks = partition_blocks(subsample(cover)[k - 1], p.b)

    def read(s):
        return extract_rule(measure(s, phi), p)[: p.p3]

    ref_blocks = [desparsify(min_norm_write(sparsify(block), t[: p.p3], read))
                  for block, t in zip(cover_blocks, payload)]
    stego, report = embed_images(cover, [secret], key)
    got = partition_blocks(subsample(stego)[k - 1], p.b)[: len(ref_blocks)]
    assert np.abs(got - np.stack(ref_blocks)).max() <= 1e-9
    assert report.write_check["identity_error"] <= 1e-12


@pytest.mark.parametrize("p", REFERENCE_PARAMS + [StegoParams()],
                         ids=REFERENCE_IDS + ["default"])
def test_rule_change_undoes_its_reads(p):
    # row k of change moves the k-th gap the rule reads by exactly one and
    # every other gap not at all, which is what makes the embed's write exact;
    # reads @ change is then a projector, and its symmetry makes change the
    # Moore-Penrose inverse of reads, so each row is the smallest such change.
    # The key's write check reads that identity's error and cond(reads)
    from sabmis import codec
    reads, _, change, _, check = codec._key_factors(5, p)
    assert np.abs(change @ reads - np.eye(p.p3)).max() <= 1e-12
    projector = reads @ change
    assert np.abs(projector - projector.T).max() <= 1e-12
    assert check["identity_error"] == np.abs(change @ reads - np.eye(p.p3)).max()
    assert check["identity_error"] <= 1e-12
    singular = np.linalg.svd(reads, compute_uv=False)
    assert check["condition"] == pytest.approx(singular[0] / singular[-1], rel=1e-12)


def test_write_check_runs_once_per_key():
    # the check is built with the key's factors, on a cache miss only: two
    # embeds and a whole subset sweep under one key miss once, and every
    # report carries that one check
    from sabmis import codec
    key = make_key(13, StegoParams(N=128, M=64))
    cover = cover_raster(128, 26)
    secrets = [secret_raster(64, 40 + i) for i in range(4)]
    codec._cached_key_factors.cache_clear()
    reports = [embed_images(cover, secrets, key)[1] for _ in range(2)]
    reports += [report for *_, report in embed_subsets(cover, secrets, key)]
    assert codec._cached_key_factors.cache_info().misses == 1
    assert len(reports) == 2 + 15
    check = codec._key_factors(key.seed, key.params)[-1]
    assert all(report.write_check is check for report in reports)


def test_secret_counts_of_one_seed_share_the_key_factors():
    # no factor depends on num_secrets, so embeds and extracts of 1 to 4
    # secrets under one seed and otherwise equal params build them once
    from sabmis import codec
    cover = cover_raster(128, 26)
    secrets = [secret_raster(64, 40 + i) for i in range(4)]
    codec._cached_key_factors.cache_clear()
    for count in range(1, 5):
        key = make_key(3, StegoParams(N=128, M=64, num_secrets=count))
        stego, _ = embed_images(cover, secrets[:count], key)
        extract_images(stego, key)
    assert codec._cached_key_factors.cache_info().misses == 1


def test_paper_l1_embed_loses_the_mid_payload():
    # the paper's embed, block by block on a small key: embed_rule, then the
    # l1 rebuild. It keeps the carrier's u-part, so the alpha (DC) and beta
    # (low) coefficients return from it, as they do from the pipeline's
    # write. The solve projects the written measurement rows onto the range
    # of phi, so its gamma (mid) coefficients do not return; the pipeline's do
    from sabmis import partition_blocks
    p = SMALL
    key = make_key(15, p)
    cover, secret = cover_raster(p.N, 32), secret_raster(p.M, 33)
    phi = gen_matrix(key)
    payload = secret_to_coeffs(secret, p)
    k = key.assignment[0]
    blocks = partition_blocks(subsample(cover)[k - 1], p.b)[: len(payload)]
    carrier = embed_rule(measure(sparsify(blocks), phi), payload, p)
    l1_blocks, result = reconstruct_block(carrier, phi, p)
    assert result.converged.all()
    stego, _ = embed_images(cover, [secret], key)
    written = partition_blocks(subsample(stego)[k - 1], p.b)[: len(payload)]
    l1_spec, written_spec = sparsify(l1_blocks), sparsify(written)
    low, mid = slice(0, p.c), slice(p.c, p.p3)
    rel = {}
    for name, spec in (("l1", l1_spec), ("write", written_spec)):
        got = extract_rule(measure(spec, phi), p)
        rel[name] = [np.linalg.norm(got[:, c] - payload[:, c]) / np.linalg.norm(payload[:, c])
                     for c in (low, mid)]
    assert rel["l1"][0] < 1e-9 and rel["write"][0] < 1e-9
    assert rel["l1"][1] > 1.0 and rel["write"][1] < 1e-9


@pytest.mark.parametrize("p", REFERENCE_PARAMS + [TRACE], ids=REFERENCE_IDS + ["trace"])
def test_extract_matches_per_block_reference(p):
    # extract_rule on the full measurement vector of each block, against the
    # pipeline's one product per block with the folded per-key matrix; the
    # trace key has l != b. The two sum in different orders, and the DC
    # channel divides the last-bit difference by alpha = 0.01; that reaches
    # about 4e-12 px, so the bound is 1e-12 / alpha
    from sabmis import coeffs_to_raster, partition_blocks
    key = make_key(16, p)
    stego, _ = embed_images(cover_raster(p.N, 34), [secret_raster(p.M, 35)], key)
    phi = gen_matrix(key)
    blocks = partition_blocks(subsample(stego)[key.assignment[0] - 1], p.b)
    rows = [extract_rule(measure(sparsify(block), phi), p)
            for block in blocks[: p.secret_blocks]]
    ref = coeffs_to_raster(np.stack(rows), p)
    got = extract_images(stego, key)[0]
    assert np.abs(got.pixels - ref.pixels).max() <= 1e-12 / p.alpha


def _whole_array_embed(cover, secrets, key):
    # the embed's formula on each assigned sub-image's blocks at once, built
    # from the public layout helpers: the stego and each sub-image's largest
    # miss on its written measurement rows
    from sabmis import assemble_blocks, codec, inverse_subsample, partition_blocks
    p = key.params
    reads, payload, change, *_ = codec._key_factors(key.seed, p)
    subs, residuals = list(subsample(cover)), []
    for secret, k in zip(secrets, key.assignment):
        blocks = partition_blocks(subs[k - 1], p.b)
        x = blocks.reshape(-1, p.b * p.b)[: p.secret_blocks]
        wrote = partition_blocks(secret, p.l).reshape(-1, p.l * p.l) @ payload
        x += (wrote - x @ reads) @ change
        residuals.append(np.abs(x @ reads[:, p.c :] - wrote[:, p.c :]).max(initial=0.0))
        subs[k - 1] = assemble_blocks(blocks, subs[k - 1].height, subs[k - 1].width)
    return inverse_subsample(subs), residuals


def _whole_array_extract(stego, key):
    from sabmis import assemble_blocks, codec, partition_blocks
    p = key.params
    *_, fold, _ = codec._key_factors(key.seed, p)
    out = []
    for k in key.assignment:
        x = partition_blocks(subsample(stego)[k - 1], p.b).reshape(-1, p.b * p.b)
        rows = x[: p.secret_blocks] @ fold
        out.append(assemble_blocks(rows.reshape(-1, p.l, p.l), p.M, p.M))
    return out


@pytest.mark.parametrize("p", REFERENCE_PARAMS + [TRACE, StegoParams(),
                                                  StegoParams(N=1024, M=480, num_secrets=1)],
                         ids=REFERENCE_IDS + ["trace", "default", "m480-partial-last-row"])
def test_chunked_pipelines_match_the_whole_array_formula(p):
    # the default key at N=1024 walks 21 chunks per sub-image, and M=480
    # three, the last ending 16 blocks into a block row, so the blocks past
    # it go back as they were read; each chunk
    # runs the same products on fewer rows, so the floats agree to rounding
    # (no bits are pinned: they depend on the BLAS kernel a product runs)
    key = make_key(19, p)
    cover = cover_raster(p.N, 42)
    secrets = [secret_raster(p.M, 43 + i) for i in range(p.num_secrets)]
    stego, report = embed_images(cover, secrets, key)
    ref, residuals = _whole_array_embed(cover, secrets, key)
    assert np.abs(stego.pixels - ref.pixels).max() <= 1e-12
    assert np.array_equal(quantize_u8(stego).pixels, quantize_u8(ref).pixels)
    assert [stats.sub_index for stats in report.sub_images] == list(key.assignment)
    assert all(residual <= 1e-9 for residual in residuals)
    assert report.write_check["identity_error"] <= 1e-12
    for got, want in zip(extract_images(stego, key), _whole_array_extract(stego, key),
                         strict=True):
        assert np.abs(got.pixels - want.pixels).max() <= 1e-12
        assert np.array_equal(quantize_u8(got).pixels, quantize_u8(want).pixels)


def _traced_peak(run):
    import tracemalloc
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_working_set_stays_bounded(paper_setup):
    # the stego is the one full-size array (8 MiB), and no copy of the cover
    # precedes it; the band-by-band walk adds a few 128 KiB chunk arrays,
    # where whole sub-image block copies and their products took 8 MiB more
    from sabmis import codec
    key, (cover, _), secrets = paper_setup
    codec._key_factors(key.seed, key.params)  # the per-key factors are not the embed's
    peak = _traced_peak(lambda: embed_images(cover, secrets, key))
    assert peak < 8 * 2**20 + 2 * 2**20


def test_extract_working_set_stays_bounded(paper_setup):
    # the four secrets take 8 MiB; each chunk's rows go straight into them
    from sabmis import codec
    key, (cover, _), secrets = paper_setup
    codec._key_factors(key.seed, key.params)
    peak = _traced_peak(lambda: extract_images(cover, key))
    assert peak < 8 * 2**20 + 2**20


@pytest.mark.parametrize("p", REFERENCE_PARAMS[1:] + [StegoParams(N=128, M=64, num_secrets=2)],
                         ids=REFERENCE_IDS[1:] + ["two-secrets"])
def test_embed_write_residual_on_keys_with_other_written_rows(p, monkeypatch):
    # the write's residual, max |A s' - gamma t_mid| over a sub-image's
    # rebuilt blocks, recomputed from each stego block's own measurement
    # vector, also where the written rows move and with a second sub-image:
    # rounding-sized on the write, beside the key's rounding-sized write
    # check, and 0.0 when no row is written (p3 = c). A write that makes
    # half the rule's change misses by more than 1, and its check reads 0.5
    from sabmis import codec, partition_blocks
    key = make_key(17, p)
    cover = cover_raster(p.N, 36)
    secrets = [secret_raster(p.M, 37 + i) for i in range(p.num_secrets)]
    phi = gen_matrix(key)

    def misses(stego):
        out = []
        for secret, k in zip(secrets, key.assignment):
            payload = secret_to_coeffs(secret, p)
            blocks = partition_blocks(subsample(stego)[k - 1], p.b)[: len(payload)]
            read = extract_rule(measure(sparsify(blocks), phi), p)
            out.append(p.gamma * np.abs(read - payload)[:, p.c : p.p3].max(initial=0.0))
        return out

    stego, report = embed_images(cover, secrets, key)
    assert [s.sub_index for s in report.sub_images] == list(key.assignment)
    assert report.write_check["identity_error"] <= 1e-12
    for miss in misses(stego):
        assert miss <= 1e-9
        assert (miss == 0.0) == (p.p3 == p.c)
    original = codec._key_factors

    def half_write(seed, q):
        reads, payload, change, fold, _ = original(seed, q)
        return reads, payload, 0.5 * change, fold, codec._write_check(reads, 0.5 * change)

    monkeypatch.setattr(codec, "_key_factors", half_write)
    stego, report = embed_images(cover, secrets, key)
    for miss in misses(stego):
        assert (miss > 1.0) == (p.p3 > p.c)
    assert report.write_check["identity_error"] == pytest.approx(0.5, rel=1e-12)


def test_embed_refuses_non_finite_samples_it_rebuilds():
    # with no solve to stop it, a NaN or infinite sample in an assigned
    # sub-image's carrier blocks or in a secret would pass into the stego
    from sabmis import codec
    key = make_key(3, SMALL)
    k = key.assignment[0]
    cover, secret = cover_raster(SMALL.N, 29), secret_raster(SMALL.M, 31)
    bad_cover = cover.pixels.copy()
    bad_cover[(k - 1) % 2, (k - 1) // 2] = np.inf  # the sub-image's first pixel
    bad_secret = secret.pixels.copy()
    bad_secret[-1, -1] = np.nan
    for bad_pair in ((Raster(bad_cover), secret), (cover, Raster(bad_secret))):
        with pytest.raises(SolverError, match="non-finite"):
            embed_images(bad_pair[0], [bad_pair[1]], key)
    # every (chunk, sub-image) is checked: N=512/M=160 walks two chunks, and
    # a bad sample in the last assigned sub-image's last rebuilt block, or in
    # its secret's last pixel, is refused in that sub-image's name
    p = StegoParams(N=512, M=160)
    key = make_key(3, p)
    assert len(codec._chunks(p)) == 2
    cover = cover_raster(p.N, 29)
    secrets = [secret_raster(p.M, 31 + i) for i in range(p.num_secrets)]

    def bad_block(pixels, k, block):
        # the first pixel of sub-image k's given b x b block
        row, col = divmod(block, p.N // (2 * p.b))
        pixels[(k - 1) % 2 + 2 * p.b * row, (k - 1) // 2 + 2 * p.b * col] = np.nan

    first, last = key.assignment[0], key.assignment[-1]
    bad_cover = cover.pixels.copy()
    bad_block(bad_cover, last, p.secret_blocks - 1)
    bad_secret = secrets[-1].pixels.copy()
    bad_secret[-1, -1] = np.inf
    for bad_pair in ((Raster(bad_cover), secrets), (cover, secrets[:-1] + [Raster(bad_secret)])):
        with pytest.raises(SolverError, match=f"sub-image {last} of the cover"):
            embed_images(*bad_pair, key)
    # the walk goes band first: a bad sample in the first sub-image's last
    # chunk is found after one in the last sub-image's first chunk
    bad_cover[:] = cover.pixels
    bad_block(bad_cover, first, p.secret_blocks - 1)
    bad_block(bad_cover, last, 0)
    with pytest.raises(SolverError, match=f"sub-image {last} of the cover"):
        embed_images(Raster(bad_cover), secrets, key)


def test_embed_path_is_frozen():
    # frozen 8-bit stego digest of one N=256 embed: a change to the write
    # that moves any pixel across a rounding boundary fails here; the digest
    # of the 8-bit secrets extracted from its stego freezes the receiver's
    # fold too
    p = StegoParams(N=256, M=128)
    key = make_key(3, p)
    cover = cover_raster(p.N, 41)
    secrets = [secret_raster(p.M, 50 + i) for i in range(p.num_secrets)]
    stego, report = embed_images(cover, secrets, key)
    assert [stats.sub_index for stats in report.sub_images] == [2, 4, 3, 1]
    assert report.write_check["identity_error"] <= 1e-12
    u8 = quantize_u8(stego).pixels.astype(np.uint8).tobytes()
    assert hashlib.sha256(u8).hexdigest() == \
        "386f532259003355eea6e128b1f3d9ccb78d6e0af074c160baa9705c45926d06"
    extracted = b"".join(quantize_u8(e).pixels.astype(np.uint8).tobytes()
                         for e in extract_images(stego, key))
    assert hashlib.sha256(extracted).hexdigest() == \
        "51683ede7d22c76a55e97587a73cccee0ebcac557ef2efd3417058d4c3697954"


def test_rules_on_a_stack_match_row_by_row_calls():
    rng = np.random.default_rng(4)
    p = StegoParams()
    y = rng.standard_normal((7, p.p1 + p.m))
    t = rng.standard_normal((7, p.l * p.l))
    stacked = embed_rule(y, t, p)
    recovered = extract_rule(stacked, p)
    assert stacked.shape == y.shape and recovered.shape == t.shape
    for i in range(7):
        row = embed_rule(y[i], t[i], p)
        assert np.array_equal(stacked[i], row)
        assert np.array_equal(recovered[i], extract_rule(row, p))
    with pytest.raises(DimensionError, match="shape"):
        embed_rule(y, t[:6], p)
    # a vector or a stack must be p1 + m long
    for bad, payload in ((y[0, 1:], t[0]), (y[:, 1:], t), (y[:, : p.p1], t)):
        with pytest.raises(DimensionError, match=r"p1 \+ m"):
            embed_rule(bad, payload, p)
        with pytest.raises(DimensionError, match=r"p1 \+ m"):
            extract_rule(bad, p)


def test_secret_coeffs_round_trip():
    from sabmis import coeffs_to_raster
    p = SMALL
    secret = secret_raster(p.M, 34)
    coeffs = secret_to_coeffs(secret, p)
    assert coeffs.shape == (p.secret_blocks, p.l * p.l)
    back = coeffs_to_raster(coeffs, p)
    assert np.abs(back.pixels - secret.pixels).max() <= 1e-9

