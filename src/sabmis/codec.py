"""Embedding and extraction: the coefficient transplant rule and the
end-to-end hide/recover pipelines.

Secret block i pairs with block i of its cover sub-image, in row-major block
order. The per-block functions are the definitions. They take and return
plain float arrays: a spectrum of b^2 zig-zag DCT coefficients, or a
measurement vector of p1 + m values, both with the u-part as their first p1
entries; stacks of them run row by row along leading axes. `embed_rule`, then
`reconstruct_block`, is the paper's embed; no pipeline calls either.

The pipelines compute the same linear maps as products with per-key matrices
(`_key_factors`, one cache for both). They address an assigned sub-image's
blocks through one strided view of the full raster (`_carrier_rows`, built
from the parity view and block tiling that `subsample` and
`partition_blocks` use) and walk them in `_chunks`, band by band, so neither
splits a raster into sub-images or holds a sub-image's blocks as one array.
The stego is never quantized here; 8-bit export is a raster-module step.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Container, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError, ParamError, SolverError
from .measure import StegoKey, StegoParams, keyed_normals, make_key, measure
from .raster import Raster, _parity
from .solver import SolverResult, default_lambda, solve_lasso
from .spectral import (_tiles, assemble_blocks, desparsify, forward_matrix,
                       partition_blocks, sparsify)


@dataclass(frozen=True)
class SubImageStats:
    """One assigned sub-image of an embed: its `sub_index`. No l1 solve
    runs, so the solver figures `blocks`, `iterations_mean`,
    `iterations_max` and `unconverged` each read 0; `to_dict` keeps them
    only for readers of earlier reports.
    """

    sub_index: int

    def to_dict(self) -> dict:
        return {"sub_index": self.sub_index, "blocks": 0, "iterations_mean": 0.0,
                "iterations_max": 0, "unconverged": 0}


@dataclass(frozen=True)
class EmbedReport:
    """What an embed did: one `SubImageStats` per assigned sub-image, in
    assignment order, and `write_check`, the key's check of the write
    (`_write_check`): `identity_error`, max|change @ reads - I|, which
    bounds each block's miss on what the receiver reads, and `condition`,
    cond(reads). Both are per key, so every embed under one key reports the
    same check.
    """

    sub_images: tuple[SubImageStats, ...]
    write_check: Mapping[str, float]

    @property
    def capacity_bpp(self) -> int:
        """Nominal capacity in bits per cover pixel: 2 per embedded secret,
        an 8-bit image the size of one sub-image, a quarter of the cover."""
        return 2 * len(self.sub_images)

    def to_dict(self) -> dict:
        return {"capacity_bpp": self.capacity_bpp, "write_check": dict(self.write_check),
                "sub_images": [s.to_dict() for s in self.sub_images]}


def _check_rule_vector(y: np.ndarray, p: StegoParams) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1:] != (p.p1 + p.m,):
        raise DimensionError(f"measurement vectors of shape {y.shape} are not "
                             f"p1 + m = {p.p1 + p.m} long")
    return y


def _rule(p: StegoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transplant, coefficient by coefficient: for each k < p3, the
    0-based position in the (p1 + m)-long measurement vector that t[k] is
    written to, the donor position whose value it is added to, and its
    strength.

    Coefficient 0 goes to u-position p1-1 (alpha), 1..c-1 to p1-c .. p1-2
    (beta), c..p3-1 to measurement rows p3 .. 2*p3-c-1, at p1 + row (gamma);
    the donors are u-positions p1-2c-1 .. p1-c-1 and measurement rows
    c .. p3-1.
    """
    p1, p3, c = p.p1, p.p3, p.c
    k = np.arange(p3)
    low = k < c
    written = np.where(low, np.where(k == 0, p1 - 1, p1 - c - 1 + k), p1 + p3 - c + k)
    donor = np.where(low, p1 - 2 * c - 1 + k, p1 + k)
    strength = np.where(k == 0, p.alpha, np.where(low, p.beta, p.gamma))
    return written, donor, strength


def embed_rule(y: np.ndarray, t: np.ndarray, p: StegoParams) -> np.ndarray:
    """Transplant the first p3 entries of t into a copy of y (row by row for stacks).

    In 1-based positions: the first coefficient lands at p1 scaled by alpha,
    the next c-1 at p1-c+1 .. p1-1 scaled by beta, and the remaining p3-c at
    p1+p3+1 .. p1+2*p3-c scaled by gamma. Each written position takes the value
    of a donor position the rule never writes, plus the scaled coefficient.
    """
    y = _check_rule_vector(y, p)
    t = np.asarray(t, dtype=np.float64)
    if t.shape != y.shape[:-1] + (p.l * p.l,):
        raise DimensionError(f"secret coefficients must have shape {y.shape[:-1]} + "
                             f"(l^2={p.l * p.l},), got {t.shape}")
    written, donor, strength = _rule(p)
    out = y.copy()
    out[..., written] = y[..., donor] + strength * t[..., : p.p3]
    return out


def extract_rule(y2: np.ndarray, p: StegoParams) -> np.ndarray:
    """Recover the p3 embedded coefficients from measurements; the tail stays zero."""
    y2 = _check_rule_vector(y2, p)
    written, donor, strength = _rule(p)
    t = np.zeros(y2.shape[:-1] + (p.l * p.l,))
    t[..., : p.p3] = (y2[..., written] - y2[..., donor]) / strength
    return t


def rule_index_sets(p: StegoParams) -> tuple[set[int], set[int]]:
    """(written, donor) 1-based position sets touched by the transplant rule."""
    written, donor, _ = _rule(p)
    return set((written + 1).tolist()), set((donor + 1).tolist())


def reconstruct_block(y: np.ndarray, phi: np.ndarray,
                      p: StegoParams) -> tuple[np.ndarray, SolverResult]:
    """Rebuild a b x b pixel block, or a stack of blocks, from measurements
    taken with the (m, p2) matrix phi under the key's params p.

    The u-part, all but the last m entries of y, is copied verbatim into the
    spectrum; the v-part is recovered from those m measurements by the l1
    solver with a per-block scale-aware weight. After `embed_rule` this is
    the paper's embed, which the pipelines replace by a minimum-norm write
    (see the module notes). Returns the block(s) and the solver result.
    """
    y = np.asarray(y, dtype=np.float64)
    m, p2 = phi.shape
    split = y.shape[-1] - m
    if split < 1 or split + p2 != p.b ** 2:
        raise DimensionError(f"measurement vector length {y.shape[-1]} is not a u-part of "
                             f"{p.b ** 2 - p2} plus {m} measurements")
    yv = y[..., split:]
    result = solve_lasso(phi, yv, default_lambda(phi, yv))
    return desparsify(np.concatenate([y[..., :split], result.s], axis=-1)), result


def secret_to_coeffs(secret: Raster, p: StegoParams) -> np.ndarray:
    """Block-wise DCT of a secret raster, each block flattened in zig-zag
    order: a (count, l^2) array, one row per l x l block."""
    return sparsify(partition_blocks(secret, p.l))


def coeffs_to_raster(t: np.ndarray, p: StegoParams) -> Raster:
    """Inverse zig-zag plus block-wise inverse DCT of a (count, l^2) array;
    assembles the M x M raster."""
    return assemble_blocks(desparsify(t), p.M, p.M)


def _write_check(reads: np.ndarray, change: np.ndarray) -> Mapping[str, float]:
    """How exactly `change` undoes `reads`, as a read-only mapping:
    `identity_error`, max|change @ reads - I|, and `condition`, cond(reads).

    A block x written as x + (w - x @ reads) @ change reads w plus
    (w - x @ reads) @ (change @ reads - I): its miss is the gap the write
    closes times that identity's error, up to the products' own rounding,
    so checking each rebuilt block's miss would re-measure this one figure.
    """
    identity_error = np.abs(change @ reads - np.eye(reads.shape[1])).max()
    return MappingProxyType({"identity_error": float(identity_error),
                             "condition": float(np.linalg.cond(reads))})


def _key_factors(seed: int, p: StegoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     np.ndarray, Mapping[str, float]]:
    """Per-key (reads, payload, change, fold, write_check): the rule's three
    factors, the receiver's fold, for row-major b x b blocks and l x l
    secret blocks, and `_write_check` of the write they make.

    reads (b^2, p3): a block times it gives, for each k < p3, the value at
    the position `_rule` writes k to minus the value at its donor, read from
    the block's measurement vector; row i of `measure(forward_matrix(b), phi)`
    is the measurement vector of the unit block with pixel i set. The rule
    touches measurement rows c .. 2*p3-c-1 only, so phi here is
    `gen_matrix`'s first 2*p3 - c rows, drawn without the rest. payload
    (l^2, p3): a secret block times it is its first p3 coefficients times
    their strengths, what the rule writes into those gaps. change (p3, b^2)
    is pinv(reads): reads has full column rank p3 (`StegoParams`), so
    change @ reads is the identity, and row k is the smallest block change
    that moves the k-th read by one and every other read not at all.

    The embed is x += (z @ payload - x @ reads) @ change. The extract is one
    product with fold (b^2, l^2): reads / strength, then the l x l inverse
    transform of the first p3 coefficients. That is sparsify, the
    measurement rows the rule touches, `extract_rule` and `coeffs_to_raster`
    in one, since each step is linear. The write is checked here, once per
    key, rather than on every rebuilt block. Every array is read-only, and
    so is the check, since every caller under the key shares them.
    """
    # no factor depends on the secret count, so every count of one (seed,
    # params) shares one cache entry
    return _cached_key_factors(seed, replace(p, num_secrets=4))


@functools.lru_cache(maxsize=8)
def _cached_key_factors(seed: int, p: StegoParams) -> tuple:
    # `_key_factors` for the last few (seed, params), since `sabmis bench`
    # embeds many times with one key
    written, donor, strength = _rule(p)
    rows = 2 * p.p3 - p.c
    x = measure(forward_matrix(p.b), keyed_normals(seed, rows * p.p2).reshape(rows, p.p2))
    # C-ordered factors: OpenBLAS multiplies a chunk by one about 30% faster
    # than by the transposed view numpy passes for an F-ordered one (on one
    # AVX-512 core, per 16,384 rows of (., 64) @ (64, 32): 1.6 against
    # 2.3 ms). With the default b, l and p3 and at least 64 secret blocks
    # both layouts give the same bits on the SkylakeX, Haswell and
    # Sandybridge kernels; on shorter walks or other p3, SkylakeX's
    # small-matrix kernels can round the two differently, in the last bits
    reads = np.ascontiguousarray(x[:, written] - x[:, donor])
    payload = np.ascontiguousarray(forward_matrix(p.l)[:, : p.p3] * strength)
    change = np.linalg.pinv(reads)
    fold = (reads / strength) @ forward_matrix(p.l)[:, : p.p3].T
    out = (reads, payload, change, fold)
    for a in out:
        a.setflags(write=False)
    return (*out, _write_check(reads, change))


# blocks per chunk: three block rows of the default key's 64-block-wide
# grids. Then every chunk but the last, which takes the remainder, keeps both
# walks' products in OpenBLAS's small-matrix kernels, which take products of
# up to 100^3 multiply-adds: a 192-block chunk's fold product takes 786,432
# (per 16,384 rows of (., 64) @ (64, 64) on one AVX-512 core: 1.7 ms, against
# 2.2 ms as 256-row products, just past that bound), and the embed runs no
# slower than with 256-block chunks
_CHUNK_BLOCKS = 192


def _chunks(p: StegoParams) -> list[tuple[int, slice, slice]]:
    """The walk over a sub-image's first secret_blocks blocks, in chunks of
    about _CHUNK_BLOCKS blocks: (count, cover_rows, secret_rows) per chunk,
    its block count and the block rows that hold it in the cover sub-image's
    N/(2b)-wide block grid and in the secret's M/l-wide one. Each chunk
    starts on a whole block row of both grids and, but for the last chunk's
    cover rows, ends on one, so the secret rows hold exactly its blocks. The
    last chunk takes the remainder, so no chunk is shorter than the step
    unless all the blocks are."""
    g, gm = p.N // (2 * p.b), p.M // p.l
    row = math.lcm(g, gm)
    step = row * max(1, _CHUNK_BLOCKS // row)
    total = p.secret_blocks
    last = max(1, total // step) - 1
    walk = []
    for start in range(0, last * step + 1, step):
        stop = total if start == last * step else start + step
        walk.append((stop - start, slice(start // g, -(-stop // g)),
                     slice(start // gm, stop // gm)))
    return walk


def _carrier_rows(pixels: np.ndarray, k: int, p: StegoParams) -> np.ndarray:
    """The block rows of parity sub-image k that hold its first
    secret_blocks b x b blocks, as a (rows, N/(2b), b, b) block grid view
    of an N x N raster's pixels."""
    grid = _tiles(_parity(pixels, k), p.b)
    return grid[: -(-p.secret_blocks // grid.shape[1])]


def _check_side(image: Raster, side: int, name: str) -> None:
    """Refuse, as `name`, an image that is not side x side."""
    if image.pixels.shape != (side, side):
        raise DimensionError(
            f"{name} must be {side}x{side} per key, got {image.height}x{image.width}")


def _check_embed_inputs(cover: Raster, secrets: Sequence[Raster], p: StegoParams) -> None:
    _check_side(cover, p.N, "cover")
    if len(secrets) != p.num_secrets:
        raise ParamError(f"expected {p.num_secrets} secret images per key, got {len(secrets)}")
    for idx, s in enumerate(secrets, start=1):
        _check_side(s, p.M, f"secret {idx}")


def _embed_walk(cover: np.ndarray, jobs: Sequence[tuple[np.ndarray, Raster, int]],
                p: StegoParams, seed: int) -> Mapping[str, float]:
    """Embed each job's secret into parity sub-image k of the N x N cover
    pixels under one key's params and seed, and return the key's
    `_write_check`: the write is checked once per key, not per chunk. A job
    is (dest, secret, k): dest is a (rows, N/(2b), b, b) grid shaped like
    the sub-image's `_carrier_rows`, and the rebuilt block rows are
    assigned to it; the cover is only read. The walk runs over `_chunks`
    outside and the jobs inside, so each band of the cover is read once for
    every sub-image that shares it; that order moves no product's bits.
    With the chunk's cover blocks x and secret blocks z as rows, the first
    secret_blocks blocks become x + (z @ payload - x @ reads) @ change (`_key_factors`), rebuilt
    in a copy of the chunk's block rows that is then assigned whole, so
    blocks past the chunk in a partial last row go out as they were read.
    A NaN or infinite sample in those cover blocks or in the secret raises
    SolverError, naming the first sub-image found in walk order, since it
    would pass into the stego unnoticed; the destinations may then hold
    some rebuilt chunks."""
    reads, payload, change, _, write_check = _key_factors(seed, p)
    grids = [(_carrier_rows(cover, k, p), _tiles(secret.pixels, p.l)) for _, secret, k in jobs]
    # entered once for the walk: a non-finite update is refused right after it
    with np.errstate(invalid="ignore", over="ignore"):
        for count, cover_rows, secret_rows in _chunks(p):
            for (dest, _, k), (source, secret_grid) in zip(jobs, grids):
                # a copy, as a block's pixels lie two apart in the parity view
                rows = source[cover_rows].reshape(-1, p.b * p.b)
                blocks = rows[:count]
                wrote = secret_grid[secret_rows].reshape(count, -1) @ payload
                blocks += (wrote - blocks @ reads) @ change
                if not np.isfinite(blocks).all():
                    raise SolverError(
                        f"sub-image {k} of the cover or its secret holds non-finite samples")
                dest[cover_rows] = rows.reshape(-1, *dest.shape[1:])
    return write_check


def _new_stego(cover: np.ndarray, assigned: Container[int], p: StegoParams) -> np.ndarray:
    """An unfilled stego for the assigned parity sub-images: a new N x N
    array holding, bitwise, the cover pixels no embed writes, which are
    every unassigned sub-image whole and, in each assigned one, the pixel
    rows below its `_carrier_rows`. The carrier rows are left for the
    caller to assign; at paper scale they are the whole raster, and no
    cover pixel is copied."""
    out = np.empty_like(cover)
    carried = _carrier_rows(cover, 1, p).shape[0] * p.b
    for k in range(1, 5):
        start = carried if k in assigned else 0
        _parity(out, k)[start:] = _parity(cover, k)[start:]
    return out


def _stego(cover: Raster, p: StegoParams, pairs: Mapping[tuple[int, int], np.ndarray]) -> Raster:
    """Stego of one secret subset: `_new_stego` with each sub-image k's
    `_carrier_rows` assigned whole from `pairs[k, i]`, their copy rebuilt
    with secret i (`_subset_pairs`).

    The stego adopts that array rather than copying it again, so no second
    full-size array is made.
    """
    out = _new_stego(cover.pixels, {k for k, _ in pairs}, p)
    for (k, _), rows in pairs.items():
        _carrier_rows(out, k, p)[...] = rows
    return Raster._adopt(out)


def embed_images(cover: Raster, secrets: Sequence[Raster],
                 key: StegoKey) -> tuple[Raster, EmbedReport]:
    """Hide 1..4 secret rasters inside a cover raster: the float stego and
    its `EmbedReport`.

    Each assigned sub-image's first secret_blocks blocks move by the
    smallest change after which they read, through `extract_rule`, what
    `embed_rule` writes from the secret, on the u-part and the measurement
    rows alike (`_key_factors`, `_embed_walk`); on the u-part that change
    splits each low gap between the written position and its donor. The
    paper's l1 rebuild, `reconstruct_block(embed_rule(measure(...)))`, keeps
    `embed_rule`'s u-part instead and loses the measurement rows' reads.
    Every other pixel is the cover's, bitwise (`_new_stego`). When several
    sub-images hold non-finite samples, the SolverError names the first one
    in walk order: the earliest chunk, then assignment order within it.
    """
    p = key.params
    _check_embed_inputs(cover, secrets, p)
    out = _new_stego(cover.pixels, key.assignment, p)
    jobs = [(_carrier_rows(out, k, p), secret, k) for secret, k in zip(secrets, key.assignment)]
    write_check = _embed_walk(cover.pixels, jobs, p, key.seed)
    return Raster._adopt(out), EmbedReport(tuple(map(SubImageStats, key.assignment)), write_check)


def _subset_pairs(cover: Raster, secrets: Sequence[Raster], key: StegoKey
                  ) -> Iterator[tuple[tuple[int, ...], StegoKey,
                                      dict[tuple[int, int], np.ndarray], EmbedReport]]:
    """The subset sweep without the stegos: yields (combo, key_k, pairs,
    report) in `embed_subsets` order. pairs is what `_stego` takes: it maps
    each (sub-image k, secret index i) that the subset embeds, in key_k's
    assignment order, to k's `_carrier_rows` rebuilt with secrets[i];
    report is the subset's `EmbedReport`, with the walk's one `_write_check`.

    The full count's assignment, order, is derived once: `derive_assignment`
    draws each count's assignment as a prefix of the next, so count k
    assigns order[:k], and gives order[j] only secrets i >= j. One walk
    embeds all those pairs, each into new carrier rows, before the first
    subset, and the subsets look them up, yielding the same arrays wherever
    a pair recurs. Outside its pairs' carrier rows a subset's stego is the
    cover, bitwise, and no two of its pairs share a sub-image, so the
    stego's squared error against the cover, 8-bit or not, is the sum of
    its pairs' own: `sabmis bench` scores each pair once and every subset
    from those sums, building only the full count's stego."""
    full = replace(key.params, num_secrets=len(secrets))  # ParamError beyond 1..4
    _check_embed_inputs(cover, secrets, full)
    shape = _carrier_rows(cover.pixels, 1, full).shape
    order = make_key(key.seed, full).assignment
    used = [(k, i) for j, k in enumerate(order) for i in range(j, len(secrets))]
    jobs = [(np.empty(shape), secrets[i], k) for k, i in used]
    write_check = _embed_walk(cover.pixels, jobs, full, key.seed)
    done = {pair: rows for pair, (rows, *_) in zip(used, jobs)}
    for count in range(1, len(secrets) + 1):
        key_k = StegoKey(key.seed, replace(full, num_secrets=count), order[:count])
        report = EmbedReport(tuple(map(SubImageStats, key_k.assignment)), write_check)
        for combo in itertools.combinations(range(len(secrets)), count):
            yield combo, key_k, {(k, i): done[k, i] for i, k in zip(combo, order)}, report


def embed_subsets(cover: Raster, secrets: Sequence[Raster], key: StegoKey
                  ) -> Iterator[tuple[tuple[int, ...], StegoKey, Raster, EmbedReport]]:
    """Embed every nonempty subset of 1..4 secrets into one cover.

    Yields (combo, key_k, stego, report) for k = 1 .. len(secrets), in
    `itertools.combinations` order per k. key_k is the seed's key with
    num_secrets = k, and stego and report are bitwise what
    `embed_images(cover, [secrets[i] for i in combo], key_k)` returns. The
    key's own num_secrets and assignment are not read. Each (sub-image,
    secret) pair is embedded once per call, and its rebuilt carrier rows go
    into every subset's stego that assigns it: S secrets take S(S+1)/2
    sub-image embeds in one walk before the first subset, so a non-finite
    sample in a secret or in an assigned sub-image's carrier rows raises
    SolverError, naming the first in walk order, before any subset is yielded.
    """
    for combo, key_k, pairs, report in _subset_pairs(cover, secrets, key):
        yield combo, key_k, _stego(cover, key.params, pairs), report


def extract_images(stego: Raster, key: StegoKey) -> list[Raster]:
    """Recover the embedded secrets from a stego raster and the key alone.

    Extraction never sees the cover. Every step of it is linear in the stego
    pixels: re-sparsifying an assigned sub-image's blocks, recomputing the
    measurement rows the rule touches with the regenerated matrix, the
    inverse transplant rule and the secret's inverse DCT. So each secret is
    the product of the sub-image's first secret_blocks blocks with the
    per-key fold (`_key_factors`), walked in `_chunks` as the embed walks
    them, each chunk's rows assigned into the secret's l x l blocks.
    Coefficients beyond p3 stay zero, so extracted secrets are low-pass
    approximations. The secrets' grids are views of one buffer, which lives
    as long as any of them.

    A finite stego whose samples are near the float limit can overflow the
    product. Where `embed_images` refuses a non-finite rebuilt block, this
    returns such an extraction as it is, non-finite samples and numpy's
    overflow RuntimeWarning included; `sabmis extract` refuses it.
    """
    p = key.params
    _check_side(stego, p.N, "stego")
    *_, fold, _ = _key_factors(key.seed, p)
    # one buffer for all the secrets: glibc's malloc raises its mmap
    # threshold to the largest mapped block it frees, so a later extract
    # reuses this block's pages, where a block per secret was mapped and
    # page-faulted afresh on every call (2,144 minor faults at 1024²)
    secrets = np.empty((len(key.assignment), p.M, p.M))
    grids = [(_carrier_rows(stego.pixels, k, p), _tiles(secret, p.l))
             for secret, k in zip(secrets, key.assignment)]
    walk = _chunks(p)
    rows = np.empty((max(count for count, *_ in walk), fold.shape[1]))
    for count, cover_rows, secret_rows in walk:
        out = rows[:count]
        for grid, secret_grid in grids:
            np.matmul(grid[cover_rows].reshape(-1, p.b * p.b)[:count], fold, out=out)
            secret_grid[secret_rows] = out.reshape(-1, *secret_grid.shape[1:])
    return [Raster._adopt(secret) for secret in secrets]
