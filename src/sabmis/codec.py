"""Embedding and extraction: the coefficient transplant rule and the
end-to-end hide/recover pipelines.

Secret block i always pairs with cover block i in row-major block order.
The per-block functions are the definitions. They take and return plain
float arrays: a spectrum of b^2 zig-zag DCT coefficients, or a measurement
vector of p1 + m values, both with the u-part as their first p1 entries;
stacks of them run row by row along leading axes. `_rule` gives the
transplant's positions in the measurement vector, and both pipelines read it
there.

The paper rebuilds each carrier block from its measurement vector by l1
recovery: `embed_rule`, then `reconstruct_block`. That solve projects the
written measurement rows onto the p2-dimensional range of phi, so the mid
(gamma) coefficients do not come back. The embed pipeline writes them
exactly instead. A block's u-part takes the rule's c changes, as in the
paper. Its v-part s_v moves by the smallest d after which every measurement
row the rule writes reads what the rule put there: with A = phi_W - phi_D,
the gap between the p3 - c written rows and their donors, d = A^+ (gamma
t_mid - A s_v). `StegoParams` refuses p3 - c > p2, so such a d exists for
every valid key. The stego raster is never quantized inside the pipeline;
8-bit export is an explicit step in the raster module.

Both pipelines address an assigned parity sub-image's b x b blocks through
one strided view of the full raster: `_gather_blocks` copies its first
secret_blocks blocks out as (count, b^2) rows, and `_scatter_blocks` writes
such rows back. Neither pipeline splits the raster into sub-image rasters;
`subsample`, `partition_blocks` and the spectral round trip remain the
definitions the gather and the per-block functions are checked against.
The embed rebuilds the gathered blocks and scatters them into one copy of
the cover, so everything else passes through bitwise.

Every step of both pipelines is linear, and one per-key cache,
`_key_factors`, serves both. The sender applies the rule's three factors as
they are: what the rule reads from a block, what it writes from a secret
block, and the smallest block change per written position or gap. The
receiver's whole extraction is folded into one matrix.

The rebuilt blocks of a sub-image depend only on the cover, its secret and
the key's matrix, and each secret count's assignment is a prefix of the
next, so `embed_subsets` sweeps every secret subset of a cover reusing them:
S secrets take S(S+1)/2 sub-image embeds instead of S*2^(S-1).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, ParamError, SolverError
from .measure import StegoKey, StegoParams, gen_matrix, make_key, measure
from .raster import Raster
from .solver import LassoProblem, SolverResult, default_lambda, solve_lasso
from .spectral import (assemble_blocks, desparsify, forward_matrix, partition_blocks,
                       sparsify)


@dataclass(frozen=True)
class SubImageStats:
    """What the embed did to one assigned sub-image.

    `write_residual` is max |A s' - gamma t_mid| over its rebuilt blocks:
    how far the measurement rows the rule writes read from what it wrote,
    rounding-sized (0.0 when p3 = c writes none). No l1 solve runs, so the
    report's solver figures `blocks`, `iterations_mean`, `iterations_max`
    and `unconverged` each read 0.
    """

    sub_index: int
    write_residual: float

    def to_dict(self) -> dict:
        return {"sub_index": self.sub_index, "write_residual": self.write_residual,
                "blocks": 0, "iterations_mean": 0.0, "iterations_max": 0,
                "unconverged": 0}


@dataclass(frozen=True)
class EmbedReport:
    capacity_bpp: int
    sub_images: tuple[SubImageStats, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.capacity_bpp not in (2, 4, 6, 8):
            raise ParamError(f"capacity must be 2, 4, 6 or 8 bpp, got {self.capacity_bpp}")

    def to_dict(self) -> dict:
        return {"capacity_bpp": self.capacity_bpp,
                "sub_images": [s.to_dict() for s in self.sub_images]}


def _check_rule_vector(y: np.ndarray, p: StegoParams) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1:] != (p.p1 + p.m,):
        raise DimensionError(f"measurement vectors of shape {y.shape} are not "
                             f"p1 + m = {p.p1 + p.m} long")
    return y


@functools.lru_cache(maxsize=8)
def _rule(p: StegoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transplant, coefficient by coefficient: for each k < p3, the
    0-based position in the (p1 + m)-long measurement vector that t[k] is
    written to, the donor position whose value it is added to, and its
    strength.

    Coefficient 0 goes to u-position p1-1 (alpha), 1..c-1 to p1-c .. p1-2
    (beta), c..p3-1 to measurement rows p3 .. 2*p3-c-1, at p1 + row (gamma);
    the donors are u-positions p1-2c-1 .. p1-c-1 and measurement rows
    c .. p3-1. Kept for the last few params; the arrays are read-only.
    """
    p1, p3, c = p.p1, p.p3, p.c
    k = np.arange(p3)
    low = k < c
    written = np.where(low, np.where(k == 0, p1 - 1, p1 - c - 1 + k), p1 + p3 - c + k)
    donor = np.where(low, p1 - 2 * c - 1 + k, p1 + k)
    strength = np.where(k == 0, p.alpha, np.where(low, p.beta, p.gamma))
    for a in (written, donor, strength):
        a.setflags(write=False)
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
    the paper's embed, which the pipelines replace by an exact write (see
    the module notes). Returns the block(s) and the solver result.
    """
    y = np.asarray(y, dtype=np.float64)
    m, p2 = phi.shape
    split = y.shape[-1] - m
    if split < 1 or split + p2 != p.b ** 2:
        raise DimensionError(f"measurement vector length {y.shape[-1]} is not a u-part of "
                             f"{p.b ** 2 - p2} plus {m} measurements")
    yv = y[..., split:]
    result = solve_lasso(LassoProblem(phi, yv, default_lambda(phi, yv)))
    return desparsify(np.concatenate([y[..., :split], result.s], axis=-1)), result


def secret_to_coeffs(secret: Raster, p: StegoParams) -> np.ndarray:
    """Block-wise DCT of a secret raster, each block flattened in zig-zag
    order: a (count, l^2) array, one row per l x l block."""
    return sparsify(partition_blocks(secret, p.l))


def coeffs_to_raster(t: np.ndarray, p: StegoParams) -> Raster:
    """Inverse zig-zag plus block-wise inverse DCT of a (count, l^2) array;
    assembles the M x M raster."""
    return assemble_blocks(desparsify(t), p.M, p.M)


@functools.lru_cache(maxsize=8)
def _key_factors(seed: int, p: StegoParams
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-key (reads, payload, change, fold): the rule's three factors and
    the receiver's fold, for row-major b x b blocks and l x l secret blocks.

    reads (b^2, p3): a block times it gives, for each k < p3, the value at
    the position `_rule` writes k to minus the value at its donor, read from
    the block's measurement vector; row i of `measure(forward_matrix(b), phi)`
    is the measurement vector of the unit block with pixel i set. payload
    (l^2, p3): a secret block times it is its first p3 coefficients times
    their strengths, what the rule writes into those gaps. change (p3, b^2):
    row k is the block change that moves written u-position k by one (k < c),
    or the smallest one that moves the gap A s_v of written row k by one (row
    k - c of pinv(A).T, in pixels), so change @ reads is the identity.

    The embed is x += (z @ payload - x @ reads) @ change. The extract is one
    product with fold (b^2, l^2): reads / strength, then the l x l inverse
    transform of the first p3 coefficients. That is sparsify, the
    measurement rows the rule touches, `extract_rule` and `coeffs_to_raster`
    in one, since each step is linear. Kept for the last few (seed, params),
    since `sabmis bench` embeds many times with one key; every array is
    read-only.
    """
    phi = gen_matrix(make_key(seed, p))
    fwd = forward_matrix(p.b)
    written, donor, strength = _rule(p)
    x = measure(fwd, phi)
    reads = x[:, written] - x[:, donor]
    payload = forward_matrix(p.l)[:, : p.p3] * strength
    gap = phi[written[p.c :] - p.p1] - phi[donor[p.c :] - p.p1]  # A, (p3 - c, p2)
    change = np.concatenate([fwd[:, written[: p.c]].T,
                             np.linalg.pinv(gap).T @ fwd[:, p.p1 :].T])
    fold = (reads / strength) @ forward_matrix(p.l)[:, : p.p3].T
    out = (reads, payload, change, fold)
    for a in out:
        a.setflags(write=False)
    return out


def _block_grid(pixels: np.ndarray, b: int, k: int) -> np.ndarray:
    """Parity sub-image k of an N x N raster as a strided (g, g, b, b) view of
    its b x b blocks: block row, block column, pixel row, pixel column."""
    g = pixels.shape[0] // (2 * b)
    grid = pixels.reshape(g, b, 2, g, b, 2)[:, :, (k - 1) % 2, :, :, (k - 1) // 2]
    return grid.transpose(0, 2, 1, 3)


def _gather_blocks(pixels: np.ndarray, b: int, k: int, count: int) -> np.ndarray:
    """The first `count` b x b blocks of parity sub-image k of an N x N
    raster, in row-major block order, as (count, b*b) rows: what
    `partition_blocks(subsample(r).sub[k - 1], b)` holds, in one copy."""
    grid = _block_grid(pixels, b, k)
    rows = -(-count // grid.shape[0])  # block rows holding the first `count` blocks
    return grid[:rows].reshape(-1, b * b)[:count]


def _scatter_blocks(pixels: np.ndarray, b: int, k: int, blocks: np.ndarray) -> None:
    """Write (count, b*b) rows over the first `count` blocks of parity
    sub-image k of `pixels`, in place: the inverse of `_gather_blocks`."""
    grid = _block_grid(pixels, b, k)
    g = grid.shape[0]
    full, rest = divmod(blocks.shape[0], g)  # whole block rows, then a partial one
    tiles = blocks.reshape(-1, b, b)
    grid[:full] = tiles[: full * g].reshape(full, g, b, b)
    if rest:
        grid[full, :rest] = tiles[full * g :]


def _check_embed_inputs(cover: Raster, secrets: Sequence[Raster], p: StegoParams) -> None:
    if cover.pixels.shape != (p.N, p.N):
        raise DimensionError(
            f"cover must be {p.N}x{p.N} per key, got {cover.height}x{cover.width}")
    if not 1 <= len(secrets) <= 4 or len(secrets) != p.num_secrets:
        raise ParamError(f"expected {p.num_secrets} secret images per key, got {len(secrets)}")
    for idx, s in enumerate(secrets, start=1):
        if s.pixels.shape != (p.M, p.M):
            raise DimensionError(
                f"secret {idx} must be {p.M}x{p.M} per key, got {s.height}x{s.width}")


def _embed_sub_image(pixels: np.ndarray, k: int, secret: Raster, p: StegoParams,
                     seed: int) -> tuple[np.ndarray, SubImageStats]:
    """Embed one secret into parity sub-image k of the cover pixels under one
    key's params and seed. Returns the sub-image's first secret_blocks
    blocks rebuilt, as (count, b*b) rows, and their stats. With the cover
    blocks x and the secret blocks z as rows, the rebuilt blocks are
    x + (z @ payload - x @ reads) @ change (`_key_factors`), and the stats'
    write_residual is what they read on the p3 - c written measurement rows
    minus what the rule wrote there. A NaN or infinite sample in those cover
    blocks or in the secret raises SolverError, since it would pass into the
    stego unnoticed."""
    reads, payload, change, _ = _key_factors(seed, p)
    secret_rows = partition_blocks(secret, p.l).reshape(-1, p.l * p.l)
    blocks = _gather_blocks(pixels, p.b, k, secret_rows.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):  # refused just below
        wrote = secret_rows @ payload
        blocks += (wrote - blocks @ reads) @ change
    if not np.isfinite(blocks).all():
        raise SolverError(f"sub-image {k} of the cover or its secret holds non-finite samples")
    miss = blocks @ reads[:, p.c :] - wrote[:, p.c :]
    return blocks, SubImageStats(k, float(np.abs(miss).max(initial=0.0)))


def _stego(cover: Raster, b: int,
           embedded: dict[int, tuple[np.ndarray, SubImageStats]]) -> tuple[Raster, EmbedReport]:
    """Stego and report of one secret subset: one copy of the cover with each
    sub-image k's rebuilt blocks, `embedded[k]`, scattered in.

    The working copy is freed before the caller sees the stego: in the
    subset sweep a second full-size array kept alive while the caller
    quantizes and compares each stego cost sweep-256 about 14% (perfbench,
    one BLAS thread).
    """
    out = cover.pixels.copy()
    for k, (blocks, _) in embedded.items():
        _scatter_blocks(out, b, k, blocks)
    stats = tuple(sub_stats for _, sub_stats in embedded.values())
    return Raster._adopt(out), EmbedReport(2 * len(stats), stats)


def embed_images(cover: Raster, secrets: Sequence[Raster],
                 key: StegoKey) -> tuple[Raster, EmbedReport]:
    """Hide 1..4 secret rasters inside a cover raster.

    Per assigned sub-image: gather its first secret_blocks b x b blocks
    straight from the cover and apply the rule's per-key factors: what the
    rule writes from the secret, minus what it reads from the blocks, times
    the smallest change per written gap. Each block then carries the rule's
    change on its u-part and reads exactly what the rule writes on the
    measurement rows, through the smallest change to its v-part; the paper's
    l1 rebuild, `reconstruct_block(embed_rule(measure(...)))`, keeps the
    same u-part but not those reads. The blocks are scattered into one copy
    of the cover, so unassigned sub-images and cover blocks beyond the
    secret's block count pass through bitwise untouched.
    """
    p = key.params
    _check_embed_inputs(cover, secrets, p)
    return _stego(cover, p.b, {k: _embed_sub_image(cover.pixels, k, secret, p, key.seed)
                               for secret, k in zip(secrets, key.assignment)})


def embed_subsets(cover: Raster, secrets: Sequence[Raster], key: StegoKey
                  ) -> Iterator[tuple[tuple[int, ...], StegoKey, Raster, EmbedReport]]:
    """Embed every nonempty subset of 1..4 secrets into one cover.

    Yields (combo, key_k, stego, report) for k = 1 .. len(secrets), in
    `itertools.combinations` order per k. key_k is the seed's key with
    num_secrets = k, and stego and report are bitwise what
    `embed_images(cover, [secrets[i] for i in combo], key_k)` returns. The
    key's own num_secrets and assignment are not read. Each (sub-image,
    secret) pair is embedded once per call and its rebuilt blocks are
    scattered into every subset's stego that assigns it, so S secrets take
    S(S+1)/2 sub-image embeds.
    """
    full = replace(key.params, num_secrets=len(secrets))  # ParamError beyond 1..4
    _check_embed_inputs(cover, secrets, full)
    done = {}  # (sub-image, secret index) -> (rebuilt blocks, stats)
    for count in range(1, len(secrets) + 1):
        key_k = make_key(key.seed, replace(full, num_secrets=count))
        for combo in itertools.combinations(range(len(secrets)), count):
            for i, k in zip(combo, key_k.assignment):
                if (k, i) not in done:
                    done[k, i] = _embed_sub_image(cover.pixels, k, secrets[i], full, key.seed)
            stego, report = _stego(cover, full.b, {k: done[k, i] for i, k in
                                                   zip(combo, key_k.assignment)})
            yield combo, key_k, stego, report


def extract_images(stego: Raster, key: StegoKey) -> list[Raster]:
    """Recover the embedded secrets from a stego raster and the key alone.

    Extraction never sees the cover. Every step of it is linear in the stego
    pixels: re-sparsifying an assigned sub-image's blocks, recomputing the
    measurement rows the rule touches with the regenerated matrix, the
    inverse transplant rule and the secret's inverse DCT. So each secret is
    one product of the sub-image's first secret_blocks blocks, gathered
    straight from the stego, with a per-key (b^2, l^2) matrix. Coefficients
    beyond p3 stay zero, so extracted secrets are low-pass approximations.
    """
    p = key.params
    if stego.pixels.shape != (p.N, p.N):
        raise DimensionError(
            f"stego must be {p.N}x{p.N} per key, got {stego.height}x{stego.width}")
    *_, fold = _key_factors(key.seed, p)
    out = []
    for k in key.assignment:
        rows = _gather_blocks(stego.pixels, p.b, k, p.secret_blocks) @ fold
        out.append(assemble_blocks(rows.reshape(-1, p.l, p.l), p.M, p.M))
    return out
