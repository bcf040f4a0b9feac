"""Embedding and extraction: the coefficient transplant rule and the
end-to-end hide/recover pipelines.

Secret block i always pairs with cover block i in row-major block order.
The per-block functions are the definitions. They take and return plain
float arrays: a spectrum of b^2 zig-zag DCT coefficients, or a measurement
vector of p1 + m values, both with the u-part as their first p1 entries;
stacks of them run row by row along leading axes. `_rule` gives the
transplant's positions in the measurement vector, and both pipelines read it
there. They compute the same thing as the definitions with fewer products:
the rule reads and writes only the u-part and 2*(p3 - c) of the
measurements, and the l1 solve sees the carrier only through phi^T y, so no
block's measurement vector is formed. The solve takes its settings from phi
alone: the weight is `LAMBDA_SCALE` * ||phi^T y||_inf per block, and ADMM's
penalty comes with `prepare(phi)`. The stego raster is never quantized inside
the pipeline; 8-bit export is an explicit step in the raster module.

Both pipelines address an assigned parity sub-image's b x b blocks through
one strided view of the full raster: `_gather_blocks` copies its first
secret_blocks blocks out as (count, b^2) rows, and `_scatter_blocks` writes
such rows back. Neither pipeline splits the raster into sub-image rasters;
`subsample`, `partition_blocks` and the spectral round trip remain the
definitions the gather and the per-block functions are checked against.
The embed rebuilds the gathered blocks and scatters them into one copy of
the cover, so everything else passes through bitwise.

Every step of both pipelines but the l1 solve is linear, so each folds its
linear steps into per-key matrices built on one reader of the rule,
`_rule_reads`: `_extractor` for the whole receiver, `_embedder` for the
products before and after the solve.

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

from .errors import DimensionError, ParamError
from .measure import MeasurementMatrix, StegoKey, StegoParams, gen_matrix, make_key, measure
from .raster import Raster
from .solver import (LAMBDA_SCALE, CachedFactorization, LassoProblem, SolverConfig,
                     SolverResult, default_lambda, prepare, solve_lasso, solve_normal)
from .spectral import (DctBasis, ZigZagOrder, assemble_blocks, desparsify, make_dct_basis,
                       make_zigzag, partition_blocks, sparsify)


@dataclass(frozen=True)
class SubImageStats:
    sub_index: int
    blocks: int
    iterations_mean: float
    iterations_max: int
    residual_mean: float  # mean ||phi s - y_v||_2 over reconstructed blocks
    unconverged: int

    def to_dict(self) -> dict:
        return {"sub_index": self.sub_index, "blocks": self.blocks,
                "iterations_mean": self.iterations_mean,
                "iterations_max": self.iterations_max,
                "residual_mean": self.residual_mean,
                "unconverged": self.unconverged}


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


def _check_strengths(p: StegoParams) -> None:
    if p.alpha == 0 or p.beta == 0 or p.gamma == 0:
        raise ParamError("alpha, beta and gamma must be nonzero to extract")


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
    _check_strengths(p)
    written, donor, strength = _rule(p)
    t = np.zeros(y2.shape[:-1] + (p.l * p.l,))
    t[..., : p.p3] = (y2[..., written] - y2[..., donor]) / strength
    return t


def rule_index_sets(p: StegoParams) -> tuple[set[int], set[int]]:
    """(written, donor) 1-based position sets touched by the transplant rule."""
    written, donor, _ = _rule(p)
    return set((written + 1).tolist()), set((donor + 1).tolist())


def reconstruct_block(y: np.ndarray, phi: MeasurementMatrix, basis: DctBasis,
                      zz: ZigZagOrder) -> tuple[np.ndarray, SolverResult]:
    """Rebuild a pixel block, or a stack of blocks, from measurements.

    The u-part, all but the last phi.rows entries of y, is copied verbatim
    into the spectrum; the v-part is recovered from those phi.rows
    measurements by the l1 solver with a per-block scale-aware weight and the
    factorization the embed uses. Returns the block(s) and the solver result.
    """
    y = np.asarray(y, dtype=np.float64)
    split = y.shape[-1] - phi.rows
    if split < 1 or split + phi.cols != basis.side ** 2:
        raise DimensionError(f"measurement vector length {y.shape[-1]} is not a u-part of "
                             f"{basis.side ** 2 - phi.cols} plus {phi.rows} measurements")
    yv = y[..., split:]
    result = solve_lasso(LassoProblem(phi.entries, yv, default_lambda(phi.entries, yv)),
                         cache=_factorization(phi))
    return desparsify(np.concatenate([y[..., :split], result.s], axis=-1), basis, zz), result


def secret_to_coeffs(secret: Raster, p: StegoParams, basis: DctBasis,
                     zz: ZigZagOrder) -> np.ndarray:
    """Block-wise DCT of a secret raster, each block flattened in zig-zag
    order: a (count, l^2) array, one row per l x l block."""
    return sparsify(partition_blocks(secret, p.l), basis, zz)


def coeffs_to_raster(t: np.ndarray, p: StegoParams, basis: DctBasis,
                     zz: ZigZagOrder) -> Raster:
    """Inverse zig-zag plus block-wise inverse DCT of a (count, l^2) array;
    assembles the M x M raster."""
    return assemble_blocks(desparsify(t, basis, zz), p.M, p.M)


def _forward(side: int) -> np.ndarray:
    """The (side^2, side^2) matrix `sparsify` applies: a row-major block
    times it is the block's zig-zag DCT coefficients; its transpose inverts it."""
    return make_dct_basis(side).matrix[:, make_zigzag(side).perm]


@functools.lru_cache(maxsize=8)
def _factorization(phi: MeasurementMatrix) -> CachedFactorization:
    """`prepare` for a keyed matrix, kept for the last few matrices.

    `gen_matrix` returns one read-only matrix object per (seed, m, p2), so
    this is keyed on (seed, m, p2); `sabmis bench` embeds many times with one
    key. The factorization's arrays are read-only too.
    """
    return prepare(phi.entries)


def _rule_reads(phi: MeasurementMatrix, p: StegoParams) -> np.ndarray:
    """(b^2, p3): a row-major b x b block times it gives, for each k < p3,
    the value at the position `_rule` writes k to minus the value at its
    donor, read from the block's measurement vector: what `extract_rule`
    divides by the strengths. Row i of `measure(_forward(b), phi)` is the
    measurement vector of the unit block with pixel i set."""
    x = measure(_forward(p.b), phi)
    written, donor, _ = _rule(p)
    return x[:, written] - x[:, donor]


@functools.lru_cache(maxsize=8)
def _extractor(phi: MeasurementMatrix, p: StegoParams) -> np.ndarray:
    """The whole per-block extraction folded into one (b^2, l^2) matrix.

    A row-major b x b stego block times it is the row-major l x l secret
    block that sparsify, the measurement rows the rule touches,
    `extract_rule` and `coeffs_to_raster` give, since each step is linear.
    Kept for the last few (matrix, params); the matrix is read-only.
    """
    _check_strengths(p)
    _, _, strength = _rule(p)
    out = (_rule_reads(phi, p) / strength) @ _forward(p.l)[:, : p.p3].T
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _embedder(phi: MeasurementMatrix, p: StegoParams
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The embed's linear steps as per-key (cover_in, secret_in, back, phi_w).

    For row-major cover and secret block rows x and z, x @ cover_in is the
    v-part s_v, then each written position's donor minus its value (minus
    `_rule_reads`). Adding z @ secret_in, the secret's first p3 coefficients
    times their strengths, gives delta: the rule's change on its c written
    u-positions, then on the p3 - c written measurement rows W, phi_w's rows.
    Once the solve has replaced s_v by s, [delta[:c], s - s_v] @ back is the
    block's change. Kept for the last few (matrix, params); read-only.
    """
    fwd = _forward(p.b)
    fwd_v = fwd[:, p.p1 :]
    written, _, strength = _rule(p)
    cover_in = np.concatenate([fwd_v, -_rule_reads(phi, p)], axis=1)
    secret_in = _forward(p.l)[:, : p.p3] * strength
    back = np.concatenate([fwd[:, written[: p.c]].T, fwd_v.T])
    phi_w = phi.entries[written[p.c :] - p.p1]
    for a in (cover_in, secret_in, back, phi_w):
        a.setflags(write=False)
    return cover_in, secret_in, back, phi_w


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
                     phi: MeasurementMatrix) -> tuple[np.ndarray, SubImageStats]:
    """Embed one secret into parity sub-image k of the cover pixels under one
    key's params and matrix. Returns the sub-image's first secret_blocks
    blocks rebuilt, as (count, b*b) rows, and their stats."""
    cover_in, secret_in, back, phi_w = _embedder(phi, p)
    cache = _factorization(phi)
    secret_rows = partition_blocks(secret, p.l).reshape(-1, p.l * p.l)
    count = secret_rows.shape[0]
    blocks = _gather_blocks(pixels, p.b, k, count)
    a = blocks @ cover_in
    v = a[:, : p.p2]
    delta = a[:, p.p2 :] + secret_rows @ secret_in
    dm = delta[:, p.c :]  # the change on the written measurement rows W
    aty = v @ cache.gram + dm @ phi_w
    lam = LAMBDA_SCALE * np.abs(aty).max(axis=1)
    s, iters, ok, _, _ = solve_normal(aty, lam, SolverConfig(), cache)
    # with d = s - v, ||phi s - y'||^2 is the rows off W plus the rows on W:
    # ||phi d||^2 - ||phi_W d||^2 + ||phi_W d - dm||^2, each part >= 0 up to
    # rounding
    d = s - v
    dw = d @ phi_w.T
    fit2 = (np.einsum("ij,ij->i", d @ cache.gram, d) - np.einsum("ij,ij->i", dw, dw)
            + np.einsum("ij,ij->i", dw - dm, dw - dm))
    blocks += np.concatenate([delta[:, : p.c], d], axis=1) @ back
    stats = SubImageStats(
        sub_index=k, blocks=count,
        iterations_mean=float(iters.mean()), iterations_max=int(iters.max()),
        residual_mean=float(np.sqrt(np.maximum(fit2, 0.0)).mean()),
        unconverged=int(np.count_nonzero(~ok)))
    return blocks, stats


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
    return Raster(out, "float"), EmbedReport(2 * len(stats), stats)


def embed_images(cover: Raster, secrets: Sequence[Raster],
                 key: StegoKey) -> tuple[Raster, EmbedReport]:
    """Hide 1..4 secret rasters inside a cover raster.

    Per assigned sub-image: gather its first secret_blocks b x b blocks
    straight from the cover and compute, per block, what
    `reconstruct_block(embed_rule(measure(...)))` computes with `_embedder`'s
    matrices: one product each of the blocks and the secret gives the v-part
    and the rule's change delta, the l1 solver gets phi^T y = G s_v +
    phi_W^T delta_W (G = phi^T phi, W the written measurement rows), and one
    product adds the change in u and v to the blocks. They are scattered into
    one copy of the cover, so unassigned sub-images and cover blocks beyond
    the secret's block count pass through bitwise untouched.
    """
    p = key.params
    _check_embed_inputs(cover, secrets, p)
    phi = gen_matrix(key)
    return _stego(cover, p.b, {k: _embed_sub_image(cover.pixels, k, secret, p, phi)
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
    phi = gen_matrix(key)
    done = {}  # (sub-image, secret index) -> (rebuilt blocks, stats)
    for count in range(1, len(secrets) + 1):
        key_k = make_key(key.seed, replace(full, num_secrets=count))
        for combo in itertools.combinations(range(len(secrets)), count):
            for i, k in zip(combo, key_k.assignment):
                if (k, i) not in done:
                    done[k, i] = _embed_sub_image(cover.pixels, k, secrets[i], full, phi)
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
    fold = _extractor(gen_matrix(key), p)
    out = []
    for k in key.assignment:
        rows = _gather_blocks(stego.pixels, p.b, k, p.secret_blocks) @ fold
        out.append(assemble_blocks(rows.reshape(-1, p.l, p.l), p.M, p.M))
    return out
