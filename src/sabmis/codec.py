"""Embedding and extraction: the coefficient transplant rules and the
end-to-end hide/recover pipelines.

Secret block i always pairs with cover block i in row-major block order.
The per-block functions also take stacks of blocks along a leading axis.
The stego raster is never quantized inside the pipeline; 8-bit export is an
explicit step in the raster module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParamError
from .measure import (MeasurementMatrix, MeasurementVector, StegoKey, StegoParams,
                      gen_matrix, measure)
from .raster import QuadSample, Raster, inverse_subsample, subsample
from .solver import (CachedFactorization, LassoProblem, SolverConfig, SolverResult,
                     default_lambda, prepare, solve_lasso)
from .spectral import (DctBasis, Spectrum, ZigZagOrder, assemble_blocks, desparsify,
                       make_dct_basis, make_zigzag, partition_blocks, sparsify)

# Blocks per batched call. Whole 4096-block sub-images would hold several
# (4096, p1+m) measurement stacks at once; 512 keeps them near 1.4 MB each.
SLAB = 512


@dataclass(frozen=True, eq=False)
class SecretCoeffs:
    """Zig-zag DCT coefficient vectors of a secret image, one row per l x l block."""

    blocks: np.ndarray  # (count, l*l)

    def __post_init__(self):
        b = np.array(self.blocks, dtype=np.float64, copy=True)
        if b.ndim != 2 or b.size == 0:
            raise DimensionError("secret coefficients must form a (count, l^2) array")
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)


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


def _check_rule_vector(y: MeasurementVector, p: StegoParams) -> None:
    if y.y.shape[-1] != p.p1 + p.m or y.split != p.p1:
        raise DimensionError(
            f"measurement vector (length {y.y.shape[-1]}, split {y.split}) does not match "
            f"params (p1={p.p1}, m={p.m})")


def embed_rule(y: MeasurementVector, t: np.ndarray, p: StegoParams) -> MeasurementVector:
    """Transplant the first p3 entries of t into a copy of y (row by row for stacks).

    In 1-based positions: the first coefficient lands at p1 scaled by alpha,
    the next c-1 at p1-c+1 .. p1-1 scaled by beta, and the remaining p3-c at
    p1+p3+1 .. p1+2*p3-c scaled by gamma. Each written position takes the value
    of a donor position the rule never writes, plus the scaled coefficient.
    """
    _check_rule_vector(y, p)
    t = np.asarray(t, dtype=np.float64)
    if t.shape != y.y.shape[:-1] + (p.l * p.l,):
        raise DimensionError(f"secret coefficients must have shape {y.y.shape[:-1]} + "
                             f"(l^2={p.l * p.l},), got {t.shape}")
    p1, p3, c = p.p1, p.p3, p.c
    src = y.y
    out = src.copy()
    out[..., p1 - 1] = src[..., p1 - 2 * c - 1] + p.alpha * t[..., 0]
    out[..., p1 - c : p1 - 1] = src[..., p1 - 2 * c : p1 - c - 1] + p.beta * t[..., 1:c]
    out[..., p1 + p3 : p1 + 2 * p3 - c] = src[..., p1 + c : p1 + p3] + p.gamma * t[..., c:p3]
    return MeasurementVector(out, p1)


def extract_rule(y2: MeasurementVector, p: StegoParams) -> np.ndarray:
    """Recover the p3 embedded coefficients from measurements; the tail stays zero."""
    if p.alpha == 0 or p.beta == 0 or p.gamma == 0:
        raise ParamError("alpha, beta and gamma must be nonzero to extract")
    _check_rule_vector(y2, p)
    p1, p3, c = p.p1, p.p3, p.c
    src = y2.y
    t = np.zeros(src.shape[:-1] + (p.l * p.l,))
    t[..., 0] = (src[..., p1 - 1] - src[..., p1 - 2 * c - 1]) / p.alpha
    t[..., 1:c] = (src[..., p1 - c : p1 - 1] - src[..., p1 - 2 * c : p1 - c - 1]) / p.beta
    t[..., c:p3] = (src[..., p1 + p3 : p1 + 2 * p3 - c] - src[..., p1 + c : p1 + p3]) / p.gamma
    return t


def rule_index_sets(p: StegoParams) -> tuple[set[int], set[int]]:
    """(written, donor) 1-based position sets touched by the transplant rule."""
    written = ({p.p1} | set(range(p.p1 - p.c + 1, p.p1))
               | set(range(p.p1 + p.p3 + 1, p.p1 + 2 * p.p3 - p.c + 1)))
    donors = ({p.p1 - 2 * p.c} | set(range(p.p1 - 2 * p.c + 1, p.p1 - p.c))
              | set(range(p.p1 + p.c + 1, p.p1 + p.p3 + 1)))
    return written, donors


def reconstruct_block(y: MeasurementVector, phi: MeasurementMatrix, basis: DctBasis,
                      zz: ZigZagOrder, cfg: SolverConfig | None = None,
                      cache: CachedFactorization | None = None) -> tuple[np.ndarray, SolverResult]:
    """Rebuild a pixel block, or a stack of blocks, from measurements.

    The u-part is copied verbatim into the spectrum; the v-part is recovered by
    the l1 solver with a per-block scale-aware weight. Returns the block(s) and
    the solver result.
    """
    cfg = SolverConfig() if cfg is None else cfg
    lam = default_lambda(phi.entries, y.v, cfg.lambda_scale)
    result = solve_lasso(LassoProblem(phi.entries, y.v, lam), cfg, cache)
    coeffs = np.concatenate([y.u, result.s], axis=-1)
    return desparsify(Spectrum(coeffs), basis, zz), result


def secret_to_coeffs(secret: Raster, p: StegoParams, basis: DctBasis,
                     zz: ZigZagOrder) -> SecretCoeffs:
    """Block-wise DCT of a secret raster, each block flattened in zig-zag order."""
    return SecretCoeffs(sparsify(partition_blocks(secret, p.l), basis, zz).coeffs)


def coeffs_to_raster(t: SecretCoeffs, p: StegoParams, basis: DctBasis,
                     zz: ZigZagOrder) -> Raster:
    """Inverse zig-zag plus block-wise inverse DCT; assembles the M x M raster."""
    return assemble_blocks(desparsify(Spectrum(t.blocks), basis, zz), p.M, p.M)


def _bases(p: StegoParams) -> tuple[DctBasis, ZigZagOrder, DctBasis, ZigZagOrder]:
    basis_b, zz_b = make_dct_basis(p.b), make_zigzag(p.b)
    if p.l == p.b:
        return basis_b, zz_b, basis_b, zz_b
    return basis_b, zz_b, make_dct_basis(p.l), make_zigzag(p.l)


def pipeline_config(p: StegoParams) -> SolverConfig:
    """Solver configuration the pipelines use when the caller passes none.

    The Gram matrix of an m x p2 unit-variance Gaussian matrix has eigenvalues
    near m, so the penalty is scaled with m; rho = 1 on such problems needs
    roughly ten times more iterations for the same solution.
    """
    return SolverConfig(rho=max(1.0, p.m / 10.0))


def _slabs(count: int):
    """Consecutive slices of at most SLAB blocks covering blocks 0..count-1."""
    return (slice(lo, min(lo + SLAB, count)) for lo in range(0, count, SLAB))


def embed_images(cover: Raster, secrets: Sequence[Raster], key: StegoKey,
                 cfg: SolverConfig | None = None) -> tuple[Raster, EmbedReport]:
    """Hide 1..4 secret rasters inside a cover raster.

    Per assigned sub-image: partition into b x b blocks, sparsify, project to
    measurements, transplant the paired secret block's coefficients, then
    rebuild pixels through the l1 solver. Unassigned sub-images pass through
    bitwise untouched, as do cover blocks beyond the secret's block count.
    """
    p = key.params
    cfg = pipeline_config(p) if cfg is None else cfg
    if cover.pixels.shape != (p.N, p.N):
        raise DimensionError(
            f"cover must be {p.N}x{p.N} per key, got {cover.height}x{cover.width}")
    if not 1 <= len(secrets) <= 4 or len(secrets) != p.num_secrets:
        raise ParamError(f"expected {p.num_secrets} secret images per key, got {len(secrets)}")
    for idx, s in enumerate(secrets, start=1):
        if s.pixels.shape != (p.M, p.M):
            raise DimensionError(
                f"secret {idx} must be {p.M}x{p.M} per key, got {s.height}x{s.width}")

    basis_b, zz_b, basis_l, zz_l = _bases(p)
    phi = gen_matrix(key)
    cache = prepare(phi.entries, cfg.rho)
    subs = list(subsample(cover).sub)
    stats = []
    for si, k in enumerate(key.assignment):
        sub = subs[k - 1]
        blocks = partition_blocks(sub, p.b)
        payload = secret_to_coeffs(secrets[si], p, basis_l, zz_l).blocks
        n_payload = payload.shape[0]
        iters, ok = np.empty(n_payload, dtype=int), np.empty(n_payload, dtype=bool)
        fit = np.empty(n_payload)  # ||phi s - y_v|| per block
        for part in _slabs(n_payload):
            spec = sparsify(blocks[part], basis_b, zz_b, split=p.p1)
            carrier = embed_rule(measure(spec, phi), payload[part], p)
            blocks[part], res = reconstruct_block(carrier, phi, basis_b, zz_b, cfg, cache)
            iters[part], ok[part], fit[part] = res.iterations, res.converged, res.fit_residual
        stats.append(SubImageStats(
            sub_index=k, blocks=n_payload,
            iterations_mean=float(iters.mean()), iterations_max=int(iters.max()),
            residual_mean=float(fit.mean()), unconverged=int(np.count_nonzero(~ok))))
        subs[k - 1] = assemble_blocks(blocks, sub.height, sub.width)

    stego = inverse_subsample(QuadSample(tuple(subs)))
    stego = Raster(stego.pixels, "float")
    return stego, EmbedReport(2 * len(secrets), tuple(stats))


def extract_images(stego: Raster, key: StegoKey) -> list[Raster]:
    """Recover the embedded secrets from a stego raster and the key alone.

    Extraction never sees the cover: each assigned sub-image is re-sparsified,
    re-measured with the regenerated matrix, and run through the inverse
    transplant rule; coefficients beyond p3 stay zero, so extracted secrets
    are low-pass approximations.
    """
    p = key.params
    if stego.pixels.shape != (p.N, p.N):
        raise DimensionError(
            f"stego must be {p.N}x{p.N} per key, got {stego.height}x{stego.width}")
    basis_b, zz_b, basis_l, zz_l = _bases(p)
    phi = gen_matrix(key)
    quad = subsample(stego)
    out = []
    for k in key.assignment:
        blocks = partition_blocks(quad.sub[k - 1], p.b)
        vecs = np.empty((p.secret_blocks, p.l * p.l))
        for part in _slabs(p.secret_blocks):
            spec = sparsify(blocks[part], basis_b, zz_b, split=p.p1)
            vecs[part] = extract_rule(measure(spec, phi), p)
        out.append(coeffs_to_raster(SecretCoeffs(vecs), p, basis_l, zz_l))
    return out
