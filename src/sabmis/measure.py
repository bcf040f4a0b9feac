"""Scheme parameters, the shared key, and the keyed measurement machinery.

The sender and receiver share only a small key file. The Gaussian measurement
matrix is regenerated from its 64-bit seed with a fixed generator pipeline
(SplitMix64 words -> uniform doubles -> Box-Muller pairs) so that both sides
obtain bitwise-identical matrices without exchanging them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ParamError

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 16  # words per draw in derive_assignment; four distinct indices take about 8
_PHI_MAX_ENTRIES = 2 ** 24  # m * p2 bound: phi stays within 128 MiB of float64
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _is_number(v, kinds) -> bool:
    # isinstance counts a bool as an int, but no parameter is a bool
    return isinstance(v, kinds) and not isinstance(v, bool)


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 of the seed's SplitMix64 stream, as uint64.

    The generator state after i+1 steps is seed + (i+1)*GOLDEN mod 2^64, so
    word i is mixed from that state directly; uint64 array arithmetic wraps.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _libm(fn, x: np.ndarray) -> np.ndarray:
    # numpy's SIMD log/cos/sin can differ from libm in the last bit; the
    # matrix must be bitwise identical on every machine that reads the key
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def keyed_normals(seed: int, count: int) -> np.ndarray:
    """Deterministic standard-normal draws from the seed's word stream.

    Each word becomes a uniform double u = ((w >> 11) + 0.5) * 2^-53, strictly
    inside (0, 1); consecutive uniform pairs feed the Box-Muller transform and
    both outputs are consumed in order.
    """
    pairs, odd = divmod(count, 2)
    words = _splitmix64(seed, 0, 2 * (pairs + odd))
    u = ((words >> np.uint64(11)) + 0.5) / 9007199254740992.0   # 2^53
    radius = np.sqrt(-2.0 * _libm(math.log, u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    out = np.empty(count)
    out[0::2] = radius * _libm(math.cos, angle)
    out[1::2] = radius[:pairs] * _libm(math.sin, angle[:pairs])  # an odd count drops the last sine
    return out


def derive_assignment(seed: int, count: int) -> tuple[int, ...]:
    """First `count` distinct sub-image indices (1..4) from the seed's word stream."""
    if not 1 <= count <= 4:
        raise ParamError(f"num_secrets must be 1..4, got {count}")
    picked: list[int] = []
    for start in itertools.count(0, _CHUNK):
        for w in _splitmix64(seed, start, _CHUNK).tolist():
            k = w % 4 + 1
            if k not in picked:
                picked.append(k)
                if len(picked) == count:
                    return tuple(picked)


@dataclass(frozen=True)
class StegoParams:
    """All scheme scalars; every cross-field constraint is checked at construction.

    N/M are cover/secret sides, b/l the respective block sides, p1/p2 the
    large/small coefficient counts per cover block, p3 the embedded
    coefficients per secret block, m the measurement count, alpha/beta/gamma
    the embedding strengths (real, finite and nonzero: the receiver divides
    by them), c the donor offset and num_secrets the count of secrets, an
    integer 1..4.

    m is bounded above by m * p2 <= 2^24, so the keyed (m, p2) matrix phi
    takes at most 128 MiB; at the default p2 = 32 that is m <= 524,288.
    p3 - c <= p2: the rule's p3 - c measured reads see a block only through
    its p2 v-part coefficients, so only then do its p3 reads have full column
    rank, which the embed's pseudo-inverse of them needs to write them all.
    """

    N: int = 1024
    M: int = 512
    b: int = 8
    l: int = 8
    p1: int = 32
    p2: int = 32
    p3: int = 32
    m: int = 320
    alpha: float = 0.01
    beta: float = 0.1
    gamma: float = 1.0
    c: int = 8
    num_secrets: int = 4

    def __post_init__(self):
        for name in ("N", "M", "b", "l", "p1", "p2", "p3", "m", "c"):
            v = getattr(self, name)
            if not _is_number(v, _INTEGERS) or v <= 0:
                raise ParamError(f"{name} must be a positive integer, got {v!r}")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not _is_number(v, _REALS):
                raise ParamError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v) or v == 0:
                raise ParamError(f"{name} must be finite and nonzero, got {v!r}")
        if not _is_number(self.num_secrets, _INTEGERS):
            raise ParamError(f"num_secrets must be an integer, got {self.num_secrets!r}")
        if not 1 <= self.num_secrets <= 4:
            raise ParamError(f"num_secrets must be 1..4, got {self.num_secrets}")
        if self.p1 + self.p2 != self.b * self.b:
            raise ParamError(f"p1+p2 != b^2 (p1={self.p1}, p2={self.p2}, b={self.b})")
        if self.m <= self.p2:
            raise ParamError(f"m > p2 violated (m={self.m}, p2={self.p2})")
        if self.m * self.p2 > _PHI_MAX_ENTRIES:
            raise ParamError(f"m * p2 <= 2^24 violated (m={self.m}, p2={self.p2}): "
                             f"phi would exceed 128 MiB")
        if self.N % 2:
            raise ParamError(f"N must be even, got {self.N}")
        if (self.N // 2) % self.b:
            raise ParamError(f"b must divide N/2 (b={self.b}, N={self.N})")
        if self.M % self.l:
            raise ParamError(f"l must divide M (l={self.l}, M={self.M})")
        if self.secret_blocks > self.cover_blocks_per_sub:
            raise ParamError(
                f"M^2/l^2 <= N^2/(4 b^2) violated "
                f"({self.secret_blocks} secret blocks > {self.cover_blocks_per_sub} cover blocks)")
        if self.c < 2:
            raise ParamError(f"c >= 2 violated (c={self.c})")
        if self.p1 - 2 * self.c < 1:
            raise ParamError(f"p1-2c >= 1 violated (p1={self.p1}, c={self.c})")
        if self.p3 < self.c:
            raise ParamError(f"p3 >= c violated (p3={self.p3}, c={self.c})")
        if self.p1 + 2 * self.p3 - self.c > self.p1 + self.m:
            raise ParamError(
                f"p1+2p3-c <= p1+m violated (p3={self.p3}, c={self.c}, m={self.m})")
        if self.p3 > self.l * self.l:
            raise ParamError(f"p3 <= l^2 violated (p3={self.p3}, l={self.l})")
        if self.p3 - self.c > self.p2:
            raise ParamError(f"p3-c <= p2 violated (p3={self.p3}, c={self.c}, p2={self.p2}): "
                             f"the rule's reads of a block lose rank")

    @property
    def cover_blocks_per_sub(self) -> int:
        return (self.N // 2 // self.b) ** 2

    @property
    def secret_blocks(self) -> int:
        return (self.M // self.l) ** 2


def default_params() -> StegoParams:
    """The reference configuration: N=1024, M=512, b=l=8, p1=p2=p3=32, m=320."""
    return StegoParams()


def _checked_seed(seed) -> int:
    """The seed as an int: an integer, not a bool, with 0 <= seed < 2^64."""
    if not _is_number(seed, _INTEGERS):
        raise ParamError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise ParamError(f"seed out of unsigned 64-bit range: {seed}")
    return int(seed)


@dataclass(frozen=True)
class StegoKey:
    """The shared secret: generator seed, parameters, secret-to-sub-image map."""

    seed: int
    params: StegoParams
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        a = tuple(int(k) for k in self.assignment)
        if len(a) != self.params.num_secrets:
            raise ParamError(
                f"assignment length {len(a)} != num_secrets {self.params.num_secrets}")
        if any(not 1 <= k <= 4 for k in a):
            raise ParamError(f"assignment entries must be sub-image indices 1..4, got {a}")
        if len(set(a)) != len(a):
            raise ParamError(f"assignment entries must be distinct, got {a}")
        object.__setattr__(self, "assignment", a)


def make_key(seed: int, params: StegoParams | None = None) -> StegoKey:
    """Build a key whose assignment is the one derived from the seed. The
    seed is checked by `StegoKey`'s rule before anything is derived from it;
    a chosen assignment is `StegoKey(seed, params, assignment)`."""
    params = default_params() if params is None else params
    return StegoKey(seed, params, derive_assignment(_checked_seed(seed), params.num_secrets))


def gen_matrix(key: StegoKey) -> np.ndarray:
    """Regenerate the keyed Gaussian (m, p2) matrix phi that measures the
    v-part of every block spectrum; same key, bitwise-identical matrix.

    The matrix depends only on (seed, m, p2). Each call draws it anew from
    the seed and returns it read-only.
    """
    p = key.params
    phi = keyed_normals(key.seed, p.m * p.p2).reshape(p.m, p.p2)
    phi.setflags(write=False)
    return phi


def measure(s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """y = [s_u ; phi @ s_v] for a spectrum, or row by row for a stack: linear
    in the spectrum, identity on its u-part. For an (m, p2) phi, s_v is the
    last p2 entries and s_u the rest, so y holds s_u then m measurements."""
    s = np.asarray(s, dtype=np.float64)
    split = s.shape[-1] - phi.shape[1]
    if split < 1:
        raise DimensionError(f"spectrum of length {s.shape[-1]} has no u-part before "
                             f"the {phi.shape[1]} entries the matrix measures")
    return np.concatenate([s[..., :split], s[..., split:] @ phi.T], axis=-1)


# the StegoParams fields in declaration order, each with the type of its default
_PARAM_TYPES = {f.name: type(f.default) for f in fields(StegoParams)}
_ALL_FIELDS = frozenset(_PARAM_TYPES) | {"version", "seed", "assignment"}


def write_key(key: StegoKey, path) -> None:
    """Write the canonical line-oriented key file (floats at 17 significant digits)."""
    lines = ["# stego key: keep secret, the receiver regenerates everything from it",
             "version = 1",
             f"seed = {key.seed}"]
    for name, kind in _PARAM_TYPES.items():
        value = getattr(key.params, name)
        lines.append(f"{name} = {format(value, '.17g') if kind is float else value}")
    lines.append("assignment = " + ",".join(str(k) for k in key.assignment))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_key(path) -> StegoKey:
    """Parse a key file; unknown fields and invariant violations are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 key file (byte {exc.start})") from None
    values: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{ln}: expected 'name = value'")
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if name not in _ALL_FIELDS:
            raise FormatError(f"{path}:{ln}: unknown field {name!r}")
        if name in values:
            raise FormatError(f"{path}:{ln}: duplicate field {name!r}")
        try:
            if name == "assignment":
                values[name] = tuple(int(tok) for tok in value.split(","))
            else:
                values[name] = _PARAM_TYPES.get(name, int)(value)  # version, seed: int
        except ValueError:
            raise FormatError(f"{path}:{ln}: cannot parse value {value!r} for field {name!r}") from None
    missing = sorted(_ALL_FIELDS - values.keys())
    if missing:
        raise FormatError(f"{path}: missing fields: {', '.join(missing)}")
    if values["version"] != 1:
        raise FormatError(f"{path}: unsupported version {values['version']}")
    params = StegoParams(**{name: values[name] for name in _PARAM_TYPES})
    return StegoKey(values["seed"], params, values["assignment"])
