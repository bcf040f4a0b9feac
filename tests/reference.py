"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths. The per-block
write takes the receiver's read as a function, builds its matrix one unit
spectrum at a time and solves each block's least-squares problem with
`np.linalg.lstsq`; the embed applies the pseudo-inverse of the rule's reads
in pixels, taken once per key, and never solves per block. The accelerated
proximal-gradient iteration below shares no code with the ADMM l1 solver it
is used to check, and takes no matrix inverse.
The scalar SplitMix64/Box-Muller loop shares none with the array generator
behind `keyed_normals`, and the window-by-window SSIM loop shares none with
`mssim`, which applies the window as banded-matrix products over strips of
rows and tiles of columns. The loop takes each window's variances about its
own means and never splits the image, so it cannot share a strip- or
tile-boundary error with `mssim`. `round_half_away` is the plain rounding
formula that the package's one levels rule (`quantize_u8`, both PGM depths)
is checked against.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1


def round_half_away(x):
    """Round to nearest integer with ties away from zero (platform independent).

    copysign(floor(|x|) + (fraction of |x| >= 0.5), x), computed in one new
    float buffer: a double's fraction is exact, where floor(|x| + 0.5) rounds
    the sum of 0.5 and the double just under it up to 1.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    up = np.modf(out)[0] >= 0.5
    np.floor(out, out=out)
    out += up
    return np.copysign(out, x, out=out)[()]  # [()] keeps scalar input scalar


def splitmix64_words(seed):
    """The SplitMix64 stream one step at a time, in Python integer arithmetic."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def keyed_normals_loop(seed, count):
    """Box-Muller normals from consecutive word pairs, both outputs in order."""
    out = np.empty(count)
    words = splitmix64_words(seed)
    i = 0
    while i < count:
        u1 = ((next(words) >> 11) + 0.5) / 9007199254740992.0   # 2^53
        u2 = ((next(words) >> 11) + 0.5) / 9007199254740992.0
        radius = math.sqrt(-2.0 * math.log(u1))
        out[i] = radius * math.cos(2.0 * math.pi * u2)
        i += 1
        if i < count:
            out[i] = radius * math.sin(2.0 * math.pi * u2)
            i += 1
    return out


def min_norm_write(s, target, read):
    """The spectrum the embed writes for one block with spectrum s.

    read is a linear map from a spectrum to what the receiver reads from it.
    The result is s plus the minimum-norm change, by least squares, after
    which read gives target: column j of the read's matrix is read(e_j).
    """
    reads = np.stack([read(e) for e in np.eye(len(s))], axis=1)
    return s + np.linalg.lstsq(reads, target - read(s), rcond=None)[0]


def lasso_objective(phi, y, lam, x):
    r = phi @ x - y
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


def lasso_fista(phi, y, lam, tol=1e-10, max_iter=200000):
    """Accelerated proximal gradient with a fixed 1/L step, run until the
    iterate moves less than tol (relative)."""
    n = phi.shape[1]
    lip = np.linalg.norm(phi, 2) ** 2
    if lip == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    v = x.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = phi.T @ (phi @ v - y)
        step = v - grad / lip
        x_new = np.sign(step) * np.maximum(np.abs(step) - lam / lip, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if np.max(np.abs(x_new - x)) <= tol * max(1.0, np.max(np.abs(x_new))):
            return x_new
        x, t = x_new, t_new
    return x


def mssim_windows(x, y, side=11, sigma=1.5, k1=0.01, k2=0.03, peak=255.0):
    """Mean SSIM over every full side x side window, one window at a time.

    Each window weights its pixels by a normalized 2-D Gaussian and takes
    means, variances and the covariance about the window's own means.
    """
    half = side // 2
    offsets = np.arange(side) - half
    w = np.exp(-(offsets[:, None] ** 2 + offsets[None, :] ** 2) / (2.0 * sigma * sigma))
    w /= w.sum()
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    rows, cols = x.shape[0] - side + 1, x.shape[1] - side + 1
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            a, b = x[i:i + side, j:j + side], y[i:i + side, j:j + side]
            mu_a, mu_b = (w * a).sum(), (w * b).sum()
            var_a = (w * (a - mu_a) ** 2).sum()
            var_b = (w * (b - mu_b) ** 2).sum()
            cov = (w * (a - mu_a) * (b - mu_b)).sum()
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                      / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return total / (rows * cols)
