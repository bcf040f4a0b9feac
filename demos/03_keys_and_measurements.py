"""Keys and keyed measurements.

The only shared secret is a small key file: seed plus parameters. Sender and
receiver both regenerate the same Gaussian measurement matrix from the seed,
so the matrix itself never travels. A block's measurement vector is a plain
array: the spectrum's first p1 coefficients (the u-part) verbatim, then the
last p2 (the v-part) projected through the m x p2 matrix, so `measure` takes
the split from the matrix's shape. The transplant rule reads and writes only
a few of those projections.
"""

import tempfile
from pathlib import Path

import numpy as np

from sabmis import (default_params, gen_matrix, make_key, measure, read_key,
                    rule_index_sets, write_key)

params = default_params()
print(f"reference parameters: N={params.N} M={params.M} b={params.b} "
      f"p1={params.p1} p2={params.p2} p3={params.p3} m={params.m}")
print(f"strengths alpha={params.alpha} beta={params.beta} gamma={params.gamma} "
      f"c={params.c}")

key = make_key(seed=2024)
print("seed-derived sub-image assignment:", key.assignment)

path = Path(tempfile.mkdtemp(prefix="sabmis_demo_")) / "demo.skey"
write_key(key, path)
print("key file round trips:", read_key(path) == key)
print("--- key file ---")
print(path.read_text(), end="")
print("----------------")

phi = gen_matrix(key)
print(f"measurement matrix: {phi.rows}x{phi.cols}, "
      f"mean {phi.entries.mean():+.4f}, var {phi.entries.var():.4f}")
print("regeneration is bitwise identical:",
      np.array_equal(phi.entries, gen_matrix(key).entries))

rng = np.random.default_rng(0)
coeffs = np.concatenate([rng.uniform(-50, 50, params.p1),
                         rng.normal(0, 0.5, params.p2)])
y = measure(coeffs, phi)
print(f"one block's measurements: {y.size} values "
      f"({params.p1} copied + {params.m} projections)")
print("u-part matches the spectrum exactly:",
      np.array_equal(y[: params.p1], coeffs[: params.p1]))

written, donors = rule_index_sets(params)
rows = {i - params.p1 - 1 for i in written | donors if i > params.p1}  # 0-based rows of phi
n_written = sum(i > params.p1 for i in written)
print(f"the transplant touches {len(rows)} of {params.m} measurement rows "
      f"(phi rows {min(rows)}..{max(rows)}: {len(rows) - n_written} donors, then "
      f"{n_written} written); the pipelines compute only those")
