"""Exact ratio of the mass-point max-distribution selector on finite supports.

Used as the reference for `prophet-max` specs whose instance has atoms, where
the harness runs `alg_max_atoms`. The selector accepts the first value >= T,
then the first k-1 later values strictly above T, and is scored on the top
`ell` accepted values.

For nonnegative values on the sorted levels x_1 < x_2 < ... (x_0 = 0),

    top-ell sum = sum_j (x_j - x_{j-1}) * min(ell, #{accepted values >= x_j}),

so the expectation needs, per level, the law of that count capped at ell. A
forward pass over arrival positions tracks it jointly with the number of
acceptances so far, for all levels at once.
"""

from __future__ import annotations

import numpy as np

from overbook.distributions import ProductInstance, max_quantile_inf
from overbook.prophet import TWO_THIRDS


def alg_max_atoms_ratio(instance: ProductInstance, ell: int, k: int) -> float:
    """E[top-ell of the accepted values] / E[top-ell of all values]."""
    threshold = max_quantile_inf(instance, TWO_THIRDS ** (k - 2))
    atoms = [c.atoms for c in instance.components]
    levels = np.unique([v for comp in atoms for v, _ in comp if v > 0])
    widths = np.diff(levels, prepend=0.0)
    count = np.arange(k + 1)
    # alg[level, accepted so far, accepted values >= level (capped at ell)]
    alg = np.zeros((len(levels), k + 1, ell + 1))
    alg[:, 0, 0] = 1.0
    # bench[level, values >= level (capped at ell)]
    bench = np.zeros((len(levels), ell + 1))
    bench[:, 0] = 1.0
    for comp in atoms:
        new_alg = np.zeros_like(alg)
        above = np.zeros(len(levels))
        for v, p in comp:
            reaches = v >= levels
            above += p * reaches
            accept = np.where(count == 0, v >= threshold, (count < k) & (v > threshold))
            new_alg += p * alg * ~accept[None, :, None]
            moved = np.zeros_like(alg)
            moved[:, 1:, :] = (alg * accept[None, :, None])[:, :-1, :]
            bumped = np.zeros_like(alg)
            bumped[:, :, 1:] = moved[:, :, :-1]
            bumped[:, :, ell] += moved[:, :, ell]
            new_alg += p * np.where(reaches[:, None, None], bumped, moved)
        alg = new_alg
        new_bench = bench * (1.0 - above)[:, None]
        new_bench[:, 1:] += bench[:, :-1] * above[:, None]
        new_bench[:, ell] += bench[:, ell] * above
        bench = new_bench
    capped = np.arange(ell + 1)
    return float(widths @ (alg.sum(axis=1) @ capped)) / float(widths @ (bench @ capped))
