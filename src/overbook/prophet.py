"""Single-pass threshold selectors for the prophet setting.

Two families: a single-sample selector whose threshold is the tau-th highest
entry of an offline sample vector (with a uniform-priority tie-break rule),
and a max-distribution selector whose threshold is a quantile of the
distribution of the maximum award (with a separate variant for atom-bearing
distributions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import (
    DegenerateThresholdError,
    DistributionError,
    ProductInstance,
    max_quantile,
    max_quantile_inf,
)
from .oracle import top_ell

TWO_THIRDS = 2.0 / 3.0


class UseAtomsVariantError(DistributionError):
    """The atomless selector was given an atom-bearing instance."""


@dataclass
class SelectionOutcome:
    """Trace of one selector run.

    accepted holds (index, value) pairs in acceptance order; indices are
    0-based arrival positions and strictly increasing. ell_value is the
    top-ell total of the accepted values.
    """

    accepted: list[tuple[int, float]]
    threshold_used: float
    ell_value: float

    @property
    def accepted_values(self) -> list[float]:
        return [v for _, v in self.accepted]

    def to_json(self) -> dict:
        return {
            "accepted": [[i, v] for i, v in self.accepted],
            "threshold": self.threshold_used,
            "ell_value": self.ell_value,
        }

    @classmethod
    def from_accepted(cls, values: Sequence[float], indices: list[int],
                      threshold: float, ell: int) -> "SelectionOutcome":
        """The outcome that accepted the arrivals `indices` of `values`,
        scored on its top ell values."""
        accepted = [(i, float(values[i])) for i in indices]
        return cls(accepted, threshold, top_ell([v for _, v in accepted], ell).value)


def accept_first(keys: Iterable, threshold, k: int, first_ge: bool = False) -> list[int]:
    """Arrival indices of the first k keys strictly above `threshold`, and
    with `first_ge` of the first key >= threshold too. Keys compare with
    Python's ordering, so (value, priority) pairs against a (threshold,
    priority) pair break ties lexicographically. The scalar twin of the
    batch kernel `experiments._threshold_top`."""
    accepted: list[int] = []
    for i, key in enumerate(keys):
        if len(accepted) >= k:
            break
        if key > threshold or (first_ge and not accepted and key >= threshold):
            accepted.append(i)
    return accepted


def default_tau(ell: int, k: int) -> int:
    """ceil((ell + k) / 2), the sample rank used by the default selector."""
    if not (1 <= ell <= k):
        raise ValueError("need k >= ell >= 1")
    return (ell + k + 1) // 2


def alg_tau(
    samples: Sequence[float],
    values: Sequence[float],
    tau: int,
    k: int,
    ell: int,
    rng: np.random.Generator,
) -> SelectionOutcome:
    """Single-sample selector: threshold at the tau-th highest sample.

    Ties are resolved by 2n i.i.d. uniform priorities (almost surely
    distinct), which realizes a uniform random permutation over the combined
    sample/value entries.
    """
    samples = np.asarray(samples, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(samples)
    if len(values) != n:
        raise ValueError("samples and values must have equal length")
    if not (1 <= tau <= n):
        raise ValueError("tau must lie in [1, n]")
    if k < 1:
        raise ValueError("k must be >= 1")
    # Python floats: sorting and comparing them skips numpy's scalar boxing
    priorities = rng.random(2 * n).tolist()
    sample_pri, value_pri = priorities[:n], priorities[n:]
    vals = values.tolist()
    pairs = sorted(zip(samples.tolist(), sample_pri), reverse=True)
    threshold, threshold_pri = pairs[tau - 1]
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError("threshold must be finite and nonnegative")
    # the zip itself, not a list: acceptance stops reading it at capacity
    indices = accept_first(zip(vals, value_pri), (threshold, threshold_pri), k)
    return SelectionOutcome.from_accepted(vals, indices, threshold, ell)


def max_level(k: int, first_ge: bool = False) -> float:
    """The max-CDF level of every max-distribution threshold, scalar or
    batch: (2/3)^(k-1), or (2/3)^(k-2) for the atoms rule (`first_ge`).
    Raises DegenerateThresholdError for k < 2, where the strict rule's
    level 1 pins its threshold at the supremum."""
    if k < 2:
        raise DegenerateThresholdError(f"the max-distribution threshold needs k >= 2, got {k}")
    return TWO_THIRDS ** (k - 2 if first_ge else k - 1)


def alg_max(
    instance: ProductInstance,
    values: Sequence[float],
    k: int,
    ell: int,
) -> SelectionOutcome:
    """Max-distribution selector for atomless instances.

    Threshold T solves Pr[max <= T] = `max_level(k)`; the first k values
    strictly above T are accepted.
    """
    if not instance.all_atomless:
        raise UseAtomsVariantError("instance has atoms; use alg_max_atoms")
    threshold = max_quantile(instance, max_level(k))
    indices = accept_first(values, threshold, k)
    return SelectionOutcome.from_accepted(values, indices, threshold, ell)


def alg_max_atoms(
    instance: ProductInstance,
    values: Sequence[float],
    k: int,
    ell: int,
) -> SelectionOutcome:
    """Mass-point variant of the max-distribution selector.

    Threshold T = inf{t : Pr[max <= t] >= `max_level(k, first_ge=True)`};
    accepts the first value >= T, thereafter the first k-1 values strictly
    above T.
    """
    threshold = max_quantile_inf(instance, max_level(k, first_ge=True))
    indices = accept_first(values, threshold, k, first_ge=True)
    return SelectionOutcome.from_accepted(values, indices, threshold, ell)
