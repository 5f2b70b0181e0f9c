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
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class ThresholdRule:
    """Threshold plus the tie-break rank of the threshold element itself."""

    threshold: float
    threshold_priority: float
    capacity: int

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and nonnegative")


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
    def from_accepted(cls, accepted: list[tuple[int, float]], threshold: float,
                      ell: int) -> "SelectionOutcome":
        """The outcome that accepted `accepted`, scored on its top ell values."""
        return cls(accepted, threshold, top_ell([v for _, v in accepted], ell).value)


def accept_first(values: Sequence[float], threshold: float, k: int,
                 first_ge: bool = False) -> list[tuple[int, float]]:
    """The first k (index, value) arrivals strictly above `threshold`, and
    with `first_ge` the first arrival >= threshold too. The scalar twin of
    the batch kernel `experiments._threshold_top`."""
    accepted: list[tuple[int, float]] = []
    for i, v in enumerate(values):
        if len(accepted) >= k:
            break
        if v > threshold or (first_ge and not accepted and v >= threshold):
            accepted.append((i, float(v)))
    return accepted


def run_threshold(
    values: Sequence[float],
    priorities: Sequence[float],
    rule: ThresholdRule,
    ell: Optional[int] = None,
) -> SelectionOutcome:
    """Accept the first `capacity` arrivals with (value, priority)
    lexicographically above (threshold, threshold_priority)."""
    if len(values) != len(priorities):
        raise ValueError("values and priorities must have equal length")
    ell = rule.capacity if ell is None else ell
    accepted: list[tuple[int, float]] = []
    for i, (v, pri) in enumerate(zip(values, priorities)):
        if len(accepted) >= rule.capacity:
            break
        if (v, pri) > (rule.threshold, rule.threshold_priority):
            accepted.append((i, float(v)))
    return SelectionOutcome.from_accepted(accepted, rule.threshold, ell)


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
    priorities = rng.random(2 * n)
    sample_pri, value_pri = priorities[:n], priorities[n:]
    pairs = sorted(zip(samples, sample_pri), reverse=True)
    threshold, threshold_pri = pairs[tau - 1]
    rule = ThresholdRule(float(threshold), float(threshold_pri), k)
    return run_threshold(values, value_pri, rule, ell)


def alg_max(
    instance: ProductInstance,
    values: Sequence[float],
    k: int,
    ell: int,
) -> SelectionOutcome:
    """Max-distribution selector for atomless instances.

    Threshold T solves Pr[max <= T] = (2/3)^(k-1); the first k values
    strictly above T are accepted. Requires k >= 2: at k = 1 the target
    quantile is 1, pinning T at the essential supremum.
    """
    if k < 2:
        raise DegenerateThresholdError("k = 1 pins the threshold at the supremum")
    if not instance.all_atomless:
        raise UseAtomsVariantError("instance has atoms; use alg_max_atoms")
    threshold = max_quantile(instance, TWO_THIRDS ** (k - 1))
    return SelectionOutcome.from_accepted(accept_first(values, threshold, k), threshold, ell)


def alg_max_atoms(
    instance: ProductInstance,
    values: Sequence[float],
    k: int,
    ell: int,
) -> SelectionOutcome:
    """Mass-point variant of the max-distribution selector.

    Threshold T = inf{t : Pr[max <= t] >= (2/3)^(k-2)}; accepts the first
    value >= T, thereafter the first k-1 values strictly above T.
    """
    if k < 2:
        raise DegenerateThresholdError("k must be >= 2")
    threshold = max_quantile_inf(instance, TWO_THIRDS ** (k - 2))
    accepted = accept_first(values, threshold, k, first_ge=True)
    return SelectionOutcome.from_accepted(accepted, threshold, ell)
