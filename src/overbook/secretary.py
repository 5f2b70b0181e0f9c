"""Interval-based selectors for the random-arrival (secretary) setting.

Positions 1..n are partitioned into ell+1 intervals; an arrival at a
position in interval j is accepted when it ranks among the j highest values
seen so far. The capacity-bounded selector additionally stops accepting
after k elements; the unbounded variant does not.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

from .prophet import SelectionOutcome

E = math.e


@dataclass(frozen=True)
class BetaVector:
    """Interval boundaries (b_0, ..., b_ell) over positions 1..n.

    Interval j covers positions b_{j-1}+1 .. b_j, with an implicit b_{-1}=0.
    Intervals may be empty. The constructor also accepts the (ell+2)-long
    form that spells out the leading zero.
    """

    boundaries: tuple[int, ...]
    n: int
    ell: int

    def __post_init__(self):
        bs = tuple(int(b) for b in self.boundaries)
        if len(bs) == self.ell + 2 and bs[0] == 0:
            bs = bs[1:]
        if len(bs) != self.ell + 1:
            raise ValueError("need ell + 1 boundaries (b_0..b_ell)")
        if any(b2 < b1 for b1, b2 in zip(bs, bs[1:])) or bs[0] < 0:
            raise ValueError("boundaries must be nondecreasing and nonnegative")
        if bs[-1] != self.n:
            raise ValueError("last boundary must equal n")
        object.__setattr__(self, "boundaries", bs)


def interval_index(beta: BetaVector, i: int) -> int:
    """The unique j with b_{j-1} < i <= b_j, for a position i in [1, n]."""
    if not (1 <= i <= beta.n):
        raise ValueError(f"position {i} outside [1, {beta.n}]")
    return bisect_left(beta.boundaries, i)


def secretary_phase_length(ell: int, k: int) -> float:
    """The exponent s = (k - 8*ell) / (2 + 2*ln(ell)), clamped at zero."""
    if not (1 <= ell <= k):
        raise ValueError("need k >= ell >= 1")
    return max(0.0, (k - 8 * ell) / (2.0 + 2.0 * math.log(ell)))


def default_beta(n: int, ell: int, k: int) -> BetaVector:
    """Default interval boundaries.

    b_0 = floor(n e^{-s} / (2 e ell)), b_j = floor(j n e^{-s/j} / (2 e ell))
    for 0 < j < ell, b_ell = n, then clamped nondecreasing and <= n. The
    un-floored sequence is already nondecreasing; the clamp guards small-n
    edge cases.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = secretary_phase_length(ell, k)
    raw = [math.floor(n * math.exp(-s) / (2 * E * ell))]
    for j in range(1, ell):
        raw.append(math.floor(j * n * math.exp(-s / j) / (2 * E * ell)))
    raw.append(n)
    clamped = []
    prev = 0
    for b in raw:
        prev = min(n, max(prev, b))
        clamped.append(prev)
    return BetaVector(tuple(clamped), n, ell)


def _run(values: Sequence[float], beta: BetaVector, capacity: float) -> SelectionOutcome:
    if len(values) != beta.n:
        raise ValueError("values length must equal beta.n")
    accepted: list[tuple[int, float]] = []
    seen: list[float] = []  # ascending
    for pos0, v in enumerate(values):
        j = interval_index(beta, pos0 + 1)
        # rank among v_1..v_i with earlier arrivals winning ties
        rank = len(seen) - bisect_left(seen, v) + 1
        if rank <= j and len(accepted) < capacity:
            accepted.append((pos0, float(v)))
        insort(seen, v)
    return SelectionOutcome.from_accepted(accepted, math.nan, beta.ell)


def run_secretary(values: Sequence[float], beta: BetaVector, k: int) -> SelectionOutcome:
    """Capacity-bounded interval selector: at most k acceptances."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _run(values, beta, k)


def run_secretary_unbounded(values: Sequence[float], beta: BetaVector) -> SelectionOutcome:
    """Interval selector without the capacity stop; may accept more than k."""
    return _run(values, beta, math.inf)
