"""Vectorized Monte Carlo trial engines behind the experiment harness.

Every engine runs its trials through `_run_batches`, in fixed-size seeded
batches (see `seeding`), keeping per-trial memory bounded while the estimate
stays bit-reproducible for a given master seed. The scalar selectors in
`prophet`, `secretary`, and `mechanisms` define the semantics; these engines
replicate them with array ops so desk-scale trial counts finish in seconds. Trace-equivalence
between both formulations is covered by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mechanisms
from .distributions import (
    ProductInstance,
    ValueDistribution,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    virtual_value_array,
)
from .oracle import top_block
from .prophet import TWO_THIRDS
from .secretary import BetaVector
from .seeding import BATCH_SIZE, batch_indices, trial_rng


class _Moments:
    """Streaming sums and centered co-moments of per-row columns.

    Each batch adds its column sums and its own two-pass centered
    co-moments; batches are merged in batch order by the pairwise update of
    Chan, Golub & LeVeque (1979). Unlike raw power sums, centered co-moments
    do not cancel when the values are large next to their spread. Means and
    ratios are formed from the column sums, accumulated batch by batch.
    """

    def __init__(self, width: int):
        self.count = 0
        self.sums = [0.0] * width
        self._mean = np.zeros(width)
        self._comoment = np.zeros((width, width))

    def add(self, *cols: np.ndarray) -> None:
        size = len(cols[0])
        sums = [float(c.sum()) for c in cols]
        mean = np.array(sums) / size
        dev = [c - mu for c, mu in zip(cols, mean)]
        comoment = np.array([[float((di * dj).sum()) for dj in dev] for di in dev])
        total = self.count + size
        delta = mean - self._mean
        self._comoment += comoment + np.outer(delta, delta) * (self.count * size / total)
        self._mean += delta * (size / total)
        self.sums = [s + b for s, b in zip(self.sums, sums)]
        self.count = total

    def _cov(self, i: int, j: int) -> float:
        return float(self._comoment[i, j]) / (self.count - 1)

    def mean_stderr(self, i: int = 0) -> tuple[float, float]:
        mean = self.sums[i] / self.count
        if self.count < 2:
            return mean, 0.0
        return mean, math.sqrt(self._cov(i, i) / self.count)

    def ratio_stderr(self, i: int = 0, j: int = 1) -> tuple[float, float]:
        """Ratio of means R = sum(a)/sum(b) of columns a = i and b = j, with
        the delta-method stderr sd(a - R*b) / (sqrt(T) * mean(b))."""
        t = self.count
        ratio = self.sums[i] / self.sums[j]
        if t < 2:
            return ratio, 0.0
        var_resid = max(0.0, self._cov(i, i) - 2 * ratio * self._cov(i, j)
                        + ratio**2 * self._cov(j, j))
        return ratio, math.sqrt(var_resid / t) / (self.sums[j] / t)


def _run_batches(step, width: int, trials: int, master_seed: int) -> _Moments:
    """Run `trials` rows in seeded batches and merge them in batch order.

    Batch b holds up to `BATCH_SIZE` rows and draws from the stream of index
    b; `step(rng, size)` returns its `width` per-row columns.
    """
    acc = _Moments(width)
    for b_idx, b_size in batch_indices(trials, BATCH_SIZE):
        acc.add(*step(trial_rng(master_seed, b_idx), b_size))
    return acc


def _binomial(successes: float, count: int) -> tuple[float, float]:
    p = successes / count
    return p, math.sqrt(max(0.0, p * (1 - p)) / count)


def _first_k(mask: np.ndarray, k: int) -> np.ndarray:
    """The first k True entries of each row of `mask`: the capacity cut of
    every "accept the first k" rule."""
    return mask & (np.cumsum(mask, axis=1) <= k)


def _threshold_top(
    values: np.ndarray,
    thr,
    k: int,
    m: int,
    first_ge: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-m blocks of the threshold selector and of the benchmark.

    The selector accepts the first k values of each row strictly above
    `thr`; with `first_ge` (the atoms variant) it accepts the first value
    >= thr, then values strictly above it. `thr` is a scalar or holds one
    threshold per row. The benchmark block is `top_block(values, m)`; the
    selector's block holds its m largest accepted values, with 0.0 in the
    slots it cannot fill. Neither block is sorted.

    Where the unbounded run accepts at most k values, the accepted values
    above thr are the row's largest, so the selector's block is the
    benchmark's entries above thr (plus thr itself for an accepted first
    value equal to it that makes the top m). Only the rows where the
    capacity binds run the cut over the whole row.
    """
    rows = len(values)
    per_row = np.ndim(thr) == 1
    t = thr[:, None] if per_row else thr
    bench = top_block(values, m)
    above = bench > t
    sel = np.where(above, bench, 0.0)
    accepted = values > t
    count = np.count_nonzero(accepted, axis=1)
    if first_ge:
        first = (values >= t).argmax(axis=1)
        first_at_thr = values[np.arange(rows), first] == thr
        count += first_at_thr
        add = np.nonzero(first_at_thr & (np.count_nonzero(above, axis=1) < m))[0]
        sel[add, (~above[add]).argmax(axis=1)] = thr[add] if per_row else thr
    bind = np.nonzero(count > k)[0]
    if len(bind):
        cut = accepted[bind]
        if first_ge:
            at_thr = np.nonzero(first_at_thr[bind])[0]
            cut[at_thr, first[bind[at_thr]]] = True
        sel[bind] = top_block(np.where(_first_k(cut, k), values[bind], 0.0), m)
    return sel, bench


def _threshold_trials(instance: ProductInstance, ell: int, k: int, trials: int,
                      master_seed: int, threshold: Optional[float] = None,
                      tau: Optional[int] = None, first_ge: bool = False,
                      replay: bool = False) -> _Moments:
    """Per-row top-ell values of the threshold selector and of the benchmark.
    The threshold is `threshold`, or else per row the tau-th highest of a fresh
    sample vector (`ProductInstance.sample_rank`), drawn before the values.
    `replay` adds the `_welfare_replay` column."""
    def step(rng, size):
        thr = instance.sample_rank(rng, size, tau) if threshold is None else threshold
        values = instance.sample_matrix(rng, size)
        alg, bench = (b.sum(axis=1) for b in _threshold_top(values, thr, k, ell, first_ge))
        if replay:
            return alg, bench, _welfare_replay(values, thr, alg, ell, k)
        return alg, bench

    return _run_batches(step, 3 if replay else 2, trials, master_seed)


# ---- prophet: single-sample threshold ----


def alg_tau_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    tau: int,
    trials: int,
    master_seed: int,
) -> tuple[float, float]:
    """Ratio of the selector's expected top-ell value to the offline top-ell
    benchmark, both estimated on the same realized award vectors.

    Each row's threshold is the tau-th highest of a fresh sample vector,
    drawn before the row's values by `ProductInstance.sample_rank` (from its
    Beta order-statistic law on an i.i.d. instance).

    Assumes atomless components, where the uniform-priority tie-break rule
    almost surely never fires and can be skipped.
    """
    return _threshold_trials(instance, ell, k, trials, master_seed, tau=tau).ratio_stderr()


# ---- prophet: max-distribution threshold ----


def alg_max_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
) -> tuple[float, float]:
    """Ratio for the atomless max-distribution selector (accept first k
    values strictly above the (2/3)^(k-1) quantile of the max)."""
    threshold = max_quantile(instance, TWO_THIRDS ** (k - 1))
    return _threshold_trials(instance, ell, k, trials, master_seed, threshold).ratio_stderr()


def alg_max_atoms_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
) -> tuple[float, float]:
    """Ratio for the mass-point variant: accept the first value >= T, then
    the first k-1 later values strictly above T."""
    threshold = max_quantile_inf(instance, TWO_THIRDS ** (k - 2))
    return _threshold_trials(instance, ell, k, trials, master_seed, threshold,
                             first_ge=True).ratio_stderr()


# ---- secretary: interval selector under random arrival ----


@dataclass
class SecretaryTrialStats:
    """Aggregates over random-arrival trials of the interval selector."""

    ratio: float
    ratio_stderr: float
    prob_capacity_differs: float       # Pr[bounded and unbounded runs differ]
    prob_capacity_differs_stderr: float
    prob_ell_missed: float             # Pr[unbounded run misses the ell-th largest]
    prob_ell_missed_stderr: float
    trials: int


#: Rank cells (rows x n) that the secretary engine holds per row chunk. It
#: bounds the engine's working memory; it does not change any result.
_RANK_CHUNK_CELLS = 1 << 21


def secretary_trials(
    values: np.ndarray,
    beta: BetaVector,
    k: int,
    trials: int,
    master_seed: int,
) -> SecretaryTrialStats:
    """Simulate the interval selector over uniformly random arrival orders.

    Decisions depend only on relative ranks, so the engine permutes ranks
    (0 = largest value) and maps accepted ranks back to values at the end.
    Tied values share the key of their best rank, so an earlier arrival of
    an equal value counts as better, as in the scalar selector.

    No loop runs over arrival positions. With r_q the key arriving at
    0-based position q, let C_j[p] be the j-th smallest key among arrivals
    0..p, with n for an empty prefix. Then

        C_1 = minimum.accumulate(r),
        C_j[p] = min_{q <= p} max(C_{j-1}[q-1], r_q),

    so `ell` passes of `maximum` and `minimum.accumulate` give every order
    statistic the selector needs. The arrival at position p of interval j
    (positions bounds[j] .. bounds[j+1]-1, bounds = (0,) + beta.boundaries)
    is accepted by the unbounded run iff r_p < C_j[p-1]; interval 0 never
    accepts. The bounded run keeps the first k of those acceptances.

    Each seeded batch is processed in row chunks of int32 keys, each drawn
    as rng.random((rows, n)). Drawn in order, the chunks consume the same
    stream as one (batch, n) draw, so the permutations, and the estimates,
    do not depend on the chunk size.
    """
    vals_desc = np.sort(np.asarray(values, dtype=float))[::-1]
    n = len(vals_desc)
    ell = beta.ell
    if beta.n != n:
        raise ValueError("beta.n must match the number of values")
    bench = float(vals_desc[:ell].sum())
    vals_ext = np.append(vals_desc, 0.0)  # sentinel key n -> contributes 0
    first = np.r_[True, vals_desc[1:] != vals_desc[:-1]]
    key = np.maximum.accumulate(np.where(first, np.arange(n), 0)).astype(np.int32)
    ell_key = key[ell - 1] if ell <= n else n
    bounds = (0,) + beta.boundaries
    # the last interval that holds a position; higher order statistics are unused
    last_j = max((j for j in range(1, ell + 1) if bounds[j] < bounds[j + 1]), default=0)
    rows = max(1, min(BATCH_SIZE, trials, _RANK_CHUNK_CELLS // n))
    acc = np.empty((rows, n), dtype=bool)
    # column p + 1 holds C_j[p]; column 0 is the empty prefix
    cur = np.full((rows, n + 1), n, dtype=np.int32)
    nxt = cur.copy()

    def step(rng, size):
        # per row: the bounded run's top-ell value, and 0/1 flags for a run
        # the capacity cut changed and an unbounded run that missed rank ell
        ell_vals, differ, missed = np.empty(size), np.empty(size), np.empty(size)
        for lo in range(0, size, rows):
            c = min(rows, size - lo)
            # r[:, pos] = key of the global rank arriving at position pos
            r = key[np.argsort(rng.random((c, n)), axis=1)]
            a_u, c_j, c_next = acc[:c], cur[:c], nxt[:c]
            a_u[:, :bounds[1]] = False
            np.minimum.accumulate(r, axis=1, out=c_j[:, 1:])
            for j in range(1, last_j + 1):
                lo_j, hi_j = bounds[j], bounds[j + 1]
                np.less(r[:, lo_j:hi_j], c_j[:, lo_j:hi_j], out=a_u[:, lo_j:hi_j])
                if j < last_j:
                    np.maximum(c_j[:, :-1], r, out=c_next[:, 1:])
                    np.minimum.accumulate(c_next[:, 1:], axis=1, out=c_next[:, 1:])
                    c_j, c_next = c_next, c_j
            missed[lo:lo + c] = ~(a_u & (r == ell_key)).any(axis=1)
            # capacity cut: only rows with more than k acceptances change
            over = np.count_nonzero(a_u, axis=1) > k
            differ[lo:lo + c] = over
            if over.any():
                a_u[over] = _first_k(a_u[over], k)
            kept = np.where(a_u, r, n)
            if ell < n:
                kept = np.partition(kept, ell - 1, axis=1)[:, :ell]
            ell_vals[lo:lo + c] = vals_ext[kept].sum(axis=1)
        return ell_vals, differ, missed

    moments = _run_batches(step, 3, trials, master_seed)
    count = moments.count
    mean, se = moments.mean_stderr(0)
    p_diff, se_diff = _binomial(moments.sums[1], count)
    p_miss, se_miss = _binomial(moments.sums[2], count)
    return SecretaryTrialStats(mean / bench, se / bench, p_diff, se_diff,
                               p_miss, se_miss, count)


# ---- mechanisms ----


@dataclass
class WelfareTrialStats:
    ratio: float
    ratio_stderr: float
    trace_mismatches: int  # replayed trials where the scalar mechanism's welfare differs
    trials: int


#: Leading rows of every welfare batch that are replayed through the scalar
#: mechanism, `mechanisms.run_two_phase`, to check the batch kernel.
_REPLAY_ROWS = 64


def _welfare_replay(values: np.ndarray, threshold, welfare: np.ndarray,
                    ell: int, k: int) -> np.ndarray:
    """Per-row 0/1 column: 1 for a replayed leading row whose scalar welfare
    differs from `welfare` by more than 1e-9."""
    mismatch = np.zeros(len(values))
    thresholds = np.broadcast_to(threshold, len(values))
    for row in range(min(_REPLAY_ROWS, len(values))):
        config = mechanisms.MechanismConfig(ell, k, float(thresholds[row]))
        outcome = mechanisms.run_two_phase(values[row], config)
        mismatch[row] = abs(outcome.welfare - welfare[row]) > 1e-9
    return mismatch


def mechanism_welfare_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
    source: str = "alg_max",
    tau: Optional[int] = None,
) -> WelfareTrialStats:
    """Welfare ratio of the two-phase mechanism, plus a check of the batch
    kernel against the scalar mechanism on the leading rows of every batch.

    The ticket threshold comes from the max-distribution quantile
    (source="alg_max", fixed across trials) or from the tau-th highest entry
    of a fresh sample vector per trial (source="alg_tau-sample", drawn by
    `ProductInstance.sample_rank`). The top ell of the first k ticket holders
    win, so the welfare is the threshold selector's top-ell value.
    """
    threshold = None
    if source == mechanisms.SOURCE_ALG_MAX:
        threshold = max_quantile(instance, TWO_THIRDS ** (k - 1))
    elif source != mechanisms.SOURCE_ALG_TAU:
        raise ValueError(f"unknown threshold source: {source!r}")
    acc = _threshold_trials(instance, ell, k, trials, master_seed, threshold, tau,
                            replay=True)
    ratio, se = acc.ratio_stderr()
    return WelfareTrialStats(ratio, se, int(acc.sums[2]), acc.count)


@dataclass
class RevenueTrialStats:
    ratio: float                 # MC revenue / MC optimal revenue
    ratio_stderr: float
    revenue_mean: float
    revenue_stderr: float
    optimal_mean: float
    optimal_stderr: float
    identity_gap: float          # mean(revenue - winner virtual surplus)
    identity_gap_stderr: float
    trials: int


def mechanism_revenue_trials(
    prior: ValueDistribution,
    n: int,
    ell: int,
    k: int,
    tau: int,
    trials: int,
    master_seed: int,
) -> RevenueTrialStats:
    """Expected revenue of the two-phase mechanism with a fresh sample-based
    threshold per trial, against the optimal-revenue benchmark (expected
    top-ell positive virtual surplus), plus the Myerson payment-identity gap.
    """
    phat = monopoly_price(prior)
    instance = ProductInstance.iid(prior, n)

    def step(rng, size):
        thr = np.maximum(phat, instance.sample_rank(rng, size, tau))
        values = prior.sample_n(rng, (size, n))
        # the top ell + 1 ticket values and row values, in decreasing order. A
        # ticket value exceeds thr >= phat > 0, so 0.0 is an unfilled slot; the
        # virtual value increases, so the top ell values hold the top ell of it
        tickets, top = (-np.sort(-b, axis=1) for b in _threshold_top(values, thr, k, ell + 1))
        won = tickets[:, :ell]
        # winners pay the (ell+1)-th ticket value, or thr when it is missing
        price = np.maximum(thr, tickets[:, ell]) if n > ell else thr
        revenue = np.count_nonzero(won, axis=1) * price
        surplus = (virtual_value_array(prior, won) * (won > 0)).sum(axis=1)
        optimal = np.maximum(virtual_value_array(prior, top[:, :ell]), 0.0).sum(axis=1)
        return revenue, optimal, revenue - surplus

    acc = _run_batches(step, 3, trials, master_seed)
    ratio, ratio_se = acc.ratio_stderr(0, 1)
    rev_mean, rev_se = acc.mean_stderr(0)
    opt_mean, opt_se = acc.mean_stderr(1)
    gap_mean, gap_se = acc.mean_stderr(2)
    return RevenueTrialStats(ratio, ratio_se, rev_mean, rev_se, opt_mean, opt_se,
                             gap_mean, gap_se, acc.count)
