"""Vectorized Monte Carlo trial engines behind the experiment harness.

Every engine runs its trials through `_run_batches`, in fixed-size seeded
batches (see `seeding`), keeping per-trial memory bounded while the estimate
stays bit-reproducible for a given master seed. The scalar selectors in
`prophet`, `secretary`, and `mechanisms` define the semantics; these engines
replicate them with array ops so desk-scale trial counts finish in seconds.
The threshold engines (prophet and mechanism welfare) replay the leading rows
of every batch through the scalar rule `prophet.accept_first` and report the
rows where their kernel disagrees as `trace_mismatches`; the test suite holds
every engine to the scalar selectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import prophet
from .distributions import (
    ProductInstance,
    ValueDistribution,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    virtual_value_array,
)
from .oracle import top_block
from .prophet import accept_first
from .secretary import BetaVector
from .seeding import BATCH_SIZE, batch_indices, trial_rng


class ZeroBenchmarkError(ValueError):
    """Every trial's benchmark is 0, so the ratio of means is undefined."""


class _Moments:
    """Streaming sums and centered co-moments of per-row columns.

    Each batch adds its column sums and its own two-pass centered
    co-moments; batches are merged in batch order by the pairwise update of
    Chan, Golub & LeVeque (1979). Unlike raw power sums, centered co-moments
    do not cancel when the values are large next to their spread. Means and
    ratios are formed from the column sums, accumulated batch by batch.

    Column i is held scaled by 2^-e_i, where e_i is the binary exponent of
    its largest |value| in the first batch, so that no co-moment over- or
    underflows at any scale of values. The factor is a power of two, so
    every result is bit for bit the unscaled one wherever nothing over- or
    underflows unscaled.
    """

    def __init__(self, width: int):
        self.count = 0
        self._exp = [0] * width
        self._sums = [0.0] * width
        self._mean = np.zeros(width)
        self._comoment = np.zeros((width, width))

    @property
    def sums(self) -> list[float]:
        """The column sums, unscaled."""
        return [math.ldexp(s, e) for s, e in zip(self._sums, self._exp)]

    def add(self, *cols: np.ndarray) -> None:
        if not self.count:
            self._exp = [math.frexp(float(np.abs(c).max()))[1] for c in cols]
        cols = [np.ldexp(np.asarray(c, dtype=float), -e) for c, e in zip(cols, self._exp)]
        size = len(cols[0])
        sums = [float(c.sum()) for c in cols]
        mean = np.array(sums) / size
        dev = [c - mu for c, mu in zip(cols, mean)]
        comoment = np.array([[float((di * dj).sum()) for dj in dev] for di in dev])
        total = self.count + size
        delta = mean - self._mean
        self._comoment += comoment + np.outer(delta, delta) * (self.count * size / total)
        self._mean += delta * (size / total)
        self._sums = [s + b for s, b in zip(self._sums, sums)]
        self.count = total

    def _cov(self, i: int, j: int) -> float:
        return float(self._comoment[i, j]) / (self.count - 1)

    def mean_stderr(self, i: int = 0) -> tuple[float, float]:
        mean = self.sums[i] / self.count
        if self.count < 2:
            return mean, 0.0
        return mean, math.ldexp(math.sqrt(self._cov(i, i) / self.count), self._exp[i])

    def ratio_stderr(self, i: int = 0, j: int = 1) -> tuple[float, float]:
        """Ratio of means R = sum(a)/sum(b) of columns a = i and b = j, with
        the delta-method stderr sd(a - R*b) / (sqrt(T) * mean(b)). Raises
        `ZeroBenchmarkError` when sum(b) is 0."""
        t = self.count
        if self._sums[j] == 0.0:
            raise ZeroBenchmarkError(f"every one of the {t} trials has a benchmark of 0")
        # the ratio and its stderr in scaled columns are the true ones times 2^-shift
        shift = self._exp[i] - self._exp[j]
        ratio = self._sums[i] / self._sums[j]
        if t < 2:
            return math.ldexp(ratio, shift), 0.0
        # a NaN variance stays NaN, and fails the verdict
        var_resid = max(self._cov(i, i) - 2 * ratio * self._cov(i, j)
                        + ratio**2 * self._cov(j, j), 0.0)
        stderr = math.sqrt(var_resid / t) / (self._sums[j] / t)
        return math.ldexp(ratio, shift), math.ldexp(stderr, shift)


def _run_batches(step, width: int, trials: int, master_seed: int) -> _Moments:
    """Run `trials` rows in seeded batches and merge them in batch order.

    Batch b holds up to `BATCH_SIZE` rows and draws from the stream of index
    b; `step(rng, size)` returns its `width` per-row columns.
    """
    acc = _Moments(width)
    for b_idx, b_size in batch_indices(trials, BATCH_SIZE):
        acc.add(*step(trial_rng(master_seed, b_idx), b_size))
    return acc


@dataclass
class TrialStats:
    """What every engine returns: its ratio estimate and stderr, and its
    diagnostics keyed as in the report's `extras`."""

    ratio: float
    ratio_stderr: float
    extras: dict


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row top-m blocks of the threshold selector and of the benchmark,
    and a per-row flag for the rows where the capacity k binds.

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
    return sel, bench, count > k


#: Leading rows of every threshold-engine batch that are replayed through the
#: scalar rule, `prophet.accept_first`, to check the batch kernel.
_REPLAY_ROWS = 64


def _replay(values: np.ndarray, thr, sel: np.ndarray, k: int, first_ge: bool) -> np.ndarray:
    """Per-row 0/1 column: 1 for a leading row whose top accepted values
    under `accept_first(row, thr, k, first_ge)`, padded with 0.0, are not
    exactly the kernel's block `sel` as a multiset."""
    ell = sel.shape[1]
    rows = min(_REPLAY_ROWS, len(values))
    thresholds = np.broadcast_to(thr, len(values))[:rows].tolist()
    mismatch = np.zeros(len(values))
    for r, (row, t, want) in enumerate(zip(values[:rows].tolist(), thresholds,
                                           np.sort(sel[:rows], axis=1).tolist())):
        top = sorted(row[i] for i in accept_first(row, t, k, first_ge))[-ell:]
        # values are nonnegative, so the 0.0 padding sorts first
        mismatch[r] = [0.0] * (ell - len(top)) + top != want
    return mismatch


def _threshold_trials(instance: ProductInstance, ell: int, k: int, trials: int,
                      master_seed: int, threshold: Optional[float] = None,
                      tau: Optional[int] = None, first_ge: bool = False) -> TrialStats:
    """Per-row top-ell values of the threshold selector and of the benchmark,
    whether k binds, and whether the kernel disagrees with the scalar rule.
    The threshold is `threshold`, or else per row the tau-th highest of a
    fresh sample vector (`ProductInstance.sample_rank`), drawn before the
    values. The values are `ProductInstance.sample_rows`: reduced rows at a
    fixed threshold and on a single run of identical components, full rows
    only at per-row thresholds on an instance of several runs.

    Extras: `binding_frac`, the share of rows where more than k values clear
    the threshold, and `trace_mismatches`, the leading rows of every batch
    whose top-ell accepted values under the scalar rule (`_replay`) are not
    the kernel's."""
    def step(rng, size):
        thr = instance.sample_rank(rng, size, tau) if threshold is None else threshold
        values = instance.sample_rows(rng, size, thr, ell)
        alg, bench, binds = _threshold_top(values, thr, k, ell, first_ge)
        return (alg.sum(axis=1), bench.sum(axis=1), binds,
                _replay(values, thr, alg, k, first_ge))

    acc = _run_batches(step, 4, trials, master_seed)
    extras = {"binding_frac": acc.sums[2] / acc.count, "trace_mismatches": int(acc.sums[3])}
    return TrialStats(*acc.ratio_stderr(), extras)


# ---- prophet: single-sample threshold ----


def alg_tau_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    tau: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Ratio of the selector's expected top-ell value to the offline top-ell
    benchmark, both estimated on the same realized award vectors.

    Each row's threshold is the tau-th highest of a fresh sample vector,
    drawn before the row's values by `ProductInstance.sample_rank` (from its
    Beta order-statistic law on an i.i.d. instance).

    Assumes atomless components, where the uniform-priority tie-break rule
    almost surely never fires and can be skipped.
    """
    return _threshold_trials(instance, ell, k, trials, master_seed, tau=tau)


# ---- prophet: max-distribution threshold ----


def alg_max_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Ratio for the atomless max-distribution selector (accept first k
    values strictly above the `prophet.max_level(k)` quantile of the max)."""
    threshold = max_quantile(instance, prophet.max_level(k))
    return _threshold_trials(instance, ell, k, trials, master_seed, threshold)


def alg_max_atoms_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Ratio for the mass-point variant: accept the first value >= T, then
    the first k-1 later values strictly above T."""
    threshold = max_quantile_inf(instance, prophet.max_level(k, first_ge=True))
    return _threshold_trials(instance, ell, k, trials, master_seed, threshold, first_ge=True)


# ---- secretary: interval selector under random arrival ----


def _accumulate(ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.accumulate(a, axis=0)` in place, one row at a time: on a few
    long rows this beats the ufunc's own accumulate, which loops over the
    columns."""
    for i in range(1, len(a)):
        ufunc(a[i - 1], a[i], out=a[i])
    return a


#: Uniform cells (rows x n) that the secretary engine holds per row chunk. It
#: bounds the engine's working memory; it does not change any result.
_RANK_CHUNK_CELLS = 1 << 18


def secretary_trials(
    values: np.ndarray,
    beta: BetaVector,
    k: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Simulate the interval selector over uniformly random arrival orders.

    Decisions depend only on relative ranks, and no permutation is built.
    Each row chunk draws u = rng.random((rows, n)) and reads u[:, g] as the
    arrival time of global rank g (0 = largest value): rank g arrives at
    position #{h : u_h < u_g}, the order that argsort(u) realizes. Drawn in
    order, the chunks consume the same stream as one (batch, n) draw, so
    the estimates do not depend on the chunk size.

    Acceptance. With bounds = (0,) + beta.boundaries, rank g arrives in
    interval j when its position lies in bounds[j] .. bounds[j+1] - 1, that
    is, when u_g lies between the arrival times at those positions; in-place
    partitions of u find them. The unbounded run accepts g iff j >= 1 and
    u_g <= C_j(end(g)), the j-th smallest arrival time among ranks
    0..end(g), where end(g) is the last rank of g's tie group: an earlier
    arrival of an equal value counts as better, as in the scalar selector.
    The bounded run keeps the k earliest acceptances, and its top ell
    values are those of its first ell kept ranks. Extras:
    `prob_capacity_differs`, Pr[the bounded and unbounded runs differ], and
    `prob_ell_missed`, Pr[the unbounded run misses the ell-th largest],
    each with its binomial stderr.

    Candidate filter. Cut the ranks into blocks [s_b, s_{b+1}) with
    s = 0, ell, 2 ell, 4 ell, ..., and let theta_b be the ell-th smallest
    arrival time among ranks 0..s_b - 1. Every prefix of ranks that holds a
    rank g of block b also holds ranks 0..s_b - 1, and more ranks never
    raise an order statistic. So g can be accepted, or be among the
    j <= ell earliest arrivals of any prefix, only if u_g <= theta_b: the
    filter is exact. It leaves about ell (1 + log2(n / ell)) candidates per
    row.

    Narrow block. The candidates fill the slots of a block x in rank order,
    one column per row, padded with +inf. Over x,

        C_1 = minimum.accumulate(x),
        C_j[i] = min_{q <= i} max(C_{j-1}[q-1], x_q),

    with +inf for the empty prefix, and at every candidate C_j equals C_j
    over all ranks. Ties need no lookup of end(g): a tie group's candidates
    take its arrival times in increasing order, so that within the group an
    earlier arrival has the better rank, and the same arrivals are accepted.
    """
    vals_desc = np.sort(np.asarray(values, dtype=float))[::-1]
    n = len(vals_desc)
    ell = beta.ell
    if beta.n != n:
        raise ValueError("beta.n must match the number of values")
    bench = float(vals_desc[:ell].sum())
    ell_value = vals_desc[ell - 1] if ell <= n else np.nan  # tie group of rank ell
    # per rank: its tie group, and whether that group holds another rank
    group = np.cumsum(np.r_[True, vals_desc[1:] != vals_desc[:-1]])
    tied = np.bincount(group)[group] > 1
    bounds = (0,) + beta.boundaries
    live = [j for j in range(ell + 1) if bounds[j] < bounds[j + 1]]
    blocks = [0, min(ell, n)]
    while blocks[-1] < n:
        blocks.append(min(2 * blocks[-1], n))
    rows = max(1, min(BATCH_SIZE, trials, _RANK_CHUNK_CELLS // n))
    cand = np.ones((rows, n), dtype=bool)  # ranks 0..ell-1 stay candidates
    low = np.empty((rows, ell + blocks[-2] // 2))

    def step(rng, size):
        # per row: the bounded run's top-ell value, and 0/1 flags for a run
        # the capacity cut changed and an unbounded run that missed rank ell
        ell_vals, differ, missed = np.empty(size), np.empty(size), np.empty(size)
        for lo in range(0, size, rows):
            c = min(rows, size - lo)
            u = rng.random((c, n))
            mask = cand[:c]
            # the candidate filter: work[:, :ell] holds the ell earliest
            # arrivals among the ranks before the block, theta_b at ell - 1
            work = low[:c]
            work[:, :blocks[1]] = u[:, :blocks[1]]
            filled = blocks[1]
            for s, e in zip(blocks[1:-1], blocks[2:]):
                work[:, :filled].partition(ell - 1, axis=1)
                np.less_equal(u[:, s:e], work[:, ell - 1:ell], out=mask[:, s:e])
                if e < n:
                    work[:, ell:ell + e - s] = u[:, s:e]
                    filled = ell + e - s
            # the narrow block: arrival times x and values, 0.0 in padding
            flat = np.flatnonzero(mask)
            row, rank = np.divmod(flat, n)
            counts = np.bincount(row, minlength=c)
            width = int(counts.max())
            slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
            cell = slot * c + row
            x = np.full((width, c), np.inf)
            vals = np.zeros((width, c))
            x.flat[cell] = u.flat[flat]
            vals.flat[cell] = vals_desc[rank]
            # a tie group's candidates take its arrival times in increasing order
            t = np.flatnonzero(tied[rank])
            by_time = np.lexsort((x.flat[cell[t]], group[rank[t]], row[t]))
            x.flat[cell[t]] = x.flat[cell[t]][by_time]
            # the arrival times at the interval starts inside (0, n): partitions
            # of u in place, the latest start first
            end = n
            for j in reversed(live[1:]):
                u[:, :end].partition(bounds[j], axis=1)
                end = bounds[j]
            limit = np.full((width, c), -np.inf)  # C_j of the arrival's interval
            c_j, c_next = np.empty((width + 1, c)), np.empty((width + 1, c))
            c_j[0] = c_next[0] = np.inf  # slot i + 1 holds C_j[i]
            c_j[1:] = x
            _accumulate(np.minimum, c_j[1:])
            for j in range(1, live[-1] + 1):
                if j in live:
                    # the arrivals from the start of interval j on; those of
                    # a later interval are overwritten
                    np.copyto(limit, c_j[1:], where=x >= u[:, bounds[j]] if bounds[j] else True)
                if j < live[-1]:
                    np.maximum(c_j[:-1], x, out=c_next[1:])
                    _accumulate(np.minimum, c_next[1:])
                    c_j, c_next = c_next, c_j
            a_u = (x <= limit) & (np.arange(width)[:, None] < counts)
            missed[lo:lo + c] = ~(a_u & (vals == ell_value)).any(axis=0)
            # capacity cut: binding rows keep their k earliest acceptances
            over = np.count_nonzero(a_u, axis=0) > k
            differ[lo:lo + c] = over
            if over.any():
                x_over = np.where(a_u[:, over], x[:, over], np.inf)
                a_u[:, over] &= x_over <= np.partition(x_over, k - 1, axis=0)[k - 1]
            # the top ell kept values: those of the first ell kept ranks
            top = a_u & (_accumulate(np.add, a_u.astype(np.int32)) <= ell)
            ell_vals[lo:lo + c] = np.where(top, vals, 0.0).sum(axis=0)
        return ell_vals, differ, missed

    moments = _run_batches(step, 3, trials, master_seed)
    count = moments.count
    mean, se = moments.mean_stderr(0)
    extras = {}
    extras["prob_capacity_differs"], extras["prob_capacity_differs_stderr"] = \
        _binomial(moments.sums[1], count)
    extras["prob_ell_missed"], extras["prob_ell_missed_stderr"] = \
        _binomial(moments.sums[2], count)
    return TrialStats(mean / bench, se / bench, extras)


# ---- mechanisms ----


def mechanism_welfare_trials(
    instance: ProductInstance,
    ell: int,
    k: int,
    trials: int,
    master_seed: int,
    tau: Optional[int] = None,
) -> TrialStats:
    """Welfare ratio of the two-phase mechanism.

    With no `tau` the ticket threshold is the max-distribution quantile
    (source alg_max, fixed across trials); with one it is the tau-th highest
    entry of a fresh sample vector per trial (source alg_tau-sample, drawn by
    `ProductInstance.sample_rank`). The mechanism issues tickets by
    `accept_first` and the top ell ticket holders win, so the winners are the
    top ell values that `_threshold_trials` replays, and the welfare is the
    threshold selector's top-ell value.
    """
    threshold = max_quantile(instance, prophet.max_level(k)) if tau is None else None
    return _threshold_trials(instance, ell, k, trials, master_seed, threshold, tau)


def mechanism_revenue_trials(
    prior: ValueDistribution,
    n: int,
    ell: int,
    k: int,
    tau: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Expected revenue of the two-phase mechanism with a fresh sample-based
    threshold per trial, against the optimal-revenue benchmark (expected
    top-ell positive virtual surplus). Extras: the means and stderrs of the
    revenue, the optimal revenue and the Myerson payment-identity gap
    (revenue minus winner virtual surplus), and `binding_frac`.
    """
    phat = monopoly_price(prior)
    instance = ProductInstance.iid(prior, n)

    def step(rng, size):
        thr = np.maximum(phat, instance.sample_rank(rng, size, tau))
        values = prior.sample_n(rng, (size, n))
        # the top ell + 1 ticket values and row values, in decreasing order. A
        # ticket value exceeds thr >= phat > 0, so 0.0 is an unfilled slot; the
        # virtual value increases, so the top ell values hold the top ell of it
        sel, bench, binds = _threshold_top(values, thr, k, ell + 1)
        tickets, top = (-np.sort(-b, axis=1) for b in (sel, bench))
        won = tickets[:, :ell]
        # winners pay the (ell+1)-th ticket value, or thr when it is missing
        price = np.maximum(thr, tickets[:, ell]) if n > ell else thr
        revenue = np.count_nonzero(won, axis=1) * price
        surplus = (virtual_value_array(prior, won) * (won > 0)).sum(axis=1)
        optimal = np.maximum(virtual_value_array(prior, top[:, :ell]), 0.0).sum(axis=1)
        return revenue, optimal, revenue - surplus, binds

    acc = _run_batches(step, 4, trials, master_seed)
    extras = {}
    extras["revenue_mean"], extras["revenue_stderr"] = acc.mean_stderr(0)
    extras["optimal_mean"], extras["optimal_stderr"] = acc.mean_stderr(1)
    extras["identity_gap"], extras["identity_gap_stderr"] = acc.mean_stderr(2)
    extras["binding_frac"] = acc.sums[3] / acc.count
    return TrialStats(*acc.ratio_stderr(0, 1), extras)
