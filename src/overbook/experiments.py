"""Vectorized Monte Carlo trial engines behind the experiment harness.

Every engine runs its trials through `_run_batches`, in fixed-size seeded
batches (see `seeding`), keeping per-trial memory bounded while the estimate
stays bit-reproducible for a given master seed. The scalar selectors in
`prophet`, `secretary`, and `mechanisms` define the semantics; these engines
replicate them with array ops so desk-scale trial counts finish in seconds.
The threshold engines (prophet, mechanism welfare and revenue) share one
kernel, `_threshold_top`, with one threshold per row. Their rows are
slot-major (F-ordered), and the kernel's blocks come back sorted in
decreasing order from `top_block`, so each per-row reduction reads
contiguous memory, no engine sorts a block again, and a row's top values are
summed in one order on every path. They replay the leading rows of every
batch through the scalar rule `prophet.accept_first` and report the rows
where the kernel disagrees as `trace_mismatches`. Every mean, ratio
and stderr comes from one streaming estimator, `_Moments`. Nothing here is
imported from `oracle`, whose exact oracles check these engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
        # one product per unordered pair, mirrored: di * dj is dj * di bit for bit
        comoment = np.empty((len(dev), len(dev)))
        for i, di in enumerate(dev):
            for j in range(i, len(dev)):
                comoment[i, j] = comoment[j, i] = (di * dev[j]).sum()
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


#: Largest m for which `top_block` sweeps the columns of a slot-major matrix
#: rather than partitioning its rows. The sweep costs about 2m elementwise
#: passes per column, a row partition about the same per column whatever m
#: is. On (20000, w) F-ordered blocks (2 vCPU, numpy 2.4.6), sweep against
#: partition then sort, in ms:
#:
#:   w \ m      4            8            10           12
#:   12     0.47 / 2.71  0.81 / 2.48  0.94 / 2.80  0.98 / 1.56
#:   50     2.28 / 6.13  4.74 / 5.90  6.12 / 5.88  7.33 / 6.21
#:   100    5.03 / 11.3  10.5 / 11.3  13.2 / 11.1  15.9 / 11.0
#:   200    10.2 / 30.9  20.1 / 29.7  26.1 / 31.2  34.9 / 34.9
_SWEEP_MAX_M = 8


def top_block(matrix: np.ndarray, m: int) -> np.ndarray:
    """The min(m, n) largest entries of each row of a (rows, n) matrix, in
    decreasing order, as an F-ordered (slot-major) block. The values and
    their order do not depend on the matrix's layout, so a row's block sums
    to the same bits on every path.

    m = 1 is the row max. A slot-major matrix with m <= `_SWEEP_MAX_M` is
    swept column by column, each column inserted into the running top m by
    m `np.maximum`/`np.minimum` pairs, which reads contiguous memory and
    leaves the block sorted. Any other matrix is partitioned row by row and
    its top m sorted; at m >= n that is the whole row, sorted.
    """
    rows, n = matrix.shape
    m = min(m, n)
    if m == 1:
        return matrix.max(axis=1, keepdims=True)
    if matrix.flags.f_contiguous and m <= _SWEEP_MAX_M:
        top = np.empty((m, rows))
        spare = np.empty((2, rows))
        for c in range(n):
            x = matrix[:, c]
            for j in range(min(c, m - 1)):
                # top[j] keeps the larger, x carries the smaller down
                np.minimum(top[j], x, out=spare[j % 2])
                np.maximum(top[j], x, out=top[j])
                x = spare[j % 2]
            if c < m:
                top[c] = x
            else:
                np.maximum(top[m - 1], x, out=top[m - 1])
        return top.T
    if m < n:
        # the sort copies the top m out, so the partitioned (rows, n) buffer
        # is freed at once
        matrix = np.partition(matrix, n - m, axis=1)[:, n - m:]
    return np.asfortranarray(np.sort(matrix, axis=1)[:, ::-1])


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
    >= thr, then values strictly above it. `thr` holds one threshold per
    row; a scalar is broadcast to every row. The benchmark block is
    `top_block(values, m)`; the selector's block holds its m largest
    accepted values, with 0.0 in the slots it cannot fill. Both blocks are
    F-ordered, min(m, n) wide and in decreasing order, whatever the layout
    of `values`; slot-major rows (`ProductInstance.sample_rows`) keep every
    per-row reduction on contiguous memory.

    Where the unbounded run accepts at most k values, the accepted values
    above thr are the row's largest, so the selector's block is the
    benchmark's entries above thr, which lead it, then thr itself for an
    accepted first value equal to it that makes the top m. Only the rows
    where the capacity binds run the cut over the whole row.
    """
    rows = len(values)
    thr = np.broadcast_to(thr, rows)
    t = thr[:, None]
    bench = top_block(values, m)
    above = bench > t
    sel = np.where(above, bench, 0.0)
    accepted = values > t
    count = np.count_nonzero(accepted, axis=1)
    if first_ge:
        first = (values >= t).argmax(axis=1)
        first_at_thr = values[np.arange(rows), first] == thr
        count += first_at_thr
        lead = np.count_nonzero(above, axis=1)
        add = np.nonzero(first_at_thr & (lead < bench.shape[1]))[0]
        sel[add, lead[add]] = thr[add]
    bind = np.nonzero(count > k)[0]
    if len(bind):
        cut = accepted[bind]
        if first_ge:
            at_thr = np.nonzero(first_at_thr[bind])[0]
            cut[at_thr, first[bind[at_thr]]] = True
        # the first k accepted values of each binding row
        cut &= np.cumsum(cut, axis=1) <= k
        sel[bind] = top_block(np.where(cut, values[bind], 0.0), m)
    return sel, bench, count > k


#: Leading rows of every threshold-engine batch that are replayed through the
#: scalar rule, `prophet.accept_first`, to check the batch kernel.
_REPLAY_ROWS = 64


def _replay(values: np.ndarray, thr, sel: np.ndarray, k: int, first_ge: bool) -> np.ndarray:
    """Per-row 0/1 column: 1 for a leading row whose top accepted values
    under `accept_first(row, thr, k, first_ge)`, in decreasing order and
    padded with 0.0, are not exactly the kernel's decreasing block `sel`."""
    ell = sel.shape[1]
    rows = min(_REPLAY_ROWS, len(values))
    thresholds = np.broadcast_to(thr, len(values))[:rows].tolist()
    mismatch = np.zeros(len(values))
    for r, (row, t, want) in enumerate(zip(values[:rows].tolist(), thresholds,
                                           sel[:rows].tolist())):
        top = sorted((row[i] for i in accept_first(row, t, k, first_ge)), reverse=True)[:ell]
        # values are nonnegative, so the 0.0 padding sorts last
        mismatch[r] = top + [0.0] * (ell - len(top)) != want
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
    only at per-row thresholds on an instance of several runs. On a single
    run, a row where at most k values reach the threshold cannot bind, and
    holds only its first such value and the top ell of the rest.

    Extras: `binding_frac`, the share of rows where more than k values clear
    the threshold, and `trace_mismatches`, the leading rows of every batch
    whose top-ell accepted values under the scalar rule (`_replay`) are not
    the kernel's."""
    def step(rng, size):
        thr = instance.sample_rank(rng, size, tau) if threshold is None else threshold
        values = instance.sample_rows(rng, size, thr, ell, k)
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


#: Cells (slots x rows) of the decision block that the secretary engine holds
#: per row chunk. It bounds the kernel's working memory; it does not change
#: any result.
_DECISION_CHUNK_CELLS = 1 << 16


def _index_dtype(n: int) -> type:
    """The walk's integer type: it holds n + 1 values, the positions, the
    ranks, the counts and the padding n."""
    return np.int16 if n < 2**15 else np.int32


def _log_factorials(n: int) -> np.ndarray:
    """L[i] = log(i!) for i = 0..n, each entry rounded once: a running sum
    of logs would carry an error that grows with i."""
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


def _skip(rng: np.random.Generator, big_n: np.ndarray, f: np.ndarray,
          log_fact: np.ndarray) -> np.ndarray:
    """Per row, the number X of ranks that miss the F = `f` candidate
    positions among the N = `big_n` free ones before one lands on them. X
    has the sequential-sampling skip law P(X >= x) = S(x) = C(N - x, F) /
    C(N, F) (Vitter, "An efficient algorithm for sequential random
    sampling", ACM TOMS 1987), and is drawn by inversion from one uniform
    W = 1 - U per row, U = rng.random(): X = max{x <= N - F : log S(x) >=
    log W}, with log S(x) = L[N - x] - L[N - F - x] - (L[N] - L[N - F]) read
    from the table L of `_log_factorials`.

    S(x) is a product of the F factors 1 - x/(N - i), i < F, and log(1 -
    x/t) is concave in t, so by Jensen S(x) <= (1 - x/M)^F for M = N - (F -
    1)/2. So X <= M (1 - W^(1/F)), and the search starts from the floor of
    that, raised by a relative 2^-40 against its rounding, and steps down
    over the rows whose guess fails. It stops at x = 0 at the latest, where
    log S(0) is exactly 0 >= log W. The law is exact up to the rounding of
    log S(x), a sum of table entries the size of L[n]: with d a few ulps of
    L[n], a draw can differ from the exact inverse only when log W lies
    within d of some log S(x), x >= 1, which has probability at most
    2d E[X] <= d N. That total-variation bound is about 1e-8 at n = 2000.
    """
    log_w = np.log1p(-rng.random(len(big_n)))
    top = big_n - f
    base = log_fact[big_n] - log_fact[top]
    guess = (big_n - (f - 1) / 2) * -np.expm1(log_w / f) * (1 + 2.0**-40)
    x = np.minimum(np.floor(guess), top).astype(np.int64)

    def fails(at, r=slice(None)):  # log S(at) < log W, on rows r
        return log_fact[big_n[r] - at] - log_fact[top[r] - at] - base[r] < log_w[r]

    down = np.flatnonzero(fails(x))
    while len(down):
        x[down] -= 1
        down = down[fails(x[down], down)]
    return x


def _candidate_walk(rng: np.random.Generator, rows: int, n: int, ell: int,
                    log_fact: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The candidates of `rows` uniformly random arrival orders of n ranks
    (0 = largest value), one step of the walk at a time: step i is a
    (3, rows) integer array (int16 below n = 2^15, else int32) whose column
    r holds row r's i-th candidate in rank order, or n once the row has
    fewer; then the count of candidates of every row. A candidate is held
    as its arrival position, its rank, and how many better ranks arrive
    before it. Rank g is a candidate when fewer than ell do.

    The ranks are walked best first. A row keeps D, the number of free
    positions below each of E, the min(ell, n) earliest positions taken so
    far, in increasing order; so F = D[-1] free positions lie below max(E),
    and a rank is a candidate iff it lands on one of them. Until ell ranks
    are placed, the missing entries of D are the free count n - g, so every
    rank is a candidate. A rank lands on a uniform free position out of
    N = n - g, so the number X of non-candidates before the next candidate
    has the skip law that `_skip` inverts: the next x ranks all miss the F
    positions below max(E) with probability C(N - x, F) / C(N, F). The
    non-candidates land above max(E) and leave D alone. The candidate lands
    on the idx-th free position below max(E), idx uniform on [0, F): the
    c = #{D <= idx} entries of E below it are exactly the better ranks that
    arrive before it, so it lands at idx + c. It enters D at c with the
    count idx, each later entry shifts up with one free position fewer below
    it, and the last drops out. A row ends when F = 0.

    Stream: each of the first min(ell, n) steps, where F = N and X = 0 on
    every row, draws only the idx; each later step draws, for the rows
    still walking and in row order, one uniform per row for `_skip`, then
    the idx, so the stream depends on `rows` alone. `log_fact` is
    `_log_factorials(n)`.
    """
    m = min(ell, n)
    dtype = _index_dtype(n)
    free = np.full((rows, m), n, dtype=np.int32)  # D
    active = np.arange(rows)
    nxt = np.zeros(rows, dtype=np.int64)  # the next rank to walk, per row
    count = np.zeros(rows, dtype=np.int64)
    steps = []
    while len(active):
        f = free[:, -1].astype(np.int64)
        rank = nxt if len(steps) < m else nxt + _skip(rng, n - nxt, f, log_fact)
        idx = rng.integers(0, f, dtype=np.int32)
        lower = free <= idx[:, None]  # the entries of E below the candidate
        below = lower.view(np.uint8).sum(axis=1, dtype=np.int32)
        step = np.full((3, rows), n, dtype=dtype)
        step[:, active] = idx + below, rank, below
        steps.append(step)
        np.copyto(free[:, 1:], free[:, :-1] - 1, where=~lower[:, :-1])
        free[np.arange(len(active)), below] = idx
        nxt = rank + 1
        keep = free[:, -1] > 0
        if not keep.all():
            count[active[~keep]] = len(steps)
            active, free, nxt = active[keep], free[keep], nxt[keep]
    return steps, count


class _DecisionTable(NamedTuple):
    """What `_secretary_decide` reads of a spec, built once by
    `_decision_table`. Indexed by rank, with the padding rank n last: the
    values, 0.0 at n; the tie group, the padding a group of its own; and
    whether the group holds another rank (`group` and `tied` are None when
    no two values tie). Indexed by position, n included: the interval. Then
    the value of rank ell (NaN when ell > n) and ell."""

    vals: np.ndarray
    group: Optional[np.ndarray]
    tied: Optional[np.ndarray]
    interval: np.ndarray
    ell_value: float
    ell: int


def _decision_table(vals_desc: np.ndarray, beta: BetaVector) -> _DecisionTable:
    n, ell = len(vals_desc), beta.ell
    group = np.cumsum(np.r_[True, vals_desc[1:] != vals_desc[:-1], True])
    tied = np.bincount(group)[group] > 1
    if not tied.any():
        group = tied = None
    interval = np.searchsorted(beta.boundaries[:-1], np.arange(n + 1), side="right")
    return _DecisionTable(np.append(vals_desc, 0.0), group, tied,
                          interval.astype(_index_dtype(n)),
                          vals_desc[ell - 1] if ell <= n else np.nan, ell)


def _secretary_decide(pos: np.ndarray, rank: np.ndarray, before: np.ndarray,
                      table: _DecisionTable, k: int) -> tuple[np.ndarray, ...]:
    """The outcome of every row of a candidate block: the bounded run's
    top-ell value, and 0/1 flags for a run that the capacity cut changed and
    an unbounded run that missed rank ell. The block is three (width, rows)
    arrays, pos, rank and before, whose slot i holds a row's i-th candidate
    as `_candidate_walk` describes it, padded with n.

    With bounds = (0,) + beta.boundaries, an arrival at position p lies in
    interval j when bounds[j] <= p < bounds[j+1]. The unbounded run accepts
    it iff fewer than j earlier arrivals are at least as large: with
    distinct values, the `before` better ranks. In a tie group an earlier
    arrival of an equal value counts as better, as in the scalar selector,
    so a candidate also counts the group's later candidates that arrive
    before it. If a later non-candidate of the group arrives before it, the
    first such one follows ell arrivals that the count already holds, so
    the count reaches ell >= j either way. The bounded run keeps the k
    earliest acceptances, and its top ell values are those of its first
    ell kept ranks.
    """
    n, ell, group = len(table.vals) - 1, table.ell, table.group
    real = rank < n
    vals = table.vals[rank]
    seen = before
    if group is not None:
        seen = before.copy()
        slot, row = np.nonzero(table.tied[rank])
        grp = group[rank[slot, row]]
        for d in range(1, len(pos)):
            mate = slot + d
            ok = mate < len(pos)
            ok[ok] = group[rank[mate[ok], row[ok]]] == grp[ok]
            if not ok.any():
                break
            slot, row, grp, mate = slot[ok], row[ok], grp[ok], mate[ok]
            seen[slot, row] += pos[mate, row] < pos[slot, row]
    a_u = real & (seen < table.interval[pos])
    missed = ~(a_u & (vals == table.ell_value)).any(axis=0)  # tie group of rank ell
    # capacity cut: binding rows keep their k earliest acceptances
    over = np.count_nonzero(a_u, axis=0) > k
    if over.any():
        x_over = np.where(a_u[:, over], pos[:, over], n)
        a_u[:, over] &= x_over <= np.partition(x_over, k - 1, axis=0)[k - 1]
    # the top ell kept values: those of the first ell kept ranks
    top = a_u & (np.cumsum(a_u, axis=0, dtype=np.int32) <= ell)
    return np.where(top, vals, 0.0).sum(axis=0), over, missed


def secretary_trials(
    values: np.ndarray,
    beta: BetaVector,
    k: int,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Simulate the interval selector over uniformly random arrival orders.

    Decisions depend only on relative ranks, and no permutation is built.
    Rank g (0 = largest value) can be accepted in interval j only if fewer
    than j <= ell arrivals before it are at least as large, so only if
    fewer than ell better ranks arrive before it: a candidate.
    `_candidate_walk` draws just the candidates, about ell (1 + ln(n / ell))
    per row, best rank first, with their positions and those counts. Its law
    is exact, up to the float rounding stated in `_skip`: placing the ranks
    one by one, each on a uniform free position, gives a uniform arrival
    order. Once ell ranks are placed, each step of the walk inverts one
    uniform per walking row into the run of non-candidates before the next
    candidate, then draws the idx that places that candidate uniformly among
    the free positions it can take. No test reads where a non-candidate
    lands, only that it lands after the ell earliest better arrivals.
    `_secretary_decide` then tests every candidate against its interval, in
    row chunks of at most `_DECISION_CHUNK_CELLS` cells, with the spec's
    constants built once (`_decision_table`); the stream does not depend on
    the chunks. Extras: `prob_capacity_differs`, Pr[the bounded and
    unbounded runs differ], and `prob_ell_missed`, Pr[the unbounded run
    misses the ell-th largest], each the mean of a 0/1 column with its
    stderr.
    """
    vals_desc = np.sort(np.asarray(values, dtype=float))[::-1]
    n = len(vals_desc)
    if beta.n != n:
        raise ValueError("beta.n must match the number of values")
    bench = float(vals_desc[:beta.ell].sum())
    log_fact, table = _log_factorials(n), _decision_table(vals_desc, beta)

    def step(rng, size):
        steps, count = _candidate_walk(rng, size, n, beta.ell, log_fact)
        out = np.empty((3, size))
        rows = max(1, _DECISION_CHUNK_CELLS // len(steps))
        for lo in range(0, size, rows):
            hi = min(size, lo + rows)
            block = np.stack([s[:, lo:hi] for s in steps[:count[lo:hi].max()]], axis=1)
            out[:, lo:hi] = _secretary_decide(*block, table, k)
        return out

    moments = _run_batches(step, 3, trials, master_seed)
    mean, se = moments.mean_stderr(0)
    extras = {}
    extras["prob_capacity_differs"], extras["prob_capacity_differs_stderr"] = \
        moments.mean_stderr(1)
    extras["prob_ell_missed"], extras["prob_ell_missed_stderr"] = moments.mean_stderr(2)
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
    (revenue minus winner virtual surplus), `binding_frac`, and
    `trace_mismatches`, the leading rows of every batch whose ell + 1 ticket
    values under the scalar rule (`_replay`) are not the kernel's.

    Stream: each batch draws its thresholds with `ProductInstance.sample_rank`,
    then its i.i.d. values with one C-order `prior.sample_n(rng, (rows, n))`
    call, copied to F order so that `_threshold_top` sweeps its columns.
    """
    phat = monopoly_price(prior)
    instance = ProductInstance.iid(prior, n)

    def step(rng, size):
        thr = np.maximum(phat, instance.sample_rank(rng, size, tau))
        values = np.asfortranarray(prior.sample_n(rng, (size, n)))
        # the top ell + 1 ticket values and row values, in decreasing order. A
        # ticket value exceeds thr >= phat > 0, so 0.0 is an unfilled slot; the
        # virtual value increases, so the top ell values hold the top ell of it
        tickets, top, binds = _threshold_top(values, thr, k, ell + 1)
        won = tickets[:, :ell]
        # winners pay the (ell+1)-th ticket value, or thr when it is missing
        price = np.maximum(thr, tickets[:, ell]) if n > ell else thr
        revenue = np.count_nonzero(won, axis=1) * price
        surplus = (virtual_value_array(prior, won) * (won > 0)).sum(axis=1)
        optimal = np.maximum(virtual_value_array(prior, top[:, :ell]), 0.0).sum(axis=1)
        return (revenue, optimal, revenue - surplus, binds,
                _replay(values, thr, tickets, k, False))

    acc = _run_batches(step, 5, trials, master_seed)
    extras = {}
    extras["revenue_mean"], extras["revenue_stderr"] = acc.mean_stderr(0)
    extras["optimal_mean"], extras["optimal_stderr"] = acc.mean_stderr(1)
    extras["identity_gap"], extras["identity_gap_stderr"] = acc.mean_stderr(2)
    extras["binding_frac"] = acc.sums[3] / acc.count
    extras["trace_mismatches"] = int(acc.sums[4])
    return TrialStats(*acc.ratio_stderr(0, 1), extras)
