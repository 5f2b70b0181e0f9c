"""Single and product value distributions, plus adversarial instance generators.

Conventions: CDFs are right-continuous, F(x) = Pr[X <= x], and
`max_quantile` is the generalized inverse inf{x : F(x) >= q} of the max's
CDF; survival functions are left-continuous, sf(x) = Pr[X >= x], with `isf`
the generalized inverse max{x : sf(x) >= v}. All randomness flows through
caller-supplied numpy Generator objects; distributions are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

_ATOM_PROB_TOL = 1e-12

FINITE = "finite-support"
UNIFORM = "uniform-interval"
EXPONENTIAL = "exponential"
DEGENERATE = "degenerate"

#: The parameters of each kind, all of them required.
_PARAMS = {FINITE: ("atoms",), UNIFORM: ("lo", "hi"), EXPONENTIAL: ("rate",),
           DEGENERATE: ("value",)}


class DistributionError(ValueError):
    """Base class for distribution-layer errors."""


class DegenerateThresholdError(DistributionError):
    """A quantile request pins the threshold at an unusable point."""


class UndefinedVirtualValueError(DistributionError):
    """Virtual value requested where no (positive) density exists."""


class ValueDistribution:
    """One award's distribution.

    Supported kinds: finite list of atoms, uniform on an interval,
    exponential with a rate, and a single point mass, which is the one-atom
    finite support. Atom values must be nonnegative and strictly increasing
    with probabilities summing to one. Every parameter must be finite: NaN
    and inf are refused, and so are missing or unknown parameters.
    """

    __slots__ = ("kind", "_values", "_probs", "_tail", "_steps", "_lo", "_hi", "_rate")

    def __init__(self, kind: str, **params):
        if not isinstance(kind, str) or kind not in _PARAMS:
            raise DistributionError(f"unknown distribution kind: {kind!r}")
        if sorted(params) != sorted(_PARAMS[kind]):
            raise DistributionError(
                f"{kind} takes the parameters {list(_PARAMS[kind])}, got {sorted(params)}")
        self.kind = kind
        self._values = self._probs = self._tail = self._steps = self._rate = None
        if kind == UNIFORM:
            lo, hi = float(params["lo"]), float(params["hi"])
            if not (0 <= lo < hi < math.inf):
                raise DistributionError("uniform interval needs 0 <= lo < hi < inf")
            self._lo, self._hi = lo, hi
            return
        if kind == EXPONENTIAL:
            rate = float(params["rate"])
            # a subnormal rate is positive and finite, but its mean 1/rate is inf
            if not (0 < rate < math.inf and 1.0 / rate < math.inf):
                raise DistributionError(
                    "exponential rate must be positive and finite, with a finite mean 1/rate")
            self._rate = rate
            self._lo, self._hi = 0.0, math.inf
            return
        if kind == DEGENERATE:
            point = float(params["value"])
            if not (0 <= point < math.inf):
                raise DistributionError("point mass must be nonnegative and finite")
            atoms = [(point, 1.0)]
        else:
            atoms = sorted(params["atoms"])
            if not all(len(a) == 2 for a in atoms):
                raise DistributionError("each atom must be a [value, probability] pair")
        values = np.asarray([a[0] for a in atoms], dtype=float)
        probs = np.asarray([a[1] for a in atoms], dtype=float)
        if len(values) == 0:
            raise DistributionError("finite-support needs at least one atom")
        if not (np.isfinite(values).all() and np.isfinite(probs).all()):
            raise DistributionError("atom values and probabilities must be finite")
        if np.any(values < 0):
            raise DistributionError("atom values must be nonnegative")
        if np.any(np.diff(values) <= 0):
            raise DistributionError("atom values must be strictly increasing")
        if np.any(probs <= 0) or np.any(probs > 1):
            raise DistributionError("atom probabilities must lie in (0, 1]")
        if abs(probs.sum() - 1.0) > _ATOM_PROB_TOL:
            raise DistributionError("atom probabilities must sum to 1")
        self._values, self._probs = values, probs
        self._tail = _survival(probs)
        # the CDF's steps as Python floats, for `cdf`, normalized as Generator.choice
        # normalizes p: the top level is exactly 1.0 even when the probabilities sum to less
        cum = np.cumsum(probs)
        self._steps = (tuple(values.tolist()), tuple((cum / cum[-1]).tolist()))
        self._lo, self._hi = float(values[0]), float(values[-1])

    # ---- constructors ----

    @classmethod
    def finite(cls, atoms: Sequence[tuple[float, float]]) -> "ValueDistribution":
        return cls(FINITE, atoms=list(atoms))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ValueDistribution":
        return cls(UNIFORM, lo=lo, hi=hi)

    @classmethod
    def exponential(cls, rate: float) -> "ValueDistribution":
        return cls(EXPONENTIAL, rate=rate)

    @classmethod
    def degenerate(cls, value: float) -> "ValueDistribution":
        return cls(DEGENERATE, value=value)

    # ---- basic properties ----

    @property
    def atomless(self) -> bool:
        return self._values is None

    @property
    def support(self) -> tuple[float, float]:
        return self._lo, self._hi

    @property
    def atoms(self) -> Optional[list[tuple[float, float]]]:
        """Atom list for discrete kinds, None for continuous kinds."""
        if self._values is None:
            return None
        return [(float(v), float(p)) for v, p in zip(self._values, self._probs)]

    def mean(self) -> float:
        if self._values is not None:
            return float(self._values @ self._probs)
        if self.kind == UNIFORM:
            return 0.5 * (self._lo + self._hi)
        return 1.0 / self._rate

    # ---- probability functions ----

    def cdf(self, x: float) -> float:
        if self._steps is not None:
            points, levels = self._steps
            idx = bisect_right(points, x)
            return 0.0 if idx == 0 else levels[idx - 1]
        if self.kind == UNIFORM:
            if x < self._lo:
                return 0.0
            if x >= self._hi:
                return 1.0
            return (x - self._lo) / (self._hi - self._lo)
        return 0.0 if x < 0 else 1.0 - math.exp(-self._rate * x)

    def isf(self, v: np.ndarray) -> np.ndarray:
        """Vectorized inverse survival function, the generalized inverse
        max{x : sf(x) >= v}, for v in (0, 1]: for V uniform on (0, 1], isf(V)
        has this law, and isf(V) >= t exactly when V <= sf(t) (Devroye,
        Non-Uniform Random Variate Generation, 1986, ch. II). It maps an
        upper-tail probability directly, so values far in the top tail keep
        their precision (1 - v would round them away)."""
        v = np.asarray(v, dtype=float)
        if self.kind == UNIFORM:
            return self._hi - v * (self._hi - self._lo)
        if self.kind == EXPONENTIAL:
            return -np.log(v) / self._rate
        # the atom below the highest interior survival level that v exceeds:
        # one masked copy per level, from the top down, so a draw at the top
        # step writes nothing
        out = np.full(v.shape, self._values[-1])
        for value, level in zip(self._values[-2::-1], self._tail[-2:0:-1]):
            np.copyto(out, value, where=v > level)
        return out

    def sf(self, x) -> np.ndarray:
        """Vectorized survival function Pr[X >= x]. A finite support or a
        point mass reads its survival table, summed from the top atom down."""
        x = np.asarray(x, dtype=float)
        if self.kind == UNIFORM:
            return np.clip((self._hi - x) / (self._hi - self._lo), 0.0, 1.0)
        if self.kind == EXPONENTIAL:
            return np.exp(-self._rate * np.maximum(x, 0.0))
        return self._tail[np.searchsorted(self._values, x)]

    def pdf(self, x: float) -> float:
        """Density for continuous kinds; discrete kinds have none."""
        if self.kind == UNIFORM:
            return 1.0 / (self._hi - self._lo) if self._lo <= x <= self._hi else 0.0
        if self.kind == EXPONENTIAL:
            return 0.0 if x < 0 else self._rate * math.exp(-self._rate * x)
        raise UndefinedVirtualValueError(f"{self.kind} has no density")

    # ---- sampling ----

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Draw an array of the given size (C order). A finite support is
        drawn by `rng.choice(values, size, p=probs)`; a point mass draws
        nothing from rng."""
        if self.kind == DEGENERATE:
            return np.full(size, self._lo)
        if self._values is not None:
            return rng.choice(self._values, size, p=self._probs)
        if self.kind == UNIFORM:
            return rng.uniform(self._lo, self._hi, size=size)
        return rng.exponential(1.0 / self._rate, size=size)

    # ---- serialization ----

    def to_json(self) -> dict:
        if self.kind == DEGENERATE:
            params = {"value": self._lo}
        elif self._values is not None:
            params = {"atoms": [[float(v), float(p)] for v, p in self.atoms]}
        elif self.kind == UNIFORM:
            params = {"lo": self._lo, "hi": self._hi}
        else:
            params = {"rate": self._rate}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "ValueDistribution":
        if not isinstance(obj, dict):
            raise DistributionError(f"a distribution must be an object, got {obj!r}")
        for key in ("kind", "params"):
            if key not in obj:
                raise DistributionError(f"{key}: required in a distribution")
        unread = sorted(set(obj) - {"kind", "params"})
        if unread:
            raise DistributionError(f"a distribution reads kind and params, not {unread}")
        if not isinstance(obj["params"], dict):
            raise DistributionError(f"params: must be an object, got {obj['params']!r}")
        return cls(obj["kind"], **obj["params"])

    def __repr__(self) -> str:
        return f"ValueDistribution({self.to_json()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueDistribution) and self.to_json() == other.to_json()


def _survival(probs: np.ndarray) -> np.ndarray:
    """The survival table of atoms with these probabilities: Pr[X >= atom i]
    for each i, summed from the top atom down and normalized so that the
    lowest atom's level is exactly 1.0, then a trailing 0.0 above the top."""
    tail = np.cumsum(probs[::-1])[::-1]
    return np.append(tail / tail[0], 0.0)


def _bernoulli_cells(rng: np.random.Generator, cells: int, p: float) -> np.ndarray:
    """The sorted cells among 0..cells-1 that a Bernoulli(p) process hits.

    Each gap between hits is one plus floor(E / -log1p(-p)) for a standard
    exponential E, a geometric count of misses. Gaps are drawn in chunks a
    little longer than the expected number of hits; a chunk that ends
    before the last cell is followed by another.
    """
    if p >= 1.0:
        return np.arange(cells)
    scale = -1.0 / math.log1p(-p)
    found, start = [], 0
    while start < cells:
        left = cells - start
        size = int(left * p + 4.0 * math.sqrt(left * p) + 8.0)
        gaps = np.minimum(np.floor(rng.standard_exponential(size) * scale), left) + 1.0
        hits = np.cumsum(gaps) + (start - 1)
        found.append(hits[hits < cells].astype(np.int64))
        if hits[-1] >= cells:
            break
        start = int(hits[-1]) + 1
    return np.concatenate(found)


def _low_uniforms(rng: np.random.Generator, size: np.ndarray,
                  depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The `depth` smallest of size[r] independent uniforms on [0, 1), in
    increasing order, for each row r, from one (rows, depth) block of the
    stream, and a mask of the slots j < size[r] that exist.

    By the Renyi representation (Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. V) the j-th largest of N uniforms is the product of
    W_i^(1 / (N - i + 1)) over i <= j, for W_i = 1 - u_i uniform on (0, 1],
    so the j-th smallest is -expm1(sum_{i <= j} log(W_i) / (N - i + 1)).
    """
    left = size[:, None] - np.arange(depth)
    logs = np.log(1.0 - rng.random((len(size), depth))) / np.maximum(left, 1)
    return -np.expm1(np.cumsum(logs, axis=1)), left > 0


class ProductInstance:
    """Ordered collection of n independent ValueDistributions."""

    __slots__ = ("components", "_runs", "_stack", "_sf_at")

    def __init__(self, components: Sequence[ValueDistribution]):
        if len(components) == 0:
            raise DistributionError("product instance needs at least one component")
        self.components = tuple(components)
        # maximal runs [lo, hi) of consecutive components that are one object
        starts = [i for i, c in enumerate(self.components)
                  if i == 0 or c is not self.components[i - 1]]
        self._runs = tuple(zip(starts, starts[1:] + [len(self.components)]))
        self._stack = None
        self._sf_at = None

    @classmethod
    def iid(cls, dist: ValueDistribution, n: int) -> "ProductInstance":
        return cls([dist] * n)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def all_atomless(self) -> bool:
        return all(c.atomless for c in self.components)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([c.sample(rng) for c in self.components])

    def sample_matrix(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """Draw a C-contiguous (trials, n) matrix of independent realizations.

        Stream contract: column i is the i-th block of the batch's stream, as
        n successive `sample_n(rng, trials)` calls would draw it. Each run of
        consecutive components that are the same object is drawn by one
        `sample_n(rng, (run_len, trials))` call, which consumes that stream
        in the same order; a C-order (trials, n) draw would not. Used by
        `sample_rows` at per-row thresholds and by `sample_rank`, on an
        instance of several runs, and as the reference the tests hold every
        other sampler to.
        """
        cols = np.empty((self.n, trials))
        for lo, hi in self._runs:
            cols[lo:hi] = self.components[lo].sample_n(rng, (hi - lo, trials))
        return np.ascontiguousarray(cols.T)

    def sample_rank(self, rng: np.random.Generator, trials: int, tau: int) -> np.ndarray:
        """The tau-th highest of n fresh draws, one per row, for `trials` rows.

        For a single run of identical components (what `iid` builds), of any
        kind, that order statistic is isf(V) for V ~ Beta(tau, n - tau + 1),
        the tau-th smallest of n uniforms (Devroye, Non-Uniform Random
        Variate Generation, 1986, ch. V), since `isf` is nonincreasing: one
        `rng.beta` draw per row. An instance of several runs draws a full
        `sample_matrix` and partitions each row; that path is also the
        reference the tests hold the beta draw to.
        """
        n = self.n
        if not 1 <= tau <= n:
            raise ValueError(f"tau must lie in [1, n={n}], got {tau}")
        if len(self._runs) == 1:
            return self.components[0].isf(rng.beta(tau, n - tau + 1, trials))
        samples = self.sample_matrix(rng, trials)
        # copied out, so the partitioned (trials, n) buffer is freed at once
        return np.partition(samples, n - tau, axis=1)[:, n - tau].copy()

    def sample_rows(self, rng: np.random.Generator, trials: int, thr, m: int,
                    k: int) -> np.ndarray:
        """Rows that hold what a threshold rule with capacity k and its top-m
        benchmark read.

        `thr` is a scalar or one threshold per row, and C_r counts the values
        of row r that are >= thr. A reduced row holds, first, values >= thr:
        all C_r in arrival order; or, on a single run of identical components
        where C_r <= k, only the first of them and then the top min(m, n) of
        the other C_r - 1, in decreasing order. Then zero padding up to the
        widest row, then a block of the top min(m, n) values below thr, in
        decreasing order, with 0.0 where there are fewer; only the rows with
        C_r < min(m, n) read the block, and it is 0.0 in every other row.

        Values are nonnegative, so the first value >= thr, the values > thr
        in arrival order and the top m of a row that holds all C_r are those
        of the full row. A row with C_r <= k cannot bind, as neither rule
        accepts more than C_r values: the strict rule accepts every value
        > thr, the atoms rule also the first value >= thr, and the top m of
        what either accepts lie among the first value and the top m of the
        rest. That is all that the strict rule, the atoms rule and the
        benchmark read.

        Every value is drawn by inversion, X = isf(V) for V uniform on
        (0, 1]: X >= thr exactly when V <= p = sf(thr), so a value >= thr is
        isf(p V) and a value below thr is isf(p + (1 - p) V). Which sampler
        runs depends only on the runs of identical components:

        - A single run (what `iid` builds), of any kind, at a scalar or
          per-row thr: see `_renyi_rows`.
        - Several runs at a scalar thr: see `_sparse_rows`.
        - Several runs at per-row thresholds: `sample_matrix(rng, trials)`,
          the full rows, which are also the reference the tests hold every
          reduced row to.
        """
        if len(self._runs) == 1:
            return self._renyi_rows(rng, trials, thr, m, k)
        if np.ndim(thr) == 1:
            return self.sample_matrix(rng, trials)
        return self._sparse_rows(rng, trials, float(thr), m)

    def _renyi_rows(self, rng: np.random.Generator, trials: int, thr, m: int,
                    k: int) -> np.ndarray:
        """Reduced rows of a single run of identical components; see
        `sample_rows`. A scalar thr is broadcast to one threshold per row.

        C_r ~ Binomial(n, p). The values drawn in arrival order are isf(p V).
        The top of the other C_r - 1 values >= thr are isf(p U_(j)), and the
        top of the n - C_r values below thr are isf(p + (1 - p) U_(j)), for
        the ascending uniform order statistics U_(j) of `_low_uniforms` (the
        Renyi representation), those below thr clamped below it. The stream
        holds the counts; then one uniform per value in arrival order, row
        by row: all C_r where C_r > k, the first where 0 < C_r <= k; then a
        (rows with 2 <= C_r <= k, min(m, n)) block for the top of the rest;
        then a (rows with C_r < min(m, n), min(m, n)) block for the values
        below thr. Where thr is a scalar and exactly one atom lies at or
        above it, every value >= thr is that atom, and only the counts and
        the block below thr are drawn.
        """
        dist = self.components[0]
        n, depth = self.n, min(m, self.n)
        one_atom = (np.ndim(thr) == 0 and not dist.atomless
                    and sum(a >= thr for a, _ in dist.atoms) == 1)
        p = np.broadcast_to(dist.sf(thr), trials)
        thr = np.broadcast_to(thr, trials)
        count = rng.binomial(n, p, trials)
        top_only = count <= k
        stored = np.where(top_only, np.minimum(count, depth + 1), count)
        width = int(stored.max())
        rows = np.zeros((trials, width + depth))
        slot = np.arange(width + depth)
        if one_atom:
            # every value >= thr is the top atom
            rows[slot < stored[:, None]] = dist.support[1]
        else:
            arrival = np.where(top_only, np.minimum(count, 1), count)
            v = rng.random(int(arrival.sum()))
            np.subtract(1.0, v, out=v)
            v *= np.repeat(p, arrival)
            rows[slot < arrival[:, None]] = dist.isf(v)
            del v
            rest = np.flatnonzero(top_only & (count > 1))
            if len(rest):
                low, exists = _low_uniforms(rng, count[rest] - 1, depth)
                low *= p[rest, None]
                # V = 0 (a zero uniform, or underflow) maps to the supremum of the
                # support, inf for an exponential
                np.maximum(low, np.finfo(float).smallest_subnormal, out=low)
                rows[rest, 1:depth + 1] = np.where(exists, dist.isf(low), 0.0)
        short = np.flatnonzero(count < depth)
        if len(short):
            low, exists = _low_uniforms(rng, n - count[short], depth)
            p, thr = p[short, None], thr[short, None]
            below = dist.isf(p + (1.0 - p) * low)
            # an atom at thr is >= thr, so the clamp is the float just below it
            rows[short, width:] = np.where(exists, np.minimum(below, np.nextafter(thr, -np.inf)),
                                           0.0)
        return rows

    def _sparse_rows(self, rng: np.random.Generator, trials: int, thr: float,
                     m: int) -> np.ndarray:
        """Reduced rows of an instance of several runs at a scalar thr; see
        `sample_rows`.

        The cells >= thr of each run form a Bernoulli(p) process over its
        (rows, run length) cells, in row-major order, p = sf(thr) of the
        run's component (kept for the last thr), drawn from geometric gaps
        (`_bernoulli_cells`), run after run; a run with p = 0 draws nothing.
        One sort on the key row * n + position puts them in arrival order.
        Then one uniform u per cell, in that order, draws its value
        isf(p (1 - u)).

        The values below thr. Only the rows with C_r < min(m, n) read them.
        Those rows draw one (rows, n) block of uniforms, each cell
        isf(1 - (1 - p) u) and held below thr; the cells >= thr are
        zeroed, and the block keeps each row's top min(m, n). Every other
        row's block is 0.0: its top m are all >= thr.
        """
        n, depth = self.n, min(m, self.n)
        # one read of the memo: another thread may swap in another thr's entry
        memo = self._sf_at
        if memo is None or memo[0] != thr:
            memo = self._sf_at = (thr, np.array([float(c.sf(thr)) for c in self.distinct()]))
        p = memo[1]
        keys = []
        for h, (lo, hi) in enumerate(self._runs):
            if p[h] > 0.0:
                size = hi - lo
                cells = _bernoulli_cells(rng, trials * size, p[h])
                # cell r * size + i of the run is row r, component lo + i
                keys.append(cells + (cells // size) * (n - size) + lo)
        keys = np.sort(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
        row, col = np.divmod(keys, n)
        count = np.bincount(row, minlength=trials)
        # the run of each column, and of each value >= thr
        head = self._stacked()[0]
        value_head = head[col]
        width = int(count.max())
        rows = np.zeros((trials, width + depth))
        v = rng.random(len(keys))
        np.subtract(1.0, v, out=v)
        v *= p[value_head]
        rows[np.arange(width + depth) < count[:, None]] = self._isf(v, value_head)
        short = np.flatnonzero(count < depth)
        if len(short):
            # 1 - (1 - p) u is p + (1 - p)(1 - u), in two passes
            v = rng.random((len(short), n))
            v *= 1.0 - p[head]
            np.subtract(1.0, v, out=v)
            below = self._isf(v, head)
            del v
            np.minimum(below, np.nextafter(thr, -np.inf), out=below)
            slot = np.full(trials, -1)
            slot[short] = np.arange(len(short))
            hit = slot[row] >= 0
            below[slot[row[hit]], col[hit]] = 0.0
            below.partition(n - depth, axis=1)
            rows[short, width:] = -np.sort(-below[:, n - depth:], axis=1)
        return rows

    def _stacked(self) -> tuple:
        """The run of each column, and the `isf` parameters of the distinct
        components, one entry per run: the index of its family in `names`
        (uniform, exponential, or the step table of a finite support or a
        point mass), lo, hi and rate, and for a table its atoms (a row of
        `values`) and interior survival levels (a column of `levels`, padded
        with -inf, which no v reaches). Built on first use and kept."""
        if self._stack is None:
            heads = self.distinct()
            family = [c.kind if c.atomless else FINITE for c in heads]
            names = sorted(set(family))
            width = max(1 if c.atomless else len(c._values) for c in heads)
            values = np.zeros((len(heads), width))
            levels = np.full((width - 1, len(heads)), -np.inf)
            for h, c in enumerate(heads):
                if not c.atomless:
                    values[h, :len(c._values)] = c._values
                    levels[:len(c._values) - 1, h] = c._tail[1:-1]
            self._stack = (
                np.repeat(np.arange(len(heads)), [hi - lo for lo, hi in self._runs]),
                names, np.array([names.index(f) for f in family]),
                *np.array([[c._lo, c._hi, c._rate or np.nan] for c in heads]).T,
                values, levels)
        return self._stack

    def _isf(self, v: np.ndarray, head: np.ndarray) -> np.ndarray:
        """Each entry's component `isf`, bit for bit, where `head` holds the
        run of each entry along v's last axis. An atom is found by counting
        the survival levels >= v, which costs the same however the entries
        mix the steps (the masked copies of `isf` do not), and gathered once."""
        _, names, code, lo, hi, rate, values, levels = self._stacked()

        def kind_isf(kind: str, x: np.ndarray, j: np.ndarray) -> np.ndarray:
            if kind == UNIFORM:
                return hi[j] - x * (hi[j] - lo[j])
            if kind == EXPONENTIAL:
                return -np.log(x) / rate[j]
            at = np.broadcast_to(j * values.shape[1], x.shape).copy()
            for level in levels:
                at += x <= level[j]
            return values.take(at)

        if len(names) == 1:
            return kind_isf(names[0], v, head)
        out = np.empty(v.shape)
        for i, kind in enumerate(names):
            cols = code[head] == i
            out[..., cols] = kind_isf(kind, v[..., cols], head[cols])
        return out

    def distinct(self) -> list[ValueDistribution]:
        """One component per run of consecutive identical components."""
        return [self.components[lo] for lo, _ in self._runs]

    def max_cdf(self, x: float) -> float:
        """CDF of the maximum award: the product of component CDFs.

        Each run of identical components costs one `cdf` call, whose value
        is multiplied in once per component, left to right, so the product
        is the per-component product bit for bit.
        """
        out = 1.0
        for lo, hi in self._runs:
            out = math.prod(repeat(self.components[lo].cdf(x), hi - lo), start=out)
            if out == 0.0:
                return 0.0
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.components]

    @classmethod
    def from_json(cls, obj: list) -> "ProductInstance":
        return cls([ValueDistribution.from_json(c) for c in obj])


# ---- quantiles of the max distribution ----


def max_quantile(instance: ProductInstance, q: float) -> float:
    """Generalized inverse of the max-CDF: inf{t : prod_i F_i(t) >= q}.

    Bisection on the predicate F(t) >= q, whose `hi` stays feasible, until
    `lo` and `hi` are adjacent floats; `hi` is returned. On an atomless
    instance that is the root of F(t) = q to the last float. Where the
    max-CDF steps over q, it is the atom itself, so downstream >=/>
    comparisons against atom values are exact at any scale of values.

    Raises DegenerateThresholdError when no finite t reaches q: q = 1 with
    unbounded support, or a bounded max-CDF that stays below q.
    """
    if not (0 < q <= 1):
        raise DistributionError("max_quantile requires q in (0, 1]")
    heads = instance.distinct()
    hi = max(c.support[1] for c in heads)
    if q == 1.0 and math.isinf(hi):
        raise DegenerateThresholdError("q = 1 with unbounded support has no finite threshold")
    lo = min(c.support[0] for c in heads)
    if instance.max_cdf(lo) >= q:
        return lo
    if math.isinf(hi):
        hi = max(1.0, lo + 1.0)
        while instance.max_cdf(hi) < q:
            hi *= 2.0
    elif instance.max_cdf(hi) < q:
        raise DegenerateThresholdError("max-CDF never reaches the target quantile")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if instance.max_cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


#: The generalized inverse is the one max-CDF inverse, atoms or not.
max_quantile_inf = max_quantile


# ---- Myerson quantities ----


def virtual_value(dist: ValueDistribution, v: float) -> float:
    """Myerson virtual valuation v - (1 - F(v)) / f(v)."""
    density = dist.pdf(v)
    if density <= 0:
        raise UndefinedVirtualValueError(f"zero density at v = {v}")
    return v - (1.0 - dist.cdf(v)) / density


def virtual_value_array(dist: ValueDistribution, x: np.ndarray) -> np.ndarray:
    """Vectorized virtual valuation over the support of a continuous kind."""
    x = np.asarray(x, dtype=float)
    if dist.kind == UNIFORM:
        return 2.0 * x - dist._hi
    if dist.kind == EXPONENTIAL:
        return x - 1.0 / dist._rate
    raise UndefinedVirtualValueError(f"{dist.kind} has no density")


def monopoly_price(dist: ValueDistribution) -> float:
    """The price where the virtual valuation crosses zero, floored at the
    bottom of the support: max(lo, hi/2) for U[lo, hi], whose virtual value
    is 2v - hi, and 1/rate for an exponential, whose virtual value is
    v - 1/rate. Both increase, so both kinds are regular."""
    if dist.kind == UNIFORM:
        return max(dist._lo, dist._hi / 2.0)
    if dist.kind == EXPONENTIAL:
        return 1.0 / dist._rate
    raise UndefinedVirtualValueError(f"{dist.kind} has no density")


# ---- adversarial instances ----


def hard_prophet_instance(k: int, n: int) -> ProductInstance:
    """Worst-case full-information instance: component i <= k+1 pays
    x_i = i(2k - i + 3)/2 with probability 1/x_i (so each has unit mean),
    and the remaining components are point masses at zero.
    """
    if k < 1:
        raise DistributionError("k must be >= 1")
    if n < k + 1:
        raise DistributionError("n must be >= k + 1")
    comps = []
    for i in range(1, k + 2):
        x = i * (2 * k - i + 3) / 2.0
        comps.append(ValueDistribution.finite([(0.0, 1.0 - 1.0 / x), (x, 1.0 / x)]))
    comps.extend(ValueDistribution.degenerate(0.0) for _ in range(n - k - 1))
    return ProductInstance(comps)


def single_sample_hard_instance(k: int, j_bar: int, ratio: float, n: int) -> ProductInstance:
    """Hard instance against single-sample algorithms.

    Components i <= j_bar are 50/50 two-point on {L_i, H_i}; components
    j_bar+1..k+1 are point masses at L_i; the rest are point masses at zero.
    Constants: L_i = i and H_i = L_{k+1} * ratio^i, which satisfies the chain
    0 < L_1 < ... < L_{k+1} < H_1 < ... < H_{k+1} with H_j / H_{j-1} = ratio.
    """
    if k < 1:
        raise DistributionError("k must be >= 1")
    if not (1 <= j_bar <= k + 1):
        raise DistributionError("j_bar must lie in [1, k+1]")
    if ratio <= 1:
        raise DistributionError("ratio must exceed 1")
    if n < k + 1:
        raise DistributionError("n must be >= k + 1")
    top_l = float(k + 1)
    comps = []
    for i in range(1, k + 2):
        low = float(i)
        high = top_l * ratio**i
        if i <= j_bar:
            comps.append(ValueDistribution.finite([(low, 0.5), (high, 0.5)]))
        else:
            comps.append(ValueDistribution.degenerate(low))
    comps.extend(ValueDistribution.degenerate(0.0) for _ in range(n - k - 1))
    return ProductInstance(comps)
