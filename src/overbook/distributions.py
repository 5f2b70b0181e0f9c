"""Single and product value distributions, plus adversarial instance generators.

Conventions: CDFs are right-continuous, F(x) = Pr[X <= x]; quantiles are the
generalized inverse inf{x : F(x) >= q}. All randomness flows through
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


class DistributionError(ValueError):
    """Base class for distribution-layer errors."""


class DegenerateThresholdError(DistributionError):
    """A quantile request pins the threshold at an unusable point."""


class UndefinedVirtualValueError(DistributionError):
    """Virtual value requested where no (positive) density exists."""


class ValueDistribution:
    """One award's distribution.

    Supported kinds: finite list of atoms, uniform on an interval,
    exponential with a rate, and a single point mass. Atom values must be
    nonnegative and strictly increasing with probabilities summing to one.
    Every parameter must be finite: NaN and inf are refused.
    """

    __slots__ = ("kind", "_values", "_probs", "_cum", "_cdf", "_steps", "_lo", "_hi", "_rate",
                 "_point")

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._values = self._probs = self._cum = self._cdf = self._steps = None
        self._rate = self._point = None
        if kind == FINITE:
            atoms = sorted(params["atoms"])
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
            self._cum = np.cumsum(probs)
            # the step points and levels of the CDF as Python floats, for `cdf`
            self._steps = (tuple(values.tolist()), tuple(self._cum.tolist()))
            # normalized as numpy's Generator.choice normalizes p
            self._cdf = self._cum / self._cum[-1]
            self._lo, self._hi = float(values[0]), float(values[-1])
        elif kind == UNIFORM:
            lo, hi = float(params["lo"]), float(params["hi"])
            if not (0 <= lo < hi < math.inf):
                raise DistributionError("uniform interval needs 0 <= lo < hi < inf")
            self._lo, self._hi = lo, hi
        elif kind == EXPONENTIAL:
            rate = float(params["rate"])
            # a subnormal rate is positive and finite, but its mean 1/rate is inf
            if not (0 < rate < math.inf and 1.0 / rate < math.inf):
                raise DistributionError(
                    "exponential rate must be positive and finite, with a finite mean 1/rate")
            self._rate = rate
            self._lo, self._hi = 0.0, math.inf
        elif kind == DEGENERATE:
            point = float(params["value"])
            if not (0 <= point < math.inf):
                raise DistributionError("point mass must be nonnegative and finite")
            self._point = point
            self._lo = self._hi = point
        else:
            raise DistributionError(f"unknown distribution kind: {kind!r}")

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
        return self.kind in (UNIFORM, EXPONENTIAL)

    @property
    def support(self) -> tuple[float, float]:
        return self._lo, self._hi

    @property
    def atoms(self) -> Optional[list[tuple[float, float]]]:
        """Atom list for discrete kinds, None for continuous kinds."""
        if self.kind == FINITE:
            return [(float(v), float(p)) for v, p in zip(self._values, self._probs)]
        if self.kind == DEGENERATE:
            return [(self._point, 1.0)]
        return None

    def mean(self) -> float:
        if self.kind == FINITE:
            return float(self._values @ self._probs)
        if self.kind == UNIFORM:
            return 0.5 * (self._lo + self._hi)
        if self.kind == EXPONENTIAL:
            return 1.0 / self._rate
        return self._point

    # ---- probability functions ----

    def cdf(self, x: float) -> float:
        if self.kind == FINITE:
            points, levels = self._steps
            idx = bisect_right(points, x)
            return 0.0 if idx == 0 else levels[idx - 1]
        if self.kind == UNIFORM:
            if x < self._lo:
                return 0.0
            if x >= self._hi:
                return 1.0
            return (x - self._lo) / (self._hi - self._lo)
        if self.kind == EXPONENTIAL:
            return 0.0 if x < 0 else 1.0 - math.exp(-self._rate * x)
        return 1.0 if x >= self._point else 0.0

    def quantile(self, q: float) -> float:
        """Generalized inverse CDF, inf{x : F(x) >= q}, for q in (0, 1]."""
        if not (0 < q <= 1):
            raise DistributionError("quantile requires q in (0, 1]")
        if self.kind == FINITE:
            idx = int(np.searchsorted(self._cum, q - _ATOM_PROB_TOL))
            idx = min(idx, len(self._values) - 1)
            return float(self._values[idx])
        if self.kind == UNIFORM:
            return self._lo + q * (self._hi - self._lo)
        if self.kind == EXPONENTIAL:
            if q == 1.0:
                return math.inf
            return -math.log1p(-q) / self._rate
        return self._point

    def isf(self, v: np.ndarray) -> np.ndarray:
        """Vectorized inverse survival function of an atomless kind: the x
        with Pr[X > x] = v, for v in (0, 1].

        It maps an upper-tail probability directly, so values far in the top
        tail keep their precision (1 - v would round them away).
        """
        v = np.asarray(v, dtype=float)
        if self.kind == UNIFORM:
            return self._hi - v * (self._hi - self._lo)
        if self.kind == EXPONENTIAL:
            return -np.log(v) / self._rate
        raise DistributionError(f"{self.kind} has no inverse survival function")

    def sf(self, x) -> np.ndarray:
        """Vectorized survival function Pr[X > x] of an atomless kind, the
        complement of `isf`."""
        x = np.asarray(x, dtype=float)
        if self.kind == UNIFORM:
            return np.clip((self._hi - x) / (self._hi - self._lo), 0.0, 1.0)
        if self.kind == EXPONENTIAL:
            return np.exp(-self._rate * np.maximum(x, 0.0))
        raise DistributionError(f"{self.kind} has no survival function")

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
        """Draw an array of the given size (C order).

        A finite support is sampled by sequential-search inversion: the atom
        index is the number of interior CDF points <= u for u = rng.random.
        That is the arithmetic of rng.choice(values, size, p=probs), so the
        draws are bit-identical to it. The cost is O(atoms) whole-array
        comparisons per cell: well below choice's per-cell binary search at
        the one to three atoms of every distribution this package builds,
        about even near 64 atoms, and dearer beyond.
        """
        if self.kind == FINITE:
            u = rng.random(size)
            idx = np.zeros(u.shape, dtype=np.intp)
            for c in self._cdf[:-1]:
                idx += u >= c
            return self._values.take(idx)
        if self.kind == UNIFORM:
            return rng.uniform(self._lo, self._hi, size=size)
        if self.kind == EXPONENTIAL:
            return rng.exponential(1.0 / self._rate, size=size)
        return np.full(size, self._point)

    # ---- serialization ----

    def to_json(self) -> dict:
        if self.kind == FINITE:
            params = {"atoms": [[float(v), float(p)] for v, p in self.atoms]}
        elif self.kind == UNIFORM:
            params = {"lo": self._lo, "hi": self._hi}
        elif self.kind == EXPONENTIAL:
            params = {"rate": self._rate}
        else:
            params = {"value": self._point}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "ValueDistribution":
        kind, params = obj["kind"], obj["params"]
        if kind == FINITE:
            return cls.finite([tuple(a) for a in params["atoms"]])
        return cls(kind, **params)

    def __repr__(self) -> str:
        return f"ValueDistribution({self.to_json()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueDistribution) and self.to_json() == other.to_json()


class ProductInstance:
    """Ordered collection of n independent ValueDistributions."""

    __slots__ = ("components", "_runs")

    def __init__(self, components: Sequence[ValueDistribution]):
        if len(components) == 0:
            raise DistributionError("product instance needs at least one component")
        self.components = tuple(components)
        # maximal runs [lo, hi) of consecutive components that are one object
        starts = [i for i, c in enumerate(self.components)
                  if i == 0 or c is not self.components[i - 1]]
        self._runs = tuple(zip(starts, starts[1:] + [len(self.components)]))

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
        in the same order; a C-order (trials, n) draw would not. Used for the
        award values of every engine, and by `sample_rank` for the sample
        threshold of any instance that is not i.i.d. atomless.
        """
        if len(self._runs) == 1:
            cols = self.components[0].sample_n(rng, (self.n, trials))
        else:
            cols = np.empty((self.n, trials))
            for lo, hi in self._runs:
                cols[lo:hi] = self.components[lo].sample_n(rng, (hi - lo, trials))
        return np.ascontiguousarray(cols.T)

    def sample_rank(self, rng: np.random.Generator, trials: int, tau: int) -> np.ndarray:
        """The tau-th highest of n fresh draws, one per row, for `trials` rows.

        For a single run of one atomless component (what `iid` builds), the
        upper-tail probability of that order statistic is Beta(tau,
        n - tau + 1) (Devroye, Non-Uniform Random Variate Generation, 1986,
        ch. V), so one `rng.beta` draw per row, mapped through the
        component's `isf`, has its exact law. Any other instance draws a
        full `sample_matrix` and partitions each row; that path is also the
        reference the tests hold the beta draw to.
        """
        n = self.n
        if not 1 <= tau <= n:
            raise ValueError(f"tau must lie in [1, n={n}], got {tau}")
        dist = self.components[0]
        if len(self._runs) == 1 and dist.atomless:
            return dist.isf(rng.beta(tau, n - tau + 1, trials))
        samples = self.sample_matrix(rng, trials)
        # copied out, so the partitioned (trials, n) buffer is freed at once
        return np.partition(samples, n - tau, axis=1)[:, n - tau].copy()

    def sample_rows(self, rng: np.random.Generator, trials: int, thr, m: int) -> np.ndarray:
        """Rows that hold what a threshold rule and its top-m benchmark read.

        `thr` is a scalar or one threshold per row. For a single run of one
        atomless component (what `iid` builds), row r is a reduced row: its
        C_r ~ Binomial(n, sf(thr)) values above thr, drawn from the law
        conditioned above thr as isf(sf(thr) * V) with V in (0, 1], in
        arrival order; zero padding up to the largest C; then the top
        min(m, n) of its n - C_r values below thr, in decreasing order, with
        0.0 where there are fewer. Those are descending uniform order
        statistics of the law conditioned below thr (the Renyi
        representation; Devroye, Non-Uniform Random Variate Generation,
        1986, ch. V): the j-th has 1 - U_(j) = -expm1(sum_{i <= j} log(V_i) /
        (n - C_r - i + 1)), mapped through `isf` and clamped to thr. So
        `values > thr` holds exactly the row's values above thr, in arrival
        order, and its top m are the top m of a full row. The stream holds
        the counts, then the sum(C) above-threshold uniforms, then a
        (trials, min(m, n)) block of below-threshold ones.

        Any other instance returns `sample_matrix(rng, trials)`, which is
        also the reference the tests hold the reduced rows to.
        """
        dist = self.components[0]
        if len(self._runs) > 1 or not dist.atomless:
            return self.sample_matrix(rng, trials)
        n, depth = self.n, min(m, self.n)
        per_row = np.ndim(thr) == 1
        p = dist.sf(thr)
        count = rng.binomial(n, p, trials)
        width = int(count.max())
        rows = np.zeros((trials, width + depth))
        v = 1.0 - rng.random(int(count.sum()))
        above = np.arange(width) < count[:, None]
        rows[:, :width][above] = dist.isf((np.repeat(p, count) if per_row else p) * v)
        left = (n - count)[:, None] - np.arange(depth)  # values below thr not yet drawn
        logs = np.log(1.0 - rng.random((trials, depth))) / np.maximum(left, 1)
        if per_row:
            p, thr = p[:, None], thr[:, None]
        below = dist.isf(p - (1.0 - p) * np.expm1(np.cumsum(logs, axis=1)))
        rows[:, width:] = np.where(left > 0, np.minimum(below, thr), 0.0)
        return rows

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
