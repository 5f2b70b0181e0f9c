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
_ROOT_TOL = 1e-9
_MAX_BISECT_ITERS = 200

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


class RegularityViolationError(DistributionError):
    """Virtual valuation decreases somewhere; Myerson machinery undefined."""


class ValueDistribution:
    """One award's distribution.

    Supported kinds: finite list of atoms, uniform on an interval,
    exponential with a rate, and a single point mass. Atom values must be
    nonnegative and strictly increasing with probabilities summing to one.
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
            if not (0 <= lo < hi):
                raise DistributionError("uniform interval needs 0 <= lo < hi")
            self._lo, self._hi = lo, hi
        elif kind == EXPONENTIAL:
            rate = float(params["rate"])
            if rate <= 0:
                raise DistributionError("exponential rate must be positive")
            self._rate = rate
            self._lo, self._hi = 0.0, math.inf
        elif kind == DEGENERATE:
            point = float(params["value"])
            if point < 0:
                raise DistributionError("point mass must be nonnegative")
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
    """Solve prod_i F_i(T) = q by bisection (for atomless instances).

    The root tolerance is relative to q, so a small target such as
    (2/3)^(k-1) at large k is still met to about nine significant digits.

    Raises DegenerateThresholdError when q = 1 and some component has
    unbounded support, since no finite T can reach the target.
    """
    if not (0 < q <= 1):
        raise DistributionError("max_quantile requires q in (0, 1]")
    heads = instance.distinct()
    uppers = [c.support[1] for c in heads]
    if q == 1.0 and any(math.isinf(u) for u in uppers):
        raise DegenerateThresholdError("q = 1 with unbounded support has no finite threshold")
    lo = min(c.support[0] for c in heads)
    if instance.max_cdf(lo) >= q:
        return lo
    if all(math.isfinite(u) for u in uppers):
        hi = max(uppers)
    else:
        hi = max(1.0, lo + 1.0)
        while instance.max_cdf(hi) < q:
            hi *= 2.0
    for _ in range(_MAX_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f = instance.max_cdf(mid)
        if abs(f - q) <= _ROOT_TOL * q:
            return mid
        if f < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(hi):
            break
    return 0.5 * (lo + hi)


def max_quantile_inf(instance: ProductInstance, q: float) -> float:
    """Generalized inverse of the max-CDF: inf{t : prod_i F_i(t) >= q}.

    Works for atom-bearing instances, where the max-CDF is a step function.
    The returned point is snapped onto a component atom when one is within
    ten times the bisection's final width, which is relative to the point,
    so downstream >=/> comparisons against atom values are exact at any
    scale of values.
    """
    if not (0 < q <= 1):
        raise DistributionError("max_quantile_inf requires q in (0, 1]")
    heads = instance.distinct()
    lo = min(c.support[0] for c in heads)
    if instance.max_cdf(lo) >= q:
        return lo
    uppers = [c.support[1] for c in heads]
    if all(math.isfinite(u) for u in uppers):
        hi = max(uppers)
        if instance.max_cdf(hi) < q:
            raise DegenerateThresholdError("max-CDF never reaches the target quantile")
    else:
        hi = max(1.0, lo + 1.0)
        while instance.max_cdf(hi) < q:
            if q == 1.0 and hi > 1e308 / 2:
                raise DegenerateThresholdError("q = 1 with unbounded support")
            hi *= 2.0
    # bisection on the predicate F(t) >= q; hi stays feasible throughout
    for _ in range(_MAX_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if instance.max_cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _ROOT_TOL * max(1.0, abs(hi)):
            break
    snap = 10 * _ROOT_TOL * max(1.0, abs(hi))
    atom_values = sorted({v for c in heads if c.atoms is not None for v, _ in c.atoms})
    for v in atom_values:
        if abs(v - hi) <= snap and instance.max_cdf(v) >= q:
            return v
    return hi


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


def check_regular(dist: ValueDistribution, grid_size: int = 1024) -> None:
    """Raise RegularityViolationError if virtual value decreases on a quantile grid."""
    qs = np.linspace(1.0 / (grid_size + 1), grid_size / (grid_size + 1.0), grid_size)
    phis = []
    for q in qs:
        x = dist.quantile(float(q))
        if not math.isfinite(x):
            continue
        phis.append(virtual_value(dist, x))
    if np.any(np.diff(phis) < -_ROOT_TOL):
        raise RegularityViolationError("virtual value decreases on the quantile grid")


def monopoly_price(dist: ValueDistribution) -> float:
    """Root of the virtual valuation, for a regular distribution."""
    check_regular(dist)
    lo, hi = dist.support
    if virtual_value(dist, lo) >= 0:
        return lo
    if math.isinf(hi):
        # bracket from the median, so the density never underflows at any scale
        hi = dist.quantile(0.5)
        while virtual_value(dist, hi) < 0:
            lo, hi = hi, 2.0 * hi
    for _ in range(_MAX_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        phi = virtual_value(dist, mid)
        if abs(phi) <= _ROOT_TOL * mid:
            return mid
        if phi < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _ROOT_TOL * hi:
            break
    return 0.5 * (lo + hi)


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
