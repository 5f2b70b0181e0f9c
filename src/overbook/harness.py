"""Declarative experiment harness: specs, dispatch, reports, CSV/JSON output.

An experiment spec names an algorithm family, its parameters, a distribution
or value multiset, a trial count, and a master seed. The table `_RUNNERS`
maps each kind to the runner that estimates its ratio and bound, the optional
spec fields it reads, and whether its bound is an upper bound. Upper-bound
kinds pass when estimate <= bound exactly; every other kind passes when its
bound is vacuous or estimate + 3*stderr >= bound, and its runner's extra
check (a trace replay, the payment identity) holds.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import experiments
from .distributions import (
    DegenerateThresholdError,
    ProductInstance,
    ValueDistribution,
    hard_prophet_instance,
)
from .mechanisms import SOURCE_ALG_MAX, SOURCE_ALG_TAU
from .oracle import (StateSpaceTooLargeError, exact_prophet_benchmark, optimal_online_dp,
                     secretary_max_prob_dp)
from .prophet import default_tau
from .secretary import default_beta, secretary_phase_length
from .seeding import BATCH_SIZE

CSV_COLUMNS = [
    "experiment", "n", "ell", "k", "tau", "algorithm", "trials", "seed",
    "ratio_estimate", "stderr", "theoretical_bound", "pass",
]

SEED_RULE = f"SeedSequence(entropy=master_seed, spawn_key=(batch_index,)); batch size {BATCH_SIZE}"


class InvalidSpecError(ValueError):
    """Experiment spec fails validation; message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    n: int
    ell: int
    k: int
    trials: int
    master_seed: int
    tau: Optional[int] = None
    distribution: Optional[dict] = None
    values: Optional[dict] = None
    source: Optional[str] = None
    name: Optional[str] = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpecError(f"kind: unknown kind {self.kind!r}")
        if self.name is not None and not isinstance(self.name, str):
            raise InvalidSpecError(f"name: must be a string, got {self.name!r}")
        for name in ("n", "ell", "k", "trials", "master_seed", "tau"):
            value = getattr(self, name)
            if value is not None:
                as_count(value, name)
        if self.n < 1:
            raise InvalidSpecError("n: must be >= 1")
        if self.ell < 1:
            raise InvalidSpecError("ell: must be >= 1")
        if self.k < self.ell:
            raise InvalidSpecError("k: must be >= ell")
        if self.trials < 1:
            raise InvalidSpecError("trials: must be >= 1")
        if self.master_seed < 0:
            raise InvalidSpecError("master_seed: must be >= 0")
        if self.tau is not None and not (1 <= self.tau <= self.n):
            raise InvalidSpecError("tau: must lie in [1, n]")
        reads = _RUNNERS[self.kind].reads
        for name in ("tau", "distribution", "values", "source"):
            if getattr(self, name) is not None and name not in reads:
                raise InvalidSpecError(f"{name}: {self.kind} does not read it")

    def label(self) -> str:
        return self.name or self.kind

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        required = tuple(f.name for f in fields(cls) if f.default is MISSING)
        optional = tuple(f.name for f in fields(cls) if f.default is not MISSING)
        return cls(**read_object(obj, "", required, optional))


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    algorithm: str
    ratio_estimate: float
    stderr: float
    theoretical_bound: float
    vacuous: bool
    passed: bool = field(metadata={"json": "pass"})
    elapsed_seconds: float
    seed_rule: str = SEED_RULE
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {_json_key(f): getattr(self, f.name) for f in fields(self)}
        out["spec"] = self.spec.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentReport":
        keyed = {_json_key(f): f for f in fields(cls)}
        defaulted = tuple(key for key, f in keyed.items()
                          if f.default is not MISSING or f.default_factory is not MISSING)
        read_object(obj, "", tuple(key for key in keyed if key not in defaulted), defaulted)
        kwargs = {keyed[key].name: value for key, value in obj.items()}
        return cls(**{**kwargs, "spec": ExperimentSpec.from_json(obj["spec"])})


def _json_key(f) -> str:
    """A report field's JSON key: its name, unless its metadata renames it."""
    return f.metadata.get("json", f.name)


# ---- closed-form bounds ----


def tau_selector_bound(ell: int, k: int, tau: int) -> float:
    """1 - 4*ell*exp(-min(k-tau, tau-ell)^2 / (8k))."""
    margin = min(k - tau, tau - ell)
    return 1.0 - 4.0 * ell * math.exp(-(margin**2) / (8.0 * k))


def max_selector_bound(k: int, atoms_variant: bool = False) -> float:
    """1 - (3/2)*exp(-k/6), with k-1 in place of k for the atoms variant."""
    eff = k - 1 if atoms_variant else k
    return 1.0 - 1.5 * math.exp(-eff / 6.0)


def secretary_bound(ell: int, k: int) -> float:
    """1 - ell*exp(-s) - exp(-k/6) with the clamped phase exponent s."""
    s = secretary_phase_length(ell, k)
    return 1.0 - ell * math.exp(-s) - math.exp(-k / 6.0)


def hard_instance_bound(k: int) -> float:
    """Upper bound 1 - 1/(2k+2)! on any online algorithm's ratio."""
    return 1.0 - 1.0 / math.factorial(2 * k + 2)


def secretary_upper_bound(n: int, k: int) -> float:
    """(1 + 1/n)(1 - e^{-k}), the max-probability ceiling."""
    return (1.0 + 1.0 / n) * (1.0 - math.exp(-k))


# ---- spec resolution helpers ----


def as_count(value, field: str) -> int:
    """A count: an integer, not a bool. A float such as 1.9 is refused, not
    truncated, by an InvalidSpecError that names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSpecError(f"{field}: must be an integer, got {value!r}")
    return int(value)


def as_real(value, field: str) -> float:
    """A real number, not a bool or a string, as a float; otherwise an
    InvalidSpecError that names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpecError(f"{field}: must be a real number, got {value!r}")
    return float(value)


def read_object(obj, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> dict:
    """Return `obj` once it is a JSON object with every `required` key and no
    key outside `required + optional`; otherwise raise an InvalidSpecError that
    names the key after `where`, the field holding it ("" for a top-level one)."""
    prefix = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where or 'top level'}: must be a JSON object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise InvalidSpecError(f"{prefix}{key}: required")
    for key in obj:
        if key not in required and key not in optional:
            raise InvalidSpecError(f"{prefix}{key}: unknown key")
    return obj


@contextmanager
def _malformed(field: str):
    """Re-raise what parsing a malformed nested payload raises (a missing key,
    a wrong type, a bad number or distribution parameter, an unreadable
    file) as an InvalidSpecError that names the field."""
    try:
        yield
    except InvalidSpecError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise InvalidSpecError(f"{field}: malformed ({type(exc).__name__}: {exc})") from exc


def as_values(obj, field: str) -> np.ndarray:
    """A flat list of finite values >= 0, or an InvalidSpecError that names the
    field: NaN, inf and negative values make a NaN or infinite estimate or a
    ratio above 1, which a vacuous bound would pass."""
    with _malformed(field):
        values = np.asarray(obj, dtype=float)
    if values.ndim != 1:
        raise InvalidSpecError(f"{field}: need a flat list of values, got shape {values.shape}")
    if not np.all((values >= 0) & (values < math.inf)):
        raise InvalidSpecError(f"{field}: every value must be finite and >= 0")
    return values


def _resolve_instance(spec: ExperimentSpec) -> ProductInstance:
    desc = spec.distribution if isinstance(spec.distribution, dict) else {}
    if "iid" in desc:
        read_object(desc, "distribution", ("iid",))
        with _malformed("distribution"):
            instance = ProductInstance.iid(ValueDistribution.from_json(desc["iid"]), spec.n)
    elif "components" in desc:
        read_object(desc, "distribution", ("components",))
        with _malformed("distribution"):
            instance = ProductInstance.from_json(desc["components"])
        if instance.n != spec.n:
            raise InvalidSpecError(f"distribution: {instance.n} components but n={spec.n}")
    else:
        raise InvalidSpecError("distribution: need an object with 'iid' or 'components'")
    if all(c.support[1] == 0.0 for c in instance.distinct()):
        raise InvalidSpecError("distribution: every value is 0, so the top-ell sum is 0")
    return instance


def _resolve_values(spec: ExperimentSpec) -> np.ndarray:
    desc = spec.values if isinstance(spec.values, dict) else {}
    kind = desc.get("kind")
    if kind == "geometric":
        read_object(desc, "values", ("kind", "ratio"))
        ratio = as_real(desc["ratio"], "values: ratio")
        if not 1.0 < ratio < math.inf:
            # 0 divides by zero, < 0 flips signs, 1 ties, (0, 1) overflows at large n
            raise InvalidSpecError(f"values: ratio must be > 1 and finite, got {ratio!r}")
        values = ratio ** -np.arange(spec.n, dtype=float)
    elif kind == "list":
        values = read_object(desc, "values", ("kind", "values"))["values"]
    elif kind == "csv":
        read_object(desc, "values", ("kind", "path"))
        with _malformed("values"), open(desc["path"]) as fh:
            values = [float(line) for line in fh if line.strip()]
    else:
        raise InvalidSpecError("values: need an object whose kind is geometric, list, or csv")
    values = as_values(values, "values")
    if len(values) != spec.n:
        raise InvalidSpecError(f"values: need n={spec.n} values, got {len(values)}")
    if not values.any():
        raise InvalidSpecError("values: all values are 0, so the top-ell sum is 0")
    return values


def _require_atomless(instance: ProductInstance, engine: str) -> None:
    if not instance.all_atomless:
        raise InvalidSpecError(
            f"distribution: {engine} needs atomless components; its batch engine "
            "skips the tie-break priorities that atoms make necessary")


def _require_k_above_one(k: int, engine: str) -> None:
    if k < 2:
        raise InvalidSpecError(
            f"k: {engine} needs k >= 2; at k = 1 the scalar alg_max and "
            "alg_max_atoms raise DegenerateThresholdError")


def _tau(spec: ExperimentSpec) -> int:
    """The spec's sample rank, or the default rank ceil((ell + k) / 2), which
    must lie in [1, n] too."""
    tau = spec.tau if spec.tau is not None else default_tau(spec.ell, spec.k)
    if not 1 <= tau <= spec.n:
        raise InvalidSpecError(f"tau: {tau} must lie in [1, n={spec.n}]")
    return tau


# ---- runners, one per kind ----
# Oracles and default_beta are harness globals and engines are called as
# `experiments.<name>_trials`, so a swapped module attribute reaches every kind.


@dataclass
class _Outcome:
    algorithm: str
    estimate: float
    stderr: float
    bound: float
    extras: dict = field(default_factory=dict)
    #: a check besides the bound, which the verdict also requires
    ok: bool = True


def _run_prophet_tau(spec: ExperimentSpec) -> _Outcome:
    instance = _resolve_instance(spec)
    _require_atomless(instance, spec.kind)
    tau = _tau(spec)
    stats = experiments.alg_tau_trials(
        instance, spec.ell, spec.k, tau, spec.trials, spec.master_seed)
    return _Outcome("alg_tau", stats.ratio, stats.ratio_stderr,
                    tau_selector_bound(spec.ell, spec.k, tau), {"tau": tau, **stats.extras})


def _run_prophet_max(spec: ExperimentSpec) -> _Outcome:
    _require_k_above_one(spec.k, spec.kind)
    instance = _resolve_instance(spec)
    if instance.all_atomless:
        algorithm, engine = "alg_max", experiments.alg_max_trials
    else:
        algorithm, engine = "alg_max_atoms", experiments.alg_max_atoms_trials
    try:
        stats = engine(instance, spec.ell, spec.k, spec.trials, spec.master_seed)
    except DegenerateThresholdError as err:
        # at k = 2 the atoms rule reads the max-CDF's 1-quantile, which no
        # finite value reaches when a component is unbounded
        raise InvalidSpecError(
            f"k: {algorithm} has no finite threshold at k = {spec.k}: {err}") from err
    return _Outcome(algorithm, stats.ratio, stats.ratio_stderr,
                    max_selector_bound(spec.k, atoms_variant=not instance.all_atomless),
                    stats.extras)


def _run_secretary(spec: ExperimentSpec) -> _Outcome:
    values = _resolve_values(spec)
    beta = default_beta(spec.n, spec.ell, spec.k)
    stats = experiments.secretary_trials(
        values, beta, spec.k, spec.trials, spec.master_seed)
    extras = {"beta": list(beta.boundaries), **stats.extras,
              "capacity_event_bound": math.exp(-spec.k / 6.0)}
    # below k = 8*ell the phase exponent clamps to 0: the bound is negative, so vacuous
    return _Outcome("alg_beta", stats.ratio, stats.ratio_stderr,
                    secretary_bound(spec.ell, spec.k), extras)


def _run_hard_instance_dp(spec: ExperimentSpec) -> _Outcome:
    if spec.n < spec.k + 1:
        raise InvalidSpecError(f"n: {spec.kind} needs n >= k + 1 = {spec.k + 1}")
    instance = hard_prophet_instance(spec.k, spec.n)
    # the benchmark counts its 2^(k+1) outcomes before it enumerates them, so
    # an instance over the cutoff is refused before the DP runs
    try:
        bench = exact_prophet_benchmark(instance, spec.ell)
    except StateSpaceTooLargeError as err:
        raise InvalidSpecError(f"k: {spec.kind} cannot enumerate its benchmark: {err}") from err
    dp = optimal_online_dp(instance, spec.ell, spec.k)
    return _Outcome("optimal_online_dp", dp.expected_value / bench, 0.0,
                    hard_instance_bound(spec.k),
                    {"dp_value": dp.expected_value, "benchmark": bench})


def _run_secretary_upper_bound(spec: ExperimentSpec) -> _Outcome:
    return _Outcome("secretary_max_prob_dp", secretary_max_prob_dp(spec.n, spec.k), 0.0,
                    secretary_upper_bound(spec.n, spec.k))


def _run_mechanism_welfare(spec: ExperimentSpec) -> _Outcome:
    instance = _resolve_instance(spec)
    source = spec.source or SOURCE_ALG_MAX
    engine = f"{spec.kind} source {source}"
    if source == SOURCE_ALG_MAX:
        _require_k_above_one(spec.k, engine)
        if spec.tau is not None:
            raise InvalidSpecError(f"tau: {engine} does not read it")
        tau, bound, extras = None, max_selector_bound(spec.k), {}
    elif source == SOURCE_ALG_TAU:
        tau = _tau(spec)
        bound, extras = tau_selector_bound(spec.ell, spec.k, tau), {"tau": tau}
    else:
        raise InvalidSpecError(f"source: unknown mechanism source {source!r}")
    # both sources accept values strictly above the threshold, with no
    # tie-break priorities: on atoms an alg_max threshold can sit at the top
    # atom and accept nothing
    _require_atomless(instance, engine)
    stats = experiments.mechanism_welfare_trials(
        instance, spec.ell, spec.k, spec.trials, spec.master_seed, tau=tau)
    return _Outcome(f"two_phase[{source}]", stats.ratio, stats.ratio_stderr, bound,
                    {**extras, **stats.extras}, ok=stats.extras["trace_mismatches"] == 0)


def _run_mechanism_revenue(spec: ExperimentSpec) -> _Outcome:
    if "iid" not in (spec.distribution or {}):
        raise InvalidSpecError("distribution: revenue mode needs an iid prior")
    prior = _resolve_instance(spec).components[0]
    if not prior.atomless:
        raise InvalidSpecError(
            f"distribution: revenue mode needs a prior with a density, got {prior.kind}; "
            "only the uniform and exponential kinds have a virtual value, and both are regular")
    tau = _tau(spec)
    stats = experiments.mechanism_revenue_trials(
        prior, spec.n, spec.ell, spec.k, tau, spec.trials, spec.master_seed)
    # Myerson payment identity: revenue equals winner virtual surplus
    gap, gap_se = stats.extras["identity_gap"], stats.extras["identity_gap_stderr"]
    return _Outcome(f"two_phase[{SOURCE_ALG_TAU}]", stats.ratio, stats.ratio_stderr,
                    tau_selector_bound(spec.ell, spec.k, tau), {"tau": tau, **stats.extras},
                    ok=abs(gap) <= 3.0 * max(gap_se, 1e-12))


class _Kind(NamedTuple):
    run: Callable[[ExperimentSpec], _Outcome]
    #: the optional spec fields the runner reads; setting any other is refused
    reads: tuple[str, ...] = ()
    #: the bound caps the estimate from above, with no slack
    upper_bound: bool = False


_RUNNERS = {
    "prophet-tau": _Kind(_run_prophet_tau, ("tau", "distribution")),
    "prophet-max": _Kind(_run_prophet_max, ("distribution",)),
    "secretary": _Kind(_run_secretary, ("values",)),
    "hard-instance-dp": _Kind(_run_hard_instance_dp, upper_bound=True),
    "secretary-upper-bound": _Kind(_run_secretary_upper_bound, upper_bound=True),
    "mechanism-welfare": _Kind(_run_mechanism_welfare, ("tau", "distribution", "source")),
    "mechanism-revenue": _Kind(_run_mechanism_revenue, ("tau", "distribution")),
}

KINDS = tuple(_RUNNERS)

#: Experiment kinds whose bound is an upper bound on the estimate.
UPPER_BOUND_KINDS = tuple(kind for kind, entry in _RUNNERS.items() if entry.upper_bound)


# ---- dispatch ----


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    spec.validate()
    start = time.perf_counter()
    kind = _RUNNERS[spec.kind]
    out = kind.run(spec)
    vacuous = out.bound <= 0.0
    if kind.upper_bound:
        passed = out.estimate <= out.bound
    else:
        passed = out.ok and (vacuous or out.estimate + 3.0 * out.stderr >= out.bound)
    elapsed = time.perf_counter() - start
    return ExperimentReport(spec, out.algorithm, float(out.estimate), float(out.stderr),
                            float(out.bound), vacuous, bool(passed), elapsed,
                            extras=out.extras)


def run_experiments(specs: list[ExperimentSpec], jobs: int = 1) -> list[ExperimentReport]:
    """Run several experiments, optionally in parallel.

    Results are ordered like the input specs and are identical for any
    worker count: each experiment's randomness depends only on its own
    master seed and the fixed batch schedule.
    """
    if jobs <= 1 or len(specs) <= 1:
        return [run_experiment(s) for s in specs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_experiment, specs))


# ---- output ----


def emit_report(reports: list[ExperimentReport], format: str, path: str) -> None:
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in reports:
                s = r.spec
                writer.writerow([
                    s.label(), s.n, s.ell, s.k,
                    r.extras.get("tau", s.tau if s.tau is not None else ""),
                    r.algorithm, s.trials, s.master_seed,
                    repr(r.ratio_estimate), repr(r.stderr),
                    repr(r.theoretical_bound), str(r.passed).lower(),
                ])
    elif format == "json":
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")


def load_config(path: str) -> list[ExperimentSpec]:
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = read_object(obj, "", ("experiments",))["experiments"]
    if not isinstance(obj, list) or not all(isinstance(e, dict) for e in obj):
        raise InvalidSpecError(f"experiments: must be a list of objects, got {obj!r}")
    return [ExperimentSpec.from_json(e) for e in obj]
