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
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import experiments
from .distributions import (
    ProductInstance,
    ValueDistribution,
    hard_prophet_instance,
)
from .mechanisms import SOURCE_ALG_MAX, SOURCE_ALG_TAU
from .oracle import exact_prophet_benchmark, optimal_online_dp, secretary_max_prob_dp
from .prophet import default_tau
from .secretary import default_beta, secretary_phase_length

CSV_COLUMNS = [
    "experiment", "n", "ell", "k", "tau", "algorithm", "trials", "seed",
    "ratio_estimate", "stderr", "theoretical_bound", "pass",
]

SEED_RULE = "SeedSequence(entropy=master_seed, spawn_key=(batch_index,)); batch size 20000"


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
        for name in ("n", "ell", "k", "trials", "master_seed", "tau"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Integral)):
                raise InvalidSpecError(f"{name}: must be an integer, got {value!r}")
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
        known = {f.name: f for f in fields(cls)}
        for key in obj:
            if key not in known:
                raise InvalidSpecError(f"{key}: unknown spec key")
        for name, f in known.items():
            if f.default is MISSING and name not in obj:
                raise InvalidSpecError(f"{name}: required")
        return cls(**obj)


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    algorithm: str
    ratio_estimate: float
    stderr: float
    theoretical_bound: float
    vacuous: bool
    passed: bool
    elapsed_seconds: float
    seed_rule: str = SEED_RULE
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "algorithm": self.algorithm,
            "ratio_estimate": self.ratio_estimate,
            "stderr": self.stderr,
            "theoretical_bound": self.theoretical_bound,
            "vacuous": self.vacuous,
            "pass": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "seed_rule": self.seed_rule,
            "extras": self.extras,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentReport":
        return cls(
            spec=ExperimentSpec.from_json(obj["spec"]),
            algorithm=obj["algorithm"],
            ratio_estimate=obj["ratio_estimate"],
            stderr=obj["stderr"],
            theoretical_bound=obj["theoretical_bound"],
            vacuous=obj["vacuous"],
            passed=obj["pass"],
            elapsed_seconds=obj["elapsed_seconds"],
            seed_rule=obj.get("seed_rule", SEED_RULE),
            extras=obj.get("extras", {}),
        )


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


def _resolve_instance(spec: ExperimentSpec) -> ProductInstance:
    desc = spec.distribution
    if desc is None:
        raise InvalidSpecError("distribution: required for this kind")
    if "iid" in desc:
        dist = ValueDistribution.from_json(desc["iid"])
        instance = ProductInstance.iid(dist, int(desc.get("n", spec.n)))
    elif "components" in desc:
        instance = ProductInstance.from_json(desc["components"])
    else:
        raise InvalidSpecError("distribution: need 'iid' or 'components'")
    if instance.n != spec.n:
        raise InvalidSpecError(f"distribution: {instance.n} components but n={spec.n}")
    return instance


def _resolve_values(spec: ExperimentSpec) -> np.ndarray:
    desc = spec.values
    if desc is None:
        raise InvalidSpecError("values: required for this kind")
    kind = desc.get("kind")
    if kind == "geometric":
        n = int(desc.get("n", spec.n))
        values = float(desc["ratio"]) ** -np.arange(n, dtype=float)
    elif kind == "list":
        values = np.asarray(desc["values"], dtype=float)
    elif kind == "csv":
        with open(desc["path"]) as fh:
            values = np.asarray([float(line) for line in fh if line.strip()], dtype=float)
    else:
        raise InvalidSpecError("values: kind must be geometric, list, or csv")
    if len(values) != spec.n:
        raise InvalidSpecError(f"values: {len(values)} values but n={spec.n}")
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
    estimate, stderr = experiments.alg_tau_trials(
        instance, spec.ell, spec.k, tau, spec.trials, spec.master_seed)
    return _Outcome("alg_tau", estimate, stderr,
                    tau_selector_bound(spec.ell, spec.k, tau), {"tau": tau})


def _run_prophet_max(spec: ExperimentSpec) -> _Outcome:
    _require_k_above_one(spec.k, spec.kind)
    instance = _resolve_instance(spec)
    if instance.all_atomless:
        estimate, stderr = experiments.alg_max_trials(
            instance, spec.ell, spec.k, spec.trials, spec.master_seed)
        return _Outcome("alg_max", estimate, stderr, max_selector_bound(spec.k))
    estimate, stderr = experiments.alg_max_atoms_trials(
        instance, spec.ell, spec.k, spec.trials, spec.master_seed)
    return _Outcome("alg_max_atoms", estimate, stderr,
                    max_selector_bound(spec.k, atoms_variant=True))


def _run_secretary(spec: ExperimentSpec) -> _Outcome:
    values = _resolve_values(spec)
    beta = default_beta(spec.n, spec.ell, spec.k)
    stats = experiments.secretary_trials(
        values, beta, spec.k, spec.trials, spec.master_seed)
    extras = {
        "beta": list(beta.boundaries),
        "prob_capacity_differs": stats.prob_capacity_differs,
        "prob_capacity_differs_stderr": stats.prob_capacity_differs_stderr,
        "prob_ell_missed": stats.prob_ell_missed,
        "prob_ell_missed_stderr": stats.prob_ell_missed_stderr,
        "capacity_event_bound": math.exp(-spec.k / 6.0),
    }
    # below k = 8*ell the phase exponent clamps to 0: the bound is negative, so vacuous
    return _Outcome("alg_beta", stats.ratio, stats.ratio_stderr,
                    secretary_bound(spec.ell, spec.k), extras)


def _run_hard_instance_dp(spec: ExperimentSpec) -> _Outcome:
    instance = hard_prophet_instance(spec.k, spec.n)
    dp = optimal_online_dp(instance, spec.ell, spec.k)
    bench = exact_prophet_benchmark(instance, spec.ell)
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
        _require_atomless(instance, engine)
        tau = _tau(spec)
        bound, extras = tau_selector_bound(spec.ell, spec.k, tau), {"tau": tau}
    else:
        raise InvalidSpecError(f"source: unknown mechanism source {source!r}")
    stats = experiments.mechanism_welfare_trials(
        instance, spec.ell, spec.k, spec.trials, spec.master_seed,
        source=source, tau=tau)
    extras["trace_mismatches"] = stats.trace_mismatches
    return _Outcome(f"two_phase[{source}]", stats.ratio, stats.ratio_stderr, bound,
                    extras, ok=stats.trace_mismatches == 0)


def _run_mechanism_revenue(spec: ExperimentSpec) -> _Outcome:
    if "iid" not in (spec.distribution or {}):
        raise InvalidSpecError("distribution: revenue mode needs an iid prior")
    prior = _resolve_instance(spec).components[0]
    tau = _tau(spec)
    stats = experiments.mechanism_revenue_trials(
        prior, spec.n, spec.ell, spec.k, tau, spec.trials, spec.master_seed)
    extras = {
        "tau": tau,
        "revenue_mean": stats.revenue_mean,
        "revenue_stderr": stats.revenue_stderr,
        "optimal_mean": stats.optimal_mean,
        "optimal_stderr": stats.optimal_stderr,
        "identity_gap": stats.identity_gap,
        "identity_gap_stderr": stats.identity_gap_stderr,
    }
    # Myerson payment identity: revenue equals winner virtual surplus
    identity_ok = abs(stats.identity_gap) <= 3.0 * max(stats.identity_gap_stderr, 1e-12)
    return _Outcome(f"two_phase[{SOURCE_ALG_TAU}]", stats.ratio, stats.ratio_stderr,
                    tau_selector_bound(spec.ell, spec.k, tau), extras, ok=identity_ok)


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
    entries = obj["experiments"] if isinstance(obj, dict) else obj
    return [ExperimentSpec.from_json(e) for e in entries]
