"""The four benchmark workloads, each derived from one workload seed.

A workload is a list of harness specs plus, for `scalar-exact`, a list of
scalar selector and mechanism calls. Every master seed and every random input
comes from `numpy.random.SeedSequence(seed)`; the package only ever sees the
generated specs and inputs. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from overbook import mechanisms, prophet, secretary
from overbook.distributions import ProductInstance, ValueDistribution
from overbook.harness import ExperimentReport, ExperimentSpec
from overbook.prophet import TWO_THIRDS, SelectionOutcome

import exact

NAMES = ("prophet-iid", "prophet-finite", "secretary-rank", "scalar-exact")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Exact-oracle specs whose FAIL verdict is a known defect: the float ratio
#: (e.g. 1.0000000000000016) exceeds 1 - 1/(2k+2)!, which rounds to 1.0.
#: Known defects stay counted as failed operations; they do not make a run
#: incorrect.
KNOWN_FAILURES = frozenset({
    "hard-instance-dp.k9-ell2",
    "hard-instance-dp.k10-ell10",
    "hard-instance-dp.k11-ell2",
})

#: Estimates must lie within this many combined standard errors of the reference.
REFERENCE_SIGMAS = 4.0
#: Absolute slack for float rounding on exact and zero-stderr comparisons.
FLOAT_SLACK = 1e-12

UNIFORM = {"kind": "uniform-interval", "params": {"lo": 0.0, "hi": 1.0}}
EXPONENTIAL = {"kind": "exponential", "params": {"rate": 1.0}}
ATOMS = {"kind": "finite-support", "params": {"atoms": [[0.0, 0.5], [1.0, 0.25], [2.0, 0.25]]}}


@dataclass
class ScalarOp:
    """One scalar call: `call(rng)` runs it, `check(output)` validates it."""

    label: str
    call: Callable[[np.random.Generator], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    seed: int
    specs: list[ExperimentSpec]
    #: spec label -> (reference estimate, reference stderr)
    references: dict[str, tuple[float, float]]
    scalar_ops: list[ScalarOp] = field(default_factory=list)
    scalar_seed: int = 0

    @property
    def work_per_pass(self) -> int:
        """Trials per pass, or scalar calls per pass for `scalar-exact`."""
        if self.scalar_ops:
            return len(self.scalar_ops)
        return sum(s.trials for s in self.specs)

    def config_json(self) -> dict:
        return {"experiments": [s.to_json() for s in self.specs]}


def _seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) >> 1 for s in state]


# ---- spec lists (trial counts are the run lengths of one pass) ----


def prophet_iid_specs(seeds: list[int]) -> list[ExperimentSpec]:
    iid = lambda d: {"iid": d}  # noqa: E731
    return [
        ExperimentSpec("prophet-tau", 400, 2, 200, 20_000, seeds[0], tau=101,
                       distribution=iid(EXPONENTIAL), name="prophet-tau.exp-n400"),
        ExperimentSpec("prophet-max", 100, 1, 12, 60_000, seeds[1],
                       distribution=iid(UNIFORM), name="prophet-max.unif-n100"),
        ExperimentSpec("mechanism-welfare", 100, 1, 12, 60_000, seeds[2],
                       distribution=iid(UNIFORM), source="alg_max",
                       name="mechanism-welfare.alg_max"),
        ExperimentSpec("mechanism-welfare", 100, 1, 12, 60_000, seeds[3],
                       distribution=iid(UNIFORM), source="alg_tau-sample",
                       name="mechanism-welfare.alg_tau-sample"),
        ExperimentSpec("mechanism-revenue", 20, 2, 16, 100_000, seeds[4],
                       distribution=iid(UNIFORM), name="mechanism-revenue.unif-n20"),
    ]


def components_instance(seed: int, n: int = 200) -> ProductInstance:
    """n distinct three-atom distributions, atom values uniform on [0, 10]."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(n):
        values = np.sort(rng.uniform(0.0, 10.0, size=3))
        probs = rng.dirichlet(np.ones(3))
        comps.append(ValueDistribution.finite(list(zip(values.tolist(), probs.tolist()))))
    return ProductInstance(comps)


def prophet_finite_specs(seeds: list[int]) -> list[ExperimentSpec]:
    components = components_instance(seeds[2]).to_json()
    return [
        ExperimentSpec("prophet-max", 100, 1, 13, 100_000, seeds[0],
                       distribution={"iid": ATOMS}, name="prophet-max.atoms-iid-n100"),
        ExperimentSpec("prophet-max", 200, 2, 16, 100_000, seeds[1],
                       distribution={"components": components},
                       name="prophet-max.atoms-components-n200"),
    ]


def secretary_rank_specs(seeds: list[int]) -> list[ExperimentSpec]:
    return [
        ExperimentSpec("secretary", 2000, 2, 40, 10_000, seeds[0],
                       values={"kind": "geometric", "ratio": 2.0}, name="secretary.geo-n2000-k40"),
        ExperimentSpec("secretary", 200, 2, 24, 20_000, seeds[1],
                       values={"kind": "geometric", "ratio": 2.0}, name="secretary.geo-n200-k24"),
    ]


def exact_specs(seeds: list[int]) -> list[ExperimentSpec]:
    specs = []
    for k in range(1, 12):
        for ell in sorted({1, 2, k}):
            if ell <= k:
                specs.append(ExperimentSpec("hard-instance-dp", k + 1, ell, k, 1, seeds[0],
                                            name=f"hard-instance-dp.k{k}-ell{ell}"))
    for n in (1000, 2000, 5000):
        for k in (1, 10, 40):
            specs.append(ExperimentSpec("secretary-upper-bound", n, 1, k, 1, seeds[0],
                                        name=f"secretary-upper-bound.n{n}-k{k}"))
    return specs


SPEC_BUILDERS = {
    "prophet-iid": prophet_iid_specs,
    "prophet-finite": prophet_finite_specs,
    "secretary-rank": secretary_rank_specs,
    "scalar-exact": exact_specs,
}


# ---- scalar calls (scalar-exact) ----


def _top_sum(values: list[float], ell: int) -> float:
    return sum(sorted(values, reverse=True)[:ell])


def _threshold_check(values, k: int, ell: int, threshold: float, first_ge: bool):
    """Check an outcome against "accept the first k values above the
    threshold" (the first one may equal it when `first_ge`)."""
    expected = []
    for i, v in enumerate(values):
        if len(expected) >= k:
            break
        if v > threshold or (first_ge and not expected and v >= threshold):
            expected.append((i, float(v)))

    def check(out: SelectionOutcome) -> bool:
        return (math.isclose(out.threshold_used, threshold, rel_tol=1e-6)
                and out.accepted == expected
                and math.isclose(out.ell_value, _top_sum([v for _, v in expected], ell),
                                 rel_tol=1e-12, abs_tol=FLOAT_SLACK))
    return check


def _secretary_check(values: np.ndarray, beta, k: int):
    """Capacity holds, and every accepted arrival ranked within its interval."""
    def check(out: SelectionOutcome) -> bool:
        idx = [i for i, _ in out.accepted]
        if len(idx) > k or idx != sorted(set(idx)):
            return False
        for i, v in out.accepted:
            rank = int((values[:i] >= v).sum()) + 1
            if v != values[i] or rank > bisect_left(beta.boundaries, i + 1):
                return False
        return math.isclose(out.ell_value, _top_sum(out.accepted_values, beta.ell),
                            rel_tol=1e-12, abs_tol=FLOAT_SLACK)
    return check


def scalar_ops(seed: int) -> list[ScalarOp]:
    """Seeded inputs at the sizes of acceptance criteria 3, 4, 4b, 5 and 10."""
    rng = np.random.default_rng(seed)
    ops: list[ScalarOp] = []

    # prophet.alg_tau: n=400 exp(1), tau=101, k=200, ell=2 (criterion 3)
    for j in range(200):
        samples, values = rng.exponential(1.0, 400), rng.exponential(1.0, 400)
        threshold = float(np.sort(samples)[-101])
        ops.append(ScalarOp(
            f"prophet.alg_tau#{j}",
            lambda r, s=samples, v=values: prophet.alg_tau(s, v, 101, 200, 2, r),
            _threshold_check(values, 200, 2, threshold, first_ge=False)))

    # prophet.alg_max: n=100 U[0,1], k=12, ell=1 (criterion 4)
    unif = ProductInstance.iid(ValueDistribution.from_json(UNIFORM), 100)
    t_unif = (TWO_THIRDS ** 11) ** (1 / 100)
    for j in range(200):
        values = rng.uniform(0.0, 1.0, 100)
        ops.append(ScalarOp(
            f"prophet.alg_max#{j}",
            lambda r, v=values: prophet.alg_max(unif, v, 12, 1),
            _threshold_check(values, 12, 1, t_unif, first_ge=False)))

    # prophet.alg_max_atoms: n=100 on {0, 1, 2}, k=13, ell=1 (criterion 4b);
    # the max-CDF first reaches (2/3)^11 at the atom 2.
    atoms_dist = ValueDistribution.from_json(ATOMS)
    atoms = ProductInstance.iid(atoms_dist, 100)
    t_atoms = min(v for v, _ in atoms_dist.atoms if atoms_dist.cdf(v) ** 100 >= TWO_THIRDS ** 11)
    for j in range(200):
        values = rng.choice([0.0, 1.0, 2.0], size=100, p=[0.5, 0.25, 0.25])
        ops.append(ScalarOp(
            f"prophet.alg_max_atoms#{j}",
            lambda r, v=values: prophet.alg_max_atoms(atoms, v, 13, 1),
            _threshold_check(values, 13, 1, t_atoms, first_ge=True)))

    # secretary.run_secretary: n=2000 geometric, ell=2, k=40 (criterion 5)
    geometric = 2.0 ** -np.arange(2000, dtype=float)
    beta = secretary.default_beta(2000, 2, 40)
    for j in range(100):
        order = rng.permutation(geometric)
        ops.append(ScalarOp(
            f"secretary.run_secretary#{j}",
            lambda r, v=order: secretary.run_secretary(v, beta, 40),
            _secretary_check(order, beta, 40)))

    # mechanisms.deviation_test: the criterion-10 sweep, 100 profiles per mode
    configs = [
        mechanisms.MechanismConfig(ell=2, k=5, threshold=0.55),
        mechanisms.MechanismConfig(ell=2, k=5, threshold=0.7, mode="revenue",
                                   prior=ValueDistribution.from_json(UNIFORM)),
    ]
    for cfg in configs:
        for j in range(100):
            profile = rng.uniform(0.0, 1.0, 6).tolist()
            grid = rng.uniform(0.0, 1.0, 50)
            for agent in range(6):
                ops.append(ScalarOp(
                    f"mechanisms.deviation_test.{cfg.mode}#{j}.{agent}",
                    lambda r, c=cfg, p=profile, a=agent, g=grid:
                        mechanisms.deviation_test(c, p, a, g, tol=1e-9),
                    lambda out: out is True))
    return ops


def digest(output: Any) -> Any:
    """A comparable summary of a scalar output (NaN thresholds compare equal)."""
    if isinstance(output, SelectionOutcome):
        return (tuple(output.accepted), repr(output.threshold_used), repr(output.ell_value))
    return output


# ---- assembly and checks ----


def load_references() -> dict[str, tuple[float, float]]:
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)["references"]
    return {label: (ref["estimate"], ref["stderr"]) for label, ref in table.items()}


def build(name: str, seed: int) -> Workload:
    seeds = _seeds(seed, 8)
    specs = SPEC_BUILDERS[name](seeds)
    recorded = load_references()
    references = {}
    for spec in specs:
        ratio = exact_reference(spec)
        references[spec.label()] = recorded[spec.label()] if ratio is None else (ratio, 0.0)
    ops = scalar_ops(seeds[6]) if name == "scalar-exact" else []
    return Workload(name, seed, specs, references, ops, seeds[7])


def exact_reference(spec: ExperimentSpec) -> float | None:
    """Exact ratio of a `prophet-max` spec on an atom-bearing instance (the
    harness runs `alg_max_atoms` there); None for every other spec."""
    if spec.kind != "prophet-max":
        return None
    desc = spec.distribution
    if "iid" in desc:
        instance = ProductInstance.iid(ValueDistribution.from_json(desc["iid"]), spec.n)
    else:
        instance = ProductInstance.from_json(desc["components"])
    if instance.all_atomless:
        return None
    return exact.alg_max_atoms_ratio(instance, spec.ell, spec.k)


def check_report(report: ExperimentReport, reference: tuple[float, float]
                 ) -> list[tuple[str, bool]]:
    """Problems with one spec's report (its verdict, its estimate), each with
    a flag that is true when the problem is a known defect."""
    problems = []
    ref, ref_se = reference
    if not report.passed:
        known = known_verdict_failure(report, ref, ref_se)
        problems.append((f"verdict FAIL (estimate {report.ratio_estimate!r}, "
                         f"bound {report.theoretical_bound!r})", known))
    tol = REFERENCE_SIGMAS * math.hypot(report.stderr, ref_se) + FLOAT_SLACK
    if not abs(report.ratio_estimate - ref) <= tol:
        problems.append((f"estimate {report.ratio_estimate!r} differs from "
                         f"reference {ref!r} by more than {tol:.3g}", False))
    return problems


def known_verdict_failure(report: ExperimentReport, ref: float, ref_se: float) -> bool:
    """A FAIL verdict that is a known defect of the harness, not of the engine.

    Besides KNOWN_FAILURES: the harness checks `prophet-max` specs with
    ell >= 2 against the ell-free bound 1 - (3/2) exp(-(k-1)/6). On some seeded
    atom-bearing instances the exact ratio itself lies below that bound.
    """
    spec = report.spec
    if spec.label() in KNOWN_FAILURES:
        return True
    return (spec.kind == "prophet-max" and spec.ell >= 2 and ref_se == 0.0
            and ref < report.theoretical_bound)
