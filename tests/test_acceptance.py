"""End-to-end acceptance suite.

Each test records one [PASS]/[FAIL] line, printed as an "acceptance
checklist" section at the end of the pytest run, then asserts. Tolerances
are pinned inline: Monte Carlo lower bounds allow 3 standard errors; exact
oracles require exact inequalities.
"""

import json
import math

import numpy as np
import pytest

from conftest import acceptance_lines

from overbook.cli import main
from overbook.distributions import (
    ProductInstance,
    ValueDistribution,
    hard_prophet_instance,
)
from overbook.experiments import (
    alg_max_atoms_trials,
    alg_max_trials,
    alg_tau_trials,
    mechanism_revenue_trials,
    mechanism_welfare_trials,
    secretary_trials,
)
from overbook.harness import (
    max_selector_bound,
    secretary_bound,
    secretary_upper_bound,
    tau_selector_bound,
)
from overbook.mechanisms import MechanismConfig, deviation_test
from overbook.oracle import (
    exact_prophet_benchmark,
    optimal_online_dp,
    secretary_max_prob_dp,
)
from overbook.secretary import default_beta, secretary_phase_length

TRIALS = 100_000

# frozen from the exact enumeration and backward-induction oracles
HARD_INSTANCE_FIXTURES = {
    1: {"dp": 1.5, "benchmark": 5 / 3, "ratio": 0.9},
    2: {"dp": 2.933333333333333, "benchmark": 2.966666666666667,
        "ratio": 0.9887640449438202},
    3: {"dp": 3.996031746031746, "benchmark": 3.998412698412698,
        "ratio": 0.9994045256052142},
}


def _report(num: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    acceptance_lines.append(line)


def test_criterion_01_hard_instance_exact_k1():
    inst = hard_prophet_instance(1, 2)
    dp = optimal_online_dp(inst, 1, 1).expected_value
    bench = exact_prophet_benchmark(inst, 1)
    ratio = dp / bench
    bound = 1 - 1 / math.factorial(4)
    ok = dp == 1.5 and abs(bench - 5 / 3) < 1e-12 and ratio <= bound
    _report(1, "exact hard-instance ratio, k=1", ok,
            f"dp={dp} benchmark={bench:.12f} ratio={ratio:.12f} <= {bound:.12f}")
    assert ok


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_02_hard_instance_ratios(k):
    inst = hard_prophet_instance(k, k + 1)
    dp = optimal_online_dp(inst, k, k).expected_value
    bench = exact_prophet_benchmark(inst, k)
    ratio = dp / bench
    bound = 1 - 1 / math.factorial(2 * k + 2)
    fx = HARD_INSTANCE_FIXTURES[k]
    ok = (abs(dp - fx["dp"]) < 1e-12 and abs(bench - fx["benchmark"]) < 1e-12
          and abs(ratio - fx["ratio"]) < 1e-12 and ratio <= bound)
    _report(2, f"hard-instance ratio, k={k}", ok,
            f"ratio={ratio:.12f} <= {bound:.12f}, fixtures match")
    assert ok


def test_criterion_03_tau_selector_bound():
    n, ell, k, tau = 400, 2, 200, 101
    inst = ProductInstance.iid(ValueDistribution.exponential(1.0), n)
    ratio, stderr = alg_tau_trials(inst, ell, k, tau, TRIALS, master_seed=3001)
    bound = tau_selector_bound(ell, k, tau)
    assert bound == pytest.approx(1 - 8 * math.exp(-(99**2) / 1600), abs=1e-12)
    ok = ratio + 3 * stderr >= bound
    _report(3, "single-sample selector ratio, n=400 exp(1)", ok,
            f"ratio={ratio:.6f} +3se={3 * stderr:.2e} >= {bound:.6f}")
    assert ok


def test_criterion_04_max_selector_bound():
    n, ell, k = 100, 1, 12
    inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), n)
    ratio, stderr = alg_max_trials(inst, ell, k, TRIALS, master_seed=4001)
    bound = max_selector_bound(k)
    ok = ratio + 3 * stderr >= bound
    _report(4, "max-distribution selector ratio, uniform", ok,
            f"ratio={ratio:.6f} >= {bound:.6f}")
    assert ok


def test_criterion_04b_max_selector_atoms_variant():
    n, ell, k = 100, 1, 13
    atom = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)])
    inst = ProductInstance.iid(atom, n)
    ratio, stderr = alg_max_atoms_trials(inst, ell, k, TRIALS, master_seed=4002)
    bound = max_selector_bound(k, atoms_variant=True)
    assert bound == pytest.approx(1 - 1.5 * math.exp(-(k - 1) / 6), abs=1e-12)
    ok = ratio + 3 * stderr >= bound
    _report(4, "max-distribution selector, mass-point variant", ok,
            f"ratio={ratio:.6f} >= {bound:.6f}")
    assert ok


@pytest.fixture(scope="module")
def secretary_run():
    n, ell, k = 2000, 2, 40
    values = np.array([2.0 ** -r for r in range(n)])
    beta = default_beta(n, ell, k)
    return secretary_trials(values, beta, k, TRIALS, master_seed=5001), ell, k


def test_criterion_05_secretary_bound(secretary_run):
    stats, ell, k = secretary_run
    bound = secretary_bound(ell, k)
    ok = stats.ratio + 3 * stats.ratio_stderr >= bound
    _report(5, "interval selector ratio, n=2000 geometric values", ok,
            f"ratio={stats.ratio:.6f} >= {bound:.6f}")
    assert ok


def test_criterion_06_capacity_event_bound(secretary_run):
    stats, ell, k = secretary_run
    bound = math.exp(-k / 6)
    ok = stats.prob_capacity_differs <= bound + 3 * stats.prob_capacity_differs_stderr
    _report(6, "bounded/unbounded selector disagreement probability", ok,
            f"p={stats.prob_capacity_differs:.2e} <= {bound:.2e}+3se")
    assert ok


def test_criterion_05b_secretary_bound_nonzero_loss():
    # n=200 leaves a nonempty sampling phase, so the selector sometimes
    # misses a top-ell value and the estimate sits below 1
    n, ell, k = 200, 2, 24
    values = np.array([2.0 ** -r for r in range(n)])
    beta = default_beta(n, ell, k)
    assert beta.boundaries[0] > 0
    stats = secretary_trials(values, beta, k, TRIALS, master_seed=5002)
    bound = secretary_bound(ell, k)
    miss_bound = ell * math.exp(-secretary_phase_length(ell, k))
    ok = (stats.ratio < 1.0 and stats.prob_ell_missed > 0.0
          and stats.ratio + 3 * stats.ratio_stderr >= bound
          and stats.prob_ell_missed <= miss_bound + 3 * stats.prob_ell_missed_stderr)
    _report(5, "interval selector ratio below 1, n=200 geometric values", ok,
            f"ratio={stats.ratio:.6f} >= {bound:.6f}, "
            f"p_miss={stats.prob_ell_missed:.2e} <= {miss_bound:.2e}+3se")
    assert ok


def test_criterion_07_secretary_upper_bound():
    ok = all(
        secretary_max_prob_dp(n, k) <= secretary_upper_bound(n, k)
        for n in range(1, 13) for k in range(1, 4)
    )
    _report(7, "max-probability DP under (1+1/n)(1-e^-k), n<=12 k<=3", ok)
    assert ok


def test_criterion_08_mechanism_welfare():
    n, ell, k = 100, 1, 12
    inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), n)
    stats = mechanism_welfare_trials(inst, ell, k, TRIALS, master_seed=8001,
                                     source="alg_max", tau=None)
    bound = max_selector_bound(k)
    ok = (stats.ratio + 3 * stats.ratio_stderr >= bound
          and stats.trace_mismatches == 0)
    _report(8, "two-phase mechanism welfare ratio + trace equivalence", ok,
            f"ratio={stats.ratio:.6f} >= {bound:.6f}, "
            f"mismatches={stats.trace_mismatches}")
    assert ok


def test_criterion_09_mechanism_revenue():
    n, ell, k = 20, 2, 16
    tau = (ell + k + 1) // 2
    prior = ValueDistribution.uniform(0, 1)
    stats = mechanism_revenue_trials(prior, n, ell, k, tau, TRIALS,
                                     master_seed=9001)
    bound = tau_selector_bound(ell, k, tau)
    # the ratio guarantee only binds when the closed form is positive
    ratio_ok = bound <= 0 or stats.ratio + 3 * stats.ratio_stderr >= bound
    identity_ok = abs(stats.identity_gap) <= 3 * max(stats.identity_gap_stderr, 1e-12)
    ok = ratio_ok and identity_ok
    _report(9, "two-phase mechanism revenue + payment identity", ok,
            f"ratio={stats.ratio:.6f} bound={bound:.3f}"
            f"{' (vacuous)' if bound <= 0 else ''}, "
            f"identity_gap={stats.identity_gap:.2e} "
            f"<= {3 * stats.identity_gap_stderr:.2e}")
    assert ok


def test_criterion_10_truthfulness():
    rng = np.random.default_rng(10001)
    prior = ValueDistribution.uniform(0, 1)
    configs = [
        MechanismConfig(ell=2, k=5, threshold=0.55),
        MechanismConfig(ell=2, k=5, threshold=0.7, mode="revenue", prior=prior),
    ]
    n_agents, violations = 6, 0
    for cfg in configs:
        for _ in range(500):  # 500 profiles per mode = 1000 total
            profile = rng.uniform(0, 1, n_agents).tolist()
            grid = rng.uniform(0, 1, 50)
            for agent in range(n_agents):
                if not deviation_test(cfg, profile, agent, grid, tol=1e-9):
                    violations += 1
    ok = violations == 0
    _report(10, "truthfulness sweep, 1000 profiles x 50-point grids", ok,
            f"violations={violations}")
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "experiments": [
            {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1,
             "trials": 1, "master_seed": 0},
            {"kind": "prophet-max", "n": 30, "ell": 1, "k": 6,
             "trials": 20_000, "master_seed": 1100,
             "distribution": {"iid": {"kind": "uniform-interval",
                                      "params": {"lo": 0.0, "hi": 1.0}}}},
            {"kind": "secretary", "n": 200, "ell": 2, "k": 24,
             "trials": 20_000, "master_seed": 1101,
             "values": {"kind": "geometric", "n": 200, "ratio": 2.0}},
        ]
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = main(["run", "--config", str(cfg_path), "--out", str(out1),
                  "--format", "csv", "--jobs", "1"])
    code2 = main(["run", "--config", str(cfg_path), "--out", str(out2),
                  "--format", "csv", "--jobs", "1"])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(11, "same master seed gives byte-identical CSV", ok,
            f"exit codes {code1},{code2}")
    assert ok
