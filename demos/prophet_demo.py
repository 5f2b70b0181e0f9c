"""Threshold selectors against known award distributions.

Walks through the two selector families: the single-sample selector, whose
threshold is the tau-th highest entry of one offline sample vector, and the
max-distribution selector, whose threshold is a quantile of the maximum's
distribution. Ends with the adversarial instance that pins down how well any
online rule can do.

Run:  python3 demos/prophet_demo.py
"""

import math

import numpy as np

from overbook import (
    ProductInstance,
    ValueDistribution,
    alg_max,
    alg_tau,
    default_tau,
    exact_prophet_benchmark,
    hard_prophet_instance,
    optimal_online_dp,
)
from overbook.experiments import alg_max_trials, alg_tau_trials


def single_sample_selector():
    print("=== single-sample selector ===")
    n, ell, k = 200, 2, 60
    tau = default_tau(ell, k)
    inst = ProductInstance.iid(ValueDistribution.exponential(1.0), n)
    rng = np.random.default_rng(1)

    samples = inst.sample(rng)
    values = inst.sample(rng)
    out = alg_tau(samples, values, tau, k, ell, rng)
    print(f"n={n}, ell={ell}, k={k}, tau={tau}")
    print(f"one run: threshold={out.threshold_used:.3f}, "
          f"accepted {len(out.accepted)} values, top-{ell} total {out.ell_value:.3f}")

    stats = alg_tau_trials(inst, ell, k, tau, trials=20_000, master_seed=11)
    ratio, se = stats.ratio, stats.ratio_stderr
    print(f"20k trials: ratio to the offline top-{ell} benchmark = "
          f"{ratio:.4f} (stderr {se:.1e})")
    print()


def max_distribution_selector():
    print("=== max-distribution selector ===")
    n, ell, k = 100, 1, 12
    inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), n)

    out = alg_max(inst, inst.sample(np.random.default_rng(2)), k=k, ell=ell)
    print(f"n={n} iid uniform[0,1], k={k}: threshold={out.threshold_used:.4f} "
          f"(the (2/3)^{k - 1} quantile of the max)")

    ratio = alg_max_trials(inst, ell, k, trials=20_000, master_seed=12).ratio
    guarantee = 1 - 1.5 * np.exp(-k / 6)
    print(f"20k trials: ratio={ratio:.4f}, closed-form guarantee {guarantee:.4f}")
    print()


def adversarial_instance():
    print("=== adversarial instance: what online play cannot beat ===")
    for k in (1, 2, 3):
        inst = hard_prophet_instance(k, k + 1)
        dp = optimal_online_dp(inst, k, k).expected_value
        bench = exact_prophet_benchmark(inst, k)
        bound = 1 - 1 / math.factorial(2 * k + 2)
        print(f"k={k}: best-online/offline = {dp / bench:.6f} "
              f"(upper bound {bound:.6f})")


if __name__ == "__main__":
    single_sample_selector()
    max_distribution_selector()
    adversarial_instance()
