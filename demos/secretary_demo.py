"""Interval-based selection under random arrival order.

The selector partitions positions 1..n into ell+1 intervals; during interval
j it accepts any arrival ranked among the j highest seen so far, up to k
acceptances total. The demo traces a tiny hand-checkable run, then estimates
the competitive ratio at scale and compares the capacity-overflow event
frequency to its Chernoff bound.

Run:  python3 demos/secretary_demo.py
"""

import math

import numpy as np

from overbook import (
    BetaVector,
    default_beta,
    interval_index,
    run_secretary,
    run_secretary_unbounded,
    secretary_phase_length,
)
from overbook.experiments import secretary_trials


def tiny_trace():
    print("=== hand-checkable trace ===")
    values = [2.0, 9.0, 3.0, 5.0, 4.0, 7.0, 6.0, 10.0]
    beta = BetaVector((1, 4, 4, 8))
    print(f"values: {values}")
    print(f"interval of each position: "
          f"{[interval_index(beta, i) for i in range(1, 9)]}")
    bounded = run_secretary(values, beta, k=4)
    unbounded = run_secretary_unbounded(values, beta)
    print(f"accepted with k=4:   {bounded.accepted_values}")
    print(f"accepted unbounded:  {unbounded.accepted_values} "
          f"(the late 10 only fits without the cap)")
    print()


def at_scale():
    print("=== 20k random arrival orders, n=2000 ===")
    n, ell, k = 2000, 2, 40
    values = np.array([2.0 ** -r for r in range(n)])
    beta = default_beta(n, ell, k)
    s = secretary_phase_length(ell, k)
    stats = secretary_trials(values, beta, k, trials=20_000, master_seed=31)
    guarantee = 1 - ell * math.exp(-s) - math.exp(-k / 6)
    print(f"sampling phase ends at position {beta.boundaries[0]} (s={s:.2f})")
    print(f"ratio to the realized top-{ell}: {stats.ratio:.4f} "
          f"(guarantee {guarantee:.4f})")
    print(f"Pr[capacity cap changes the outcome] = "
          f"{stats.extras['prob_capacity_differs']:.2e} (bound e^(-k/6) = "
          f"{math.exp(-k / 6):.2e})")


if __name__ == "__main__":
    tiny_trace()
    at_scale()
