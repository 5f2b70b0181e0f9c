"""Two-phase overbooked auction: tickets first, then a uniform-price sale.

Phase 1 hands out up to k tickets sequentially to agents bidding above a
threshold T; phase 2 sells the ell items to the highest-valued ticket
holders at a uniform price (the (ell+1)-highest ticket value, floored at T).
The demo traces one auction, checks truthfulness empirically, and compares
expected revenue against the optimal-auction benchmark.

Run:  python3 demos/mechanism_demo.py
"""

import numpy as np

from overbook import (
    MechanismConfig,
    ValueDistribution,
    deviation_test,
    monopoly_price,
    revenue_threshold,
    run_two_phase,
)
from overbook.experiments import mechanism_revenue_trials
from overbook.mechanisms import SOURCE_ALG_TAU


def one_auction():
    print("=== one auction, spelled out ===")
    cfg = MechanismConfig(ell=1, k=2, threshold=3.0)
    values = [6.0, 2.0, 4.0, 9.0]
    out = run_two_phase(values, cfg)
    print(f"bids in arrival order: {values}, T={cfg.threshold}, "
          f"ell={cfg.ell}, k={cfg.k}")
    print(f"tickets go to agents {out.ticket_holders} "
          f"(agent 3 bids 9 but both tickets are gone)")
    print(f"winner: agent {out.winners[0]}, pays {out.payments[out.winners[0]]}")
    print()


def truthfulness():
    print("=== nobody gains by lying ===")
    cfg = MechanismConfig(ell=2, k=5, threshold=0.5)
    rng = np.random.default_rng(7)
    checks = 0
    for _ in range(200):
        profile = rng.uniform(0, 1, 6).tolist()
        grid = rng.uniform(0, 1, 25)
        for agent in range(6):
            assert deviation_test(cfg, profile, agent, grid)
            checks += 1
    print(f"{checks} (profile, agent) deviation sweeps, zero profitable lies")
    print()


def revenue():
    print("=== revenue against the optimal auction ===")
    prior = ValueDistribution.uniform(0, 1)
    n, ell, k, tau = 20, 2, 16, 9
    print(f"monopoly price for uniform[0,1]: {monopoly_price(prior):.3f}")
    t = revenue_threshold(prior, SOURCE_ALG_TAU, n=n, k=k, tau=tau,
                          rng=np.random.default_rng(8))
    print(f"one sampled ticket threshold (monopoly floor applied): {t:.3f}")
    stats = mechanism_revenue_trials(prior, n, ell, k, tau, trials=20_000,
                                     master_seed=81)
    print(f"20k trials: revenue/optimal = {stats.ratio:.4f}")
    print(f"payment identity check: E[revenue] - E[winner virtual surplus] = "
          f"{stats.extras['identity_gap']:.2e} "
          f"(stderr {stats.extras['identity_gap_stderr']:.1e})")


if __name__ == "__main__":
    one_auction()
    truthfulness()
    revenue()
