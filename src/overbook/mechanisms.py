"""Two-phase overbooking auction: ticket phase plus VCG with reserve.

Phase 1 offers up to k tickets sequentially to agents whose value exceeds a
uniform threshold T (truthful agents at or below T decline). Phase 2 sells
the ell items to the top ell ticket holders; every winner pays the maximum
of T and the (ell+1)-highest ticket-holder value, or T when fewer than
ell+1 tickets were issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    ProductInstance,
    ValueDistribution,
    check_regular,
    max_quantile,
    monopoly_price,
    virtual_value,
)
from .prophet import TWO_THIRDS, default_tau

SOURCE_ALG_TAU = "alg_tau-sample"
SOURCE_ALG_MAX = "alg_max"


@dataclass(frozen=True)
class MechanismConfig:
    ell: int
    k: int
    threshold: float
    mode: str = "welfare"
    prior: Optional[ValueDistribution] = None

    def __post_init__(self):
        if not (1 <= self.ell <= self.k):
            raise ValueError("need k >= ell >= 1")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.mode not in ("welfare", "revenue"):
            raise ValueError("mode must be 'welfare' or 'revenue'")
        if self.mode == "revenue":
            if self.prior is None:
                raise ValueError("revenue mode requires a prior")
            check_regular(self.prior)


@dataclass
class AuctionOutcome:
    ticket_holders: list[int]
    winners: tuple[int, ...]
    payments: dict[int, float]
    welfare: float
    revenue: float

    def to_json(self) -> dict:
        return {
            "ticket_holders": list(self.ticket_holders),
            "winners": list(self.winners),
            "payments": {str(i): p for i, p in self.payments.items()},
            "welfare": self.welfare,
            "revenue": self.revenue,
        }


def run_two_phase(values: Sequence[float], config: MechanismConfig) -> AuctionOutcome:
    """Run the two-phase mechanism on one value profile in arrival order.

    Values exactly equal to the threshold decline the ticket (the atomless
    model assigns this probability zero; the rule here is just deterministic).
    """
    values = [float(v) for v in values]
    tickets: list[int] = []
    for i, v in enumerate(values):
        if len(tickets) >= config.k:
            break
        if v > config.threshold:
            tickets.append(i)
    ranked = sorted(tickets, key=lambda i: (-values[i], i))
    winners = tuple(ranked[: config.ell])
    if len(ranked) > config.ell:
        price = max(config.threshold, values[ranked[config.ell]])
    else:
        price = config.threshold
    payments = {w: price for w in winners}
    welfare = sum(values[w] for w in winners)
    return AuctionOutcome(tickets, winners, payments, welfare, sum(payments.values()))


def revenue_threshold(
    prior: ValueDistribution,
    source: str,
    *,
    n: int,
    k: int,
    tau: Optional[int] = None,
    ell: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Ticket threshold for the revenue mechanism with i.i.d. regular agents.

    Computed in value space: the monopoly price floors the source threshold.
    By monotonicity of the virtual valuation this coincides with running the
    source in the space of nonnegative virtual values and mapping back.
    """
    floor = monopoly_price(prior)
    instance = ProductInstance.iid(prior, n)
    if source == SOURCE_ALG_TAU:
        if rng is None:
            raise ValueError("sample source needs an rng")
        tau = default_tau(ell, k) if tau is None else tau
        sample = prior.sample_n(rng, n)
        return max(floor, float(np.sort(sample)[::-1][tau - 1]))
    if source == SOURCE_ALG_MAX:
        return max(floor, max_quantile(instance, TWO_THIRDS ** (k - 1)))
    raise ValueError(f"unknown threshold source: {source!r}")


def agent_utility(values: Sequence[float], reports: Sequence[float], agent: int,
                  config: MechanismConfig) -> float:
    """Quasilinear utility of one agent when everyone bids `reports`."""
    outcome = run_two_phase(reports, config)
    if agent in outcome.winners:
        return float(values[agent]) - outcome.payments[agent]
    return 0.0


def deviation_test(
    config: MechanismConfig,
    profile: Sequence[float],
    agent: int,
    deviation_grid: Sequence[float],
    tol: float = 1e-9,
) -> bool:
    """True iff no grid deviation beats truthful reporting for this agent,
    holding the others truthful and the arrival order fixed."""
    profile = [float(v) for v in profile]
    truthful = agent_utility(profile, profile, agent, config)
    for dev in deviation_grid:
        reports = list(profile)
        reports[agent] = float(dev)
        if agent_utility(profile, reports, agent, config) > truthful + tol:
            return False
    return True


def myerson_virtual_surplus(
    prior: ValueDistribution,
    outcome: AuctionOutcome,
    profile: Sequence[float],
) -> float:
    """Sum of winners' virtual valuations under the (regular) prior."""
    return sum(virtual_value(prior, float(profile[w])) for w in outcome.winners)
