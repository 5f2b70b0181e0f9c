"""Two-phase overbooking auction: ticket phase plus VCG with reserve.

Phase 1 offers up to k tickets sequentially to agents whose value exceeds a
uniform threshold T (truthful agents at or below T decline). Phase 2 sells
the ell items to the top ell ticket holders; every winner pays the maximum
of T and the (ell+1)-highest ticket-holder value, or T when fewer than
ell+1 tickets were issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    ProductInstance,
    UndefinedVirtualValueError,
    ValueDistribution,
    max_quantile,
    monopoly_price,
    virtual_value,
)
from .prophet import TWO_THIRDS, accept_first, default_tau

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
        # each refusal names its field first, as the harness's refusals do
        if self.ell < 1:
            raise ValueError("ell: must be >= 1")
        if self.k < self.ell:
            raise ValueError("k: must be >= ell")
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold: must be finite and nonnegative")
        if self.mode not in ("welfare", "revenue"):
            raise ValueError(f"mode: must be 'welfare' or 'revenue', got {self.mode!r}")
        if self.mode == "revenue":
            if self.prior is None:
                raise ValueError("prior: revenue mode requires a prior")
            if not self.prior.atomless:
                # only the kinds with a density have a virtual value; both are regular
                raise UndefinedVirtualValueError(f"prior: {self.prior.kind} prior has no density")


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


def _ticket_auction(values: list[float],
                    config: MechanismConfig) -> tuple[list[int], list[int], float]:
    """The whole two-phase rule on a list of Python floats: the ticket
    holders in arrival order, the winners best first, and the price every
    winner pays."""
    tickets = accept_first(values, config.threshold, config.k)
    # a stable sort: equal values keep arrival order, so the earlier one wins
    ranked = sorted(tickets, key=values.__getitem__, reverse=True)
    if len(ranked) > config.ell:
        price = max(config.threshold, values[ranked[config.ell]])
    else:
        price = config.threshold
    return tickets, ranked[: config.ell], price


def run_two_phase(values: Sequence[float], config: MechanismConfig) -> AuctionOutcome:
    """Run the two-phase mechanism on one value profile in arrival order.

    Values exactly equal to the threshold decline the ticket (the atomless
    model assigns this probability zero; the rule here is just deterministic).
    """
    values = [float(v) for v in values]
    tickets, winners, price = _ticket_auction(values, config)
    payments = {w: price for w in winners}
    welfare = sum(values[w] for w in winners)
    return AuctionOutcome(tickets, tuple(winners), payments, welfare, sum(payments.values()))


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
    source in the space of nonnegative virtual values and mapping back. The
    sample source draws its threshold with `ProductInstance.sample_rank`.
    """
    floor = monopoly_price(prior)
    instance = ProductInstance.iid(prior, n)
    if source == SOURCE_ALG_TAU:
        if rng is None:
            raise ValueError("sample source needs an rng")
        tau = default_tau(ell, k) if tau is None else tau
        return max(floor, float(instance.sample_rank(rng, 1, tau)[0]))
    if source == SOURCE_ALG_MAX:
        return max(floor, max_quantile(instance, TWO_THIRDS ** (k - 1)))
    raise ValueError(f"unknown threshold source: {source!r}")


def _utility(value: float, reports: list[float], agent: int, config: MechanismConfig) -> float:
    """`agent_utility` on Python floats, with the agent's true value given."""
    _, winners, price = _ticket_auction(reports, config)
    return value - price if agent in winners else 0.0


def agent_utility(values: Sequence[float], reports: Sequence[float], agent: int,
                  config: MechanismConfig) -> float:
    """Quasilinear utility of one agent when everyone bids `reports`."""
    return _utility(float(values[agent]), [float(r) for r in reports], agent, config)


def deviation_test(
    config: MechanismConfig,
    profile: Sequence[float],
    agent: int,
    deviation_grid: Sequence[float],
    tol: float = 1e-9,
) -> bool:
    """True iff no grid deviation beats truthful reporting for this agent,
    holding the others truthful and the arrival order fixed. The auction
    runs once for every grid point."""
    profile = [float(v) for v in profile]
    value = profile[agent]
    truthful = _utility(value, profile, agent, config)
    reports = list(profile)
    for dev in np.asarray(deviation_grid, dtype=float).tolist():
        reports[agent] = dev
        if _utility(value, reports, agent, config) > truthful + tol:
            return False
    return True


def myerson_virtual_surplus(
    prior: ValueDistribution,
    outcome: AuctionOutcome,
    profile: Sequence[float],
) -> float:
    """Sum of winners' virtual valuations under the (regular) prior."""
    return sum(virtual_value(prior, float(profile[w])) for w in outcome.winners)
