import math

import numpy as np
import pytest

from overbook import mechanisms
from overbook.distributions import (
    DegenerateThresholdError,
    ProductInstance,
    UndefinedVirtualValueError,
    ValueDistribution,
)
from overbook.mechanisms import (
    SOURCE_ALG_MAX,
    SOURCE_ALG_TAU,
    AuctionOutcome,
    MechanismConfig,
    agent_utility,
    deviation_test,
    myerson_virtual_surplus,
    revenue_threshold,
    run_two_phase,
)
from overbook.prophet import accept_first, alg_max


class TestRunTwoPhase:
    def test_overbooking_trace(self):
        cfg = MechanismConfig(ell=1, k=2, threshold=3.0)
        out = run_two_phase([6.0, 2.0, 4.0, 9.0], cfg)
        # only two tickets: agents 0 and 2; the 9 arrives too late
        assert out.ticket_holders == [0, 2]
        assert out.winners == (0,)
        assert out.payments == {0: 4.0}
        assert out.welfare == 6.0 and out.revenue == 4.0

    def test_no_bids_above_threshold(self):
        cfg = MechanismConfig(ell=2, k=3, threshold=5.0)
        out = run_two_phase([1.0, 5.0, 3.0], cfg)
        assert out.ticket_holders == [] and out.winners == () and out.revenue == 0.0

    def test_vcg_price_from_runner_up(self):
        cfg = MechanismConfig(ell=2, k=3, threshold=1.0)
        out = run_two_phase([10.0, 9.0, 8.0], cfg)
        assert set(out.winners) == {0, 1}
        assert out.payments == {0: 8.0, 1: 8.0}
        assert out.revenue == 16.0

    def test_reserve_price_when_under_subscribed(self):
        cfg = MechanismConfig(ell=2, k=3, threshold=2.0)
        out = run_two_phase([7.0, 1.0, 1.5], cfg)
        assert out.winners == (0,)
        assert out.payments[0] == 2.0

    def test_per_run_invariants_and_ir(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            ell = int(rng.integers(1, 4))
            k = int(rng.integers(ell, ell + 4))
            t = float(rng.uniform(0, 1.5))
            vals = rng.exponential(size=n).tolist()
            cfg = MechanismConfig(ell=ell, k=k, threshold=t)
            out = run_two_phase(vals, cfg)
            assert set(out.winners) <= set(out.ticket_holders)
            assert len(out.winners) <= ell and len(out.ticket_holders) <= k
            assert out.revenue == pytest.approx(sum(out.payments.values()))
            assert out.welfare == pytest.approx(sum(vals[w] for w in out.winners))
            holders_sorted = sorted((vals[i] for i in out.ticket_holders), reverse=True)
            for w in out.winners:
                assert out.payments[w] >= t
                assert vals[w] >= out.payments[w]  # individual rationality
                if len(holders_sorted) > ell:
                    assert out.payments[w] >= holders_sorted[ell]

    def test_outcome_json(self):
        out = AuctionOutcome([0], (0,), {0: 2.0}, 5.0, 2.0)
        j = out.to_json()
        assert j["payments"] == {"0": 2.0} and j["winners"] == [0]

    def test_config_validation(self):
        # each refusal names its field first
        with pytest.raises(ValueError, match="^k: must be >= ell$"):
            MechanismConfig(ell=3, k=2, threshold=1.0)
        with pytest.raises(ValueError, match="^prior: revenue mode requires a prior$"):
            MechanismConfig(ell=1, k=2, threshold=1.0, mode="revenue")
        with pytest.raises(ValueError, match="^ell: must be >= 1$"):
            MechanismConfig(ell=0, k=2, threshold=1.0)
        with pytest.raises(ValueError, match="^mode: "):
            MechanismConfig(ell=1, k=2, threshold=1.0, mode="auction")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0])
    def test_refuses_threshold_that_is_not_finite_and_nonnegative(self, threshold):
        with pytest.raises(ValueError, match="^threshold: must be finite and nonnegative$"):
            MechanismConfig(ell=1, k=2, threshold=threshold)


class TestRevenueConfig:
    """`MechanismConfig(mode="revenue")` refuses a prior without a density."""

    def test_finite_prior_refused_on_every_construction(self):
        prior = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.5)])
        for _ in range(3):
            with pytest.raises(UndefinedVirtualValueError):
                MechanismConfig(2, 4, 0.6, "revenue", prior)


class TestThresholds:
    def test_unknown_source(self):
        with pytest.raises(ValueError):
            revenue_threshold(ValueDistribution.uniform(0, 1), "nope", n=2, k=2)

    def test_revenue_alg_max_monopoly_floor_dominated(self):
        t = revenue_threshold(ValueDistribution.uniform(0, 1), SOURCE_ALG_MAX,
                              n=2, k=2)
        assert t == pytest.approx(math.sqrt(2 / 3), abs=1e-9)

    @pytest.mark.parametrize("prior", [ValueDistribution.uniform(0, 1),
                                       ValueDistribution.exponential(1.0)],
                             ids=["uniform", "exponential"])
    def test_revenue_alg_max_refuses_k1(self, prior):
        # the level (2/3)^0 = 1: U[0, 1] returned its supremum 1.0, where the
        # strict rule sells nothing, and exp(1) raised
        with pytest.raises(DegenerateThresholdError):
            revenue_threshold(prior, SOURCE_ALG_MAX, n=2, k=1)

    def test_revenue_floor_binds_for_low_samples(self):
        # exponential rate 10 makes the tau-th sample tiny; floor is 1/10... no:
        # uniform prior with a seeded rng whose sample tops out below 0.5
        prior = ValueDistribution.uniform(0, 1)
        rng = np.random.default_rng(2)
        found_floor = False
        for _ in range(200):
            t = revenue_threshold(prior, SOURCE_ALG_TAU, n=3, k=3, tau=3, rng=rng)
            assert t >= 0.5 - 1e-12
            found_floor |= t == 0.5
        assert found_floor

    @pytest.mark.parametrize("tau", [0, 6])
    def test_revenue_threshold_refuses_tau_outside_one_to_n(self, tau):
        # tau = 0 must not wrap round to the lowest sample
        with pytest.raises(ValueError, match="tau"):
            revenue_threshold(ValueDistribution.uniform(10, 11), SOURCE_ALG_TAU,
                              n=5, k=5, tau=tau, rng=np.random.default_rng(3))

    def test_revenue_threshold_refuses_finite_prior(self):
        prior = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.5)])
        for source in (SOURCE_ALG_MAX, SOURCE_ALG_TAU):
            with pytest.raises(UndefinedVirtualValueError):
                revenue_threshold(prior, source, n=2, k=2, rng=np.random.default_rng(1))

    def test_revenue_exponential_floor(self):
        rng = np.random.default_rng(4)
        t = revenue_threshold(ValueDistribution.exponential(1.0), SOURCE_ALG_TAU,
                              n=4, k=4, tau=4, rng=rng)
        assert t >= 1.0 - 1e-8


class TestTruthfulness:
    def test_identity_deviation_trivially_ok(self):
        cfg = MechanismConfig(ell=1, k=2, threshold=0.3)
        assert deviation_test(cfg, [0.6, 0.2], 0, [0.6])

    def test_loser_cannot_gain_by_lying_up(self):
        cfg = MechanismConfig(ell=1, k=2, threshold=0.5)
        profile = [0.4, 0.9]
        assert agent_utility(profile, profile, 0, cfg) == 0.0
        assert deviation_test(cfg, profile, 0, [0.95, 0.99, 1.0])

    def test_winner_cannot_cut_price(self):
        cfg = MechanismConfig(ell=1, k=3, threshold=0.1)
        profile = [0.9, 0.7, 0.3]
        grid = np.linspace(0, 1, 50)
        assert deviation_test(cfg, profile, 0, grid)

    def test_random_sweep_both_modes(self):
        rng = np.random.default_rng(55)
        prior = ValueDistribution.uniform(0, 1)
        configs = [
            MechanismConfig(ell=2, k=4, threshold=0.4),
            MechanismConfig(ell=2, k=4, threshold=0.6, mode="revenue", prior=prior),
        ]
        for cfg in configs:
            for _ in range(50):
                profile = rng.uniform(0, 1, 6).tolist()
                grid = rng.uniform(0, 1, 20)
                for agent in range(6):
                    assert deviation_test(cfg, profile, agent, grid)


def _reference_two_phase(values, config):
    """The two-phase rule written out apart from `mechanisms`: a
    (-value, index) sort key per ticket and a payments dict."""
    values = [float(v) for v in values]
    tickets = accept_first(values, config.threshold, config.k)
    ranked = sorted(tickets, key=lambda i: (-values[i], i))
    winners = tuple(ranked[: config.ell])
    if len(ranked) > config.ell:
        price = max(config.threshold, values[ranked[config.ell]])
    else:
        price = config.threshold
    payments = {w: price for w in winners}
    welfare = sum(values[w] for w in winners)
    return AuctionOutcome(tickets, winners, payments, welfare, sum(payments.values()))


def _reference_utility(values, reports, agent, config):
    outcome = _reference_two_phase(reports, config)
    if agent in outcome.winners:
        return float(values[agent]) - outcome.payments[agent]
    return 0.0


def _reference_deviation_test(config, profile, agent, grid, tol):
    """One full auction outcome per grid point, the utility read from its
    payments."""
    profile = [float(v) for v in profile]
    truthful = _reference_utility(profile, profile, agent, config)
    for dev in grid:
        reports = list(profile)
        reports[agent] = float(dev)
        if _reference_utility(profile, reports, agent, config) > truthful + tol:
            return False
    return True


class TestAuctionCoreEquivalence:
    """`run_two_phase`, `agent_utility` and `deviation_test` share one core;
    each must agree exactly with the per-grid-point reference above."""

    PRIOR = ValueDistribution.uniform(0, 1)

    def _cases(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            ell = int(rng.integers(1, 4))
            k = int(rng.integers(ell, ell + 3))
            n = int(rng.integers(1, 9))
            t = float(rng.choice([0.0, 0.25, 0.5, 0.6]))
            if rng.random() < 0.5:
                cfg = MechanismConfig(ell=ell, k=k, threshold=t)
            else:
                cfg = MechanismConfig(ell=ell, k=k, threshold=t, mode="revenue",
                                      prior=self.PRIOR)
            # a small pool: ties across agents, and reports exactly at T
            pool = [t, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
            profile = rng.choice(pool, size=n).tolist()
            if rng.random() < 0.5:
                profile = [v + float(rng.uniform(0, 1e-3)) for v in profile]
            grid = np.concatenate([rng.choice(pool, size=6), rng.uniform(0, 1.2, 6)])
            yield cfg, profile, grid

    def test_run_two_phase_matches_reference(self):
        binding = slack = 0
        for cfg, profile, grid in self._cases(61, 2000):
            for reports in (profile, [*profile[:-1], float(grid[0])]):
                got = run_two_phase(reports, cfg)
                assert got == _reference_two_phase(reports, cfg)
                above = sum(v > cfg.threshold for v in reports)
                binding += above > cfg.k
                slack += above <= cfg.k
        assert binding > 100 and slack > 100

    def test_agent_utility_matches_reference_bit_for_bit(self):
        for cfg, profile, grid in self._cases(62, 1000):
            for agent in range(len(profile)):
                for dev in grid.tolist():
                    reports = list(profile)
                    reports[agent] = dev
                    got = agent_utility(profile, reports, agent, cfg)
                    want = _reference_utility(profile, reports, agent, cfg)
                    assert got.hex() == want.hex()

    @pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-12])
    def test_deviation_test_matches_reference(self, tol):
        # a negative tol counts a tie with the truthful utility as a gain,
        # so both verdicts occur and the comparison is not vacuous
        verdicts = []
        for cfg, profile, grid in self._cases(63, 600):
            for agent in range(len(profile)):
                got = deviation_test(cfg, profile, agent, grid, tol=tol)
                assert got is _reference_deviation_test(cfg, profile, agent, grid, tol)
                verdicts.append(got)
        assert any(verdicts)
        if tol < 0:
            assert not all(verdicts)

    def test_grid_as_list_array_and_integers(self):
        cfg = MechanismConfig(ell=1, k=2, threshold=0.5)
        profile = [0.9, 0.6, 0.7]
        for grid in ([0, 1, 2], np.array([0.55, 0.8]), (0.6,), []):
            for agent in range(3):
                assert deviation_test(cfg, profile, agent, grid) is \
                    _reference_deviation_test(cfg, profile, agent, grid, 1e-9)


@pytest.fixture
def pay_your_bid(monkeypatch):
    """Swap in a pay-your-bid core. With ell = 1 the single price is the one
    winner's own report. Returns the monkeypatch, whose `undo` restores the
    rule."""
    truthful_core = mechanisms._ticket_auction

    def core(reports, config):
        tickets, winners, _ = truthful_core(reports, config)
        return tickets, winners, reports[winners[0]] if winners else config.threshold

    monkeypatch.setattr(mechanisms, "_ticket_auction", core)
    return monkeypatch


class TestCheckCanFail:
    def test_pay_your_bid_is_caught(self, pay_your_bid):
        # shading the bid from 0.9 to 0.5 still wins and pays 0.5, not 0.9
        cfg = MechanismConfig(ell=1, k=2, threshold=0.1)
        profile, grid = [0.9, 0.3], [0.2, 0.5, 0.9]
        assert agent_utility(profile, profile, 0, cfg) == 0.0
        assert not deviation_test(cfg, profile, 0, grid)
        pay_your_bid.undo()
        assert agent_utility(profile, profile, 0, cfg) == pytest.approx(0.6)
        assert deviation_test(cfg, profile, 0, grid)

    @pytest.mark.parametrize("profile, dev, caught", [
        # a tie with the runner-up's bid goes to the earlier arrival
        ([0.9, 0.3], 0.3, True),
        ([0.9, 0.3], math.nextafter(0.3, 0.0), False),
        # a report exactly at the threshold declines the ticket
        ([0.9, 0.05], 0.1, False),
        ([0.9, 0.05], math.nextafter(0.1, 1.0), True),
    ])
    def test_pay_your_bid_caught_exactly_at_each_boundary(self, pay_your_bid, profile,
                                                          dev, caught):
        cfg = MechanismConfig(ell=1, k=2, threshold=0.1)
        assert deviation_test(cfg, profile, 0, [dev]) is not caught
        assert deviation_test(cfg, profile, 0, np.array([dev])) is not caught


class TestMyerson:
    def test_no_winner_surplus_zero(self):
        out = AuctionOutcome([], (), {}, 0.0, 0.0)
        assert myerson_virtual_surplus(ValueDistribution.uniform(0, 1), out, []) == 0.0

    def test_uniform_winner_pair(self):
        out = AuctionOutcome([0, 1], (0, 1), {0: 0.7, 1: 0.7}, 1.7, 1.4)
        s = myerson_virtual_surplus(ValueDistribution.uniform(0, 1), out, [0.9, 0.8])
        assert s == pytest.approx(1.4, abs=1e-12)


class TestTraceEquivalence:
    def test_mechanism_welfare_equals_selector_ell_value(self):
        # on every arrival order, M_T's welfare equals the ell-value the
        # generating threshold selector attains with the same threshold
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 12)
        ell, k = 2, 5
        rng = np.random.default_rng(77)
        cfg = None
        for _ in range(200):
            vals = inst.sample(rng)
            out_sel = alg_max(inst, vals, k=k, ell=ell)
            if cfg is None:
                cfg = MechanismConfig(ell=ell, k=k, threshold=out_sel.threshold_used)
            out_mech = run_two_phase(vals, cfg)
            assert out_mech.welfare == pytest.approx(out_sel.ell_value, abs=1e-12)
