import math

import numpy as np
import pytest

from overbook.distributions import (
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
from overbook.prophet import alg_max


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
        with pytest.raises(ValueError):
            MechanismConfig(ell=3, k=2, threshold=1.0)
        with pytest.raises(ValueError):
            MechanismConfig(ell=1, k=2, threshold=1.0, mode="revenue")


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
