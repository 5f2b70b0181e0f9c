import math

import numpy as np
import pytest

from overbook import experiments, prophet
from overbook.distributions import (
    DegenerateThresholdError,
    ProductInstance,
    ValueDistribution,
    max_quantile,
    max_quantile_inf,
)
from overbook.experiments import (
    alg_max_atoms_trials,
    alg_max_trials,
    alg_tau_trials,
    mechanism_welfare_trials,
)
from overbook.mechanisms import SOURCE_ALG_MAX, revenue_threshold
from overbook.oracle import top_ell
from overbook.prophet import (
    TWO_THIRDS,
    SelectionOutcome,
    UseAtomsVariantError,
    accept_first,
    alg_max,
    alg_max_atoms,
    alg_tau,
    default_tau,
    max_level,
)


class TestRunThreshold:
    """The one scalar threshold rule, `accept_first`, and its scoring."""

    def test_simple_trace(self):
        values = [1.0, 6.0, 2.0, 4.0, 9.0]
        assert accept_first(values, 3.0, 2) == [1, 3]
        out = SelectionOutcome.from_accepted(values, [1, 3], 3.0, 2)
        assert out.accepted == [(1, 6.0), (3, 4.0)]
        assert out.ell_value == 10.0

    def test_first_ge_takes_one_key_at_the_threshold(self):
        values = [3.0, 3.0, 5.0, 3.0]
        assert accept_first(values, 3.0, 3) == [2]
        assert accept_first(values, 3.0, 3, first_ge=True) == [0, 2]
        # a first key strictly above the threshold uses up the ">=" slot
        assert accept_first([5.0, 3.0], 3.0, 2, first_ge=True) == [0]

    def test_lexicographic_tie_break(self):
        # all values equal the threshold; only higher priorities clear it
        keys = zip([3.0, 3.0, 3.0], [0.2, 0.9, 0.7])
        assert accept_first(keys, (3.0, 0.5), 3) == [1, 2]

    def test_capacity_stops_acceptance(self):
        assert accept_first([5.0, 7.0], 0.0, 1) == [0]
        # the loop stops reading its keys once k are accepted
        keys = iter([5.0, 7.0, 9.0])
        assert accept_first(keys, 0.0, 1) == [0]
        assert list(keys) == [9.0]

    def test_ell_value_uses_top_ell(self):
        values = [2.0, 9.0, 4.0]
        out = SelectionOutcome.from_accepted(values, accept_first(values, 0.0, 3), 0.0, 1)
        assert out.accepted == [(0, 2.0), (1, 9.0), (2, 4.0)]
        assert out.ell_value == 9.0

    def test_empty_acceptance(self):
        values = [1.0, 2.0]
        assert accept_first(values, 10.0, 2) == []
        out = SelectionOutcome.from_accepted(values, [], 10.0, 2)
        assert out.accepted == [] and out.ell_value == 0.0

    def test_outcome_json(self):
        out = SelectionOutcome([(0, 2.0)], 1.0, 2.0)
        j = out.to_json()
        assert j["accepted"] == [[0, 2.0]] and j["threshold"] == 1.0


class TestDefaultTau:
    @pytest.mark.parametrize("ell,k,expect", [
        (1, 1, 1), (1, 2, 2), (2, 3, 3), (2, 4, 3), (10, 30, 20), (3, 8, 6),
    ])
    def test_examples(self, ell, k, expect):
        assert default_tau(ell, k) == expect

    def test_rejects_ell_above_k(self):
        with pytest.raises(ValueError):
            default_tau(3, 2)


class TestAlgTau:
    def test_worked_trace(self):
        # samples (5, 3, 1), tau = 2 -> threshold 3; values (2, 6, 4)
        rng = np.random.default_rng(0)
        out = alg_tau([5.0, 3.0, 1.0], [2.0, 6.0, 4.0], tau=2, k=2, ell=2, rng=rng)
        assert out.threshold_used == 3.0
        assert out.accepted_values == [6.0, 4.0]

    def test_tau_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            alg_tau([1.0, 2.0], [1.0, 2.0], tau=3, k=1, ell=1, rng=rng)

    def test_refuses_k_below_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            alg_tau([1.0, 2.0], [1.0, 2.0], tau=1, k=0, ell=1, rng=rng)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_refuses_threshold_that_is_not_finite_and_nonnegative(self, bad):
        # the sample at rank tau = 1 of a one-entry sample is the threshold
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            alg_tau([bad], [1.0], tau=1, k=1, ell=1, rng=rng)

    def test_capacity_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = 12, 3
            s = rng.exponential(size=n)
            v = rng.exponential(size=n)
            out = alg_tau(s, v, tau=4, k=k, ell=2, rng=rng)
            assert len(out.accepted) <= k
            assert all(val >= out.threshold_used for val in out.accepted_values)

    def test_threshold_is_the_tau_th_pair_of_a_full_sort(self):
        # heavily tied samples, so the priorities decide which sample entry
        # is the tau-th highest (sample, priority) pair
        rng = np.random.default_rng(24)
        for case in range(400):
            n = int(rng.integers(1, 30))
            tau = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            samples = np.full(n, 2.0) if case % 4 == 0 else rng.integers(0, 4, n).astype(float)
            values = rng.integers(0, 4, n).astype(float)
            seed = int(rng.integers(2**32))
            out = alg_tau(samples, values, tau, k, 1, np.random.default_rng(seed))
            priorities = np.random.default_rng(seed).random(2 * n).tolist()
            pairs = list(zip(samples.tolist(), priorities[:n]))
            threshold = sorted(pairs, reverse=True)[tau - 1]
            assert out.threshold_used == threshold[0]
            accepted = accept_first(zip(values.tolist(), priorities[n:]), threshold, k)
            assert [i for i, _ in out.accepted] == accepted

    def test_tie_break_is_a_uniform_permutation(self):
        # with all 2n entries equal, each value entry outranks the
        # threshold entry with the exchangeable-permutation probability
        rng = np.random.default_rng(11)
        n, trials = 4, 20_000
        counts = 0
        for _ in range(trials):
            out = alg_tau([1.0] * n, [1.0] * n, tau=1, k=n, ell=n, rng=rng)
            counts += len(out.accepted)
        # a value entry is accepted iff its priority tops all n sample
        # priorities: probability 1/(n+1) by exchangeability
        assert counts / (trials * n) == pytest.approx(1 / (n + 1), abs=0.01)

    def test_order_oblivious_distribution(self):
        # the ell-value distribution is invariant to arrival order: compare
        # empirical CDFs between identity and reversed arrival order
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 6)
        trials = 10_000
        out_a = np.empty(trials)
        out_b = np.empty(trials)
        rng = np.random.default_rng(21)
        for t in range(trials):
            vals = inst.sample(rng)
            samples = inst.sample(rng)
            out_a[t] = alg_tau(samples, vals, 3, 3, 2, rng).ell_value
            out_b[t] = alg_tau(samples, vals[::-1], 3, 3, 2, rng).ell_value
        # two-sample Kolmogorov-Smirnov at the 1% level
        grid = np.linspace(0, 2, 400)
        fa = (out_a[:, None] <= grid).mean(axis=0)
        fb = (out_b[:, None] <= grid).mean(axis=0)
        d = np.abs(fa - fb).max()
        crit = 1.63 * math.sqrt(2 / trials)
        assert d < crit


class TestMaxLevel:
    """`max_level`, the one home of the max-distribution threshold's level."""

    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_levels(self, k):
        assert max_level(k) == TWO_THIRDS ** (k - 1)
        assert max_level(k, first_ge=True) == TWO_THIRDS ** (k - 2)

    @pytest.mark.parametrize("k", [1, 0])
    @pytest.mark.parametrize("first_ge", [False, True])
    def test_refuses_k_below_two(self, k, first_ge):
        with pytest.raises(DegenerateThresholdError, match="k >= 2"):
            max_level(k, first_ge)

    def test_every_site_reads_the_patched_level(self, monkeypatch):
        # one patch reaches both scalar selectors, the three engines (the
        # welfare engine through its alg_max source) and the revenue
        # threshold: none of them restates the level
        calls = []

        def level(k, first_ge=False):
            calls.append((k, first_ge))
            return 0.3

        monkeypatch.setattr(prophet, "max_level", level)
        unif = ProductInstance.iid(ValueDistribution.uniform(0, 1), 4)
        atoms = ProductInstance.iid(
            ValueDistribution.finite([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)]), 4)
        # the true levels put these thresholds at 0.816... and 2.0
        thr, thr_atoms = max_quantile(unif, 0.3), max_quantile_inf(atoms, 0.3)
        assert thr == pytest.approx(0.3 ** 0.25) and thr_atoms == 1.0
        assert alg_max(unif, [0.5] * 4, 3, 1).threshold_used == thr
        assert alg_max_atoms(atoms, [1.0] * 4, 3, 1).threshold_used == thr_atoms
        args = (1, 3, 2_000, 5)
        want = experiments._threshold_trials(unif, *args, threshold=thr)
        assert alg_max_trials(unif, *args) == want
        assert mechanism_welfare_trials(unif, *args) == want
        assert alg_max_atoms_trials(atoms, *args) == experiments._threshold_trials(
            atoms, *args, threshold=thr_atoms, first_ge=True)
        prior = ValueDistribution.uniform(0, 1)
        assert revenue_threshold(prior, SOURCE_ALG_MAX, n=4, k=3) == thr
        assert calls == [(3, False), (3, True), (3, False), (3, False), (3, True), (3, False)]


class TestAlgMax:
    def test_threshold_two_uniforms(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 2)
        out = alg_max(inst, [0.9, 0.1], k=2, ell=1)
        assert out.threshold_used == pytest.approx(math.sqrt(2 / 3), abs=1e-9)
        assert out.accepted_values == [0.9]

    def test_k1_rejected(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 2)
        with pytest.raises(DegenerateThresholdError):
            alg_max(inst, [0.5, 0.5], k=1, ell=1)

    def test_atoms_rejected(self):
        inst = ProductInstance.iid(ValueDistribution.finite([(1.0, 1.0)]), 2)
        with pytest.raises(UseAtomsVariantError):
            alg_max(inst, [1.0, 1.0], k=2, ell=1)

    def test_strict_inequality_at_threshold(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 2)
        t = alg_max(inst, [0.0, 0.0], k=2, ell=1).threshold_used
        out = alg_max(inst, [t, t + 0.01], k=2, ell=1)
        assert out.accepted == [(1, t + 0.01)]

    def test_capacity(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 10)
        out = alg_max(inst, [0.999] * 10, k=3, ell=1)
        assert len(out.accepted) == 3


class TestAlgMaxAtoms:
    def test_point_mass_trace(self):
        # all mass at 1: T = 1, first arrival taken via >=, no later > T
        inst = ProductInstance.iid(ValueDistribution.degenerate(1.0), 4)
        out = alg_max_atoms(inst, [1.0, 1.0, 1.0, 1.0], k=3, ell=2)
        assert out.threshold_used == 1.0
        assert out.accepted == [(0, 1.0)]

    def test_first_ge_then_strict(self):
        inst = ProductInstance.iid(
            ValueDistribution.finite([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)]), 3)
        out = alg_max_atoms(inst, [2.0, 2.0, 3.0], k=3, ell=3)
        t = out.threshold_used
        assert out.accepted[0][1] >= t
        assert all(v > t for _, v in out.accepted[1:])
        # a first value strictly above T uses up the ">=" slot: a later T is refused
        assert t == 2.0
        out = alg_max_atoms(inst, [3.0, 2.0, 2.0], k=3, ell=3)
        assert out.accepted == [(0, 3.0)]

    def test_capacity(self):
        inst = ProductInstance.iid(
            ValueDistribution.finite([(0.0, 0.5), (5.0, 0.5)]), 8)
        out = alg_max_atoms(inst, [5.0] * 8, k=4, ell=2)
        assert len(out.accepted) <= 4


class TestVectorizedEngines:
    def test_alg_tau_engine_matches_scalar(self):
        # replay the engine's own draws through the scalar selector
        inst = ProductInstance.iid(ValueDistribution.exponential(1.0), 6)
        tau, k, ell = 3, 4, 2
        stats = alg_tau_trials(inst, ell=ell, k=k, tau=tau, trials=64, master_seed=99)
        ratio, stderr = stats.ratio, stats.ratio_stderr
        assert 0.0 <= ratio <= 1.0 + 1e-9 and stderr >= 0.0

    def test_alg_max_engine_event_window(self):
        # atomless case: if between ell and k values clear T, the selector's
        # top-ell equals the offline top-ell
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 30)
        k, ell = 8, 2
        rng = np.random.default_rng(17)
        for _ in range(200):
            vals = inst.sample(rng)
            out = alg_max(inst, vals, k=k, ell=ell)
            above = int((vals > out.threshold_used).sum())
            offline = top_ell(vals, ell).value
            assert out.ell_value <= offline + 1e-12
            if ell <= above <= k:
                assert out.ell_value == pytest.approx(offline, abs=1e-12)

    def test_alg_max_engine_ratio_sane(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 30)
        ratio = alg_max_trials(inst, ell=2, k=8, trials=5_000, master_seed=7).ratio
        assert 0.8 <= ratio <= 1.0
