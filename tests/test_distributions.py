import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overbook.distributions import (
    DegenerateThresholdError,
    DistributionError,
    ProductInstance,
    RegularityViolationError,
    UndefinedVirtualValueError,
    ValueDistribution,
    check_regular,
    hard_prophet_instance,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    single_sample_hard_instance,
    virtual_value,
    virtual_value_array,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class TestValueDistribution:
    def test_degenerate_sample_is_point(self, rng):
        d = ValueDistribution.degenerate(0.0)
        assert d.sample(rng) == 0.0

    def test_finite_law_of_large_numbers(self, rng):
        d = ValueDistribution.finite([(0.0, 0.5), (2.0, 0.5)])
        draws = d.sample_n(rng, 10**6)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_uniform_support_containment(self, rng):
        d = ValueDistribution.uniform(0, 1)
        draws = d.sample_n(rng, 1000)
        assert np.all((draws >= 0) & (draws <= 1))

    def test_atom_probabilities_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            ValueDistribution.finite([(0.0, 0.5), (1.0, 0.4)])

    def test_atom_values_strictly_increasing(self):
        with pytest.raises(DistributionError):
            ValueDistribution.finite([(1.0, 0.5), (1.0, 0.5)])

    def test_atom_values_nonnegative(self):
        with pytest.raises(DistributionError):
            ValueDistribution.finite([(-1.0, 0.5), (1.0, 0.5)])

    def test_atomless_flag(self):
        assert ValueDistribution.uniform(0, 1).atomless
        assert ValueDistribution.exponential(2.0).atomless
        assert not ValueDistribution.degenerate(3.0).atomless
        assert not ValueDistribution.finite([(1.0, 1.0)]).atomless

    @pytest.mark.parametrize("dist", [
        ValueDistribution.finite([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)]),
        ValueDistribution.uniform(0.5, 2.0),
        ValueDistribution.exponential(0.7),
        ValueDistribution.degenerate(4.0),
    ])
    def test_quantile_cdf_galois(self, dist, rng):
        # right-continuous CDF with generalized-inverse quantile
        for q in rng.uniform(1e-6, 1.0, 200):
            x = dist.quantile(float(q))
            if math.isfinite(x):
                assert dist.cdf(x) >= q - 1e-12
        lo, hi = dist.support
        hi = min(hi, lo + 50.0)
        for x in rng.uniform(lo, hi, 200):
            f = dist.cdf(float(x))
            if 0 < f < 1 - 1e-9:
                assert dist.quantile(f) <= x + 1e-9 * max(1.0, abs(x))

    def test_json_round_trip(self):
        dists = [
            ValueDistribution.finite([(0.0, 0.5), (2.0, 0.5)]),
            ValueDistribution.uniform(0, 1),
            ValueDistribution.exponential(1.5),
            ValueDistribution.degenerate(7.0),
        ]
        for d in dists:
            assert ValueDistribution.from_json(json.loads(json.dumps(d.to_json()))) == d


class TestProductInstance:
    def test_sample_shape_and_nonnegative(self, rng):
        inst = ProductInstance([
            ValueDistribution.uniform(0, 1),
            ValueDistribution.exponential(1),
            ValueDistribution.degenerate(0.5),
        ])
        v = inst.sample(rng)
        assert v.shape == (3,) and np.all(v >= 0)

    def test_max_cdf_matches_empirical(self, rng):
        inst = ProductInstance([
            ValueDistribution.uniform(0, 1),
            ValueDistribution.finite([(0.0, 0.5), (0.8, 0.5)]),
        ])
        draws = inst.sample_matrix(rng, 200_000).max(axis=1)
        for x in (0.2, 0.5, 0.9):
            assert abs(inst.max_cdf(x) - (draws <= x).mean()) < 0.01

    def test_json_round_trip(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 2), 3)
        again = ProductInstance.from_json(inst.to_json())
        assert [c.to_json() for c in again.components] == inst.to_json()


def _column_reference(instance, rng, trials):
    """The sampling stream contract spelled out: one column draw per
    component, in order, stacked; a point mass draws nothing."""
    cols = []
    for c in instance.components:
        params = c.to_json()["params"]
        if c.kind == "finite-support":
            values, probs = zip(*params["atoms"])
            cols.append(rng.choice(values, trials, p=probs))
        elif c.kind == "uniform-interval":
            cols.append(rng.uniform(params["lo"], params["hi"], trials))
        elif c.kind == "exponential":
            cols.append(rng.exponential(1.0 / params["rate"], trials))
        else:
            cols.append(np.full(trials, params["value"]))
    return np.column_stack(cols)


def _three_atom_components(n):
    rng = np.random.default_rng(404)
    return ProductInstance([
        ValueDistribution.finite(list(zip(np.sort(rng.uniform(0, 10, 3)).tolist(),
                                          rng.dirichlet(np.ones(3)).tolist())))
        for _ in range(n)
    ])


def _mixed_instance():
    atoms = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)])
    return ProductInstance(
        [ValueDistribution.uniform(0.5, 2.0), ValueDistribution.exponential(3.0)]
        + [atoms] * 4
        + [ValueDistribution.exponential(0.5), ValueDistribution.degenerate(1.5),
           ValueDistribution.uniform(0.0, 1.0)])


class TestMaxCdf:
    """max_cdf makes one cdf call per run of identical components and still
    returns the per-component product bit for bit."""

    @pytest.mark.parametrize("instance", [
        # on [0, 0.5) the second run's factor is 0 after a positive first one
        ProductInstance([ValueDistribution.exponential(1.5)]
                        + [ValueDistribution.uniform(0.5, 2.0)] * 3
                        + [ValueDistribution.uniform(0.0, 1.0)] * 40
                        + [ValueDistribution.exponential(0.25)] * 2),
        hard_prophet_instance(6, 20),
        single_sample_hard_instance(5, 3, 2.0, 12),
        _three_atom_components(200),
    ], ids=["unif-exp-runs", "hard-prophet", "single-sample-hard", "three-atom-200"])
    def test_max_cdf_equals_per_component_product(self, instance):
        def reference(x):
            out = 1.0
            for c in instance.components:
                out *= c.cdf(x)
                if out == 0.0:
                    return 0.0
            return out

        top = max(c.support[1] for c in instance.components if math.isfinite(c.support[1]))
        xs = np.concatenate([np.linspace(-0.5, 1.2 * top + 1.0, 400),
                             np.random.default_rng(8).uniform(0.0, top, 200),
                             [c.support[0] for c in instance.components]])
        # below the lowest support point a factor is 0, which the product must keep
        assert instance.max_cdf(-0.5) == 0.0
        for x in xs.tolist():
            assert repr(instance.max_cdf(x)) == repr(reference(x))

    def test_max_cdf_calls_cdf_once_per_run(self):
        class CountingComponent:
            calls = 0

            def cdf(self, x):
                CountingComponent.calls += 1
                return 0.9999

        inst = ProductInstance.iid(CountingComponent(), 10_000)
        assert inst.max_cdf(1.0) == math.prod([0.9999] * 10_000)
        assert CountingComponent.calls == 1


class TestSamplingStream:
    """sample_matrix and sample_n consume the documented random stream (one
    column draw per component, in order), so a seed keeps its estimates."""

    @pytest.mark.parametrize("instance", [
        ProductInstance.iid(ValueDistribution.finite([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)]), 40),
        _three_atom_components(25),
        hard_prophet_instance(3, 7),
        single_sample_hard_instance(3, 2, 2.0, 6),
        _mixed_instance(),
    ], ids=["iid-finite", "three-atom-components", "hard-prophet",
            "single-sample-hard", "mixed-with-run"])
    @pytest.mark.parametrize("trials", [1, 7, 2_000])
    def test_sample_matrix_matches_column_draws(self, instance, trials):
        got = instance.sample_matrix(np.random.default_rng(2024), trials)
        want = _column_reference(instance, np.random.default_rng(2024), trials)
        assert got.shape == (trials, instance.n) and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_sample_matrix_leaves_stream_where_columns_do(self):
        inst = _mixed_instance()
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        inst.sample_matrix(rng_a, 300)
        _column_reference(inst, rng_b, 300)
        assert np.array_equal(rng_a.random(8), rng_b.random(8))

    @pytest.mark.parametrize("size", [1, 1_000, (3, 250)])
    def test_finite_sample_n_matches_choice(self, size):
        rng = np.random.default_rng(77)
        for m in range(1, 65):
            values = np.sort(rng.choice(10_000, m, replace=False)) / 100.0
            probs = rng.dirichlet(np.ones(m))
            dist = ValueDistribution.finite(list(zip(values.tolist(), probs.tolist())))
            got = dist.sample_n(np.random.default_rng(m), size)
            want = np.random.default_rng(m).choice(dist._values, size, p=dist._probs)
            assert got.shape == want.shape and np.array_equal(got, want)


def _partition_rank(instance, rng, trials, tau):
    """The tau-th highest entry of each row of a full sample matrix."""
    n = instance.n
    return np.partition(instance.sample_matrix(rng, trials), n - tau, axis=1)[:, n - tau]


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_x(t) - F_y(t)|."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.abs(fx - fy).max())


def _ks_critical_1pct(m, n):
    """Asymptotic 1% critical value of the two-sample KS statistic."""
    return math.sqrt(-0.5 * math.log(0.005)) * math.sqrt((m + n) / (m * n))


class TestSampleRank:
    """`sample_rank` draws an i.i.d. atomless instance's tau-th highest sample
    from its Beta order-statistic law; every other instance partitions a full
    sample matrix, which is the reference for the beta draw."""

    TRIALS = 5_000

    @pytest.mark.parametrize("dist,n,tau", [
        (ValueDistribution.exponential(1.0), 400, 101),
        (ValueDistribution.uniform(0.0, 1.0), 100, 7),
        (ValueDistribution.uniform(0.0, 1.0), 20, 9),
        (ValueDistribution.uniform(0.0, 1.0), 20, 1),
        (ValueDistribution.exponential(2.0), 20, 20),
    ], ids=["exp-n400-tau101", "unif-n100-tau7", "unif-n20-tau9", "tau-1", "tau-n"])
    def test_beta_draw_matches_partition_law(self, dist, n, tau):
        inst = ProductInstance.iid(dist, n)
        got = inst.sample_rank(np.random.default_rng(611), self.TRIALS, tau)
        want = _partition_rank(inst, np.random.default_rng(612), self.TRIALS, tau)
        assert got.shape == (self.TRIALS,)
        assert _ks_statistic(got, want) < _ks_critical_1pct(self.TRIALS, self.TRIALS)

    @pytest.mark.parametrize("n,tau", [(100, 7), (20, 9), (20, 1), (20, 20)])
    def test_uniform_moments_match_beta(self, n, tau):
        # the tau-th highest of n U[0,1] draws is Beta(n - tau + 1, tau)
        trials = 40_000
        x = ProductInstance.iid(ValueDistribution.uniform(0.0, 1.0), n).sample_rank(
            np.random.default_rng(613), trials, tau)
        a, b = n - tau + 1, tau
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        dev = x - x.mean()
        var_se = math.sqrt(((dev**4).mean() - var**2) / trials)
        assert abs(x.mean() - mean) <= 4 * math.sqrt(var / trials)
        assert abs(x.var(ddof=1) - var) <= 4 * var_se

    @pytest.mark.parametrize("instance", [
        ProductInstance([ValueDistribution.exponential(1.0) for _ in range(30)]),
        ProductInstance([ValueDistribution.uniform(0.0, 1.0)] * 10
                        + [ValueDistribution.exponential(0.5)] * 20),
        ProductInstance.iid(ValueDistribution.finite([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]), 30),
        _mixed_instance(),
    ], ids=["distinct-equal-objects", "two-runs", "iid-atoms", "mixed"])
    def test_other_instances_partition_a_full_matrix(self, instance):
        tau = 4
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        got = instance.sample_rank(rng_a, 700, tau)
        assert np.array_equal(got, _partition_rank(instance, rng_b, 700, tau))
        assert np.array_equal(rng_a.random(8), rng_b.random(8))

    @pytest.mark.parametrize("instance", [
        ProductInstance.iid(ValueDistribution.uniform(0.0, 1.0), 2),
        ProductInstance([ValueDistribution.uniform(0.0, 1.0),
                         ValueDistribution.exponential(1.0)]),
    ], ids=["iid", "components"])
    @pytest.mark.parametrize("tau", [0, 3])
    def test_refuses_tau_outside_one_to_n(self, instance, tau):
        # the partition read kth = n - tau = -1, the row max; beta raised b <= 0
        with pytest.raises(ValueError, match="tau"):
            instance.sample_rank(np.random.default_rng(1), 10, tau)

    def test_isf_refuses_atoms(self):
        for dist in (ValueDistribution.finite([(0.0, 0.5), (1.0, 0.5)]),
                     ValueDistribution.degenerate(1.0)):
            with pytest.raises(DistributionError):
                dist.isf(np.array([0.5]))


@settings(max_examples=200, deadline=None)
@given(
    v=st.floats(1e-300, 1.0),
    kind=st.sampled_from(["uniform", "exponential"]),
    a=st.floats(0.0, 10.0),
    b=st.floats(1e-3, 100.0),
)
def test_isf_inverts_cdf(v, kind, a, b):
    if kind == "uniform":
        dist = ValueDistribution.uniform(a, a + b)
    else:
        dist = ValueDistribution.exponential(b)
    x = float(dist.isf(np.array([v]))[0])
    assert dist.cdf(x) == pytest.approx(1.0 - v, abs=1e-9)


class TestMaxQuantile:
    def test_two_uniforms_quarter(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 2)
        assert max_quantile(inst, 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_hundred_uniforms(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 100)
        q = (2.0 / 3.0) ** 11
        assert max_quantile(inst, q) == pytest.approx((2.0 / 3.0) ** 0.11, abs=1e-9)

    def test_monotone_in_q(self, rng):
        inst = ProductInstance.iid(ValueDistribution.exponential(1), 5)
        qs = np.sort(rng.uniform(0.01, 0.99, 50))
        ts = [max_quantile(inst, float(q)) for q in qs]
        assert np.all(np.diff(ts) >= -1e-12)

    def test_residual_within_tolerance_on_random_pairs(self, rng):
        # 1000 random (instance, q) pairs over atomless components
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            comps = []
            for _ in range(n):
                if rng.random() < 0.5:
                    lo = float(rng.uniform(0, 2))
                    comps.append(ValueDistribution.uniform(lo, lo + float(rng.uniform(0.1, 3))))
                else:
                    comps.append(ValueDistribution.exponential(float(rng.uniform(0.2, 3))))
            inst = ProductInstance(comps)
            q = float(rng.uniform(0.01, 0.99))
            t = max_quantile(inst, q)
            assert abs(inst.max_cdf(t) - q) <= 1e-9

    @pytest.mark.parametrize("k", [2, 12, 30, 46, 53, 60, 80])
    @pytest.mark.parametrize("dist, inverse_cdf", [
        (ValueDistribution.uniform(0, 1), lambda u: u),
        (ValueDistribution.exponential(1.0), lambda u: -math.log1p(-u)),
    ], ids=["unif", "exp"])
    def test_small_targets_iid_closed_form(self, k, dist, inverse_cdf):
        # (2/3)^(k-1) falls below 1e-9 from k = 53 on
        n, q = 100, (2.0 / 3.0) ** (k - 1)
        inst = ProductInstance.iid(dist, n)
        t = max_quantile(inst, q)
        assert inst.max_cdf(t) / q == pytest.approx(1.0, abs=1e-6)
        assert t == pytest.approx(inverse_cdf(q ** (1.0 / n)), rel=1e-6)

    @pytest.mark.parametrize("k", [2, 12, 30, 46, 53, 60, 80])
    def test_small_targets_multi_run(self, k):
        inst = ProductInstance([ValueDistribution.uniform(0, 1)] * 30
                               + [ValueDistribution.exponential(2.0)] * 20
                               + [ValueDistribution.uniform(0, 2)] * 50)
        q = (2.0 / 3.0) ** (k - 1)
        assert inst.max_cdf(max_quantile(inst, q)) / q == pytest.approx(1.0, abs=1e-6)

    def test_unbounded_support_q_one_degenerate(self):
        inst = ProductInstance.iid(ValueDistribution.exponential(1), 3)
        with pytest.raises(DegenerateThresholdError):
            max_quantile(inst, 1.0)

    def test_generalized_inverse_on_atoms(self):
        atom = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)])
        inst = ProductInstance.iid(atom, 100)
        t = max_quantile_inf(inst, (2.0 / 3.0) ** 11)
        assert t == 2.0

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e6])
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_generalized_inverse_snaps_at_any_scale(self, scale, k):
        # the inf is the interior atom 1.37 * scale; a threshold a hair above
        # it would stop alg_max_atoms from accepting a value equal to it
        atoms = [(0.0, 0.5), (1.37 * scale, 0.3), (2.91 * scale, 0.2)]
        inst = ProductInstance.iid(ValueDistribution.finite(atoms), 3)
        assert max_quantile_inf(inst, (2.0 / 3.0) ** (k - 2)) == 1.37 * scale

    def test_generalized_inverse_point_mass(self):
        inst = ProductInstance.iid(ValueDistribution.degenerate(5.0), 4)
        assert max_quantile_inf(inst, 1.0) == 5.0


class TestMyerson:
    def test_uniform_virtual_value_grid(self):
        u = ValueDistribution.uniform(0, 1)
        for v in np.linspace(0.001, 0.999, 1000):
            assert abs(virtual_value(u, float(v)) - (2 * v - 1)) < 1e-12

    def test_uniform_examples(self):
        u = ValueDistribution.uniform(0, 1)
        assert virtual_value(u, 0.75) == pytest.approx(0.5)
        assert virtual_value(u, 0.5) == pytest.approx(0.0)

    def test_exponential_virtual_value(self):
        assert virtual_value(ValueDistribution.exponential(1), 2.0) == pytest.approx(1.0)

    def test_zero_density_signals_error(self):
        with pytest.raises(UndefinedVirtualValueError):
            virtual_value(ValueDistribution.finite([(1.0, 1.0)]), 1.0)

    def test_monopoly_price_uniform(self):
        # exact: the revenue engine's floor, and so its CSV, depends on it
        assert monopoly_price(ValueDistribution.uniform(0, 1)) == 0.5

    def test_monopoly_price_exponential(self):
        assert monopoly_price(ValueDistribution.exponential(1)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("rate", [1e-3, 1.0, 100.0, 1000.0, 1e6])
    def test_monopoly_price_exponential_any_scale(self, rate):
        # a bracket that started at 1.0 underflowed the density from rate ~745
        # on, and absolute tolerances returned 0.0099999998 at rate 100
        price = monopoly_price(ValueDistribution.exponential(rate))
        assert price == pytest.approx(1.0 / rate, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.2, 2.0), (1.5, 2.0), (0.9, 1.1)])
    def test_monopoly_price_shifted_uniform(self, a, b):
        # analytic root of v - (b - v) = 0, floored at the support bottom
        assert monopoly_price(ValueDistribution.uniform(a, b)) == pytest.approx(
            max(a, b / 2), abs=1e-9)

    def test_virtual_value_array_matches_scalar(self):
        u = ValueDistribution.uniform(0.25, 1.5)
        xs = np.linspace(0.3, 1.4, 17)
        expect = [virtual_value(u, float(x)) for x in xs]
        assert np.allclose(virtual_value_array(u, xs), expect, atol=1e-12)

    def test_regularity_check_rejects_decreasing_virtual(self):
        class Irregular:
            kind = "uniform-interval"
            def quantile(self, q):
                return q
            def cdf(self, x):
                return x
            def pdf(self, x):
                # density shaped so v - (1-F)/f oscillates downward
                return 0.1 if 0.4 < x < 0.6 else 2.0

        with pytest.raises(RegularityViolationError):
            check_regular(Irregular())


class TestHardInstances:
    def test_thm_values_k1(self):
        inst = hard_prophet_instance(1, 2)
        assert inst.components[0].atoms == [(0.0, 0.5), (2.0, 0.5)]
        a1 = inst.components[1].atoms
        assert a1[1][0] == 3.0 and a1[1][1] == pytest.approx(1 / 3)

    def test_formula_k2(self):
        inst = hard_prophet_instance(2, 3)
        xs = [c.atoms[1][0] for c in inst.components]
        ps = [c.atoms[1][1] for c in inst.components]
        assert xs == [3.0, 5.0, 6.0]
        assert ps == pytest.approx([1 / 3, 1 / 5, 1 / 6])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_consecutive_difference_and_unit_means(self, k):
        inst = hard_prophet_instance(k, k + 1)
        xs = [c.atoms[-1][0] for c in inst.components]
        assert xs[k] - xs[k - 1] == pytest.approx(1.0)
        for c in inst.components:
            assert c.mean() == pytest.approx(1.0)
        assert sum(c.mean() for c in inst.components) == pytest.approx(k + 1)

    def test_zero_padding(self):
        inst = hard_prophet_instance(2, 7)
        assert inst.n == 7
        assert all(c.atoms == [(0.0, 1.0)] for c in inst.components[3:])


class TestSingleSampleHardInstance:
    def test_component_count_and_tails(self):
        inst = single_sample_hard_instance(2, 2, 5.0, 8)
        assert inst.n == 8
        assert all(c.atoms == [(0.0, 1.0)] for c in inst.components[3:])

    def test_ordering_chain(self):
        inst = single_sample_hard_instance(1, 1, 10.0, 2)
        lows = [1.0, 2.0]
        highs = [inst.components[0].atoms[1][0]]
        # component 2 is degenerate at L_2 for j_bar = 1
        assert inst.components[1].atoms == [(2.0, 1.0)]
        chain = lows + highs
        assert all(a < b for a, b in zip(chain, chain[1:]))

    @pytest.mark.parametrize("k,j_bar,ratio", [(1, 1, 10.0), (3, 2, 2.0), (4, 5, 1.5)])
    def test_chain_and_ratio_property(self, k, j_bar, ratio):
        inst = single_sample_hard_instance(k, j_bar, ratio, k + 3)
        lows = list(range(1, k + 2))
        highs = [(k + 1) * ratio**i for i in range(1, j_bar + 1)]
        for i, c in enumerate(inst.components[:j_bar]):
            assert c.atoms[0][0] == lows[i]
            assert c.atoms[1][0] == pytest.approx(highs[i])
        assert lows[-1] < highs[0]
        for h1, h2 in zip(highs, highs[1:]):
            assert h2 / h1 >= ratio - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 100), st.integers(1, 20)), min_size=1, max_size=6))
def test_finite_probabilities_always_normalize(raw):
    # build a valid finite-support distribution from arbitrary weights
    values = sorted({round(v, 6) for v, _ in raw})
    weights = np.array([w for _, w in raw[: len(values)]][: len(values)], dtype=float)
    if len(weights) < len(values):
        values = values[: len(weights)]
    probs = weights / weights.sum()
    d = ValueDistribution.finite(list(zip(values, probs)))
    assert abs(sum(p for _, p in d.atoms) - 1.0) <= 1e-12
