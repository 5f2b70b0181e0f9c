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
    UndefinedVirtualValueError,
    ValueDistribution,
    hard_prophet_instance,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    single_sample_hard_instance,
    virtual_value,
    virtual_value_array,
)
from overbook.experiments import _threshold_top
from overbook.prophet import TWO_THIRDS


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

    @pytest.mark.parametrize("make", [
        lambda: ValueDistribution.finite([(0.0, 0.5), (math.nan, 0.5)]),
        lambda: ValueDistribution.finite([(0.0, 0.5), (math.inf, 0.5)]),
        lambda: ValueDistribution.finite([(0.0, math.nan), (1.0, 1.0)]),
        lambda: ValueDistribution.uniform(0.0, math.inf),
        lambda: ValueDistribution.exponential(math.nan),
        lambda: ValueDistribution.exponential(math.inf),
        lambda: ValueDistribution.degenerate(math.nan),
        lambda: ValueDistribution.degenerate(math.inf),
    ], ids=["nan-atom", "inf-atom", "nan-prob", "inf-uniform", "nan-rate", "inf-rate",
            "nan-point", "inf-point"])
    def test_refuses_non_finite_parameters(self, make):
        # NaN passes every <= and > check, so each of these used to be accepted
        with pytest.raises(DistributionError, match="finite|inf"):
            make()

    def test_refuses_rate_with_infinite_mean(self):
        # 1e-310 is positive and finite, but 1/1e-310 overflows: sample_n drew
        # inf values and the mean was inf
        with pytest.raises(DistributionError, match="finite mean"):
            ValueDistribution.exponential(1e-310)
        assert ValueDistribution.exponential(1e-300).mean() == pytest.approx(1e300)

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
        # right-continuous CDF with generalized-inverse quantile: the quantile
        # of the max of one draw
        def quantile(q):
            return max_quantile(ProductInstance.iid(dist, 1), q)

        for q in rng.uniform(1e-6, 1.0, 200):
            x = quantile(float(q))
            if math.isfinite(x):
                assert dist.cdf(x) >= q - 1e-12
        lo, hi = dist.support
        hi = min(hi, lo + 50.0)
        for x in rng.uniform(lo, hi, 200):
            f = dist.cdf(float(x))
            if 0 < f < 1 - 1e-9:
                assert quantile(f) <= x + 1e-9 * max(1.0, abs(x))

    def test_finite_cdf_reaches_one_when_probabilities_sum_below_it(self):
        # the CDF reads the sampler's normalized table, so the top atom's level
        # is 1.0 although the probabilities sum to 1 - 1.1e-16, and the quantile
        # at 1 is that atom
        probs = (0.014642150797064277, 0.0005317522920528652, 0.9848260969108827)
        assert sum(probs) < 1.0
        dist = ValueDistribution.finite(list(zip((0.0, 1.0, 2.0), probs)))
        assert dist.cdf(2.0) == 1.0 and max_quantile(ProductInstance.iid(dist, 1), 1.0) == 2.0
        assert dist.cdf(0.0) == pytest.approx(probs[0], rel=1e-15)

    @pytest.mark.parametrize("obj,named", [
        ({"kind": "finite-support", "params": {"atoms": [[1.0]]}}, "atom"),
        ({"kind": "finite-support", "params": {"atoms": [[1.0, 1.0, 5.0]]}}, "atom"),
        ({"kind": "uniform-interval", "params": {"lo": 0, "hi": 1, "extra": 3}}, "extra"),
        ({"kind": "uniform-interval", "params": {"lo": 0, "hi": 1}, "extra": 3}, "extra"),
        ({"kind": "degenerate", "params": {}}, "value"),
        ({"params": {"value": 1.0}}, "^kind:"),
        ({"kind": "degenerate"}, "^params:"),
        ({"kind": "degenerate", "params": [1.0]}, "^params:"),
    ], ids=["short-atom", "long-atom", "unknown-param", "unknown-key", "missing-param",
            "missing-kind", "missing-params", "list-params"])
    def test_from_json_refuses_malformed_payloads(self, obj, named):
        # the short atom raised a raw IndexError; the extra entry and keys were
        # ignored; a missing kind or params raised a raw KeyError, and a list
        # of params a raw TypeError
        with pytest.raises(DistributionError, match=named):
            ValueDistribution.from_json(obj)

    @pytest.mark.parametrize("value", [0.0, 1.5, 4.0, 1e-300, 3e300])
    def test_point_mass_is_the_one_atom_support(self, value):
        point, atom = ValueDistribution.degenerate(value), ValueDistribution.finite([(value, 1.0)])
        xs = [0.0, value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf), 2 * value]
        assert [point.cdf(x) for x in xs] == [atom.cdf(x) for x in xs]
        assert np.array_equal(point.sf(xs), atom.sf(xs))
        v = np.random.default_rng(3).random(50)
        assert np.array_equal(point.isf(v), atom.isf(v))
        assert point.atoms == atom.atoms and point.support == atom.support
        assert repr(point.mean()) == repr(atom.mean())
        # the same values, but the point mass leaves the stream untouched and
        # the one-atom support draws one uniform per cell
        rng_point, rng_atom, rng_ref = (np.random.default_rng(9) for _ in range(3))
        assert np.array_equal(point.sample_n(rng_point, (4, 6)), atom.sample_n(rng_atom, (4, 6)))
        assert np.array_equal(rng_point.random(3), np.random.default_rng(9).random(3))
        rng_ref.random((4, 6))
        assert np.array_equal(rng_atom.random(3), rng_ref.random(3))

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


_ATOMS_012 = ValueDistribution.finite([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)])


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
    """`sample_rank` draws the tau-th highest sample of a single run of
    identical components, of any kind, from its Beta order-statistic law
    through `isf`; an instance of several runs partitions a full sample
    matrix, which is the reference for the beta draw."""

    TRIALS = 5_000

    @pytest.mark.parametrize("dist,n,tau", [
        (ValueDistribution.exponential(1.0), 400, 101),
        (ValueDistribution.uniform(0.0, 1.0), 100, 7),
        (ValueDistribution.uniform(0.0, 1.0), 20, 9),
        (ValueDistribution.uniform(0.0, 1.0), 20, 1),
        (ValueDistribution.exponential(2.0), 20, 20),
        (_ATOMS_012, 30, 4),
        (_ATOMS_012, 5, 5),
        (ValueDistribution.finite([(0.5, 0.98), (3.0, 0.02)]), 100, 3),
        (ValueDistribution.degenerate(1.5), 7, 2),
    ], ids=["exp-n400-tau101", "unif-n100-tau7", "unif-n20-tau9", "tau-1", "tau-n",
            "iid-atoms", "iid-atoms-tau-n", "rare-top-atom", "point-mass"])
    def test_beta_draw_matches_partition_law(self, dist, n, tau):
        inst = ProductInstance.iid(dist, n)
        got = inst.sample_rank(np.random.default_rng(611), self.TRIALS, tau)
        want = _partition_rank(inst, np.random.default_rng(612), self.TRIALS, tau)
        assert got.shape == (self.TRIALS,)
        assert _ks_statistic(got, want) < _ks_critical_1pct(self.TRIALS, self.TRIALS)
        if not dist.atomless:
            # the draws are atoms: Pr[rank >= a] = Pr[Binomial(n, sf(a)) >= tau],
            # so atom a is drawn with that less the same at the next atom up
            assert set(np.unique(got).tolist()) <= {a for a, _ in dist.atoms}
            tails = [_binomial_tail(n, float(dist.sf(a)), tau) for a, _ in dist.atoms] + [0.0]
            for (a, _), hi, lo in zip(dist.atoms, tails, tails[1:]):
                prob = hi - lo
                freq = np.count_nonzero(got == a) / self.TRIALS
                assert abs(freq - prob) <= 4 * math.sqrt(prob * (1 - prob) / self.TRIALS) + 1e-12

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
        _mixed_instance(),
    ], ids=["distinct-equal-objects", "two-runs", "mixed"])
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


def _harmonic(j):
    return math.fsum(1.0 / i for i in range(1, j + 1))


def _binomial_tail(n, p, tau):
    """Pr[Binomial(n, p) >= tau]."""
    return math.fsum(math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(tau, n + 1))


class _ConstantUniforms:
    """A Generator whose `random` returns one constant; every other draw is
    real."""

    def __init__(self, u, seed):
        self.u, self.rng = u, np.random.default_rng(seed)

    def random(self, size=None):
        return np.full(size, self.u)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class _RecordingRng:
    """A Generator that records the size of every `random` call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestSampleRows:
    """`sample_rows` gives a single run of identical components, of any kind,
    reduced rows from the Renyi representation: the values at or above the
    threshold, all of them in arrival order where more than k reach it, else
    the first and the top m of the rest; zero padding; then the top m values
    below it, for the rows with fewer than m at or above it. An instance of
    several runs gets reduced rows at a scalar threshold (`TestSparseRows`)
    and a full `sample_matrix` at per-row thresholds."""

    @pytest.mark.parametrize("dist,n,thr,mixed_k", [
        (ValueDistribution.uniform(0.0, 1.0), 100, 0.95, 5),
        (ValueDistribution.exponential(1.0), 400, "per-row", 100),
        (ValueDistribution.uniform(2.0, 5.0), 20, "per-row", 5),
        (ValueDistribution.exponential(3.0), 30, 0.0, None),
    ], ids=["unif-scalar", "exp-per-row", "shifted-unif-per-row", "exp-thr-at-lo"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reduced_row_structure(self, dist, n, thr, mixed_k, m):
        # k = 0: every row keeps arrival order; k = n: no row can bind;
        # mixed_k: some rows can and some cannot (every row reaches a
        # threshold at the bottom of the support, so that case has none)
        inst, trials = ProductInstance.iid(dist, n), 3_000
        if thr == "per-row":
            thr = inst.sample_rank(np.random.default_rng(30), trials, max(1, n // 4))
        t = np.broadcast_to(thr, trials)[:, None]
        for k in (0, n, mixed_k):
            if k is None:
                continue
            rows = inst.sample_rows(np.random.default_rng(31), trials, thr, m, k)
            above = rows > t
            count = np.count_nonzero(above, axis=1)
            assert rows.shape == (trials, count.max() + m)
            # exactly the leading `count` entries of each row clear the threshold
            assert np.array_equal(above, np.arange(rows.shape[1]) < count[:, None])
            assert np.all(rows[~above] <= np.broadcast_to(t, rows.shape)[~above])
            # a row that cannot bind holds its first value and the top m of
            # the rest, in decreasing order
            top = count <= k
            assert np.all(count[top] <= m + 1)
            lead = rows[top, 1:m + 1]
            assert np.all((np.diff(lead, axis=1) <= 0) | (lead[:, 1:] == 0.0))
            if k == mixed_k:
                assert np.any(top) and not np.all(top)
            below = rows[:, -m:]
            assert np.all(np.diff(below, axis=1) <= 0)
            # a row with c < m values above holds min(m, n - c) values below,
            # and every other row holds none
            assert np.array_equal(np.count_nonzero(below > 0, axis=1),
                                  np.where(count < m, np.minimum(m, n - count), 0))
            # zero padding between a row's values above and its values below
            assert np.all(rows[:, :-m][~above[:, :-m]] == 0.0)

    @pytest.mark.parametrize("dist,n,ell", [
        (ValueDistribution.uniform(0.0, 1.0), 100, 1),
        (ValueDistribution.uniform(0.0, 1.0), 100, 3),
        (ValueDistribution.uniform(0.0, 1.0), 10, 2),
        (ValueDistribution.uniform(0.0, 1.0), 5, 3),
        (ValueDistribution.exponential(1.0), 6, 3),
        (ValueDistribution.exponential(1.0), 40, 1),
        (ValueDistribution.exponential(1.0), 40, 2),
        (ValueDistribution.exponential(1.0), 400, 3),
    ])
    @pytest.mark.parametrize("thr", ["high", "per-row"])
    def test_benchmark_mean_matches_closed_form(self, dist, n, ell, thr):
        # U[0,1]: the j-th highest of n has mean (n - j + 1)/(n + 1);
        # Exp(1): H_n - H_{j-1}
        inst, trials = ProductInstance.iid(dist, n), 40_000
        rng = np.random.default_rng(32)
        if thr == "high":
            # about one value above thr, so most rows read the rows below it
            thr = float(dist.isf(1.0 / n))
        else:
            thr = inst.sample_rank(rng, trials, 2)
        # k = ell: rows that can bind and rows that cannot
        rows = inst.sample_rows(rng, trials, thr, ell, ell)
        count = np.count_nonzero(rows > np.broadcast_to(thr, trials)[:, None], axis=1)
        assert np.count_nonzero(count < ell) > trials // 10
        assert np.any(count > ell) and np.any((count > 0) & (count <= ell))
        bench = np.sort(rows, axis=1)[:, -ell:].sum(axis=1)
        if dist.kind == "uniform-interval":
            want = math.fsum((n - j) / (n + 1) for j in range(ell))
        else:
            want = ell * _harmonic(n) - math.fsum(_harmonic(j) for j in range(ell))
        assert abs(bench.mean() - want) <= 4 * bench.std(ddof=1) / math.sqrt(trials)

    @pytest.mark.parametrize("thr", ["at-atom", "between-atoms", "at-lowest-atom", "per-row"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_one_run_layout_on_atoms(self, thr, m):
        # no atom is 0.0, so every filled slot of the block is positive; at
        # k = 0 every row keeps arrival order, at k = n = 6 none can bind
        dist = ValueDistribution.finite([(0.5, 0.5), (1.0, 0.3), (2.0, 0.2)])
        inst, trials, n = ProductInstance.iid(dist, 6), 4_000, 6
        case, thr = thr, {"at-atom": 1.0, "between-atoms": 1.5, "at-lowest-atom": 0.5}.get(thr)
        if case == "per-row":
            thr = inst.sample_rank(np.random.default_rng(32), trials, 2)
        t = np.broadcast_to(thr, trials)[:, None]
        for k in (0, n):
            rows = inst.sample_rows(np.random.default_rng(33), trials, thr, m, k)
            lead, block = rows[:, :-m], rows[:, -m:]
            ge = lead >= t
            count = np.count_nonzero(ge, axis=1)
            assert rows.shape == (trials, count.max() + m)
            # the values >= thr lead each row, atoms all, then zero padding
            assert np.array_equal(ge, np.arange(lead.shape[1]) < count[:, None])
            assert np.all(lead[~ge] == 0.0) and np.all(np.isin(lead[ge], [0.5, 1.0, 2.0]))
            if k:
                # the first value, then the top m of the rest in decreasing order
                assert np.all(count <= m + 1)
                rest = lead[:, 1:]
                assert np.all((np.diff(rest, axis=1) <= 0) | (rest[:, 1:] == 0.0))
            # the rows with fewer than m values >= thr hold the top
            # min(m, n - count) below it, atoms all strictly below thr, in
            # decreasing order, then 0.0; every other row's block is 0.0
            filled = (np.arange(m) < np.minimum(m, n - count)[:, None]) & (count < m)[:, None]
            assert np.all(block[~filled] == 0.0)
            assert np.all(np.isin(block[filled], [0.5, 1.0]))
            assert np.all((block < t)[filled]) and np.all(np.diff(block, axis=1) <= 0)
            if case == "at-lowest-atom":
                assert np.all(count == (min(n, m + 1) if k else n))
            else:
                assert np.any(count < m) and np.any((count > 0) & (count < n))

    @pytest.mark.parametrize("dist,n,m,k,tau", [
        (_ATOMS_012, 30, 2, 3, 4),
        (ValueDistribution.finite([(0.5, 0.5), (1.0, 0.3), (2.0, 0.2)]), 6, 3, 2, 2),
        (ValueDistribution.finite([(0.5, 0.98), (3.0, 0.02)]), 100, 2, 1, 3),
    ], ids=["iid-atoms", "iid-few-atoms", "rare-top-atom"])
    def test_one_run_per_row_law_on_atoms(self, dist, n, m, k, tau):
        # at each row's own sample threshold, as `alg_tau` draws them, the
        # reduced rows of a run of atoms read as full `sample_matrix` rows
        inst, trials = ProductInstance.iid(dist, n), 5_000
        thr = inst.sample_rank(np.random.default_rng(43), trials, tau)
        got = _row_statistics(inst.sample_rows(np.random.default_rng(44), trials, thr, m, k),
                              thr, m, k, one_run=True)
        want = _row_statistics(inst.sample_matrix(np.random.default_rng(45), trials), thr, m, k,
                               one_run=True)
        assert np.any(want["binds"]) and np.any(got["binds"])
        critical = _ks_critical_1pct(trials, trials)
        for key in got:
            assert _ks_statistic(got[key], want[key]) < critical, key

    @pytest.mark.parametrize("thr", [2.0, "per-row"])
    def test_stream_draws_only_what_rows_read(self, thr):
        # the counts; one uniform per value in arrival order (every value of a
        # row of more than k, the first of any other); a (rows, m) block for
        # the top of the rest of the rows that cannot bind; a (rows, m) block
        # below thr for the rows with fewer than m values >= thr, and none
        # for any other row
        dist, n, m, k, trials = ValueDistribution.exponential(1.0), 40, 3, 6, 2_000
        inst = ProductInstance.iid(dist, n)
        if thr == "per-row":
            thr = inst.sample_rank(np.random.default_rng(3), trials, 6)
        rng = _RecordingRng(61)
        rows = inst.sample_rows(rng, trials, thr, m, k)
        count = np.random.default_rng(61).binomial(n, dist.sf(thr), trials)
        top_only = count <= k
        assert np.any(~top_only) and np.any(top_only & (count > 1)) and np.any(count < m)
        arrival = np.where(top_only, np.minimum(count, 1), count)
        assert rng.sizes == [int(arrival.sum()), (np.count_nonzero(top_only & (count > 1)), m),
                             (np.count_nonzero(count < m), m)]
        above = np.count_nonzero(rows > np.broadcast_to(thr, trials)[:, None], axis=1)
        assert np.array_equal(above, np.where(top_only, np.minimum(count, m + 1), count))

    @pytest.mark.parametrize("dist,thr", [(_ATOMS_012, 2.0), (_ATOMS_012, 1.5),
                                          (ValueDistribution.degenerate(1.5), 1.0)],
                             ids=["at-top-atom", "below-top-atom", "point-mass"])
    def test_one_atom_at_or_above_thr_draws_no_uniform(self, dist, thr):
        # every value >= thr is the top atom: the stream holds the counts and
        # the block below thr, for the rows with fewer than m values >= thr
        n, m, k, trials = 30, 2, 6, 2_000
        rng = _RecordingRng(62)
        rows = ProductInstance.iid(dist, n).sample_rows(rng, trials, thr, m, k)
        count = np.random.default_rng(62).binomial(n, dist.sf(thr), trials)
        short = np.count_nonzero(count < m)
        assert rng.sizes == ([(short, m)] if short else [])
        lead = rows[:, :-m]
        ge = lead >= thr
        assert np.all(lead[ge] == dist.support[1])
        assert np.array_equal(np.count_nonzero(ge, axis=1),
                              np.where(count > k, count, np.minimum(count, m + 1)))
        if dist.kind == "finite-support":
            assert short and np.any(count > k) and np.any((count > 1) & (count <= k))

    def test_zero_uniforms_keep_values_finite(self):
        # a zero uniform puts the top of the rest at V = 0, where isf is the
        # supremum of the support, inf for an exponential; V is held at the
        # smallest positive float instead
        inst = ProductInstance.iid(ValueDistribution.exponential(1.0), 40)
        rows = inst.sample_rows(_ConstantUniforms(0.0, 63), 1_000, 2.0, 3, 40)
        assert np.all(np.isfinite(rows)) and np.any(rows > 700.0)

    @pytest.mark.parametrize("instance", [
        ProductInstance([ValueDistribution.exponential(1.0) for _ in range(30)]),
        _mixed_instance(),
    ], ids=["distinct-equal-objects", "mixed"])
    def test_other_instances_draw_a_full_matrix(self, instance):
        # several runs at per-row thresholds; a scalar one gives reduced rows
        # (TestSparseRows), and so does a single run at any threshold
        thr = np.linspace(0.5, 1.5, 700)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        got = instance.sample_rows(rng_a, 700, thr, 2, 1)
        assert np.array_equal(got, instance.sample_matrix(rng_b, 700))
        assert np.array_equal(rng_a.random(8), rng_b.random(8))

    @pytest.mark.parametrize("dist", [ValueDistribution.uniform(0.5, 3.0),
                                      ValueDistribution.exponential(2.0),
                                      ValueDistribution.finite([(0.5, 0.25), (1.0, 0.5),
                                                                (3.0, 0.25)]),
                                      ValueDistribution.degenerate(1.0)])
    def test_sf_complements_isf_and_cdf(self, dist):
        # sf(x) = Pr[X >= x] = 1 - F(x-), and isf is its generalized inverse
        v = np.linspace(0.01, 1.0, 100)
        x = dist.isf(v)
        if dist.atomless:
            np.testing.assert_allclose(dist.sf(x), v, rtol=1e-12)
        else:
            # the largest atom whose survival reaches v
            atoms = np.array([a for a, _ in dist.atoms])
            assert np.all(np.isin(x, atoms)) and np.all(dist.sf(x) >= v)
            above = np.searchsorted(atoms, x, side="right")
            assert np.all(dist.sf(np.append(atoms, np.inf)[above]) < v)
        x = np.concatenate([np.linspace(-1.0, 4.0, 101), [0.5, 1.0, 3.0]])
        np.testing.assert_allclose(
            dist.sf(x), [1.0 - dist.cdf(float(np.nextafter(t, -np.inf))) for t in x],
            rtol=1e-12, atol=1e-15)


#: (instance, scalar threshold, m, k, regime). "binds": some rows accept
#: more than k values under the atoms rule; "sparse": some rows have fewer
#: than m values >= thr, so their benchmark reads the block below thr.
_SPARSE_CASES = {
    "iid-atoms": (ProductInstance.iid(_ATOMS_012, 30), 1.0, 2, 3, "binds"),
    "three-atom-components": (_three_atom_components(25), 8.5, 3, 4, "binds sparse"),
    "mixed": (_mixed_instance(), 1.0, 2, 2, "binds sparse"),
    "thr-at-lowest-atom": (hard_prophet_instance(4, 8), 0.0, 2, 2, "binds"),
    "thr-at-top-atom": (ProductInstance.iid(_ATOMS_012, 100), 2.0, 1, 13, ""),
    "k-binds": (_three_atom_components(25), 3.0, 3, 3, "binds"),
    "fewer-than-m": (_mixed_instance(), 2.0, 3, 2, "sparse"),
    "single-sample-hard": (single_sample_hard_instance(3, 2, 2.0, 6), 5.0, 1, 1,
                           "binds sparse"),
    "iid-few-components": (ProductInstance.iid(_ATOMS_012, 3), 2.0, 3, 2, "sparse"),
    "runs-straddling-thr": (ProductInstance([ValueDistribution.uniform(0.0, 4.0)] * 3
                                            + [ValueDistribution.exponential(1.0)] * 2),
                            3.0, 2, 1, "binds sparse"),
    # a single run where no row can bind, with an atom at thr that only the
    # atoms rule's first acceptance takes
    "atom-at-thr-top-only": (ProductInstance.iid(_ATOMS_012, 8), 1.0, 2, 8, "sparse"),
    # exactly one atom at or above thr, with rows of more than k values >= thr
    # and rows of at most k (nothing is > thr, so the atoms rule never binds)
    "one-atom-mixed": (ProductInstance.iid(_ATOMS_012, 30), 2.0, 2, 6, "sparse"),
}


def _row_statistics(rows, thr, m, k, one_run):
    """What a threshold rule reads, per row: the count of positive values
    >= thr (zero padding is >= a threshold of 0), the first value >= thr
    (0.0 if none), the strict and the atoms rule's top-m sums, the
    benchmark's, and whether the atoms rule's capacity binds. A reduced row
    of a single run (`one_run`) with at most k values >= thr holds only
    m + 1 of them, so there a count of at most k is capped at m + 1."""
    ge = rows >= (thr[:, None] if np.ndim(thr) else thr)
    count = np.count_nonzero(ge & (rows > 0), axis=1)
    if one_run:
        count = np.where(count > k, count, np.minimum(count, m + 1))
    first = np.where(ge.any(axis=1), rows[np.arange(len(rows)), ge.argmax(axis=1)], 0.0)
    strict, bench, _ = _threshold_top(rows, thr, k, m)
    atoms, _, binds = _threshold_top(rows, thr, k, m, first_ge=True)
    return {"count": count, "first": first, "strict": strict.sum(axis=1),
            "atoms": atoms.sum(axis=1), "bench": bench.sum(axis=1), "binds": binds}


class TestSparseRows:
    """At a scalar threshold every instance gets reduced rows: its values
    >= thr in arrival order (on a single run, where at most k reach thr, the
    first and the top min(m, n) of the rest), zero padding, then a block of
    the top min(m, n) values below thr, filled only for the rows with fewer
    than that many values >= thr. Full `sample_matrix` rows are the
    reference for their law."""

    TRIALS = 5_000

    def test_hard_prophet_threshold_sits_at_the_lowest_atom(self):
        # the atoms rule's threshold in the "thr-at-lowest-atom" case
        assert max_quantile_inf(hard_prophet_instance(4, 8), TWO_THIRDS ** 2) == 0.0

    @pytest.mark.parametrize("case", list(_SPARSE_CASES))
    def test_layout(self, case):
        inst, thr, m, k, regime = _SPARSE_CASES[case]
        rows = inst.sample_rows(np.random.default_rng(51), self.TRIALS, thr, m, k)
        depth = min(m, inst.n)
        lead, block = rows[:, :-depth], rows[:, -depth:]
        ge = lead >= thr
        count = np.count_nonzero(ge, axis=1)
        assert rows.shape == (self.TRIALS, count.max() + depth)
        # the values >= thr lead each row, then zero padding
        assert np.array_equal(ge, np.arange(lead.shape[1]) < count[:, None])
        assert np.all(lead[~ge] == 0.0)
        # the block is decreasing and below thr, 0.0 where there are fewer
        # values, and the rows with at least `depth` values >= thr leave it
        # empty
        assert np.all(np.diff(block, axis=1) <= 0)
        assert np.all((block < thr) | (block == 0.0))
        assert np.all(block[count >= depth] == 0.0)
        if len(inst.distinct()) == 1:
            # a single run holds at most depth + 1 values >= thr where none
            # can bind, and fills the block with atoms below thr while values
            # remain
            assert np.all(count[count <= k] <= depth + 1)
            below = [a for a, _ in inst.components[0].atoms if a < thr]
            filled = ((np.arange(depth) < np.minimum(depth, inst.n - count)[:, None])
                      & (count < depth)[:, None])
            assert np.all(np.isin(block[filled], below)) and np.all(block[~filled] == 0.0)
            assert np.any(block[filled] > 0.0) == (len(below) > 1 and np.any(filled))
        assert np.any(count < depth) == ("sparse" in regime)
        if thr == 0.0:
            assert np.all(count == inst.n)

    def test_values_keep_arrival_order(self):
        # every atom value names its component, so each row's values >= thr
        # must come from strictly increasing components
        inst, thr = _three_atom_components(25), 6.0
        owner = {v: i for i, c in enumerate(inst.components) for v, _ in c.atoms}
        assert len(owner) == 3 * inst.n
        rows = inst.sample_rows(np.random.default_rng(52), 2_000, thr, 2, 1)
        for row in rows[:, :-2]:
            comps = [owner[v] for v in row[row >= thr]]
            assert len(comps) > 0 and comps == sorted(set(comps))

    @pytest.mark.parametrize("case", list(_SPARSE_CASES))
    def test_law_matches_full_rows(self, case):
        inst, thr, m, k, regime = _SPARSE_CASES[case]
        one_run = len(inst.distinct()) == 1
        got = _row_statistics(inst.sample_rows(np.random.default_rng(41), self.TRIALS, thr, m,
                                               k), thr, m, k, one_run)
        full = inst.sample_matrix(np.random.default_rng(42), self.TRIALS)
        want = _row_statistics(full, thr, m, k, one_run)
        assert np.any(np.count_nonzero(full >= thr, axis=1) < m) == ("sparse" in regime)
        assert np.any(got["binds"]) == np.any(want["binds"]) == ("binds" in regime)
        critical = _ks_critical_1pct(self.TRIALS, self.TRIALS)
        for key in got:
            assert _ks_statistic(got[key], want[key]) < critical, key

    @pytest.mark.parametrize("case,u", [("iid-atoms", 0.0), ("three-atom-components", 1.0)])
    def test_block_stays_below_an_atom_threshold(self, case, u):
        # uniforms at the end of their range map a value below thr to
        # isf(sf(thr)), the lowest atom >= thr (thr itself in the i.i.d. case,
        # which the atoms rule would read as its first acceptance); the block
        # must hold the float below thr instead. With m = n every row holds
        # fewer than m values >= thr, so every row draws the block
        inst, thr, _, k, _ = _SPARSE_CASES[case]
        m = inst.n
        rng = _ConstantUniforms(u if u < 1.0 else np.nextafter(1.0, 0.0), 54)
        rows = inst.sample_rows(rng, 2_000, thr, m, k)
        block = rows[:, -m:]
        assert np.any(block == np.nextafter(thr, -np.inf)) and np.all(block < thr)

    def test_point_masses_on_both_sides_of_thr(self):
        # a run that always reaches thr fills every row and one that never
        # does draws nothing above it; with one value >= thr per row and
        # m = 2, every row's block holds the other two, in decreasing order
        inst = ProductInstance([ValueDistribution.degenerate(3.0),
                                ValueDistribution.degenerate(1.0),
                                ValueDistribution.uniform(0.0, 2.0)])
        rows = inst.sample_rows(np.random.default_rng(53), 1_000, 2.0, 2, 1)
        assert rows.shape == (1_000, 3) and np.all(rows[:, 0] == 3.0)
        block = rows[:, 1:]
        assert np.all(np.diff(block, axis=1) <= 0) and np.all(block < 2.0)
        assert np.all(np.count_nonzero(block == 1.0, axis=1) == 1)

    def test_survival_levels_are_kept_for_the_threshold(self, monkeypatch):
        # sf(thr) of each distinct component is computed once for a thr:
        # later batches at that thr call no sf, a new thr computes it again,
        # and the rows are those of a fresh instance
        calls, real_sf = [], ValueDistribution.sf
        monkeypatch.setattr(ValueDistribution, "sf",
                            lambda self, x: calls.append(x) or real_sf(self, x))
        inst = _three_atom_components(25)
        distinct = len(inst.distinct())
        for thr, new in [(8.5, True), (8.5, False), (3.0, True), (3.0, False), (8.5, True)]:
            done = len(calls)
            rows = inst.sample_rows(np.random.default_rng(54), 200, thr, 3, 4)
            assert len(calls) - done == (distinct if new else 0)
            fresh = _three_atom_components(25)
            assert np.array_equal(rows, fresh.sample_rows(np.random.default_rng(54), 200,
                                                          thr, 3, 4))

    def test_survival_levels_are_read_once_per_call(self):
        # an instance is shared across threads, so another thread may swap in
        # its own thr's entry between two reads of the memo: a call that reads
        # it twice can check one thr's entry and then use another's
        class Shared(ProductInstance):
            @property
            def _sf_at(self):
                memo, self.reads = self.memo, self.reads + 1
                if self.reads == 2:  # the other thread writes here
                    self.memo = self.other
                return memo

            @_sf_at.setter
            def _sf_at(self, memo):
                self.memo = memo

        fresh = _three_atom_components(25)
        rows = fresh.sample_rows(np.random.default_rng(55), 200, 8.5, 3, 4)
        inst = Shared(fresh.components)
        inst.reads, inst.memo = 0, fresh._sf_at
        fresh.sample_rows(np.random.default_rng(55), 200, 3.0, 3, 4)
        inst.other = fresh._sf_at
        assert np.array_equal(inst.sample_rows(np.random.default_rng(55), 200, 8.5, 3, 4), rows)


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


@st.composite
def _finite_laws(draw):
    """A finite law of 1 to 6 atoms, some of them with tiny probabilities."""
    values = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6, unique=True))
    weights = np.array(draw(st.lists(st.sampled_from([1e-15, 1e-9, 1e-4]) | st.floats(0.01, 1.0),
                                     min_size=len(values), max_size=len(values))))
    return ValueDistribution.finite(list(zip(sorted(values), (weights / weights.sum()).tolist())))


@settings(max_examples=200, deadline=None)
@given(dist=_finite_laws(), vs=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=20))
def test_finite_isf_is_the_generalized_inverse_of_sf(dist, vs):
    # probe every survival level and the floats on either side of it too
    levels = dist.sf(np.array([a for a, _ in dist.atoms]))
    v = np.concatenate([vs, levels, np.nextafter(levels, 0.0), np.nextafter(levels, 2.0)])
    v = v[(v > 0.0) & (v <= 1.0)]
    atoms = np.array([a for a, _ in dist.atoms] + [np.inf])
    x = dist.isf(v)
    # sf(isf(v)) >= v, and the next atom up has survival below v
    assert np.all(np.isin(x, atoms)) and np.all(dist.sf(x) >= v)
    assert np.all(dist.sf(atoms[np.searchsorted(atoms, x, side="right")]) < v)


@settings(max_examples=100, deadline=None)
@given(dist=_finite_laws(), seed=st.integers(0, 2**32 - 1))
def test_stacked_isf_matches_each_component(dist, seed):
    # a mixed instance, every kind and the random law in runs: its stacked
    # table returns each entry's own component `isf`, bit for bit
    inst = ProductInstance([dist] * 2 + list(_mixed_instance().components) + [dist]
                           + [ValueDistribution.finite([(1.0, 0.5), (7.0, 0.5)])])
    heads, head = inst.distinct(), inst._stacked()[0]
    rng = np.random.default_rng(seed)
    v = 1.0 - rng.random((50, inst.n))
    want = np.column_stack([heads[h].isf(v[:, i]) for i, h in enumerate(head)])
    assert np.array_equal(inst._isf(v, head), want)
    entries = rng.integers(0, len(heads), 300)
    u = 1.0 - rng.random(300)
    # the random law's own survival levels, where a strict compare would differ
    levels = dist.sf(np.array([a for a, _ in dist.atoms]))
    entries[:len(levels)], u[:len(levels)] = 0, levels
    want = [float(heads[h].isf(x)) for h, x in zip(entries.tolist(), u.tolist())]
    assert np.array_equal(inst._isf(u, entries), want)


class TestMaxQuantile:
    def test_two_uniforms_quarter(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 2)
        assert max_quantile(inst, 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_hundred_uniforms(self):
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 100)
        q = (2.0 / 3.0) ** 11
        assert max_quantile(inst, q) == pytest.approx((2.0 / 3.0) ** 0.11, abs=1e-9)

    def test_hundred_uniforms_to_the_last_float(self):
        # the correctly rounded root (2/3)^0.11 = 0.95637884610635168...; a
        # residual stop at 1e-9 * q returned 0.9563788461091463
        inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 100)
        assert max_quantile(inst, (2.0 / 3.0) ** 11) == 0.9563788461063517

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
        # the price is the zero of v - (1 - F(v)) / f(v); a bracketed search
        # underflowed the density from rate ~745 on
        dist = ValueDistribution.exponential(rate)
        price = monopoly_price(dist)
        assert price > 0.0
        assert virtual_value(dist, price) == pytest.approx(0.0, abs=1e-12 * price)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.2, 2.0), (1.5, 2.0), (0.9, 1.1)])
    def test_monopoly_price_shifted_uniform(self, a, b):
        # the zero of the virtual value, or the support bottom where the
        # virtual value is already nonnegative
        dist = ValueDistribution.uniform(a, b)
        price = monopoly_price(dist)
        phi = virtual_value(dist, price)
        if price == a:
            assert phi >= 0.0
        else:
            assert a < price < b
            assert phi == pytest.approx(0.0, abs=1e-12 * price)

    def test_virtual_value_array_matches_scalar(self):
        u = ValueDistribution.uniform(0.25, 1.5)
        xs = np.linspace(0.3, 1.4, 17)
        expect = [virtual_value(u, float(x)) for x in xs]
        assert np.allclose(virtual_value_array(u, xs), expect, atol=1e-12)


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
