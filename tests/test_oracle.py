import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overbook.distributions import ProductInstance, ValueDistribution, hard_prophet_instance
from overbook.oracle import (
    StateSpaceTooLargeError,
    exact_prophet_benchmark,
    optimal_online_dp,
    secretary_max_prob_dp,
    top_ell,
    top_ell_values,
)


class TestTopEll:
    def test_basic_example(self):
        res = top_ell(np.array([5.0, 9.0, 1.0, 7.0]), 2)
        assert res.value == 16.0
        assert sorted(res.indices) == [1, 3]

    def test_single_best(self):
        res = top_ell(np.array([2.0, 26.0, 3.0]), 1)
        assert res.value == 26.0 and res.indices == (1,)

    def test_tie_breaks_to_lower_index(self):
        res = top_ell(np.array([5.0, 5.0, 5.0]), 2)
        assert res.indices == (0, 1)

    def test_ell_at_least_length_takes_all(self):
        res = top_ell(np.array([1.0, 2.0]), 5)
        assert res.value == 3.0

    def test_values_rowwise(self):
        mat = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 9.0]])
        assert np.allclose(top_ell_values(mat, 2), [5.0, 9.0])

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_top_ell_values_ell_one_matches_partition_form(self, n):
        m = np.random.default_rng(n).exponential(size=(300, n))
        m[::5, 0] = m[::5, -1]  # ties
        partition = np.partition(m, n - 1, axis=1)[:, n - 1:].sum(axis=1)
        assert np.array_equal(top_ell_values(m, 1), partition)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12),
        st.integers(1, 12),
    )
    def test_monotone_in_ell_and_permutation_invariant(self, vals, ell):
        arr = np.array(vals)
        totals = [top_ell(arr, j).value for j in range(1, len(vals) + 1)]
        assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(vals))
        assert top_ell(arr[perm], ell).value == pytest.approx(top_ell(arr, ell).value)


def _random_finite_instance(rng, max_n=4, max_atoms=3):
    n = int(rng.integers(1, max_n + 1))
    comps = []
    for _ in range(n):
        m = int(rng.integers(1, max_atoms + 1))
        vals = np.sort(rng.uniform(0, 10, m))
        while len(np.unique(vals)) < m:
            vals = np.sort(rng.uniform(0, 10, m))
        probs = rng.dirichlet(np.ones(m))
        comps.append(ValueDistribution.finite(list(zip(vals.tolist(), probs.tolist()))))
    return ProductInstance(comps)


class TestBenchmark:
    def test_exact_worked_example(self):
        # two iid atoms {0 w.p. 1/2, 2 w.p. 1/2}: E[max of top-1] = 5/3... no:
        # E[TOP_1] = 2 * (1 - 1/4) = 3/2; the 5/3 example uses {0, 2} and {0, 3}
        d0 = ValueDistribution.finite([(0.0, 0.5), (2.0, 0.5)])
        d1 = ValueDistribution.finite([(0.0, 2 / 3), (3.0, 1 / 3)])
        inst = ProductInstance([d0, d1])
        assert exact_prophet_benchmark(inst, 1) == pytest.approx(5 / 3, abs=1e-12)

    def test_mc_matches_exact_on_random_instances(self):
        rng = np.random.default_rng(777)
        for i in range(20):
            inst = _random_finite_instance(rng)
            ell = int(rng.integers(1, inst.n + 1))
            exact = exact_prophet_benchmark(inst, ell)
            trials = 40_000
            vals = top_ell_values(inst.sample_matrix(np.random.default_rng(1000 + i), trials), ell)
            est, se = vals.mean(), vals.std(ddof=1) / np.sqrt(trials)  # two-pass stderr
            assert abs(est - exact) <= max(3 * se, 1e-9)

    def test_state_space_guard(self):
        big = ProductInstance.iid(
            ValueDistribution.finite([(float(i), 0.1) for i in range(10)]), 8)
        with pytest.raises(StateSpaceTooLargeError):
            exact_prophet_benchmark(big, 1)


class TestOnlineDp:
    def test_hard_instance_k1(self):
        inst = hard_prophet_instance(1, 2)
        res = optimal_online_dp(inst, 1, 1)
        assert res.expected_value == pytest.approx(1.5, abs=1e-12)

    def test_dp_never_beats_offline(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            inst = _random_finite_instance(rng)
            ell = int(rng.integers(1, inst.n + 1))
            k = int(rng.integers(ell, inst.n + 1))
            dp = optimal_online_dp(inst, ell, k).expected_value
            assert dp <= exact_prophet_benchmark(inst, ell) + 1e-9

    def test_dp_nondecreasing_in_k(self):
        inst = _random_finite_instance(np.random.default_rng(42), max_n=4)
        vals = [optimal_online_dp(inst, 1, k).expected_value for k in range(1, inst.n + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dp_equals_benchmark_with_full_capacity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = _random_finite_instance(rng, max_n=3)
            n = inst.n
            dp = optimal_online_dp(inst, n, n).expected_value
            assert dp == pytest.approx(exact_prophet_benchmark(inst, n), abs=1e-9)

    def test_policy_accepts_positive_atoms_when_room(self):
        # with ell = k = n the optimal policy takes every nonzero value
        inst = ProductInstance([
            ValueDistribution.finite([(0.0, 0.5), (2.0, 0.5)]),
            ValueDistribution.finite([(1.0, 0.5), (3.0, 0.5)]),
        ])
        res = optimal_online_dp(inst, 2, 2)
        assert res.expected_value == pytest.approx(1.0 + 2.0, abs=1e-12)

    def test_policy_json_serializes(self):
        inst = hard_prophet_instance(1, 2)
        res = optimal_online_dp(inst, 1, 1)
        assert isinstance(res.policy_json(), str) and "position" in res.policy_json()


class TestSecretaryDp:
    def test_worked_examples(self):
        assert secretary_max_prob_dp(2, 1) == pytest.approx(0.5, abs=1e-12)
        assert secretary_max_prob_dp(1, 3) == pytest.approx(1.0, abs=1e-12)

    def test_budget_saturates(self):
        # once the budget covers every position, more budget cannot help
        assert secretary_max_prob_dp(3, 3) == secretary_max_prob_dp(3, 10)

    def test_classic_secretary_limit(self):
        # k = 1 optimum approaches 1/e from above for moderate n
        p = secretary_max_prob_dp(100, 1)
        assert 1 / np.e < p < 0.4

    def test_upper_bound_small_cases(self):
        for n in range(1, 13):
            for k in range(1, 4):
                p = secretary_max_prob_dp(n, k)
                assert p <= (1 + 1 / n) * (1 - np.exp(-float(k))) + 1e-12

    def test_monotone_in_k(self):
        probs = [secretary_max_prob_dp(30, k) for k in range(1, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 5000])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 40])
    def test_rolling_row_equals_full_table(self, n, k):
        # the full (n+1) x (k+1) backward-induction table, bit for bit
        g = [[0.0] * (k + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            pos = i + 1
            p_record = 1.0 / pos
            p_max = pos / n
            for b in range(1, k + 1):
                accept = p_max + (1.0 - p_max) * g[i + 1][b - 1]
                skip = g[i + 1][b]
                g[i][b] = p_record * max(accept, skip) + (1.0 - p_record) * skip
        assert repr(secretary_max_prob_dp(n, k)) == repr(g[0][k])
