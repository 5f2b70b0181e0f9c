import math
from bisect import bisect_left, insort

import numpy as np
import pytest

from overbook import experiments
from overbook.experiments import secretary_trials
from overbook.oracle import top_ell
from overbook.prophet import SelectionOutcome
from overbook.secretary import (
    BetaVector,
    default_beta,
    interval_index,
    run_secretary,
    run_secretary_unbounded,
    secretary_phase_length,
)
from overbook.seeding import trial_rng

EXAMPLE_TRACE = [2.0, 9.0, 3.0, 5.0, 4.0, 7.0, 6.0, 10.0]
EXAMPLE_BETA = BetaVector((1, 4, 4, 8))


class TestBetaVector:
    def test_n_and_ell_are_derived(self):
        assert (EXAMPLE_BETA.n, EXAMPLE_BETA.ell) == (8, 3)
        assert EXAMPLE_BETA.boundaries == (1, 4, 4, 8)
        assert (BetaVector((0, 1)).n, BetaVector((0, 1)).ell) == (1, 1)

    def test_leading_zero_is_a_boundary(self):
        # the (ell+2)-long form with a spelled-out b_{-1} = 0 is gone: a
        # leading 0 is b_0, an empty interval 0
        beta = BetaVector((0, 1, 4, 4, 8))
        assert beta.boundaries == (0, 1, 4, 4, 8) and beta.ell == 4

    def test_boundaries_are_read_as_ints(self):
        beta = BetaVector(np.array([2, 5, 9]))
        assert beta.boundaries == (2, 5, 9) and type(beta.boundaries[0]) is int

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            BetaVector((4, 1, 8))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BetaVector((-1, 4, 8))

    @pytest.mark.parametrize("boundaries", [(), (8,)])
    def test_rejects_fewer_than_two_boundaries(self, boundaries):
        with pytest.raises(ValueError, match="at least two boundaries"):
            BetaVector(boundaries)

    def test_rejects_last_below_one(self):
        with pytest.raises(ValueError, match="last boundary"):
            BetaVector((0, 0))


class TestIntervalIndex:
    def test_worked_example(self):
        got = [interval_index(EXAMPLE_BETA, i) for i in range(1, 9)]
        assert got == [0, 1, 1, 1, 3, 3, 3, 3]

    def test_right_endpoint_maps_to_its_interval(self):
        beta = BetaVector((2, 5, 9))
        assert interval_index(beta, 2) == 0
        assert interval_index(beta, 5) == 1
        assert interval_index(beta, 9) == 2

    def test_empty_interval_never_hit(self):
        beta = EXAMPLE_BETA
        assert 2 not in {interval_index(beta, i) for i in range(1, 9)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            interval_index(EXAMPLE_BETA, 0)
        with pytest.raises(ValueError):
            interval_index(EXAMPLE_BETA, 9)


class TestDefaultBeta:
    def test_worked_example(self):
        s = secretary_phase_length(2, 24)
        assert s == pytest.approx((24 - 16) / (2 + 2 * math.log(2)))
        beta = default_beta(1000, 2, 24)
        assert beta.boundaries == (8, 8, 1000)

    def test_ell_one_specialization(self):
        n, k = 500, 12
        beta = default_beta(n, 1, k)
        expect = math.floor(n * math.exp(-(k - 8) / 2) / (2 * math.e))
        assert beta.boundaries == (expect, n)

    def test_k_equals_8ell_zero_phase(self):
        n, ell = 300, 3
        beta = default_beta(n, ell, 8 * ell)
        expect = tuple(math.floor(j * n / (2 * math.e * ell)) for j in range(1, ell)) + (n,)
        assert beta.boundaries == (math.floor(n / (2 * math.e * ell)),) + expect

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 399, 2000])
    def test_closed_form_floors(self, n):
        # no boundary is clamped: j e^{-s/j} is nondecreasing in j and below
        # 2 e ell, so the floors are nondecreasing and below n
        for ell in [1, 2, 3, 5, 8, 13, 39]:
            for k in {ell, ell + 1, 8 * ell - 1, 8 * ell, 8 * ell + 1, 10 * ell, 40 * ell}:
                s = secretary_phase_length(ell, k)
                inner = [math.floor(j * n * math.exp(-s / j) / (2 * math.e * ell))
                         for j in range(1, ell)]
                b0 = math.floor(n * math.exp(-s) / (2 * math.e * ell))
                assert default_beta(n, ell, k).boundaries == (b0, *inner, n)

    def test_negative_phase_clamped(self):
        assert secretary_phase_length(2, 4) == 0.0
        beta = default_beta(100, 2, 4)
        assert beta.boundaries[0] == math.floor(100 / (4 * math.e))


class TestRunSecretary:
    def test_worked_trace_bounded(self):
        out = run_secretary(EXAMPLE_TRACE, EXAMPLE_BETA, k=4)
        assert out.accepted_values == [9.0, 4.0, 7.0, 6.0]

    def test_worked_trace_unbounded(self):
        out = run_secretary_unbounded(EXAMPLE_TRACE, EXAMPLE_BETA)
        assert out.accepted_values == [9.0, 4.0, 7.0, 6.0, 10.0]

    def test_single_interval_accepts_nothing(self):
        beta = BetaVector((8, 8, 8, 8))
        out = run_secretary(EXAMPLE_TRACE, beta, k=4)
        assert out.accepted == []

    def test_no_accepts_in_sampling_phase(self):
        rng = np.random.default_rng(6)
        beta = default_beta(60, 2, 20)
        b0 = beta.boundaries[0]
        assert b0 >= 1
        for _ in range(40):
            vals = rng.exponential(size=60)
            out = run_secretary(vals, beta, k=20)
            assert all(idx >= b0 for idx, _ in out.accepted)

    def test_bounded_is_prefix_of_unbounded(self):
        rng = np.random.default_rng(8)
        beta = default_beta(40, 2, 6)
        for _ in range(100):
            vals = rng.uniform(size=40)
            bd = run_secretary(vals, beta, k=6).accepted
            ub = run_secretary_unbounded(vals, beta).accepted
            assert bd == ub[: len(bd)]
            assert (bd == ub) == (len(ub) <= 6)

    def test_deterministic(self):
        out1 = run_secretary(EXAMPLE_TRACE, EXAMPLE_BETA, k=4)
        out2 = run_secretary(EXAMPLE_TRACE, EXAMPLE_BETA, k=4)
        assert out1.accepted == out2.accepted

    def test_ell_value_never_beats_offline(self):
        rng = np.random.default_rng(13)
        beta = default_beta(30, 2, 16)
        for _ in range(100):
            vals = rng.exponential(size=30)
            out = run_secretary(vals, beta, k=16)
            assert out.ell_value <= top_ell(vals, 2).value + 1e-12


def _full_history_run(values, beta, capacity):
    """The interval selector that ranks each arrival against every value seen
    so far: the reference for the top-ell walk of `run_secretary`."""
    accepted, seen = [], []  # seen ascending
    for pos0, v in enumerate(values):
        j = interval_index(beta, pos0 + 1)
        # rank among v_1..v_i with earlier arrivals winning ties
        rank = len(seen) - bisect_left(seen, v) + 1
        if rank <= j and len(accepted) < capacity:
            accepted.append(pos0)
        insort(seen, v)
    return SelectionOutcome.from_accepted(values, accepted, math.nan, beta.ell)


def _random_beta(rng, n, ell):
    """Random nondecreasing boundaries over 1..n, empty intervals included."""
    inner = np.sort(rng.integers(0, n + 1, size=ell)).tolist()
    return BetaVector((*inner, n))


class TestTopEllWalk:
    """`run_secretary` keeps only the ell highest values seen; the full
    history gives the same outcome."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_history_selector_on_ties(self, seed):
        rng = np.random.default_rng(seed)
        binds = 0
        for _ in range(500):
            n = int(rng.integers(1, 40))
            ell = int(rng.integers(1, 6))
            beta = _random_beta(rng, n, ell)
            # few distinct levels, zeros included, so most ranks meet a tie
            vals = rng.integers(0, 5, size=n).astype(float)
            if rng.random() < 0.5:
                vals = vals.tolist()
            k = int(rng.integers(1, 2 * ell + 2))
            unbounded = _full_history_run(vals, beta, math.inf)
            for got, want in [(run_secretary(vals, beta, k), _full_history_run(vals, beta, k)),
                              (run_secretary_unbounded(vals, beta), unbounded)]:
                assert got.accepted == want.accepted
                assert got.ell_value == want.ell_value
            binds += len(unbounded.accepted) > k
        # the capacity both binds and leaves room
        assert 50 < binds < 450

    def test_matches_full_history_selector_at_n2000(self):
        rng = np.random.default_rng(11)
        vals = 2.0 ** -np.arange(2000)
        for ell, k in [(2, 40), (1, 1), (4, 6), (8, 200)]:
            beta = default_beta(2000, ell, k)
            for _ in range(5):
                order = rng.permutation(vals)
                assert (run_secretary(order, beta, k).accepted
                        == _full_history_run(order, beta, k).accepted)
                assert (run_secretary_unbounded(order, beta).accepted
                        == _full_history_run(order, beta, math.inf).accepted)


class TestVectorizedEngine:
    def test_matches_scalar_on_replayed_permutations(self, monkeypatch):
        # regenerate the engine's own permutations and replay each through
        # the scalar selector
        n, ell, k = 20, 2, 16
        values = np.array([2.0 ** -r for r in range(n)])
        beta = default_beta(n, ell, k)
        master_seed, batch = 424, 8
        monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
        stats = secretary_trials(values, beta, k, trials=batch, master_seed=master_seed)
        rng = trial_rng(master_seed, 0)
        ranks = np.argsort(rng.random((batch, n)), axis=1)
        vals_desc = np.sort(values)[::-1]
        alg_sum = bench_sum = 0.0
        differ = missed = 0
        for t in range(batch):
            arrival = vals_desc[ranks[t]]
            bd = run_secretary(arrival, beta, k)
            ub = run_secretary_unbounded(arrival, beta)
            alg_sum += bd.ell_value
            bench_sum += top_ell(arrival, ell).value
            differ += int(len(ub.accepted) > k)
            missed += int(vals_desc[ell - 1] not in ub.accepted_values)
        assert stats.ratio == pytest.approx(alg_sum / bench_sum, abs=1e-12)
        assert stats.extras["prob_capacity_differs"] == pytest.approx(differ / batch, abs=1e-12)
        assert stats.extras["prob_ell_missed"] == pytest.approx(missed / batch, abs=1e-12)

    # (n, ell, k, boundaries, duplicate values, trials, batch, rows per chunk)
    REPLAY_CONFIGS = [
        (12, 1, 1, (3, 12), False, 37, 16, 3),        # nonempty interval 0, binding k
        (15, 2, 2, (4, 4, 15), True, 37, 16, 3),      # empty interval 1, ties
        (20, 3, 10, (0, 5, 5, 20), False, 41, 20, 7), # empty interval 0 and 2
        (9, 4, 4, (2, 3, 5, 7, 9), True, 29, 10, 4),  # ties, binding k
        (30, 5, 7, (6, 6, 10, 15, 15, 30), True, 50, 25, 6),
        (4, 5, 5, (1, 1, 2, 3, 4, 4), False, 23, 8, 3),  # ell > n
        (5, 5, 6, (0, 1, 2, 3, 4, 5), True, 23, 8, 3),   # ell == n, ties
        (1, 1, 1, (0, 1), False, 5, 2, 1),
        (40, 2, 30, (5, 12, 40), True, 45, 30, None),    # default chunk, non-binding k
        # the engine's candidate filter over eight rank blocks: tie groups
        # straddle the block starts 96 and 192, interval 0 is nonempty, k binds
        (300, 3, 4, (10, 10, 40, 300), True, 45, 20, 7),
        (512, 2, 6, (30, 80, 512), False, 30, 16, 5),    # nine blocks, binding k
    ]

    @pytest.mark.parametrize("cfg", REPLAY_CONFIGS)
    def test_replay_matches_scalar(self, cfg, monkeypatch):
        # every batch's permutations replayed through the scalar selectors,
        # with the engine cut into row chunks that do not divide the batch
        n, ell, k, bounds, ties, trials, batch, rows = cfg
        if rows is not None:
            monkeypatch.setattr(experiments, "_RANK_CHUNK_CELLS", rows * n)
        gen = np.random.default_rng(n * 100 + ell * 10 + k)
        values = (gen.integers(0, max(4, n // 16), size=n).astype(float) if ties
                  else gen.exponential(size=n))
        beta = BetaVector(bounds)
        assert (beta.n, beta.ell) == (n, ell)
        master_seed = int(gen.integers(10_000))
        monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
        stats = secretary_trials(values, beta, k, trials, master_seed)
        vals_desc = np.sort(values)[::-1]
        alg_sum = bench_sum = 0.0
        differ = missed = 0
        for b_idx, start in enumerate(range(0, trials, batch)):
            b_size = min(batch, trials - start)
            ranks = np.argsort(trial_rng(master_seed, b_idx).random((b_size, n)), axis=1)
            for t in range(b_size):
                arrival = vals_desc[ranks[t]]
                bd = run_secretary(arrival, beta, k)
                ub = run_secretary_unbounded(arrival, beta)
                alg_sum += bd.ell_value
                bench_sum += top_ell(arrival, ell).value
                differ += int(len(ub.accepted) > k)
                missed += int(ell > n or vals_desc[ell - 1] not in ub.accepted_values)
        if n >= 256:
            # the candidate filter's edges: six or more rank blocks that start
            # at ell 2^i, a tie group across one of those starts, a nonempty
            # interval 0 and a binding k
            starts = [ell * 2 ** i for i in range(int(math.log2(n / ell)) + 1)]
            assert len(starts) >= 6 and bounds[0] > 0 and differ > 0
            assert not ties or any(vals_desc[s - 1] == vals_desc[s] for s in starts if s < n)
        assert stats.trials == trials
        assert stats.ratio == pytest.approx(alg_sum / bench_sum, abs=1e-12)
        assert stats.extras["prob_capacity_differs"] == pytest.approx(differ / trials, abs=1e-12)
        assert stats.extras["prob_ell_missed"] == pytest.approx(missed / trials, abs=1e-12)

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        n, ell, k = 200, 3, 24
        values = np.random.default_rng(77).integers(0, 50, size=n).astype(float)
        beta = default_beta(n, ell, k)
        monkeypatch.setattr(experiments, "BATCH_SIZE", 1_000)
        whole = secretary_trials(values, beta, k, trials=2_500, master_seed=78)
        monkeypatch.setattr(experiments, "_RANK_CHUNK_CELLS", 333 * n)
        chunked = secretary_trials(values, beta, k, trials=2_500, master_seed=78)
        assert chunked == whole

    def test_chunking_leaves_results_unchanged_at_n2000(self, monkeypatch):
        # the benchmark's regime: 925 of the 2000 values underflow to tied zeros
        n, ell, k = 2000, 2, 40
        values = 2.0 ** -np.arange(n)
        assert np.count_nonzero(values == 0) == 925
        beta = default_beta(n, ell, k)
        monkeypatch.setattr(experiments, "BATCH_SIZE", 1_000)
        monkeypatch.setattr(experiments, "_RANK_CHUNK_CELLS", 1 << 20)
        whole = secretary_trials(values, beta, k, trials=2_500, master_seed=79)
        monkeypatch.setattr(experiments, "_RANK_CHUNK_CELLS", 333 * n)
        chunked = secretary_trials(values, beta, k, trials=2_500, master_seed=79)
        assert chunked == whole

    def test_empirical_bounds_smaller_scale(self):
        # shrunken version of the guarantee chain: ratio and the two event
        # probabilities against their analytic bounds
        n, ell, k = 400, 2, 30
        values = np.array([2.0 ** -r for r in range(n)])
        beta = default_beta(n, ell, k)
        s = secretary_phase_length(ell, k)
        stats = secretary_trials(values, beta, k, trials=20_000, master_seed=3131)
        bound = 1 - ell * math.exp(-s) - math.exp(-k / 6)
        assert stats.ratio + 3 * stats.ratio_stderr >= bound
        assert stats.extras["prob_capacity_differs"] <= math.exp(-k / 6) \
            + 3 * stats.extras["prob_capacity_differs_stderr"]
        assert stats.extras["prob_ell_missed"] <= ell * math.exp(-s) \
            + 3 * stats.extras["prob_ell_missed_stderr"]
