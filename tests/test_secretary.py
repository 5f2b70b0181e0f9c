import itertools
import math
from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction

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


def _candidate_block(orders, n, ell):
    """The candidate block that `_walk_block` lays out, by brute force, for
    arrival orders given as the rank at each position (0 = largest value):
    rank g is a candidate iff fewer than ell better ranks arrive before it,
    and `before` counts them."""
    rows = []
    for order in orders:
        pos = np.empty(n, dtype=int)
        pos[np.asarray(order)] = np.arange(n)
        before = [int(np.count_nonzero(pos[:g] < pos[g])) for g in range(n)]
        rows.append([(pos[g], g, before[g]) for g in range(n) if before[g] < ell])
    block = np.full((3, max(map(len, rows)), len(rows)), n, dtype=np.int32)
    for r, cands in enumerate(rows):
        block[:, :len(cands), r] = np.array(cands).T
    return block


def _scalar_row(vals_desc, order, beta, k):
    """What `_secretary_decide` returns for one arrival order, through the
    scalar selectors: the bounded run's top-ell value, summed largest first
    as the kernel sums it, and whether the capacity cut changed the run and
    the unbounded run missed rank ell."""
    ell, n = beta.ell, len(vals_desc)
    arrival = vals_desc[np.asarray(order)]
    bounded = run_secretary(arrival, beta, k)
    unbounded = run_secretary_unbounded(arrival, beta)
    top = sum(sorted(bounded.accepted_values, reverse=True)[:ell])
    missed = ell > n or vals_desc[ell - 1] not in unbounded.accepted_values
    return top, len(unbounded.accepted) > k, missed


def _enumerated(values, beta, k):
    """The engine's three estimands, exactly, over all n! arrival orders:
    the ratio of the bounded run's mean top-ell value to the top-ell total,
    Pr[capacity differs] and Pr[rank ell missed]."""
    vals_desc = np.sort(np.asarray(values, dtype=float))[::-1]
    rows = [_scalar_row(vals_desc, order, beta, k)
            for order in itertools.permutations(range(len(vals_desc)))]
    top, differ, missed = np.array(rows, dtype=float).mean(axis=0)
    return top / vals_desc[:beta.ell].sum(), differ, missed


class TestVectorizedEngine:
    def _replay(self, values, beta, k, orders):
        """The kernel on the brute-force candidate blocks of `orders`, row
        by row against the scalar selectors; returns the blocks."""
        n = beta.n
        vals_desc = np.sort(values)[::-1]
        block = _candidate_block(orders, n, beta.ell)
        table = experiments._decision_table(vals_desc, beta)
        got = experiments._secretary_decide(*block, table, k)
        for r, order in enumerate(orders):
            assert (got[0][r], bool(got[1][r]), bool(got[2][r])) \
                == _scalar_row(vals_desc, order, beta, k)
        return block

    def test_matches_scalar_on_replayed_permutations(self):
        n, ell, k = 20, 2, 16
        values = np.array([2.0 ** -r for r in range(n)])
        beta = default_beta(n, ell, k)
        rng = np.random.default_rng(424)
        self._replay(values, beta, k, [rng.permutation(n) for _ in range(40)])

    # (n, ell, k, boundaries, duplicate values, arrival orders)
    REPLAY_CONFIGS = [
        (12, 1, 1, (3, 12), False, 37),        # nonempty interval 0, binding k
        (15, 2, 2, (4, 4, 15), True, 37),      # empty interval 1, ties
        (20, 3, 10, (0, 5, 5, 20), False, 41), # empty interval 0 and 2
        (9, 4, 4, (2, 3, 5, 7, 9), True, 29),  # ties, binding k
        (30, 5, 7, (6, 6, 10, 15, 15, 30), True, 50),
        (4, 5, 5, (1, 1, 2, 3, 4, 4), False, 23),  # ell > n
        (5, 5, 6, (0, 1, 2, 3, 4, 5), True, 23),   # ell == n, ties
        (1, 1, 1, (0, 1), False, 5),
        (40, 2, 30, (5, 12, 40), True, 45),        # non-binding k
        # long rows: a tie group's later candidate often arrives first, an
        # interval starts at or after ell, k binds
        (300, 3, 4, (10, 10, 40, 300), True, 45),
        (512, 2, 6, (30, 80, 512), False, 30),     # binding k
    ]

    @pytest.mark.parametrize("cfg", REPLAY_CONFIGS)
    def test_replay_matches_scalar(self, cfg):
        # the kernel on every order's brute-force candidate block, row by row
        # against the scalar selectors
        n, ell, k, bounds, ties, orders = cfg
        gen = np.random.default_rng(n * 100 + ell * 10 + k)
        values = (gen.integers(0, max(4, n // 16), size=n).astype(float) if ties
                  else gen.exponential(size=n))
        beta = BetaVector(bounds)
        assert (beta.n, beta.ell) == (n, ell)
        orders = [gen.permutation(n) for _ in range(orders)]
        pos, rank, _ = self._replay(values, beta, k, orders)
        if n >= 256:
            # the edges: a nonempty interval 0, a binding k, and in the tied
            # case a candidate that a later-ranked equal value arrives before
            vals_desc = np.sort(values)[::-1]
            assert bounds[0] > 0
            assert any(_scalar_row(vals_desc, o, beta, k)[1] for o in orders)
            real = rank < n
            later_first = ((vals_desc[np.minimum(rank[1:], n - 1)]
                            == vals_desc[np.minimum(rank[:-1], n - 1)])
                           & (pos[1:] < pos[:-1]) & real[1:])
            assert later_first.any() == ties

    def test_walk_lays_out_candidate_blocks(self):
        # every row of the walk is the candidate block of an arrival order:
        # increasing ranks, distinct positions, ranks 0..min(ell, n) - 1 all
        # present, `before` the earlier slots that arrive first, and below
        # ell; the int16 block holds n = 2^15 - 1, and n = 2^15 takes int32
        for n, ell, dtype in [(9, 3, np.int16), (40, 2, np.int16), (5, 7, np.int16),
                              (2**15 - 1, 4, np.int16), (2**15, 4, np.int32)]:
            pos, rank, before = _walk_block(np.random.default_rng(n), 300, n, ell)
            assert pos.dtype == rank.dtype == before.dtype == dtype
            for r in range(300):
                real = rank[:, r] < n
                assert real.sum() == np.argmin(np.r_[real, False])  # padding at the end
                p, g, b = pos[real, r], rank[real, r], before[real, r]
                assert (np.diff(g) > 0).all() and len(set(p)) == len(p) and p.max() < n
                assert list(g[:min(ell, n)]) == list(range(min(ell, n)))
                assert [int(np.count_nonzero(p[:i] < p[i])) for i in range(len(p))] == list(b)
                assert (b < ell).all()

    # (values, boundaries, k): ties, empty intervals, an interval that starts
    # at or after ell, binding k, ell >= n
    LAW_CONFIGS = [
        ((3.0, 2.0, 2.0, 1.0, 0.0, 0.0), (1, 3, 6), 2),
        ((5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2), (0, 2, 2, 7), 3),
        ((2.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0), (1, 1, 4, 7), 2),
        ((4.0, 3.0, 2.0, 1.0), (1, 1, 2, 3, 4, 4), 5),
        ((3.0, 2.0, 1.0, 1.0, 0.5, 0.1), (2, 6), 1),
        ((1.0, 1.0, 1.0, 1.0, 1.0), (1, 2, 3, 5), 3),
        ((6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0), (3, 5, 7), 2),
    ]

    @pytest.mark.parametrize("values, bounds, k", LAW_CONFIGS)
    def test_law_matches_enumeration(self, values, bounds, k):
        # all n! arrival orders through the scalar selectors against the
        # engine, within 4 stderr (the enumeration has none)
        beta = BetaVector(bounds)
        want = _enumerated(values, beta, k)
        stats = experiments.secretary_trials(np.array(values), beta, k, 60_000, 2801)
        got = [(stats.ratio, stats.ratio_stderr)]
        got += [(stats.extras[key], stats.extras[key + "_stderr"])
                for key in ("prob_capacity_differs", "prob_ell_missed")]
        for (estimate, stderr), exact in zip(got, want):
            assert abs(estimate - exact) <= 4 * stderr + 1e-12

    def test_candidate_lists_match_enumeration(self):
        # chi-square of the walk's (rank, position) lists against their exact
        # law over the 5! arrival orders at ell = 2
        n, ell, rows = 5, 2, 60_000
        block = _candidate_block(list(itertools.permutations(range(n))), n, ell)
        exact = Counter(_lists(block[0], block[1], n))
        pos, rank, _ = _walk_block(np.random.default_rng(2802), rows, n, ell)
        seen = Counter(_lists(pos, rank, n))
        assert set(seen) <= set(exact)
        expected = np.array([exact[key] * rows / 120 for key in exact])
        observed = np.array([seen[key] for key in exact])
        stat = float(((observed - expected) ** 2 / expected).sum())
        df = len(exact) - 1
        # Wilson-Hilferty: (stat / df)^(1/3) is about normal
        z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
        assert len(exact) > 20 and z < 4.0

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        n, ell, k = 200, 3, 24
        values = np.random.default_rng(77).integers(0, 50, size=n).astype(float)
        beta = default_beta(n, ell, k)
        monkeypatch.setattr(experiments, "BATCH_SIZE", 1_000)
        whole = secretary_trials(values, beta, k, trials=2_500, master_seed=78)
        chunks = _count_chunks(monkeypatch)
        monkeypatch.setattr(experiments, "_DECISION_CHUNK_CELLS", 333 * 7)
        chunked = secretary_trials(values, beta, k, trials=2_500, master_seed=78)
        assert chunked == whole
        assert len(chunks) > 3 * 3 and len(set(chunks)) > 1  # uneven chunks

    def test_chunking_leaves_results_unchanged_at_n2000(self, monkeypatch):
        # the benchmark's regime: 925 of the 2000 values underflow to tied zeros
        n, ell, k = 2000, 2, 40
        values = 2.0 ** -np.arange(n)
        assert np.count_nonzero(values == 0) == 925
        beta = default_beta(n, ell, k)
        monkeypatch.setattr(experiments, "BATCH_SIZE", 1_000)
        chunks = _count_chunks(monkeypatch)
        monkeypatch.setattr(experiments, "_DECISION_CHUNK_CELLS", 1 << 22)
        whole = secretary_trials(values, beta, k, trials=2_500, master_seed=79)
        assert len(chunks) == 3
        monkeypatch.setattr(experiments, "_DECISION_CHUNK_CELLS", 333 * n // 100)
        chunked = secretary_trials(values, beta, k, trials=2_500, master_seed=79)
        assert chunked == whole and len(chunks) > 3 + 3 * 3

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


def _exact_skip(u, big_n, f):
    """X = max{x <= N - F : C(N - x, F) / C(N, F) >= W} for W = 1 - u, in
    integers and rationals, by bisection: S(x) = C(N - x, F) / C(N, F)
    falls with x, and S(0) = 1 >= W."""
    w_total = (1 - Fraction(u)) * math.comb(big_n, f)
    lo, hi = 0, big_n - f
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(big_n - mid, f) >= w_total:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _skip_pmf(big_n, f):
    """Pr[X = x] for x = 0..N - F, exactly, rounded to floats at the end."""
    total = math.comb(big_n, f)
    return [float(Fraction(math.comb(big_n - x, f) - math.comb(big_n - x - 1, f), total))
            for x in range(big_n - f + 1)]


class _FixedUniforms:
    """Stands in for a Generator: `random(size)` returns the next `size` of
    the uniforms it was given."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        out, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(out)


class _RecordingRng:
    """Forwards `random` and `integers` to a Generator and logs each call's
    method and size; any other draw raises AttributeError."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def integers(self, low, high, dtype):
        self.calls.append(("integers", len(high)))
        return self.rng.integers(low, high, dtype=dtype)


class TestSkip:
    """`experiments._skip`, the number of non-candidates before the next
    candidate, against its law computed here from `math.comb`."""

    # (N, F): N = 1, F = 1, F = N, F = N - 1 and N = 2000 at the walk's
    # states of the benchmark's ell = 2
    GRID = [(1, 1), (2, 1), (2, 2), (7, 1), (7, 3), (7, 6), (7, 7), (40, 2), (200, 1),
            (200, 2), (200, 199), (200, 200), (1000, 50), (2000, 1), (2000, 2),
            (2000, 40), (2000, 1999), (2000, 2000)]

    @pytest.mark.parametrize("big_n, f", GRID)
    def test_matches_rational_inversion(self, big_n, f):
        # the edges 0 and 1 - 2^-53 give W = 1 and W = 2^-53
        uniforms = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53]
        uniforms += np.random.default_rng(big_n * 10_000 + f).random(200).tolist()
        want = [_exact_skip(u, big_n, f) for u in uniforms]
        got = experiments._skip(_FixedUniforms(uniforms), np.full(len(uniforms), big_n),
                                np.full(len(uniforms), f), experiments._log_factorials(2000))
        assert got.tolist() == want and want[0] == 0

    @pytest.mark.parametrize("big_n", [7, 200, 2000])
    def test_rounding_ties_follow_the_float_comparison(self, big_n):
        # at F = 1 and U = j / N, log S(X) = log W up to rounding, and the
        # bound N (1 - W) that the search starts from is X itself, an integer
        # that rounding can put just below (at N = 2000, j = 445). X is then
        # the largest x whose log S(x) >= log W in floats, and within 1 of the
        # rational inversion
        uniforms = (np.arange(1, big_n) / big_n).tolist()
        got = experiments._skip(_FixedUniforms(uniforms), np.full(len(uniforms), big_n),
                                np.ones(len(uniforms), dtype=np.int64),
                                experiments._log_factorials(2000))
        log_n = math.lgamma(big_n + 1) - math.lgamma(big_n)
        log_s = np.array([math.lgamma(big_n - y + 1) - math.lgamma(big_n - y) - log_n
                          for y in range(big_n)])
        for x, u in zip(got.tolist(), uniforms):
            assert x == np.flatnonzero(log_s >= np.log1p(-u)).max()
            assert abs(x - _exact_skip(u, big_n, 1)) <= 1

    @pytest.mark.parametrize("big_n, f", [(1998, 2), (1000, 50), (150, 24)])
    def test_law_matches_exact_pmf(self, big_n, f):
        # chi-square of 200k draws on one row each, bins merged up to an
        # expected count of 20
        draws = 200_000
        got = experiments._skip(np.random.default_rng(big_n + f), np.full(draws, big_n),
                                np.full(draws, f), experiments._log_factorials(2000))
        assert got.min() >= 0 and got.max() <= big_n - f
        observed, expected, obs, exp = [], [], 0, 0.0
        counts = np.bincount(got, minlength=big_n - f + 1)
        for x, p in enumerate(_skip_pmf(big_n, f)):
            obs, exp = obs + int(counts[x]), exp + p * draws
            if exp >= 20:
                observed.append(obs)
                expected.append(exp)
                obs, exp = 0, 0.0
        observed[-1] += obs
        expected[-1] += exp
        observed, expected = np.array(observed), np.array(expected)
        stat = float(((observed - expected) ** 2 / expected).sum())
        df = len(expected) - 1
        z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
        assert df > 20 and z < 4.0

    @pytest.mark.parametrize("n, ell", [(1, 1), (5, 7), (9, 3), (200, 2), (2000, 2)])
    def test_stream_contract(self, n, ell):
        # each of the first min(ell, n) steps draws only the idx, one per row;
        # each later step one uniform per walking row, then the idx
        rows = 500
        rng = _RecordingRng(np.random.default_rng(n))
        steps, count = experiments._candidate_walk(rng, rows, n, ell,
                                                   experiments._log_factorials(n))
        want = []
        for i in range(len(steps)):
            walking = int(np.count_nonzero(count > i))
            want += [("integers", walking)] if i < min(ell, n) else \
                [("random", walking), ("integers", walking)]
        assert rng.calls == want
        plain, _ = experiments._candidate_walk(np.random.default_rng(n), rows, n, ell,
                                               experiments._log_factorials(n))
        assert all((a == b).all() for a, b in zip(steps, plain)) and len(steps) == len(plain)


def _walk_block(rng, rows, n, ell):
    """`_candidate_walk`'s steps as one (3, width, rows) block, checking its
    counts."""
    steps, count = experiments._candidate_walk(rng, rows, n, ell,
                                               experiments._log_factorials(n))
    block = np.stack(steps, axis=1)
    assert (count == np.count_nonzero(block[1] < n, axis=0)).all()
    return block


def _lists(pos, rank, n):
    """Each row's candidates as a tuple of (rank, position) pairs."""
    return [tuple((int(g), int(p)) for g, p in zip(rank[:, r], pos[:, r]) if g < n)
            for r in range(pos.shape[1])]


def _count_chunks(monkeypatch):
    """Record the row count of every `_secretary_decide` call."""
    chunks, real = [], experiments._secretary_decide

    def recorded(pos, *args):
        chunks.append(pos.shape[1])
        return real(pos, *args)

    monkeypatch.setattr(experiments, "_secretary_decide", recorded)
    return chunks
