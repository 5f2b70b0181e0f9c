"""The shared threshold-rule kernel of the batch engines.

`_threshold_top` reads the selector's top-ell block off the benchmark's
top-ell block and runs the capacity cut only on rows where it binds. These
tests hold it, and its top-m helper `top_block`, to references that share no
code with it (every row through `prophet.accept_first`, the top ell by
`np.sort`), and to the scalar selectors and mechanism. The revenue engine is
replayed row by row through the scalar revenue mechanism. The streaming
estimator `_Moments` is held to a two-pass numpy computation, and the
sample-threshold engine to its full-matrix form on an instance that is not
i.i.d. Every engine is held to the batch schedule of `_run_batches`.
"""

import itertools
import math

import numpy as np
import pytest

from overbook import experiments
from overbook.distributions import (
    ProductInstance,
    ValueDistribution,
    hard_prophet_instance,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    single_sample_hard_instance,
    virtual_value,
)
from overbook.experiments import (
    _Moments,
    _threshold_top,
    alg_tau_trials,
    mechanism_revenue_trials,
    mechanism_welfare_trials,
    top_block,
)
from overbook.harness import ExperimentSpec, run_experiment
from overbook.mechanisms import MechanismConfig, myerson_virtual_surplus, run_two_phase
from overbook.oracle import top_ell
from overbook.prophet import TWO_THIRDS, accept_first, alg_max, alg_max_atoms, alg_tau
from overbook.secretary import default_beta
from overbook.seeding import batch_indices, trial_rng
from test_distributions import _ks_critical_1pct, _ks_statistic, _three_atom_components

ROWS, N = 400, 12


def _full_path(values, thr, k, first_ge):
    """Every row through the scalar rule `accept_first`: the accepted values,
    0.0 elsewhere."""
    chosen = np.zeros_like(values)
    for r, t in enumerate(np.broadcast_to(thr, len(values)).tolist()):
        accepted = accept_first(values[r].tolist(), t, k, first_ge)
        chosen[r, accepted] = values[r, accepted]
    return chosen


def _top_sums(values, thr, k, ell, first_ge=False):
    """The kernel's selector and benchmark blocks, summed per row."""
    alg, bench, _ = _threshold_top(values, thr, k, ell, first_ge)
    return alg.sum(axis=1), bench.sum(axis=1)


def _unbounded_counts(values, thr, first_ge):
    t = thr[:, None] if np.ndim(thr) else thr
    counts = np.count_nonzero(values > t, axis=1)
    if first_ge:
        first = (values >= t).argmax(axis=1)
        counts += values[np.arange(len(values)), first] == thr
    return counts


def _integer_matrix(seed):
    values = np.random.default_rng(seed).integers(0, 5, size=(ROWS, N)).astype(float)
    values[:, -2:] = 5.0  # every row accepts at least two values
    return values


@pytest.mark.parametrize("first_ge", [False, True], ids=["strict", "atoms"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar-thr", "row-thr"])
@pytest.mark.parametrize("regime", ["none-bind", "some-bind", "all-bind"])
@pytest.mark.parametrize("ell", [1, 2, 3, N - 1, N])
def test_kernel_matches_full_path(ell, regime, per_row, first_ge):
    values = _integer_matrix(ell)
    thr = (np.random.default_rng(100 + ell).integers(0, 5, ROWS).astype(float)
           if per_row else 2.0)
    counts = _unbounded_counts(values, thr, first_ge)
    k = {"none-bind": int(counts.max()),
         "some-bind": int(np.median(counts)),
         "all-bind": int(counts.min()) - 1}[regime]
    binding = np.count_nonzero(counts > k)
    assert k >= 1
    assert {"none-bind": binding == 0, "some-bind": 0 < binding < ROWS,
            "all-bind": binding == ROWS}[regime]
    if first_ge:
        # rows whose first value >= thr equals thr take the extra branch
        first = (values >= (thr[:, None] if per_row else thr)).argmax(axis=1)
        assert np.any(values[np.arange(ROWS), first] == thr)

    alg_block, bench_block, binds = _threshold_top(values, thr, k, ell, first_ge)
    assert np.array_equal(binds, counts > k)
    chosen = _full_path(values, thr, k, first_ge)
    # the blocks hold the ell largest accepted values and the ell largest values
    assert np.array_equal(np.sort(alg_block, axis=1), np.sort(chosen, axis=1)[:, -ell:])
    assert np.array_equal(np.sort(bench_block, axis=1), np.sort(values, axis=1)[:, -ell:])
    alg, bench = alg_block.sum(axis=1), bench_block.sum(axis=1)
    ref_alg, ref_bench = (np.sort(b, axis=1)[:, -ell:].sum(axis=1) for b in (chosen, values))
    if ell <= 2:
        assert np.array_equal(alg, ref_alg)
        assert np.array_equal(bench, ref_bench)
    else:
        np.testing.assert_allclose(alg, ref_alg, rtol=1e-12, atol=0)
        np.testing.assert_allclose(bench, ref_bench, rtol=1e-12, atol=0)


def test_top_block_rowwise():
    mat = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 9.0]])
    assert np.array_equal(np.sort(top_block(mat, 2), axis=1), [[2.0, 3.0], [0.0, 9.0]])


@pytest.mark.parametrize("n", [1, 2, 40])
def test_top_block_matches_sort(n):
    m = np.random.default_rng(n).exponential(size=(300, n))
    m[::5, 0] = m[::5, -1]  # ties
    for ell in sorted({1, 2, n - 1, n, n + 1} - {0}):
        want = np.sort(m, axis=1)[:, -ell:]
        assert np.array_equal(np.sort(top_block(m, ell), axis=1), want)


def _bits(a):
    """The IEEE bit patterns of an array, in row-major order."""
    return np.ascontiguousarray(a).view(np.uint64)


#: (n, m) for every path of `top_block`: the row max; on F-ordered rows the
#: column sweep (m <= _SWEEP_MAX_M), with m < n and with m >= n; the
#: partition fallback (m > _SWEEP_MAX_M); the whole row sorted (m >= n).
#: C-ordered rows take the partition or the sort at every m > 1.
_TOP_BLOCK_PATHS = {"max": (30, 1), "sweep": (30, 3), "sweep-m-at-n": (5, 5),
                    "sweep-m-above-n": (5, 7), "sweep-widest": (30, 8),
                    "partition": (30, 12), "whole-row": (12, 15)}


@pytest.mark.parametrize("path", list(_TOP_BLOCK_PATHS))
def test_top_block_is_decreasing_and_layout_free(path):
    n, m = _TOP_BLOCK_PATHS[path]
    assert (1 < min(m, n) <= experiments._SWEEP_MAX_M) == path.startswith("sweep")
    values = np.random.default_rng(n * m).exponential(size=(500, n))
    values[::3, 1:] = values[::3, :1]  # ties
    values[::7] = 0.0
    want = np.sort(values, axis=1)[:, ::-1][:, :m]
    blocks = [top_block(np.asarray(values, order=order), m) for order in "CF"]
    for block in blocks:
        assert block.shape == (500, min(m, n)) and block.flags.f_contiguous
        assert np.array_equal(_bits(block), _bits(want))
    # one summation order on every path, so every row sums to the same bits
    assert np.array_equal(_bits(blocks[0].sum(axis=1)), _bits(blocks[1].sum(axis=1)))


@pytest.mark.parametrize("first_ge", [False, True], ids=["strict", "atoms"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar-thr", "row-thr"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_threshold_top_does_not_depend_on_layout(m, per_row, first_ge):
    values = _integer_matrix(10 + m)
    thr = (np.random.default_rng(200 + m).integers(0, 5, ROWS).astype(float)
           if per_row else 2.0)
    counts = _unbounded_counts(values, thr, first_ge)
    k = int(np.median(counts))
    t = thr[:, None] if per_row else thr
    first = (values >= t).argmax(axis=1)
    # rows where k binds and rows where it does not, and a first value >= thr
    # that is exactly thr
    assert 0 < np.count_nonzero(counts > k) < ROWS
    assert np.any(values[np.arange(ROWS), first] == thr)
    out_c = _threshold_top(values, thr, k, m, first_ge)
    out_f = _threshold_top(np.asfortranarray(values), thr, k, m, first_ge)
    assert np.array_equal(out_c[2], out_f[2]) and np.array_equal(out_c[2], counts > k)
    for c_block, f_block in zip(out_c[:2], out_f[:2]):
        assert np.array_equal(_bits(c_block), _bits(f_block))
        assert np.all(np.diff(f_block, axis=1) <= 0)
        assert np.array_equal(_bits(c_block.sum(axis=1)), _bits(f_block.sum(axis=1)))


def _binding_share(values, thr, k, first_ge=False):
    counts = _unbounded_counts(values, thr, first_ge)
    return np.count_nonzero(counts > k) / len(counts)


def test_kernel_replays_scalar_alg_tau():
    n, tau, k, ell = 20, 8, 5, 2
    inst = ProductInstance.iid(ValueDistribution.exponential(1.0), n)
    rng = np.random.default_rng(2024)
    samples, values = inst.sample_matrix(rng, 300), inst.sample_matrix(rng, 300)
    thr = np.partition(samples, n - tau, axis=1)[:, n - tau].copy()
    assert 0 < _binding_share(values, thr, k) < 1
    alg, _ = _top_sums(values, thr, k, ell)
    replay = [alg_tau(s, v, tau, k, ell, rng).ell_value for s, v in zip(samples, values)]
    assert alg.tolist() == replay


def test_kernel_replays_scalar_alg_max():
    n, k, ell = 30, 3, 2
    inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), n)
    values = inst.sample_matrix(np.random.default_rng(2025), 300)
    thr = max_quantile(inst, TWO_THIRDS ** (k - 1))
    assert 0 < _binding_share(values, thr, k) < 1
    alg, _ = _top_sums(values, thr, k, ell)
    assert alg.tolist() == [alg_max(inst, v, k, ell).ell_value for v in values]


def test_kernel_replays_scalar_alg_max_atoms():
    n, k, ell = 12, 6, 2
    dist = ValueDistribution.finite([(0.0, 0.4), (1.0, 0.3), (2.0, 0.2), (3.0, 0.1)])
    inst = ProductInstance.iid(dist, n)
    thr = max_quantile_inf(inst, TWO_THIRDS ** (k - 2))
    # the instance's own draws sit at or below thr = 2 and never bind, so the
    # replayed rows also take the atom 4 above it
    assert thr == 2.0
    values = np.random.default_rng(2026).integers(0, 5, size=(300, n)).astype(float)
    assert 0 < _binding_share(values, thr, k, first_ge=True) < 1
    assert np.any(values[np.arange(300), (values >= thr).argmax(axis=1)] == thr)
    alg, _ = _top_sums(values, thr, k, ell, first_ge=True)
    assert alg.tolist() == [alg_max_atoms(inst, v, k, ell).ell_value for v in values]


def _without_capacity(real):
    """A wrong kernel: it never applies the capacity cut."""
    def kernel(values, thr, k, m, first_ge=False):
        return real(values, thr, values.shape[1], m, first_ge)
    return kernel


def _ignoring_first_ge(real):
    """A wrong kernel: it runs the strict rule where the atoms rule is asked for."""
    def kernel(values, thr, k, m, first_ge=False):
        return real(values, thr, k, m)
    return kernel


_UNIFORM = {"kind": "uniform-interval", "params": {"lo": 0.0, "hi": 1.0}}
#: max_quantile_inf puts the atoms rule's threshold at the top atom 2.0
_TOP_ATOM = {"kind": "finite-support", "params": {"atoms": [[0.0, 0.5], [1.0, 0.25],
                                                            [2.0, 0.25]]}}


@pytest.mark.parametrize("kind,source,dist,ell,k,fault", [
    ("prophet-tau", None, _UNIFORM, 2, 4, _without_capacity),
    ("prophet-max", None, _UNIFORM, 2, 2, _without_capacity),
    ("mechanism-welfare", "alg_max", _UNIFORM, 2, 2, _without_capacity),
    ("mechanism-welfare", "alg_tau-sample", _UNIFORM, 2, 4, _without_capacity),
    ("prophet-max", None, _TOP_ATOM, 1, 4, _ignoring_first_ge),
    ("mechanism-revenue", None, _UNIFORM, 2, 4, _without_capacity),
], ids=["prophet-tau-no-cut", "prophet-max-no-cut", "welfare-alg_max-no-cut",
        "welfare-alg_tau-sample-no-cut", "prophet-max-atoms-no-first-ge", "revenue-no-cut"])
def test_trace_check_catches_a_wrong_kernel(kind, source, dist, ell, k, fault, monkeypatch):
    # one replayed batch per _REPLAY_ROWS rows, so every row is replayed: k
    # binds on about 1% of the rows at the max-distribution threshold
    monkeypatch.setattr(experiments, "BATCH_SIZE", experiments._REPLAY_ROWS)
    spec = ExperimentSpec(kind, 30, ell, k, 4_000, 5, distribution={"iid": dist},
                          source=source)
    report = run_experiment(spec)
    assert report.extras["trace_mismatches"] == 0 and report.passed

    monkeypatch.setattr(experiments, "_threshold_top", fault(experiments._threshold_top))
    report = run_experiment(spec)
    assert report.extras["trace_mismatches"] > 0 and not report.passed


@pytest.mark.parametrize("source", ["alg_max", "alg_tau-sample"])
def test_welfare_trace_check_is_exact_at_large_values(source):
    # the replay used to compare welfare sums with an absolute 1e-9
    # tolerance: values near 1e8 summed in another order gave 11 (alg_max)
    # and 13 (alg_tau-sample) mismatches, and a FAIL
    spec = ExperimentSpec("mechanism-welfare", 100, 3, 12, 20_000, 1, source=source,
                          distribution={"iid": {"kind": "uniform-interval",
                                                "params": {"lo": 0.0, "hi": 1e8}}})
    report = run_experiment(spec)
    assert report.extras["trace_mismatches"] == 0 and report.passed


def test_welfare_replay_reads_sparse_rows_as_full_rows(monkeypatch):
    # several runs at the fixed alg_max threshold: reduced rows from
    # `_sparse_rows`, which the scalar rule replays as whole rows
    unif, expo = ValueDistribution.uniform(0.0, 1.0), ValueDistribution.exponential(2.0)
    inst = ProductInstance([unif] * 5 + [expo] * 4 + [ValueDistribution.uniform(0.2, 1.5)] * 3)
    monkeypatch.setattr(experiments, "BATCH_SIZE", 500)
    stats = mechanism_welfare_trials(inst, 2, 3, 4_000, 5)
    assert stats.extras["trace_mismatches"] == 0
    assert stats.ratio == experiments.alg_max_trials(inst, 2, 3, 4_000, 5).ratio


def _revenue_replay(prior, n, ell, k, tau, trials, seed, batch):
    """`mechanism_revenue_trials`'s rows replayed one by one through the scalar
    revenue mechanism: the revenue, optimal and identity-gap means, the rows
    where k binds and the rows whose threshold is the monopoly floor."""
    instance, floor = ProductInstance.iid(prior, n), monopoly_price(prior)
    revenue, optimal, gap = [], [], []
    binding = floored = 0
    for b_idx, b_size in batch_indices(trials, batch):
        rng = trial_rng(seed, b_idx)
        ranks = instance.sample_rank(rng, b_size, tau)
        rows = prior.sample_n(rng, (b_size, n))
        for rank, row in zip(ranks, rows.tolist()):
            cfg = MechanismConfig(ell, k, max(floor, float(rank)), "revenue", prior)
            out = run_two_phase(row, cfg)
            revenue.append(out.revenue)
            optimal.append(top_ell([max(virtual_value(prior, v), 0.0) for v in row],
                                   ell).value)
            gap.append(out.revenue - myerson_virtual_surplus(prior, out, row))
            binding += sum(v > cfg.threshold for v in row) > k
            floored += cfg.threshold == floor
    means = [math.fsum(col) / trials for col in (revenue, optimal, gap)]
    return means, binding, floored


def _assert_revenue_matches(stats, means):
    assert stats.extras["revenue_mean"] == pytest.approx(means[0], rel=1e-12)
    assert stats.extras["optimal_mean"] == pytest.approx(means[1], rel=1e-12)
    assert stats.extras["identity_gap"] == pytest.approx(means[2], rel=1e-12)


@pytest.mark.parametrize("prior,n,k,tau", [
    (ValueDistribution.uniform(0.0, 1.0), 20, 3, 6),     # k binds on most rows
    (ValueDistribution.exponential(2.0), 20, 4, 10),     # the monopoly floor on most rows
    (ValueDistribution.uniform(0.0, 1.0), 3, 2, 2),      # negative virtual values in the top ell
], ids=["uniform", "exponential", "uniform-n3"])
def test_revenue_engine_matches_scalar_replay(prior, n, k, tau, monkeypatch):
    ell, trials, batch, seed = 2, 300, 120, 29
    monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
    stats = mechanism_revenue_trials(prior, n, ell, k, tau, trials, seed)
    means, binding, floored = _revenue_replay(prior, n, ell, k, tau, trials, seed, batch)
    assert binding > 0 and floored > 0
    _assert_revenue_matches(stats, means)
    assert stats.extras["binding_frac"] == binding / trials
    assert stats.extras["trace_mismatches"] == 0


@pytest.mark.parametrize("n", [1, 2])
def test_revenue_engine_with_n_at_most_ell(n, monkeypatch):
    # no row has an (ell+1)-th ticket, so every winner pays the threshold;
    # the engine used to raise IndexError reading that ticket's column
    prior = ValueDistribution.uniform(0.0, 1.0)
    ell, k, tau, trials, batch, seed = 2, 2, 1, 300, 120, 29
    monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
    stats = mechanism_revenue_trials(prior, n, ell, k, tau, trials, seed)
    means, _, floored = _revenue_replay(prior, n, ell, k, tau, trials, seed, batch)
    assert floored > 0
    _assert_revenue_matches(stats, means)
    assert stats.extras["trace_mismatches"] == 0


def _alg_tau_partition_form(instance, ell, k, tau, trials, master_seed, batch):
    """`alg_tau_trials` with each threshold read off a partitioned sample matrix."""
    n = instance.n
    acc = _Moments(2)
    for b_idx, b_size in batch_indices(trials, batch):
        rng = trial_rng(master_seed, b_idx)
        samples = instance.sample_matrix(rng, b_size)
        values = instance.sample_matrix(rng, b_size)
        thr = np.partition(samples, n - tau, axis=1)[:, n - tau].copy()
        acc.add(*_top_sums(values, thr, k, ell))
    return acc.ratio_stderr()


def test_alg_tau_on_non_iid_instance_keeps_partition_form(monkeypatch):
    unif, expo = ValueDistribution.uniform(0.0, 2.0), ValueDistribution.exponential(1.5)
    inst = ProductInstance([unif] * 5 + [expo] * 4 + [ValueDistribution.uniform(0.0, 1.0)]
                           + [unif] * 2)
    args = (inst, 2, 5, 4, 2_500, 17)
    monkeypatch.setattr(experiments, "BATCH_SIZE", 1_000)
    stats = alg_tau_trials(*args)
    assert (stats.ratio, stats.ratio_stderr) == _alg_tau_partition_form(*args, 1_000)


def _kernel_sums(instance, seed, trials, thr, k, ell, full=False):
    """Per-row selector and benchmark sums of the kernel on `sample_rows`, or
    with `full` on `sample_matrix` rows, and the per-row count above the
    threshold, capped at ell + 1. A string `thr` "tau=t" draws each row's
    threshold as the t-th highest of a fresh sample."""
    rng = np.random.default_rng(seed)
    if isinstance(thr, str):
        thr = instance.sample_rank(rng, trials, int(thr.split("=")[1]))
    if full:
        rows = instance.sample_matrix(rng, trials)
    else:
        rows = instance.sample_rows(rng, trials, thr, ell, k)
    alg, bench, _ = _threshold_top(rows, thr, k, ell)
    count = np.count_nonzero(rows > np.broadcast_to(thr, trials)[:, None], axis=1)
    return alg.sum(axis=1), bench.sum(axis=1), count


_UNIF = ValueDistribution.uniform(0.0, 1.0)
_EXP = ValueDistribution.exponential(1.0)


@pytest.mark.parametrize("dist,n,ell,k,thr,regime", [
    (_UNIF, 100, 1, 12, float(_UNIF.isf(1 - TWO_THIRDS ** (11 / 100))), "binds top"),
    (_UNIF, 50, 1, 1, 0.9, "binds top sparse"),
    (_UNIF, 20, 2, 3, "tau=10", "binds top"),
    (_EXP, 400, 2, 200, "tau=101", "top"),
    (_EXP, 40, 3, 5, float(_EXP.isf(3 / 40)), "binds top sparse"),
    (_EXP, 30, 2, 2, "tau=3", "binds top sparse"),
    (_EXP, 40, 3, 40, float(_EXP.isf(6 / 40)), "top sparse"),
    (_UNIF, 30, 2, 30, "tau=5", "top"),
    (_EXP, 50, 2, 10, "tau=10", "binds top"),
], ids=["unif-alg_max", "unif-k1", "unif-tau10", "exp-n400-tau101", "exp-ell3", "exp-tau3",
        "exp-ell3-all-top", "unif-tau5-all-top", "exp-tau10-mixed"])
def test_reduced_rows_match_full_rows_in_law(dist, n, ell, k, thr, regime):
    # "binds": some rows have more than k values above the threshold; "top":
    # some have at most k, so a reduced row holds only its first value above
    # it and the top ell of the rest; "sparse": some have fewer than ell, so
    # the benchmark reads values below it. A reduced row that cannot bind
    # holds at most ell + 1 values above the threshold, so the count is
    # compared capped at ell + 1, and as the flag count > k: all that the
    # rules read of it
    trials, inst = 5_000, ProductInstance.iid(dist, n)
    got_alg, got_bench, got_count = _kernel_sums(inst, 41, trials, thr, k, ell)
    want_alg, want_bench, want_count = _kernel_sums(inst, 42, trials, thr, k, ell, full=True)
    for count in (got_count, want_count):
        assert np.any(count > k) == ("binds" in regime)
        assert np.any(count <= k) == ("top" in regime)
        assert np.any(count < ell) or "sparse" not in regime
    if "binds" not in regime:
        assert got_count.max() <= ell + 1
    critical = _ks_critical_1pct(trials, trials)
    assert _ks_statistic(np.minimum(got_count, ell + 1), np.minimum(want_count, ell + 1)) < critical
    assert _ks_statistic(got_count > k, want_count > k) < critical
    assert _ks_statistic(got_alg, want_alg) < critical
    assert _ks_statistic(got_bench, want_bench) < critical


def _enumerated_atoms_ratio(instance, ell, k):
    """E[top-ell accepted by the scalar atoms rule] / E[top-ell of all values],
    summed over every outcome of a small finite instance."""
    alg = bench = 0.0
    for outcome in itertools.product(*(c.atoms for c in instance.components)):
        values = [v for v, _ in outcome]
        prob = math.prod(p for _, p in outcome)
        alg += prob * alg_max_atoms(instance, values, k, ell).ell_value
        bench += prob * top_ell(values, ell).value
    return alg / bench


_UNIF6 = ProductInstance.iid(ValueDistribution.uniform(0.0, 1.0), 6)
_ATOMS6 = ProductInstance.iid(
    ValueDistribution.finite([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]), 6)


@pytest.mark.parametrize("instance,ell,k", [
    (hard_prophet_instance(2, 4), 1, 2),
    (hard_prophet_instance(3, 5), 2, 3),
    (hard_prophet_instance(4, 6), 1, 4),     # the threshold is the lowest atom, 0
    (hard_prophet_instance(4, 5), 2, 2),
    (single_sample_hard_instance(3, 2, 2.0, 6), 1, 2),
    (single_sample_hard_instance(4, 3, 1.5, 6), 1, 3),
    (single_sample_hard_instance(3, 2, 2.0, 5), 2, 3),
    (_three_atom_components(5), 2, 3),
    (_ATOMS6, 1, 2),
    (_ATOMS6, 2, 3),
], ids=["hard-k2", "hard-k3-ell2", "hard-k4-thr0", "hard-k4-ell2", "single-sample-k2",
        "single-sample-k3", "single-sample-k3-ell2", "three-atom-n5", "iid-atoms-k2",
        "iid-atoms-k3-ell2"])
def test_alg_max_atoms_trials_match_enumerated_ratio(instance, ell, k):
    # an oracle independent of the engine: every outcome of the instance,
    # scored by the scalar selector and the scalar top-ell
    exact = _enumerated_atoms_ratio(instance, ell, k)
    stats = experiments.alg_max_atoms_trials(instance, ell, k, 100_000, 5)
    assert stats.ratio_stderr > 0
    assert abs(stats.ratio - exact) <= 4 * stats.ratio_stderr


def test_binding_frac_counts_rows_where_k_binds(monkeypatch):
    inst, k, trials, seed, batch = ProductInstance.iid(_UNIF, 30), 4, 900, 11, 300
    monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
    stats = experiments.alg_max_trials(inst, 1, k, trials, seed)
    thr = max_quantile(inst, TWO_THIRDS ** (k - 1))
    binding = 0
    for b_idx, b_size in batch_indices(trials, batch):
        rows = inst.sample_rows(trial_rng(seed, b_idx), b_size, thr, 1, k)
        binding += np.count_nonzero(np.count_nonzero(rows > thr, axis=1) > k)
    assert 0 < binding < trials
    assert stats.extras["binding_frac"] == binding / trials


def test_moments_extra_column_leaves_others_bit_identical():
    # the merge is elementwise, so a 0/1 column such as the binding flag does
    # not move the other columns' estimates or stderrs
    rng = np.random.default_rng(10)
    a, b = rng.exponential(size=1_001), 1.0 + rng.random(1_001)
    flag = (rng.random(1_001) < 0.3).astype(float)
    two = _batched(_Moments(2), (a, b), 97)
    three = _batched(_Moments(3), (a, b, flag), 97)
    assert two.ratio_stderr() == three.ratio_stderr()
    assert two.mean_stderr(0) == three.mean_stderr(0)
    assert two.mean_stderr(1) == three.mean_stderr(1)


def _batched(acc, cols, batch):
    for lo in range(0, len(cols[0]), batch):
        acc.add(*(c[lo:lo + batch] for c in cols))
    return acc


def test_moments_stable_at_large_scale():
    # values near 1e7, a ratio near 1 and small losses: raw power sums of
    # this data cancel, giving a ratio stderr of 6.4e-11 where the two-pass
    # value is 1.3e-12
    rng = np.random.default_rng(8)
    b = 1e7 + rng.random(50_000)
    a = b - 0.01 * rng.random(50_000)
    acc = _batched(_Moments(2), (a, b), 20_000)
    ratio, se = acc.ratio_stderr()
    r = a.sum() / b.sum()
    assert ratio == pytest.approx(r, rel=1e-15)
    assert se == pytest.approx((a - r * b).std(ddof=1) / math.sqrt(len(a)) / b.mean(),
                               rel=1e-6)
    mean, mean_se = _batched(_Moments(1), (b,), 20_000).mean_stderr()
    assert mean == pytest.approx(b.mean(), rel=1e-15)
    assert mean_se == pytest.approx(b.std(ddof=1) / math.sqrt(len(b)), rel=1e-9)


class _FullProductMoments(_Moments):
    """`_Moments` with every co-moment its own product, w^2 of them per
    batch: the reference that the mirrored upper triangle must match."""

    def add(self, *cols):
        if not self.count:
            self._exp = [math.frexp(float(np.abs(c).max()))[1] for c in cols]
        cols = [np.ldexp(np.asarray(c, dtype=float), -e) for c, e in zip(cols, self._exp)]
        size = len(cols[0])
        sums = [float(c.sum()) for c in cols]
        mean = np.array(sums) / size
        dev = [c - mu for c, mu in zip(cols, mean)]
        comoment = np.array([[float((di * dj).sum()) for dj in dev] for di in dev])
        total = self.count + size
        delta = mean - self._mean
        self._comoment += comoment + np.outer(delta, delta) * (self.count * size / total)
        self._mean += delta * (size / total)
        self._sums = [s + b for s, b in zip(self._sums, sums)]
        self.count = total


@pytest.mark.parametrize("scale", [-600, 0, 600])
@pytest.mark.parametrize("width", [1, 2, 4, 5])
def test_moments_mirrored_comoments_match_every_product(scale, width):
    # IEEE multiplication commutes, so each mirrored entry is the product the
    # full w x w loop computes, bit for bit, at any scale of values
    rng = np.random.default_rng(11 + width)
    cols = [np.ldexp(rng.standard_normal(1_003) * rng.uniform(0.5, 4.0), scale + s)
            for s in rng.integers(-3, 4, size=width)]
    if width > 1:
        cols[-1] = (cols[-1] > 0).astype(float)  # a 0/1 column, as the engines add
    got = _batched(_Moments(width), cols, 97)
    want = _batched(_FullProductMoments(width), cols, 97)
    assert np.array_equal(got._comoment, want._comoment)
    assert np.array_equal(got._mean, want._mean) and got._sums == want._sums
    assert np.array_equal(got._comoment, got._comoment.T)
    assert [got.mean_stderr(i) for i in range(width)] == [
        want.mean_stderr(i) for i in range(width)]


def test_moments_merge_matches_one_batch():
    rng = np.random.default_rng(9)
    cols = (rng.exponential(size=1_001), rng.random(1_001), rng.normal(size=1_001))
    whole = _batched(_Moments(3), cols, 1_001)
    merged = _batched(_Moments(3), cols, 97)
    for i in range(3):
        assert merged.mean_stderr(i) == pytest.approx(whole.mean_stderr(i), rel=1e-12)
    assert merged.ratio_stderr(0, 1) == pytest.approx(whole.ratio_stderr(0, 1), rel=1e-12)
    assert merged.ratio_stderr(2, 1) == pytest.approx(whole.ratio_stderr(2, 1), rel=1e-12)


#: One small call of each engine, as f(trials, master_seed).
ENGINES = {
    "alg_tau": lambda t, s: experiments.alg_tau_trials(_UNIF6, 1, 2, 2, t, s),
    "alg_max": lambda t, s: experiments.alg_max_trials(_UNIF6, 1, 2, t, s),
    "alg_max_atoms": lambda t, s: experiments.alg_max_atoms_trials(_ATOMS6, 1, 3, t, s),
    "secretary": lambda t, s: experiments.secretary_trials(
        np.arange(6.0), default_beta(6, 1, 2), 2, t, s),
    "mechanism_welfare": lambda t, s: experiments.mechanism_welfare_trials(
        _UNIF6, 1, 2, t, s),
    "mechanism_revenue": lambda t, s: experiments.mechanism_revenue_trials(
        ValueDistribution.uniform(0.0, 1.0), 6, 1, 2, 2, t, s),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_follows_the_batch_schedule(engine, monkeypatch):
    # trial_rng is looked up at call time, so a tracer that swaps the module
    # attribute sees every batch stream
    batch, seed = 7, 4321
    trials = 2 * batch + 1
    monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
    calls, estimators = [], []
    real_rng = experiments.trial_rng

    def recorded_rng(master_seed, index):
        calls.append((master_seed, index))
        return real_rng(master_seed, index)

    class RecordedMoments(_Moments):
        def __init__(self, width):
            super().__init__(width)
            estimators.append(self)

    monkeypatch.setattr(experiments, "trial_rng", recorded_rng)
    monkeypatch.setattr(experiments, "_Moments", RecordedMoments)
    out = ENGINES[engine](trials, seed)
    assert calls == [(seed, 0), (seed, 1), (seed, 2)]
    assert [m.count for m in estimators] == [trials]
    assert getattr(out, "trials", trials) == trials
