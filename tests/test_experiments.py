"""The shared threshold-rule kernel of the batch engines.

`_threshold_top` reads the selector's top-ell block off the benchmark's
top-ell block and runs the capacity cut only on rows where it binds. These
tests hold it to the full path (cut every row, mask, take the top ell) and
to the scalar selectors and mechanism. The revenue engine is replayed row by
row through the scalar revenue mechanism. The streaming estimator `_Moments` is
held to a two-pass numpy computation, and the sample-threshold engine to its
full-matrix form on an instance that is not i.i.d. Every engine is held to the
batch schedule of `_run_batches`.
"""

import math

import numpy as np
import pytest

from overbook import experiments
from overbook.distributions import (
    ProductInstance,
    ValueDistribution,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    virtual_value,
)
from overbook.experiments import (
    _first_k,
    _Moments,
    _threshold_top,
    alg_tau_trials,
    mechanism_revenue_trials,
    mechanism_welfare_trials,
)
from overbook.harness import ExperimentSpec, run_experiment
from overbook.mechanisms import MechanismConfig, myerson_virtual_surplus, run_two_phase
from overbook.oracle import top_ell, top_ell_values
from overbook.prophet import TWO_THIRDS, alg_max, alg_max_atoms, alg_tau
from overbook.secretary import default_beta
from overbook.seeding import batch_indices, trial_rng

ROWS, N = 400, 12


def _full_path(values, thr, k, first_ge):
    """Every row through the capacity cut: the accepted values, 0.0 elsewhere."""
    t = thr[:, None] if np.ndim(thr) else thr
    if not first_ge:
        return np.where(_first_k(values > t, k), values, 0.0)
    ge = values >= t
    has_first = ge.any(axis=1)
    first = ge.argmax(axis=1)
    later = ge & (values > t) & (np.arange(values.shape[1])[None, :] > first[:, None])
    chosen_vals = np.where(_first_k(later, k - 1), values, 0.0)
    rows = np.nonzero(has_first)[0]
    chosen_vals[rows, first[rows]] = values[rows, first[rows]]
    return chosen_vals


def _top_sums(values, thr, k, ell, first_ge=False):
    """The kernel's selector and benchmark blocks, summed per row."""
    alg, bench = _threshold_top(values, thr, k, ell, first_ge)
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

    alg_block, bench_block = _threshold_top(values, thr, k, ell, first_ge)
    chosen = _full_path(values, thr, k, first_ge)
    # the blocks hold the ell largest accepted values and the ell largest values
    assert np.array_equal(np.sort(alg_block, axis=1), np.sort(chosen, axis=1)[:, -ell:])
    assert np.array_equal(np.sort(bench_block, axis=1), np.sort(values, axis=1)[:, -ell:])
    alg, bench = alg_block.sum(axis=1), bench_block.sum(axis=1)
    ref_alg, ref_bench = top_ell_values(chosen, ell), top_ell_values(values, ell)
    if ell <= 2:
        assert np.array_equal(alg, ref_alg)
        assert np.array_equal(bench, ref_bench)
    else:
        np.testing.assert_allclose(alg, ref_alg, rtol=1e-12, atol=0)
        np.testing.assert_allclose(bench, ref_bench, rtol=1e-12, atol=0)


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


def test_welfare_trace_check_catches_a_wrong_kernel(monkeypatch):
    # tau = 10 of n = 20 puts about ten values above the threshold, so k = 2 binds
    inst = ProductInstance.iid(ValueDistribution.uniform(0, 1), 20)
    monkeypatch.setattr(experiments, "BATCH_SIZE", 300)
    args = dict(source="alg_tau-sample", tau=10)
    assert mechanism_welfare_trials(inst, 1, 2, 900, 5, **args).trace_mismatches == 0

    monkeypatch.setattr(experiments, "_threshold_top",
                        _without_capacity(experiments._threshold_top))
    stats = mechanism_welfare_trials(inst, 1, 2, 900, 5, **args)
    assert 0 < stats.trace_mismatches <= 3 * experiments._REPLAY_ROWS
    spec = ExperimentSpec("mechanism-welfare", 20, 1, 2, 900, 5, tau=10,
                          distribution={"iid": {"kind": "uniform-interval",
                                                "params": {"lo": 0.0, "hi": 1.0}}},
                          source="alg_tau-sample")
    report = run_experiment(spec)
    assert report.extras["trace_mismatches"] > 0 and not report.passed


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
    assert stats.revenue_mean == pytest.approx(means[0], rel=1e-12)
    assert stats.optimal_mean == pytest.approx(means[1], rel=1e-12)
    assert stats.identity_gap == pytest.approx(means[2], rel=1e-12)


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


@pytest.mark.parametrize("n", [1, 2])
def test_revenue_engine_with_n_at_most_ell(n, monkeypatch):
    # no row has an (ell+1)-th ticket, so every winner pays the threshold;
    # the engine used to raise IndexError reading that ticket's column
    prior = ValueDistribution.uniform(0.0, 1.0)
    ell, k, tau, trials, batch, seed = 2, 2, 1, 300, 120, 29
    monkeypatch.setattr(experiments, "BATCH_SIZE", batch)
    stats = mechanism_revenue_trials(prior, n, ell, k, tau, trials, seed)
    means, _, floored = _revenue_replay(prior, n, ell, k, tau, trials, seed, batch)
    assert stats.trials == trials and floored > 0
    _assert_revenue_matches(stats, means)


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
    assert alg_tau_trials(*args) == _alg_tau_partition_form(*args, 1_000)


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


def test_moments_merge_matches_one_batch():
    rng = np.random.default_rng(9)
    cols = (rng.exponential(size=1_001), rng.random(1_001), rng.normal(size=1_001))
    whole = _batched(_Moments(3), cols, 1_001)
    merged = _batched(_Moments(3), cols, 97)
    for i in range(3):
        assert merged.mean_stderr(i) == pytest.approx(whole.mean_stderr(i), rel=1e-12)
    assert merged.ratio_stderr(0, 1) == pytest.approx(whole.ratio_stderr(0, 1), rel=1e-12)
    assert merged.ratio_stderr(2, 1) == pytest.approx(whole.ratio_stderr(2, 1), rel=1e-12)


_UNIF6 = ProductInstance.iid(ValueDistribution.uniform(0.0, 1.0), 6)
_ATOMS6 = ProductInstance.iid(
    ValueDistribution.finite([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]), 6)

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
