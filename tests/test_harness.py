import json
import math
import re

import numpy as np
import pytest

from overbook import experiments, harness
from overbook.cli import main
from overbook.experiments import TrialStats
from overbook.harness import (
    CSV_COLUMNS,
    ExperimentReport,
    ExperimentSpec,
    InvalidSpecError,
    emit_report,
    hard_instance_bound,
    load_config,
    max_selector_bound,
    run_experiment,
    run_experiments,
    secretary_bound,
    secretary_upper_bound,
    tau_selector_bound,
)
from overbook.seeding import BATCH_SIZE, derive_seed, trial_rng

UNIFORM = {"kind": "uniform-interval", "params": {"lo": 0.0, "hi": 1.0}}
EXPONENTIAL = {"kind": "exponential", "params": {"rate": 1.0}}
ATOMS = {"kind": "finite-support", "params": {"atoms": [[0.0, 0.5], [1.0, 0.3], [2.0, 0.2]]}}


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(7, 3).generate_state(4).tolist() == \
            derive_seed(7, 3).generate_state(4).tolist()

    def test_distinct_across_batches_and_masters(self):
        seeds = {tuple(derive_seed(m, b).generate_state(4))
                 for m in range(4) for b in range(16)}
        assert len(seeds) == 64

    def test_schedule_independence(self):
        # batch streams never depend on how many batches run before them
        a = trial_rng(9, 5).random(4)
        b = trial_rng(9, 5).random(4)
        assert np.array_equal(a, b)

    def test_batch_size_constant(self):
        assert BATCH_SIZE == 20_000


class TestExperimentSpec:
    def test_rejects_k_below_ell(self):
        spec = ExperimentSpec(kind="prophet-max", n=4, ell=3, k=2,
                              trials=10, master_seed=1)
        with pytest.raises(InvalidSpecError, match="k:"):
            spec.validate()

    def test_rejects_unknown_kind(self):
        spec = ExperimentSpec(kind="nope", n=4, ell=1, k=2, trials=10, master_seed=1)
        with pytest.raises(InvalidSpecError, match="kind:"):
            spec.validate()

    def test_rejects_bad_tau(self):
        spec = ExperimentSpec(kind="prophet-tau", n=4, ell=1, k=2,
                              trials=10, master_seed=1, tau=5)
        with pytest.raises(InvalidSpecError, match="tau:"):
            spec.validate()

    @pytest.mark.parametrize("field,value", [
        ("master_seed", 1.5), ("n", True), ("k", 16.0), ("n", "20"), ("master_seed", -1),
    ], ids=["float-seed", "bool-n", "float-k", "str-n", "negative-seed"])
    def test_refuses_non_integer_fields(self, field, value):
        # before: seed 1.5 ran as seed 1, n=true as n=1, k=16.0 wrote 16.0 into
        # the CSV, and "20" and -1 raised TypeError and numpy's ValueError
        entry = {"kind": "prophet-max", "n": 20, "ell": 2, "k": 16, "trials": 10,
                 "master_seed": 1, "distribution": {"iid": UNIFORM}, field: value}
        with pytest.raises(InvalidSpecError, match=f"^{field}:"):
            run_experiment(ExperimentSpec.from_json(entry))

    def test_accepts_numpy_integers(self):
        spec = ExperimentSpec(kind="prophet-max", n=np.int64(20), ell=np.int32(2),
                              k=np.int64(16), trials=np.int64(10), master_seed=np.uint32(1),
                              distribution={"iid": UNIFORM})
        assert run_experiment(spec).passed

    def test_json_round_trip(self):
        spec = ExperimentSpec(kind="prophet-max", n=4, ell=1, k=2, trials=10,
                              master_seed=1, distribution={"iid": UNIFORM})
        assert ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_unknown_key_named_through_load_config(self, tmp_path):
        entry = {"kind": "prophet-max", "n": 4, "ell": 1, "k": 2, "trials": 10,
                 "master_seed": 1, "distribution": {"iid": UNIFORM}, "trails": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiments": [entry]}))
        with pytest.raises(InvalidSpecError, match="^trails:"):
            load_config(str(path))

    def test_missing_key_named(self):
        with pytest.raises(InvalidSpecError, match="^master_seed:"):
            ExperimentSpec.from_json({"kind": "secretary", "n": 4, "ell": 1, "k": 2,
                                      "trials": 10})

    def test_non_object_refused(self):
        # a list used to be read key by key: [1] gave "1: unknown spec key"
        with pytest.raises(InvalidSpecError,
                           match=r"^top level: must be a JSON object, got \[1\]$"):
            ExperimentSpec.from_json([1])

    @pytest.mark.parametrize("name", [["a", 5], 7, {"a": 1}])
    def test_refuses_name_that_is_not_a_string(self, name):
        # ["a", 5] used to run and write "['a', 5]" into the CSV's experiment column
        spec = ExperimentSpec.from_json({"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1,
                                         "trials": 1, "master_seed": 0, "name": name})
        with pytest.raises(InvalidSpecError,
                           match=f"^name: must be a string, got {re.escape(repr(name))}$"):
            run_experiment(spec)


class TestBounds:
    def test_tau_bound_formula(self):
        ell, k, tau = 2, 200, 101
        expect = 1 - 4 * ell * math.exp(-min(k - tau, tau - ell) ** 2 / (8 * k))
        assert tau_selector_bound(ell, k, tau) == pytest.approx(expect)

    def test_max_bound_formula(self):
        assert max_selector_bound(12) == pytest.approx(1 - 1.5 * math.exp(-2))
        assert max_selector_bound(13, atoms_variant=True) == pytest.approx(
            1 - 1.5 * math.exp(-2))

    def test_secretary_bound_formula(self):
        s = (40 - 16) / (2 + 2 * math.log(2))
        assert secretary_bound(2, 40) == pytest.approx(
            1 - 2 * math.exp(-s) - math.exp(-40 / 6))

    def test_hard_instance_bound(self):
        assert hard_instance_bound(1) == pytest.approx(1 - 1 / 24)

    def test_secretary_upper_bound(self):
        assert secretary_upper_bound(10, 2) == pytest.approx(
            1.1 * (1 - math.exp(-2.0)))


class TestRunExperiment:
    def test_hard_instance_k1_exact(self):
        spec = ExperimentSpec(kind="hard-instance-dp", n=2, ell=1, k=1,
                              trials=1, master_seed=0)
        report = run_experiment(spec)
        assert report.ratio_estimate == pytest.approx(0.9, abs=1e-12)
        assert report.stderr == 0.0
        assert report.passed

    @pytest.mark.parametrize("kind,source", [("prophet-max", None),
                                             ("mechanism-welfare", "alg_max")])
    def test_rejects_k1_for_max_distribution_threshold(self, kind, source):
        # the engines would report ratio 0.0 against a vacuous bound and PASS
        spec = ExperimentSpec(kind=kind, n=10, ell=1, k=1, trials=1000, master_seed=1,
                              distribution={"iid": UNIFORM}, source=source)
        with pytest.raises(InvalidSpecError, match="^k:"):
            run_experiment(spec)

    def test_rejects_k1_for_atoms_threshold(self):
        # the atoms rule's level (2/3)^(k-2) is above 1 at k = 1
        spec = ExperimentSpec(kind="prophet-max", n=10, ell=1, k=1, trials=1000, master_seed=1,
                              distribution={"iid": ATOMS})
        with pytest.raises(InvalidSpecError, match="^k: prophet-max has no threshold at k = 1"):
            run_experiment(spec)

    def test_rejects_k2_for_atoms_threshold_on_unbounded_support(self):
        # the (2/3)^0 = 1 quantile: a bisection that stopped early put it where
        # exp(1)'s CDF rounds to 1.0, and the spec reported 0.0 and PASSed
        components = [EXPONENTIAL, {"kind": "degenerate", "params": {"value": 0.5}}, EXPONENTIAL]
        spec = ExperimentSpec(kind="prophet-max", n=3, ell=1, k=2, trials=100, master_seed=1,
                              distribution={"components": components})
        with pytest.raises(InvalidSpecError, match="^k:"):
            run_experiment(spec)

    def test_runs_k2_atoms_whose_probabilities_sum_below_one(self):
        # the probabilities sum to 0.9999999999999999. The CDF read their
        # unnormalized cumulative sums, so the max-CDF never reached the
        # (2/3)^0 = 1 quantile and this spec was refused as "k: ... no finite
        # threshold", although the sampler draws the top atom 2.0 there
        atoms = [[0.0, 0.014642150797064277], [1.0, 0.0005317522920528652],
                 [2.0, 0.9848260969108827]]
        spec = ExperimentSpec(kind="prophet-max", n=5, ell=1, k=2, trials=2_000, master_seed=1,
                              distribution={"iid": {"kind": "finite-support",
                                                    "params": {"atoms": atoms}}})
        report = run_experiment(spec)
        assert report.algorithm == "alg_max_atoms" and report.passed

    @pytest.mark.parametrize("kind,source", [("prophet-tau", None),
                                             ("mechanism-welfare", "alg_tau-sample"),
                                             ("mechanism-welfare", "alg_max"),
                                             ("mechanism-revenue", None)])
    @pytest.mark.parametrize("distribution", [
        {"iid": ATOMS},
        {"components": [UNIFORM] * 9 + [{"kind": "degenerate", "params": {"value": 0.5}}]},
    ], ids=["iid-atoms", "one-point-mass"])
    def test_rejects_atoms_for_sample_threshold(self, kind, source, distribution):
        # the batch engine has no tie-break priorities: on the iid atoms it
        # reported 0.592 where the scalar alg_tau gives 0.845. On the iid
        # atoms at k = 4 the alg_max threshold is the top atom 2.0, so the
        # mechanism's strict rule accepted nothing and reported 0.0. Revenue mode
        # also needs a density for its virtual values: its iid atoms raised
        # UndefinedVirtualValueError, and it takes no components at all
        tau = None if source == "alg_max" else 3
        spec = ExperimentSpec(kind=kind, n=10, ell=2, k=4, trials=1000, master_seed=1,
                              tau=tau, distribution=distribution, source=source)
        with pytest.raises(InvalidSpecError, match="^distribution:"):
            run_experiment(spec)

    @pytest.mark.parametrize("distribution", [
        {"iid": UNIFORM, "n": 5},
        {"components": [UNIFORM] * 12},
    ], ids=["iid-n", "components"])
    def test_component_count_must_match_n(self, distribution):
        # with 5 components and tau = 8 the sample threshold read another rank
        spec = ExperimentSpec(kind="prophet-tau", n=10, ell=1, k=9, trials=100,
                              master_seed=1, tau=8, distribution=distribution)
        with pytest.raises(InvalidSpecError, match="^distribution:"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind", ["prophet-max", "prophet-tau", "mechanism-welfare"])
    @pytest.mark.parametrize("distribution", [
        {"iid": {"kind": "degenerate", "params": {"value": 0.0}}},
        {"iid": {"kind": "finite-support", "params": {"atoms": [[0.0, 1.0]]}}},
        {"components": [{"kind": "degenerate", "params": {"value": 0.0}},
                        {"kind": "finite-support", "params": {"atoms": [[0.0, 1.0]]}}] * 5},
    ], ids=["point-mass", "one-atom", "components"])
    def test_refuses_all_zero_instance(self, kind, distribution):
        # prophet-max used to end in a raw ZeroDivisionError in the ratio's stderr
        spec = ExperimentSpec(kind=kind, n=10, ell=1, k=3, trials=100, master_seed=1,
                              distribution=distribution)
        with pytest.raises(InvalidSpecError,
                           match="^distribution: every value is 0, so the top-ell sum is 0$"):
            run_experiment(spec)

    def test_rejects_unknown_mechanism_source(self):
        spec = ExperimentSpec(kind="mechanism-welfare", n=10, ell=1, k=3, trials=100,
                              master_seed=1, distribution={"iid": UNIFORM}, source="alg-tau")
        with pytest.raises(InvalidSpecError, match="^source:"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind,field,extra", [
        ("prophet-max", "tau", dict(tau=3, distribution={"iid": UNIFORM})),
        ("mechanism-welfare", "tau", dict(tau=3, source="alg_max",
                                          distribution={"iid": UNIFORM})),
        ("mechanism-revenue", "source", dict(source="alg_max",
                                             distribution={"iid": UNIFORM})),
        ("secretary", "distribution", dict(distribution={"iid": UNIFORM},
                                           values={"kind": "geometric", "ratio": 2.0})),
        ("prophet-max", "values", dict(values={"kind": "geometric", "ratio": 2.0},
                                       distribution={"iid": UNIFORM})),
    ], ids=["tau-prophet-max", "tau-welfare-alg_max", "source-revenue",
            "distribution-secretary", "values-prophet-max"])
    def test_refuses_field_the_kind_does_not_read(self, kind, field, extra):
        # such a field was silently ignored: prophet-max wrote tau=3 into the
        # CSV, and revenue with source alg_max ran the alg_tau-sample source
        spec = ExperimentSpec(kind=kind, n=10, ell=1, k=4, trials=10, master_seed=1,
                              **extra)
        with pytest.raises(InvalidSpecError, match=f"^{field}:"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind,source,distribution", [
        ("prophet-tau", None, {"iid": UNIFORM}),
        ("prophet-tau", None, {"components": [UNIFORM, EXPONENTIAL]}),
        ("mechanism-welfare", "alg_tau-sample", {"iid": UNIFORM}),
        ("mechanism-welfare", "alg_tau-sample", {"components": [UNIFORM, EXPONENTIAL]}),
        ("mechanism-revenue", None, {"iid": UNIFORM}),
    ], ids=["tau-iid", "tau-components", "welfare-iid", "welfare-components",
            "revenue-iid"])
    def test_refuses_default_tau_above_n(self, kind, source, distribution):
        # default_tau(2, 3) = 3 > n = 2: the components runs read the row max
        # as the threshold and passed a vacuous bound; the iid runs crashed
        spec = ExperimentSpec(kind=kind, n=2, ell=2, k=3, trials=100, master_seed=1,
                              distribution=distribution, source=source)
        with pytest.raises(InvalidSpecError, match="^tau:"):
            run_experiment(spec)

    def test_revenue_runs_with_n_at_most_ell(self):
        # the engine used to raise IndexError reading the (ell+1)-th ticket
        spec = ExperimentSpec(kind="mechanism-revenue", n=1, ell=1, k=1, trials=500,
                              master_seed=1, distribution={"iid": UNIFORM})
        report = run_experiment(spec)
        assert report.extras["tau"] == 1 and 0.0 < report.ratio_estimate <= 1.0

    def test_revenue_prior_component_count_must_match_n(self):
        spec = ExperimentSpec(kind="mechanism-revenue", n=20, ell=2, k=16, trials=10,
                              master_seed=1, distribution={"iid": UNIFORM, "n": 5})
        with pytest.raises(InvalidSpecError, match="^distribution:"):
            run_experiment(spec)

    def test_components_form_refuses_n(self):
        # before: n was ignored, and this spec ran as n = 10 (estimate 0.745, PASS)
        spec = ExperimentSpec(kind="prophet-max", n=10, ell=1, k=4, trials=200, master_seed=1,
                              distribution={"components": [UNIFORM] * 10, "n": 5})
        with pytest.raises(InvalidSpecError, match="^distribution: n: unknown key$"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind,field,desc", [
        ("prophet-max", "distribution", {"iid": UNIFORM, "n": 10}),
        ("secretary", "values", {"kind": "geometric", "ratio": 2.0, "n": 10}),
    ], ids=["iid", "geometric"])
    def test_nested_forms_refuse_n(self, kind, field, desc):
        # before: a nested n equal to the spec's ran, and any other was refused
        # as a count mismatch; the spec's n is the only n
        spec = ExperimentSpec(kind=kind, n=10, ell=1, k=4, trials=200, master_seed=1,
                              **{field: desc})
        with pytest.raises(InvalidSpecError, match=f"^{field}: n: unknown key$"):
            run_experiment(spec)

    @pytest.mark.parametrize("n,k,match", [
        (1, 1, "^n: hard-instance-dp needs n >= k \\+ 1 = 2$"),
        (5, 5, "^n: hard-instance-dp needs n >= k \\+ 1 = 6$"),
        (30, 25, "^k: hard-instance-dp cannot enumerate its benchmark: "
                 "16777216 outcomes exceed the cutoff$"),
        (24, 23, "^k: hard-instance-dp cannot enumerate its benchmark: "
                 "16777216 outcomes exceed the cutoff$"),
    ], ids=["n1-k1", "n5-k5", "n30-k25", "n24-k23"])
    def test_hard_instance_refuses_what_it_cannot_compute(self, n, k, match):
        # before: n < k + 1 ended in a raw DistributionError, and k >= 23 in a
        # raw StateSpaceTooLargeError after the DP had already run
        spec = ExperimentSpec(kind="hard-instance-dp", n=n, ell=1, k=k, trials=1,
                              master_seed=0)
        with pytest.raises(InvalidSpecError, match=match):
            run_experiment(spec)

    def test_iid_form_refuses_components(self):
        # before: the components were ignored, and the spec ran on iid (0.752)
        spec = ExperimentSpec(kind="prophet-max", n=10, ell=1, k=4, trials=200, master_seed=1,
                              distribution={"iid": UNIFORM, "components": []})
        with pytest.raises(InvalidSpecError, match="^distribution: components: unknown key$"):
            run_experiment(spec)

    def test_values_kind_refuses_keys_it_does_not_read(self):
        spec = ExperimentSpec(kind="secretary", n=3, ell=1, k=2, trials=10, master_seed=1,
                              values={"kind": "list", "values": [3.0, 1.0, 2.0], "ratio": 2.0})
        with pytest.raises(InvalidSpecError, match="^values: ratio: unknown key$"):
            run_experiment(spec)

    def test_revenue_runs_at_small_value_scale(self):
        # monopoly_price of exp(1000) used to raise UndefinedVirtualValueError
        prior = {"kind": "exponential", "params": {"rate": 1000.0}}
        spec = ExperimentSpec(kind="mechanism-revenue", n=20, ell=2, k=16, trials=2000,
                              master_seed=1, distribution={"iid": prior})
        report = run_experiment(spec)
        # the true ratio is within ~0.001 of 1 and the stderr is ~0.0075, so
        # the estimate may exceed 1 by its noise
        assert report.passed and 0.5 < report.ratio_estimate <= 1.0 + 4 * report.stderr

    def test_secretary_small_k_vacuous(self):
        spec = ExperimentSpec(kind="secretary", n=50, ell=2, k=4,
                              trials=200, master_seed=3,
                              values={"kind": "geometric", "ratio": 2.0})
        report = run_experiment(spec)
        assert report.vacuous and report.passed

    @pytest.mark.parametrize("values", [
        {"kind": "list", "values": [3.0, 1.0, 2.0]},
        {"kind": "geometric", "n": 40, "ratio": 2.0},
    ])
    def test_secretary_value_count_must_match_n(self, values):
        spec = ExperimentSpec(kind="secretary", n=50, ell=2, k=16, trials=10,
                              master_seed=3, values=values)
        with pytest.raises(InvalidSpecError, match="^values:"):
            run_experiment(spec)

    @pytest.mark.parametrize("field,desc", [
        ("distribution", {"iid": UNIFORM, "n": 20.7}),
        ("distribution", {"iid": UNIFORM, "n": True}),
        ("values", {"kind": "geometric", "ratio": 2.0, "n": "20"}),
        ("values", {"kind": "geometric", "ratio": "2"}),
        ("values", {"kind": "geometric", "ratio": True}),
        ("values", {"kind": "geometric", "ratio": 0.0}),
        ("values", {"kind": "geometric", "ratio": -2.0}),
        ("values", {"kind": "geometric", "ratio": 1.0}),
        ("values", {"kind": "geometric", "ratio": 0.5}),
        ("values", {"kind": "geometric", "ratio": math.inf}),
        ("values", {"kind": "geometric", "ratio": math.nan}),
        ("values", {"kind": "geometric"}),
        ("values", {"kind": "list"}),
        ("values", [1.0] * 20),
        ("values", {"kind": "csv"}),
        ("values", {"kind": "csv", "path": "no-such-dir/values.csv"}),
        ("values", {"kind": "list", "values": 3.0}),
        ("values", {"kind": "list", "values": ["a"] * 20}),
        ("values", {"kind": "list", "values": [math.nan] + [1.0] * 19}),
        ("values", {"kind": "list", "values": [math.inf] + [1.0] * 19}),
        ("values", {"kind": "list", "values": [-1.0] * 20}),
        ("values", {"kind": "list", "values": [0.0] * 20}),
        ("distribution", {"iid": {"kind": "uniform-interval"}}),
        ("distribution", {"iid": {"kind": "uniform-interval", "params": {"lo": 1.0, "hi": 0.0}}}),
        ("distribution", {"iid": {"kind": "pareto", "params": {"alpha": 2.0}}}),
        ("distribution", {"components": [{"kind": "exponential", "params": {}}] * 20}),
        ("distribution", "uniform-interval"),
        ("distribution", {"iid": {"kind": "finite-support", "params": {"atoms": [[1.0]]}}}),
        ("distribution", {"iid": {"kind": "finite-support",
                                  "params": {"atoms": [[1.0, 1.0, 5.0]]}}}),
        ("distribution", {"iid": {"kind": "uniform-interval",
                                  "params": {"lo": 0, "hi": 1, "extra": 3}}}),
        ("distribution", {"iid": {"kind": "uniform-interval", "params": {"lo": 0, "hi": 1},
                                  "extra": 3}}),
    ], ids=["float-iid-n", "bool-iid-n", "str-geometric-n", "str-ratio", "bool-ratio",
            "zero-ratio", "negative-ratio", "unit-ratio", "overflowing-ratio",
            "infinite-ratio", "nan-ratio", "no-ratio", "no-list", "non-dict-values",
            "no-csv-path", "missing-csv", "scalar-list", "str-list", "nan-value",
            "inf-value", "negative-values", "zero-values", "no-params", "bad-params",
            "unknown-kind", "no-rate", "non-dict-distribution", "short-atom", "long-atom",
            "unknown-param", "unknown-distribution-key"])
    def test_refuses_untyped_nested_counts(self, field, desc):
        # before: int(20.7), int("20") and float("2") let these specs run; a
        # malformed payload raised a raw KeyError, AttributeError,
        # FileNotFoundError or DistributionError; and on this vacuous secretary
        # bound NaN values PASSed with estimate nan, negative ones with ratio
        # 1.08, and all zeros raised ZeroDivisionError
        kind = "prophet-max" if field == "distribution" else "secretary"
        spec = ExperimentSpec(kind=kind, n=20, ell=1, k=4, trials=10, master_seed=1,
                              **{field: desc})
        with pytest.raises(InvalidSpecError, match=f"^{field}:"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind,source", [
        ("prophet-tau", None), ("prophet-max", None),
        ("mechanism-welfare", "alg_max"), ("mechanism-welfare", "alg_tau-sample"),
        ("mechanism-revenue", None),
    ])
    def test_threshold_kinds_report_binding_frac(self, kind, source):
        # the default tau = 3 and the (2/3)^3 max quantile put about 3 and 2.5
        # of 30 uniform values above the threshold, so k = 4 binds on some rows
        spec = ExperimentSpec(kind=kind, n=30, ell=1, k=4, trials=2_000, master_seed=8,
                              distribution={"iid": UNIFORM}, source=source)
        frac = run_experiment(spec).extras["binding_frac"]
        assert 0.0 < frac < 1.0

    @pytest.mark.parametrize("kind,fields,keys", [
        ("prophet-tau", {"distribution": {"iid": UNIFORM}},
         ["tau", "binding_frac", "trace_mismatches"]),
        ("prophet-max", {"distribution": {"iid": UNIFORM}}, ["binding_frac", "trace_mismatches"]),
        ("secretary", {"values": {"kind": "geometric", "ratio": 2.0}},
         ["beta", "prob_capacity_differs", "prob_capacity_differs_stderr",
          "prob_ell_missed", "prob_ell_missed_stderr", "capacity_event_bound"]),
        ("hard-instance-dp", {}, ["dp_value", "benchmark"]),
        ("secretary-upper-bound", {}, []),
        ("mechanism-welfare", {"distribution": {"iid": UNIFORM}, "source": "alg_max"},
         ["binding_frac", "trace_mismatches"]),
        ("mechanism-welfare", {"distribution": {"iid": UNIFORM}, "source": "alg_tau-sample"},
         ["tau", "binding_frac", "trace_mismatches"]),
        ("mechanism-revenue", {"distribution": {"iid": UNIFORM}},
         ["tau", "revenue_mean", "revenue_stderr", "optimal_mean", "optimal_stderr",
          "identity_gap", "identity_gap_stderr", "binding_frac", "trace_mismatches"]),
    ])
    def test_extras_keys_per_kind(self, kind, fields, keys):
        # the JSON report's extras, key order included, for every kind
        spec = ExperimentSpec(kind=kind, n=10, ell=1, k=4, trials=50, master_seed=3,
                              **fields)
        assert list(run_experiment(spec).extras) == keys

    def test_parallel_matches_serial(self):
        specs = [
            ExperimentSpec(kind="hard-instance-dp", n=k + 1, ell=k, k=k,
                           trials=1, master_seed=0)
            for k in (1, 2, 3)
        ]
        serial = run_experiments(specs, jobs=1)
        parallel = run_experiments(specs, jobs=3)
        assert [r.ratio_estimate for r in serial] == [r.ratio_estimate for r in parallel]

    def test_mc_experiment_reproducible(self):
        spec = ExperimentSpec(kind="prophet-max", n=20, ell=1, k=5,
                              trials=3000, master_seed=42,
                              distribution={"iid": UNIFORM})
        r1, r2 = run_experiment(spec), run_experiment(spec)
        assert r1.ratio_estimate == r2.ratio_estimate
        assert r1.stderr == r2.stderr


class TestValueScale:
    """Estimates and verdicts do not depend on the scale of the values."""

    @staticmethod
    def _spec(kind, scale, source=None):
        if kind == "secretary":
            values = [scale * 1.5 ** -i for i in range(40)]
            return ExperimentSpec(kind, 40, 2, 16, 2_000, 3,
                                  values={"kind": "list", "values": values})
        uniform = {"kind": "uniform-interval", "params": {"lo": 0.0, "hi": scale}}
        return ExperimentSpec(kind, 30, 2, 6, 2_000, 3, distribution={"iid": uniform},
                              source=source)

    @pytest.mark.parametrize("kind,source", [
        ("prophet-max", None), ("prophet-tau", None), ("mechanism-revenue", None),
        ("mechanism-welfare", "alg_max"), ("mechanism-welfare", "alg_tau-sample"),
        ("secretary", None),
    ])
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    def test_power_of_two_scale_is_bit_exact(self, kind, source, scale, monkeypatch):
        # the streaming co-moments used to overflow at 2^600 (stderr 0.0 or
        # NaN, and revenue FAILed) and underflow at 2^-600 (stderr 0.0)
        monkeypatch.setattr(experiments, "BATCH_SIZE", 700)
        want, got = (run_experiment(self._spec(kind, c, source)) for c in (1.0, scale))
        assert want.stderr > 0.0
        assert got.ratio_estimate.hex() == want.ratio_estimate.hex()
        assert got.stderr.hex() == want.stderr.hex()
        assert got.passed is want.passed


@pytest.mark.parametrize("kind,dist", [
    ("prophet-max", {"kind": "finite-support", "params": {"atoms": [[0.0, 0.9], [1.0, 0.1]]}}),
    ("mechanism-revenue", UNIFORM),
])
def test_refuses_a_benchmark_of_zero_in_every_trial(kind, dist):
    # one trial of two values: every value is 0 with probability 0.81, and
    # both uniform values lie below the monopoly price 0.5 with probability
    # 0.25, which makes the optimal revenue 0. Both used to end in a raw
    # ZeroDivisionError
    outcomes = set()
    for seed in range(40):
        spec = ExperimentSpec(kind, 2, 1, 2, 1, seed, distribution={"iid": dist})
        try:
            report = run_experiment(spec)
        except InvalidSpecError as err:
            assert re.match("^trials:", str(err))
            outcomes.add("refused")
        else:
            assert math.isfinite(report.ratio_estimate)
            outcomes.add("ran")
    assert outcomes == {"ran", "refused"}


@pytest.mark.parametrize("atoms", [
    '[["0", 0.5], ["2", 0.5]]', '[[false, 0.5], [true, 0.5]]', '[["10", 0.5], ["9", 0.5]]',
], ids=["numeric-strings", "bools", "strings-out-of-order"])
def test_refuses_atoms_that_are_not_real_numbers(atoms):
    # the first two used to run as the numbers 0, 2 and 0, 1; the third was
    # sorted as strings and refused as not increasing
    spec = ExperimentSpec.from_json(json.loads(
        '{"kind": "prophet-max", "n": 4, "ell": 1, "k": 2, "trials": 100, "master_seed": 1,'
        ' "distribution": {"iid": {"kind": "finite-support", "params": {"atoms": %s}}}}' % atoms))
    with pytest.raises(InvalidSpecError, match="^distribution: .*must be real numbers"):
        run_experiments([spec])


@pytest.mark.parametrize("dist, name", [
    ('{"kind": "degenerate", "params": {"value": "2"}}', "value"),
    ('{"kind": "uniform-interval", "params": {"lo": false, "hi": "3"}}', "lo"),
    ('{"kind": "uniform-interval", "params": {"lo": 0, "hi": "3"}}', "hi"),
    ('{"kind": "exponential", "params": {"rate": true}}', "rate"),
    ('{"kind": "exponential", "params": {"rate": null}}', "rate"),
], ids=["numeric-string-value", "bool-lo", "numeric-string-hi", "bool-rate", "null-rate"])
def test_refuses_scalar_parameters_that_are_not_real_numbers(dist, name):
    # the first four used to run as a point mass at 2, U[0, 3], U[0, 3] and
    # exp(1); null was refused as malformed, from float()'s TypeError
    spec = ExperimentSpec.from_json(json.loads(
        '{"kind": "prophet-max", "n": 4, "ell": 1, "k": 2, "trials": 100, "master_seed": 1,'
        ' "distribution": {"iid": %s}}' % dist))
    with pytest.raises(InvalidSpecError,
                       match=f"^distribution: .*parameter '{name}' must be a real number"):
        run_experiments([spec])


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_spec_is_validated_before_the_first_runs(jobs, monkeypatch):
    # the first spec used to run in full before the second was refused, and
    # `overbook run` then wrote no CSV
    calls = []
    monkeypatch.setattr(experiments, "alg_max_trials", lambda *a: calls.append(a))
    specs = [ExperimentSpec("prophet-max", 10, 1, 4, 100, 1, distribution={"iid": UNIFORM}),
             ExperimentSpec("prophet-max", 10, 1, 4, 100, 1, tau=3,
                            distribution={"iid": UNIFORM})]
    with pytest.raises(InvalidSpecError, match="^tau:"):
        run_experiments(specs, jobs=jobs)
    assert calls == []


class TestPassRules:
    """The verdict rules, pinned at their edges with stubbed engines and oracles."""

    @pytest.mark.parametrize("step,passed", [(0, True), (1, False)])
    def test_upper_bound_allows_no_slack(self, monkeypatch, step, passed):
        bound = secretary_upper_bound(10, 2)
        estimate = np.nextafter(bound, 2.0) if step else bound
        monkeypatch.setattr(harness, "secretary_max_prob_dp", lambda n, k: estimate)
        spec = ExperimentSpec(kind="secretary-upper-bound", n=10, ell=1, k=2,
                              trials=1, master_seed=0)
        report = run_experiment(spec)
        assert report.theoretical_bound == bound
        assert report.passed is passed

    @pytest.mark.parametrize("step,passed", [(0, True), (1, False)])
    def test_lower_bound_three_sigma_edge(self, monkeypatch, step, passed):
        bound, stderr = max_selector_bound(12), 0.0625
        edge = bound - 3.0 * stderr
        assert edge + 3.0 * stderr == bound
        estimate = np.nextafter(edge, 0.0) if step else edge
        stats = TrialStats(estimate, stderr,
                           extras={"binding_frac": 0.0, "trace_mismatches": 0})
        monkeypatch.setattr(experiments, "alg_max_trials", lambda *a: stats)
        spec = ExperimentSpec(kind="prophet-max", n=100, ell=1, k=12, trials=10,
                              master_seed=0, distribution={"iid": UNIFORM})
        report = run_experiment(spec)
        assert not report.vacuous
        assert report.passed is passed

    def _revenue_report(self, monkeypatch, gap, mismatches):
        stats = TrialStats(ratio=1.0, ratio_stderr=0.01,
                           extras={"identity_gap": gap, "identity_gap_stderr": 0.01,
                                   "trace_mismatches": mismatches})
        monkeypatch.setattr(experiments, "mechanism_revenue_trials", lambda *a: stats)
        spec = ExperimentSpec(kind="mechanism-revenue", n=20, ell=2, k=16, trials=10,
                              master_seed=0, distribution={"iid": UNIFORM})
        report = run_experiment(spec)
        assert report.ratio_estimate + 3 * report.stderr >= report.theoretical_bound
        return report

    @pytest.mark.parametrize("gap,passed", [(0.02, True), (0.04, False), (-0.04, False)])
    def test_revenue_identity_gap_beyond_three_sigma_fails(self, monkeypatch, gap, passed):
        assert self._revenue_report(monkeypatch, gap, 0).passed is passed

    def test_revenue_trace_mismatch_fails(self, monkeypatch):
        # the payment identity holds exactly, but one replayed row disagrees
        assert not self._revenue_report(monkeypatch, 0.0, 1).passed


class TestEmitReport:
    def _report(self):
        spec = ExperimentSpec(kind="hard-instance-dp", n=2, ell=1, k=1,
                              trials=1, master_seed=0)
        return run_experiment(spec)

    def test_csv_header_and_row(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([self._report()], "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].split(",")[0] == "hard-instance-dp"
        assert lines[1].endswith("true")

    def test_csv_records_resolved_tau_of_sample_threshold_kinds(self, tmp_path):
        common = dict(n=30, ell=1, k=8, trials=500, master_seed=3,
                      distribution={"iid": UNIFORM})
        specs = [ExperimentSpec(kind="mechanism-welfare", source="alg_tau-sample", **common),
                 ExperimentSpec(kind="mechanism-revenue", **common),
                 ExperimentSpec(kind="mechanism-welfare", source="alg_max", **common)]
        path = tmp_path / "tau.csv"
        emit_report(run_experiments(specs), "csv", str(path))
        rows = path.read_text().strip().splitlines()[1:]
        tau_col = CSV_COLUMNS.index("tau")
        # default_tau(1, 8) = 5; the max-distribution source has no tau
        assert [r.split(",")[tau_col] for r in rows] == ["5", "5", ""]

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], "csv", str(path))
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        report = self._report()
        emit_report([report], "json", str(path))
        loaded = [ExperimentReport.from_json(o) for o in json.loads(path.read_text())]
        assert loaded[0].spec == report.spec
        assert loaded[0].ratio_estimate == report.ratio_estimate
        assert loaded[0].passed == report.passed

    def test_json_keys_follow_the_report_fields(self, tmp_path):
        path = tmp_path / "out.json"
        emit_report([self._report()], "json", str(path))
        (obj,) = json.loads(path.read_text())
        assert list(obj) == ["spec", "algorithm", "ratio_estimate", "stderr",
                             "theoretical_bound", "vacuous", "pass", "elapsed_seconds",
                             "seed_rule", "extras"]
        assert obj["seed_rule"] == harness.SEED_RULE
        assert f"batch size {BATCH_SIZE}" in harness.SEED_RULE

    def test_from_json_defaults_and_refusals(self):
        obj = self._report().to_json()
        del obj["seed_rule"], obj["extras"]
        loaded = ExperimentReport.from_json(obj)
        assert loaded.seed_rule == harness.SEED_RULE and loaded.extras == {}
        with pytest.raises(InvalidSpecError, match="^passed: unknown key$"):
            ExperimentReport.from_json({**obj, "passed": True})
        del obj["pass"]
        with pytest.raises(InvalidSpecError, match="^pass: required$"):
            ExperimentReport.from_json(obj)

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", str(tmp_path / "x"))


class TestCli:
    def _write_config(self, tmp_path, trials=2000):
        cfg = {
            "experiments": [
                {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1,
                 "trials": 1, "master_seed": 0},
                {"kind": "prophet-max", "n": 10, "ell": 1, "k": 4,
                 "trials": trials, "master_seed": 11,
                 "distribution": {"iid": UNIFORM}},
            ]
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_exit_zero_and_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["run", "--config", cfg, "--out", str(out), "--format", "csv"])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.count("[PASS]") == 2
        assert out.read_text().startswith(",".join(CSV_COLUMNS))

    def test_run_byte_identical_across_invocations(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["run", "--config", cfg, "--out", str(out1), "--jobs", "1"])
        main(["run", "--config", cfg, "--out", str(out2), "--jobs", "2"])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_seed_override_changes_estimate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--out", str(o1), "--format", "json",
              "--seed", "101"])
        main(["run", "--config", cfg, "--out", str(o2), "--format", "json",
              "--seed", "202"])
        capsys.readouterr()
        r1 = json.loads(o1.read_text())
        r2 = json.loads(o2.read_text())
        assert r1[1]["ratio_estimate"] != r2[1]["ratio_estimate"]
        assert r1[0]["ratio_estimate"] == r2[0]["ratio_estimate"]  # exact oracle

    def test_oracle_dp_subcommand(self, tmp_path, capsys):
        from overbook.distributions import hard_prophet_instance
        inst = hard_prophet_instance(1, 2)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(
            {"components": inst.to_json(), "ell": 1, "k": 1}))
        code = main(["oracle", "dp", "--instance", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["expected_value"] == pytest.approx(1.5, abs=1e-12)

    def test_mechanism_simulate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "mech.json"
        path.write_text(json.dumps({
            "ell": 1, "k": 2, "threshold": 3.0, "values": [6, 2, 4, 9],
        }))
        code = main(["mechanism", "simulate", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["winners"] == [0] and out["payments"] == {"0": 4.0}

    @pytest.mark.parametrize("text", ['{"experiment": []}', '{"experiments": 5}', '[5]'])
    def test_load_config_refuses_malformed_top_level(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidSpecError, match="^experiments:"):
            load_config(str(path))

    def test_mechanism_simulate_refuses_non_finite_threshold(self, tmp_path):
        # Python's json reads NaN and Infinity
        path = tmp_path / "mech.json"
        path.write_text('{"ell": 1, "k": 2, "threshold": NaN, "values": [6, 2, 4, 9]}')
        with pytest.raises(ValueError, match="^threshold: must be finite and nonnegative$"):
            main(["mechanism", "simulate", "--config", str(path)])

    @pytest.mark.parametrize("extra,message", [
        ({"threshold": "3"}, "threshold: must be a real number, got '3'"),
        ({"threshold": True}, "threshold: must be a real number, got True"),
        ({"mode": "x"}, "mode: must be 'welfare' or 'revenue', got 'x'"),
        ({"mode": "revenue"}, "prior: revenue mode requires a prior"),
        ({"mode": "revenue", "prior": {"kind": "degenerate", "params": {"value": 1.0}}},
         "prior: degenerate prior has no density"),
    ], ids=["threshold-string", "threshold-bool", "mode", "no-prior", "prior-without-density"])
    def test_mechanism_simulate_names_the_config_field(self, tmp_path, extra, message):
        # "3" and true used to run through float() as 3.0 and 1.0, and the
        # config's own refusals did not start with their field
        path = tmp_path / "mech.json"
        path.write_text(json.dumps({"ell": 1, "k": 2, "threshold": 3.0,
                                    "values": [6, 2, 4, 9], **extra}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main(["mechanism", "simulate", "--config", str(path)])

    def test_load_config_refuses_unknown_top_level_key(self, tmp_path):
        # a misspelt key used to be ignored, and the file loaded one spec
        spec = {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1, "trials": 1,
                "master_seed": 0}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"experiments": [spec], "experimnets": [spec, spec]}))
        with pytest.raises(InvalidSpecError, match="^experimnets: unknown key$"):
            load_config(str(path))

    @pytest.mark.parametrize("payload,field", [
        ('"values": [NaN, 3]', "values"),
        ('"values": [Infinity, 3]', "values"),
        ('"values": [-5, 3]', "values"),
        ('"values": [6, 3], "vlaues": [1, 2]', "vlaues"),
        ('"values": [6, 3], "order": [1.0, 0.0]', "order"),
    ], ids=["nan", "inf", "negative", "misspelt-key", "float-order"])
    def test_mechanism_simulate_refuses_bad_values_and_keys(self, tmp_path, payload, field):
        # each used to run: the NaN agent declined its ticket, inf reported
        # welfare inf, and the misspelt key was ignored; a float order entry
        # raised a raw TypeError
        path = tmp_path / "mech.json"
        path.write_text('{"ell": 1, "k": 2, "threshold": 1.0, ' + payload + "}")
        with pytest.raises(ValueError, match=f"^{field}:"):
            main(["mechanism", "simulate", "--config", str(path)])

    @pytest.mark.parametrize("command,payload,key", [
        ("mechanism", {"k": 2, "threshold": 3.0, "values": [6, 2]}, "ell"),
        ("mechanism", {"ell": 1, "threshold": 3.0, "values": [6, 2]}, "k"),
        ("mechanism", {"ell": 1, "k": 2, "values": [6, 2]}, "threshold"),
        ("mechanism", {"ell": 1, "k": 2, "threshold": 3.0, "values": 3}, "values"),
        ("mechanism", {"ell": 1, "k": 2, "threshold": 3.0, "values": [6, 2],
                       "prior": {"kind": "uniform-interval"}}, "prior"),
        ("mechanism", [1, 2], "top level"),
        ("oracle", {"ell": 1, "k": 1}, "components"),
        ("oracle", {"components": [{"kind": "degenerate", "params": {"value": 1.0}}],
                    "k": 1}, "ell"),
        ("oracle", {"components": [{"kind": "degenerate", "params": {"value": 1.0}}],
                    "ell": 1, "k": 1, "extra": 3}, "extra"),
        ("oracle", {"components": [{"kind": "degenerate"}], "ell": 1, "k": 1}, "components"),
        ("oracle", [1, 2], "top level"),
        ("oracle", {"components": [UNIFORM], "ell": 1, "k": 1}, "components"),
        ("oracle", {"components": [{"kind": "degenerate", "params": {"value": 1.0}}],
                    "ell": 1, "k": 0}, "k"),
        ("oracle", {"components": [{"kind": "degenerate", "params": {"value": 1.0}}],
                    "ell": 0, "k": 1}, "ell"),
    ], ids=["mech-no-ell", "mech-no-k", "mech-no-threshold", "mech-scalar-values",
            "mech-prior-no-params", "mech-list", "dp-no-components", "dp-no-ell",
            "dp-extra-key", "dp-component-no-params", "dp-list", "dp-continuous-component",
            "dp-k-zero", "dp-ell-zero"])
    def test_subcommands_refuse_malformed_payloads_by_name(self, tmp_path, command, payload,
                                                           key):
        # each used to end in a raw KeyError or TypeError, and the extra key
        # was ignored: oracle dp printed its expected value. A continuous
        # component raised StateSpaceTooLargeError, and k = 0 a raw ValueError
        argv = (["mechanism", "simulate", "--config"] if command == "mechanism"
                else ["oracle", "dp", "--instance"])
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidSpecError, match=f"^{key}:"):
            main(argv + [str(path)])

    @pytest.mark.parametrize("command,key,value", [
        ("mechanism", "ell", 1.9),
        ("mechanism", "k", 2.7),
        ("mechanism", "ell", True),
        ("mechanism", "k", "2"),
        ("oracle", "ell", 1.5),
        ("oracle", "k", True),
        ("oracle", "k", "1"),
    ], ids=["mech-ell-float", "mech-k-float", "mech-ell-bool", "mech-k-string",
            "dp-ell-float", "dp-k-bool", "dp-k-string"])
    def test_subcommands_refuse_counts_that_are_not_integers(self, tmp_path, command, key,
                                                            value):
        # int(...) used to truncate: {"ell": 1.9, "k": 2.7} ran as ell = 1, k = 2
        from overbook.distributions import hard_prophet_instance
        if command == "mechanism":
            obj = {"ell": 1, "k": 2, "threshold": 3.0, "values": [6, 2, 4, 9]}
            argv = ["mechanism", "simulate", "--config"]
        else:
            obj = {"components": hard_prophet_instance(1, 2).to_json(), "ell": 1, "k": 1}
            argv = ["oracle", "dp", "--instance"]
        obj[key] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^{key}: must be an integer, got {value!r}$"):
            main(argv + [str(path)])

    def test_run_tags_non_discriminating_checks(self, tmp_path, capsys):
        # the atoms spec never binds k and its estimate is exactly 1.0; the
        # sample-threshold spec binds on most rows; the exact kind reports no
        # binding_frac and a ratio below 1
        atoms = {"kind": "finite-support",
                 "params": {"atoms": [[0.0, 0.5], [1.0, 0.25], [2.0, 0.25]]}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiments": [
            {"kind": "prophet-max", "n": 100, "ell": 1, "k": 13, "trials": 2000,
             "master_seed": 3, "distribution": {"iid": atoms}, "name": "atoms"},
            {"kind": "prophet-tau", "n": 20, "ell": 1, "k": 2, "tau": 10, "trials": 2000,
             "master_seed": 3, "distribution": {"iid": UNIFORM}, "name": "binds"},
            {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1, "trials": 1,
             "master_seed": 0, "name": "exact"},
        ]}))
        out = tmp_path / "report.json"
        main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"])
        lines = capsys.readouterr().out.splitlines()
        report = {r["spec"]["name"]: r for r in json.loads(out.read_text())}
        assert report["atoms"]["ratio_estimate"] == 1.0
        assert report["atoms"]["extras"]["binding_frac"] == 0.0
        assert report["binds"]["extras"]["binding_frac"] > 0.5
        assert report["exact"]["ratio_estimate"] < 1.0
        assert [("(non-discriminating)" in line) for line in lines] == [True, False, False]
        assert "non-discriminating" not in out.read_text()

    def test_load_config_list_form(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([
            {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1,
             "trials": 1, "master_seed": 0},
        ]))
        specs = load_config(str(path))
        assert len(specs) == 1 and specs[0].kind == "hard-instance-dp"
