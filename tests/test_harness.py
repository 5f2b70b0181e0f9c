import json
import math

import numpy as np
import pytest

from overbook import experiments, harness
from overbook.cli import main
from overbook.experiments import RevenueTrialStats
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

    @pytest.mark.parametrize("kind,source", [("prophet-tau", None),
                                             ("mechanism-welfare", "alg_tau-sample")])
    @pytest.mark.parametrize("distribution", [
        {"iid": ATOMS},
        {"components": [UNIFORM] * 9 + [{"kind": "degenerate", "params": {"value": 0.5}}]},
    ], ids=["iid-atoms", "one-point-mass"])
    def test_rejects_atoms_for_sample_threshold(self, kind, source, distribution):
        # the batch engine has no tie-break priorities: on the iid atoms it
        # reported 0.592 where the scalar alg_tau gives 0.845
        spec = ExperimentSpec(kind=kind, n=10, ell=2, k=4, trials=1000, master_seed=1,
                              tau=3, distribution=distribution, source=source)
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

    def test_revenue_runs_at_small_value_scale(self):
        # monopoly_price of exp(1000) used to raise UndefinedVirtualValueError
        prior = {"kind": "exponential", "params": {"rate": 1000.0}}
        spec = ExperimentSpec(kind="mechanism-revenue", n=20, ell=2, k=16, trials=2000,
                              master_seed=1, distribution={"iid": prior})
        report = run_experiment(spec)
        assert report.passed and 0.5 < report.ratio_estimate <= 1.0

    def test_secretary_small_k_vacuous(self):
        spec = ExperimentSpec(kind="secretary", n=50, ell=2, k=4,
                              trials=200, master_seed=3,
                              values={"kind": "geometric", "n": 50, "ratio": 2.0})
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
        monkeypatch.setattr(experiments, "alg_max_trials", lambda *a: (estimate, stderr))
        spec = ExperimentSpec(kind="prophet-max", n=100, ell=1, k=12, trials=10,
                              master_seed=0, distribution={"iid": UNIFORM})
        report = run_experiment(spec)
        assert not report.vacuous
        assert report.passed is passed

    @pytest.mark.parametrize("gap,passed", [(0.02, True), (0.04, False), (-0.04, False)])
    def test_revenue_identity_gap_beyond_three_sigma_fails(self, monkeypatch, gap, passed):
        stats = RevenueTrialStats(ratio=1.0, ratio_stderr=0.01, revenue_mean=1.0,
                                  revenue_stderr=0.01, optimal_mean=1.0, optimal_stderr=0.01,
                                  identity_gap=gap, identity_gap_stderr=0.01, trials=10)
        monkeypatch.setattr(experiments, "mechanism_revenue_trials", lambda *a: stats)
        spec = ExperimentSpec(kind="mechanism-revenue", n=20, ell=2, k=16, trials=10,
                              master_seed=0, distribution={"iid": UNIFORM})
        report = run_experiment(spec)
        assert report.ratio_estimate + 3 * report.stderr >= report.theoretical_bound
        assert report.passed is passed


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

    def test_load_config_list_form(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([
            {"kind": "hard-instance-dp", "n": 2, "ell": 1, "k": 1,
             "trials": 1, "master_seed": 0},
        ]))
        specs = load_config(str(path))
        assert len(specs) == 1 and specs[0].kind == "hard-instance-dp"
