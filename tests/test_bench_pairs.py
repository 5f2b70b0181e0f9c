"""The summary step of tools/bench_pairs.py, on recorded runs; no run is spawned."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, setup_s, wall_s, trials_per_s, peak_rss_mb):
    return {"seed": seed, "setup_s": setup_s, "wall_s": wall_s,
            "trials_per_s": trials_per_s, "peak_rss_mb": peak_rss_mb}


def test_seeds_are_numbers_and_inclusive_ranges_in_order():
    assert bench_pairs.parse_seeds(["3203-3205", "7", "3201-3201"]) == [3203, 3204, 3205, 7, 3201]


def test_parent_runs_first_on_even_pairs():
    assert [bench_pairs.run_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_run_plan_opens_with_a_discarded_warm_up_pair():
    seeds = list(range(100, 100 + 2 * len(bench_pairs.WORKLOADS)))
    plan = bench_pairs.run_plan(2, seeds)
    first = bench_pairs.WORKLOADS[0]
    assert plan[:2] == [(first, bench_pairs.WARM_UP, 100, "parent"),
                        (first, bench_pairs.WARM_UP, 100, "change")]
    # then each workload's pairs on its own seeds, sides alternating by pair
    want = []
    for w, workload in enumerate(bench_pairs.WORKLOADS):
        want += [(workload, 0, seeds[2 * w], "parent"), (workload, 0, seeds[2 * w], "change"),
                 (workload, 1, seeds[2 * w + 1], "change"),
                 (workload, 1, seeds[2 * w + 1], "parent")]
    assert plan[2:] == want
    assert all(pair != bench_pairs.WARM_UP for _, pair, _, _ in plan[2:])


def test_quartiles_and_win_counts():
    parent = [_run(1, 0.10, 0.20, 100.0, 50.0), _run(2, 0.30, 0.40, 200.0, 50.0),
              _run(3, 0.20, 0.30, 300.0, 50.0), _run(4, 0.40, 0.10, 400.0, 50.0)]
    change = [_run(1, 0.20, 0.10, 110.0, 50.0), _run(2, 0.30, 0.30, 190.0, 49.0),
              _run(3, 0.10, 0.20, 310.0, 51.0), _run(4, 0.40, 0.05, 410.0, 50.0)]
    entry = bench_pairs.summarize(28.0, [1, 2, 3, 4], {"parent": parent, "change": change})
    assert entry["seconds"] == 28.0 and entry["seeds"] == [1, 2, 3, 4]
    assert entry["parent"]["runs"] is parent and entry["change"]["runs"] is change
    # statistics.quantiles(n=4), the exclusive method, over the four runs
    assert entry["parent"]["trials_per_s"] == {"median": 250.0, "q1": 125.0, "q3": 375.0}
    assert entry["change"]["wall_s"]["median"] == pytest.approx(0.15)
    # a tie is no win: setup_s ties twice, peak_rss_mb twice
    assert entry["change_lower_setup_s"] == 1
    assert entry["change_lower_wall_s"] == 4
    assert entry["change_faster_trials_per_s"] == 3
    assert entry["change_lower_peak_rss_mb"] == 1


def test_run_record_reads_run_py_outputs():
    info = {"walls": [0.123456, 0.2], "failures": {"b.spec": ["x"], "a.spec": ["y", "z"]}}
    metrics = {"setup_s": 0.1, "wall_s": 0.2, "trials_per_s": 3.0, "peak_rss_mb": 4.0,
               "other": 5.0}
    result = {"correct": False, "attempted": 9, "failed": 2,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    assert bench_pairs.run_record(17, info, result) == {
        "seed": 17, "correct": False, "failed": 2, "attempted": 9,
        "failures": ["a.spec", "b.spec"], "walls_s": [0.1235, 0.2],
        "setup_s": 0.1, "wall_s": 0.2, "trials_per_s": 3.0, "peak_rss_mb": 4.0}


@pytest.mark.parametrize("workload", bench_pairs.WORKLOADS)
def test_summary_reproduces_the_committed_bench_file(workload):
    # BENCH_30.json was assembled by hand; its per-workload summaries are
    # what the tool computes from the same runs
    entry = json.loads((ROOT / "BENCH_30.json").read_text())["workloads"][workload]
    runs = {side: entry[side]["runs"] for side in bench_pairs.SIDES}
    assert bench_pairs.summarize(entry["seconds"], entry["seeds"], runs) == entry
