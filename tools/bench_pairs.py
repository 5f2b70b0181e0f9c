"""Benchmark two commits against each other in alternating pairs of runs.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --seconds 28 --seeds 3201-3240 --out BENCH_32.json --note "what changed"

Each commit is extracted with `git archive` into its own temporary directory,
so no worktree or checkout state is left behind. For every workload and pair
i, `perfbench/run.py --workload <w> --seed <s> --seconds S --trace 0` runs
once on each side, one process per run, the parent first on even i and the
change first on odd i. Before the first workload one warm-up pair always runs,
on that workload and its first seed, and is discarded: the first workload of
a session has shown a bias between the sides that the alternation did not
cancel (`prophet-finite` in `BENCH_32.json`). The seeds are given in advance,
`--pairs` per workload in the order of `WORKLOADS`; each is a number or a
range a-b. The output file holds the machine, the SHA-256 of each side's
`src/`, every run's metrics, each side's median and quartiles per metric
(`statistics.quantiles(n=4)` over the runs), and the number of pairs in which
the change did better on each metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("prophet-finite", "prophet-iid", "secretary-rank", "scalar-exact")
#: The end-to-end metrics of a run, and whether lower is better.
METRICS = {"setup_s": True, "wall_s": True, "trials_per_s": False, "peak_rss_mb": True}
#: The win count's key per metric, as in the earlier bench files.
WIN_KEYS = {"setup_s": "change_lower_setup_s", "wall_s": "change_lower_wall_s",
            "trials_per_s": "change_faster_trials_per_s",
            "peak_rss_mb": "change_lower_peak_rss_mb"}
SIDES = ("parent", "change")
#: The pair index of the discarded warm-up pair in a run plan.
WARM_UP = -1


def parse_seeds(tokens: list[str]) -> list[int]:
    """Numbers and inclusive ranges a-b, in the order given."""
    seeds = []
    for token in tokens:
        lo, sep, hi = token.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def run_order(pair: int) -> tuple[str, str]:
    """The parent runs first on even pairs, the change on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_plan(pairs: int, seeds: list[int]) -> list[tuple[str, int, int, str]]:
    """Every run of a session in order, as (workload, pair, seed, side): the
    warm-up pair (pair `WARM_UP`, parent first) on the first workload and its
    first seed, then `pairs` pairs per workload in the order of `WORKLOADS`,
    each on its own seed and sides ordered by `run_order`."""
    plan = [(WORKLOADS[0], WARM_UP, seeds[0], side) for side in SIDES]
    for w, workload in enumerate(WORKLOADS):
        for pair, seed in enumerate(seeds[w * pairs:(w + 1) * pairs]):
            plan += [(workload, pair, seed, side) for side in run_order(pair)]
    return plan


def run_record(seed: int, info: dict, result: dict) -> dict:
    """One run as stored: its seed, checks, pass walls and end-to-end metrics,
    from run.py's result file (`info`) and its last stdout line (`result`)."""
    record = {"seed": seed, "correct": result["correct"], "failed": result["failed"],
              "attempted": result["attempted"], "failures": sorted(info["failures"]),
              "walls_s": [round(w, 4) for w in info["walls"]]}
    record.update({name: result["metrics"][name]["value"] for name in METRICS})
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(seconds: float, seeds: list[int], runs: dict) -> dict:
    """One workload's entry: `runs` maps each side to its run records, pair
    by pair in the same order."""
    entry = {"seconds": seconds, "seeds": seeds}
    for side in SIDES:
        entry[side] = {"runs": runs[side]}
        entry[side].update({name: quartiles([r[name] for r in runs[side]])
                            for name in METRICS})
    for name, lower in METRICS.items():
        pairs = zip(runs["parent"], runs["change"])
        entry[WIN_KEYS[name]] = sum((c[name] < p[name]) if lower else (c[name] > p[name])
                                    for p, c in pairs)
    return entry


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, into: Path) -> Path:
    """The committed files of `commit`, unpacked under `into`."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run of perfbench/run.py in `checkout`: its result file and its
    printed result. A failed check still yields a record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                           f"{out.stderr}")
    info = json.loads((checkout / "perfbench" / "_work"
                       / f"{workload}-seed{seed}-trace0.result.json").read_text())
    return info, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="", help="what the change does, stored as `change`")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles of each side's runs")
    seeds = parse_seeds(args.seeds)
    if len(seeds) != args.pairs * len(WORKLOADS):
        parser.error(f"--seeds gives {len(seeds)} seeds; {args.pairs} pairs on "
                     f"{len(WORKLOADS)} workloads need {args.pairs * len(WORKLOADS)}")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    bench = {"change": args.note,
             "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                        f"--seconds {args.seconds:g} --trace 0",
             "method": "parent and change run the same seed back to back, alternating which "
                       "runs first (parent first on even pair index), one process per run, "
                       "each from its own copy of the committed files (git archive of each "
                       f"commit); {args.pairs} pairs per workload with seeds fixed in advance; "
                       "one warm-up pair on the first workload and its first seed always runs "
                       "first and is discarded; "
                       "quartiles are statistics.quantiles(n=4) over the per-run medians; "
                       "written by tools/bench_pairs.py",
             "parent_commit": commits["parent"], "change_commit": commits["change"]}
    runs = {workload: {side: [] for side in SIDES} for workload in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: extract(commits[side], Path(tmp) / side) for side in SIDES}
        for workload, pair, seed, side in run_plan(args.pairs, seeds):
            info, result = run_one(checkouts[side], workload, seed, args.seconds)
            print(f"{workload} pair {'warm-up' if pair == WARM_UP else pair} seed {seed} "
                  f"{side}: wall_s {result['metrics']['wall_s']['value']:.4f} correct "
                  f"{result['correct']}", flush=True)
            if pair == WARM_UP:
                continue
            runs[workload][side].append(run_record(seed, info, result))
            bench.setdefault("machine", {key: info["machine"][key] for key in
                                         ("cores", "usable_cores", "python", "numpy",
                                          "platform")})
            bench.setdefault("src_sha256", {})[side] = info["machine"]["src_sha256"]
    bench["src_sha256"] = {side: bench["src_sha256"][side] for side in SIDES}
    bench["workloads"] = {
        workload: summarize(args.seconds, [r["seed"] for r in runs[workload]["parent"]],
                            runs[workload])
        for workload in WORKLOADS}
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
