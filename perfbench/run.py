"""Benchmark of the `overbook` package on four seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload prophet-iid --seed 1 --seconds 28 --trace 0

With --trace 0 the run prints the end-to-end metrics (set-up time, pass wall
time, throughput, peak memory) measured with tracing off. With --trace 1 it
prints the per-layer metrics of traced passes and the tracing overhead.
Either way it checks every output and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. It exits 1 when
a check fails beyond the known defects listed in README.md, or when the
package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

if not (SRC / "overbook" / "__init__.py").is_file():
    sys.exit(f"error: package source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import overbook  # noqa: E402
from overbook import harness  # noqa: E402

if Path(overbook.__file__).resolve().parent != SRC / "overbook":
    sys.exit(f"error: imported overbook from {overbook.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s.
SETUP_PROBES = 9
#: Fewest timed passes behind a median, even when a pass outlasts --seconds.
#: The first pass of a run is a warm-up: it is checked but not timed.
MIN_PASSES = 3
MIN_TRACE_PASSES = 2


@dataclass
class Pass:
    wall: float
    reports: list
    csv_rows: list[str]
    outputs: list

    @property
    def digests(self) -> list:
        return [workloads.digest(o) for o in self.outputs]


def run_pass(wl, csv_path: Path) -> Pass:
    """One pass: the harness over every spec plus the CSV report, then the
    scalar calls. Only this is timed."""
    gc.collect()
    start = perf_counter()
    reports = harness.run_experiments(wl.specs, jobs=1)
    harness.emit_report(reports, "csv", str(csv_path))
    rng = np.random.default_rng(wl.scalar_seed)
    outputs = [op.call(rng) for op in wl.scalar_ops]
    wall = perf_counter() - start
    return Pass(wall, reports, csv_path.read_text().splitlines(), outputs)


def measure(wl, seconds: float, min_passes: int, csv_path: Path, checks: "Checks",
            first: Pass | None = None, tracer=None, between=None) -> tuple[list[float], Pass]:
    """Repeat passes for `seconds` and return their wall times.

    Without `first`, the first pass is a warm-up: it becomes the pass every
    later one is checked against, and its time is not returned. Only wall
    times are kept, so memory does not grow with the number of passes.
    `between` runs after each pass, outside the timing.
    """
    walls: list[float] = []
    what = "traced pass" if tracer else "pass"
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start < seconds:
        if tracer is None:
            p = run_pass(wl, csv_path)
        else:
            with tracer.traced_pass(len(walls)):
                p = run_pass(wl, csv_path)
        if first is None:
            first = p
            checks.first_pass(wl, p)
        else:
            walls.append(p.wall)
            checks.same_as(wl, first, p.csv_rows, p.digests, f"{what} {len(walls)}")
        if between is not None:
            between()
    return walls, first


class SetupProbe:
    """Times, in fresh interpreters, importing the package and loading and
    validating the workload's config. Called between passes, the probes
    sample the same stretch of machine time as the passes do."""

    def __init__(self, config_path: Path):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)]
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_PROBES:
            out = subprocess.run(self.cmd, check=True, capture_output=True, text=True,
                                 timeout=120)
            self.times.append(float(out.stdout))


class Checks:
    """Failed operations (one per spec or scalar call) and why they failed."""

    def __init__(self, wl):
        self.attempted = len(wl.specs) + len(wl.scalar_ops)
        self.failed: dict[str, list[tuple[str, bool]]] = {}

    def fail(self, label: str, message: str, known: bool = False) -> None:
        self.failed.setdefault(label, []).append((message, known))

    @property
    def unexpected(self) -> list[str]:
        return [f"{label}: {msg}" for label, items in self.failed.items()
                for msg, known in items if not known]

    def first_pass(self, wl, p: Pass) -> None:
        """Verdicts and reference estimates of the specs; the scalar checks."""
        for report in p.reports:
            label = report.spec.label()
            for msg, known in workloads.check_report(report, wl.references[label]):
                self.fail(label, msg, known)
        for op, out in zip(wl.scalar_ops, p.outputs):
            if not op.check(out):
                self.fail(op.label, "scalar check failed")

    def same_as(self, wl, first: Pass, rows: list[str], digests: list, what: str) -> None:
        """Outputs must be byte-identical to the first pass."""
        if rows[:1] != first.csv_rows[:1] or len(rows) != len(first.csv_rows):
            for spec in wl.specs:
                self.fail(spec.label(), f"CSV layout differs in {what}")
            return
        for spec, a, b in zip(wl.specs, first.csv_rows[1:], rows[1:]):
            if a != b:
                self.fail(spec.label(), f"CSV row differs in {what}: {a!r} vs {b!r}")
        for op, a, b in zip(wl.scalar_ops, first.digests, digests):
            if a != b:
                self.fail(op.label, f"output differs in {what}")


def jobs_rows(wl, csv_path: Path) -> list[str]:
    """CSV rows of one pass with two worker threads (at most the usable cores)."""
    jobs = min(2, len(os.sched_getaffinity(0)))
    reports = harness.run_experiments(wl.specs, jobs=jobs)
    harness.emit_report(reports, "csv", str(csv_path))
    return csv_path.read_text().splitlines()


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.build(args.workload, args.seed)
    config_path = WORK / f"{tag}.config.json"
    config_path.write_text(json.dumps(wl.config_json()))
    csv_path = WORK / f"{tag}.csv"
    info = {"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    print("# " + json.dumps(info), flush=True)

    checks = Checks(wl)
    if args.trace:
        untraced, first = measure(wl, args.seconds / 2, MIN_TRACE_PASSES, csv_path, checks)
        tracer = spans.Tracer()
        traced, _ = measure(wl, args.seconds / 2, MIN_TRACE_PASSES, csv_path, checks, first,
                            tracer)
        tracer.write(WORK / f"{tag}.spans.jsonl")
        walls = untraced + traced
        layer = tracer.metrics(list(range(len(traced))))
        layer["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
        metrics = {name: (value, spans.unit(name)) for name, value in layer.items()}
    else:
        probe = SetupProbe(config_path)
        walls, first = measure(wl, args.seconds, MIN_PASSES, csv_path, checks, between=probe)
        while len(probe.times) < SETUP_PROBES:
            probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = median(walls)
        metrics = {
            "setup_s": (median(probe.times), "s"),
            "wall_s": (wall_s, "s"),
            "trials_per_s": (wl.work_per_pass / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    checks.same_as(wl, first, jobs_rows(wl, csv_path), first.digests, "the jobs=2 pass")

    attempted, failed = checks.attempted, len(checks.failed)
    correct = not checks.unexpected
    work = "scalar calls" if wl.scalar_ops else "trials"
    print(f"# {len(walls)} timed passes of {wl.work_per_pass} {work} after a warm-up; walls "
          + " ".join(f"{w:.4f}" for w in walls))
    if not args.trace:
        print(f"# setup_s is the median of {SETUP_PROBES} fresh interpreters")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations)")
    for label, items in checks.failed.items():
        for msg, known in items:
            print(f"# {'known defect' if known else 'FAILED'}: {label}: {msg}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(info, walls=walls, result=result,
                  failures={label: [m for m, _ in items] for label, items in checks.failed.items()})
    (WORK / f"{tag}.result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
