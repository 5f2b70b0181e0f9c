"""Record the reference estimates that every benchmark run is checked against.

Usage (from the repository root): python3 perfbench/make_reference.py

Each Monte Carlo spec of the benchmark is run once with ten times its pass
trials under a fixed master seed that no workload seed produces; each exact
spec is run once. The specs do not depend on the workload seed apart from
their master seeds, so one table serves every seed. Specs on finite supports
that the harness sends to `alg_max_atoms` are not recorded: the benchmark
computes their ratio exactly on each run (see exact.py).
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from overbook import harness  # noqa: E402

import workloads  # noqa: E402

FACTOR = 10
REFERENCE_SEED = 20_180_514


def main() -> None:
    table = {}
    for name in workloads.NAMES:
        # the seeds passed here only become master seeds, which are replaced
        for spec in workloads.SPEC_BUILDERS[name]([0] * 8):
            if workloads.exact_reference(spec) is not None:
                continue
            if spec.kind not in harness.UPPER_BOUND_KINDS:
                spec = dataclasses.replace(spec, trials=spec.trials * FACTOR,
                                           master_seed=REFERENCE_SEED)
            report = harness.run_experiment(spec)
            table[spec.label()] = {"estimate": report.ratio_estimate, "stderr": report.stderr,
                                   "trials": spec.trials, "master_seed": spec.master_seed}
            print(f"{spec.label():40s} {report.ratio_estimate!r} +- {report.stderr:.3g}",
                  flush=True)
    out = {"note": "written by make_reference.py; see README.md", "references": table}
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
