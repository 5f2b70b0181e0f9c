"""Command-line entry point.

Subcommands:
  overbook run --config exp.json --out results.csv --format csv --jobs 8
  overbook oracle dp --instance inst.json
  overbook mechanism simulate --config mech.json

`run` exits 0 iff every experiment's pass column is true.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .distributions import ProductInstance, ValueDistribution
from .harness import (InvalidSpecError, _malformed, as_count, as_real, as_values,
                      emit_report, load_config, read_object, run_experiments)
from .mechanisms import MechanismConfig, run_two_phase
from .oracle import optimal_online_dp


def _non_discriminating(report) -> bool:
    """A check that cannot catch a fault: the capacity k never binds, or the
    estimate is exactly 1.0 with zero stderr."""
    return (report.extras.get("binding_frac") == 0
            or (report.ratio_estimate == 1.0 and report.stderr == 0.0))


def _cmd_run(args) -> int:
    specs = load_config(args.config)
    if args.seed is not None or args.trials is not None:
        specs = [
            dataclasses.replace(
                s,
                master_seed=args.seed if args.seed is not None else s.master_seed,
                trials=args.trials if args.trials is not None else s.trials,
            )
            for s in specs
        ]
    reports = run_experiments(specs, jobs=args.jobs)
    if args.out:
        emit_report(reports, args.format, args.out)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        bound = f"{r.theoretical_bound:.6f}" + (" (vacuous)" if r.vacuous else "")
        tag = " (non-discriminating)" if _non_discriminating(r) else ""
        print(f"[{status}] {r.spec.label()}: estimate={r.ratio_estimate:.6f} "
              f"stderr={r.stderr:.2e} bound={bound}{tag} ({r.elapsed_seconds:.1f}s)")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_oracle_dp(args) -> int:
    with open(args.instance) as fh:
        obj = read_object(json.load(fh), "", ("components", "ell", "k"))
    with _malformed("components"):
        instance = ProductInstance.from_json(obj["components"])
    dp = optimal_online_dp(instance, as_count(obj["ell"], "ell"), as_count(obj["k"], "k"))
    out = {"expected_value": dp.expected_value}
    if args.policy:
        out["policy"] = json.loads(dp.policy_json())
    print(json.dumps(out, indent=2))
    return 0


def _cmd_mechanism_simulate(args) -> int:
    with open(args.config) as fh:
        obj = read_object(json.load(fh), "", ("ell", "k", "threshold", "values"),
                          ("mode", "prior", "order"))
    with _malformed("prior"):
        prior = ValueDistribution.from_json(obj["prior"]) if "prior" in obj else None
    config = MechanismConfig(
        ell=as_count(obj["ell"], "ell"),
        k=as_count(obj["k"], "k"),
        threshold=as_real(obj["threshold"], "threshold"),
        mode=obj.get("mode", "welfare"),
        prior=prior,
    )
    values = as_values(obj["values"], "values").tolist()
    if "order" in obj:
        with _malformed("order"):
            order = [as_count(i, "order") for i in obj["order"]]
        if sorted(order) != list(range(len(values))):
            raise InvalidSpecError("order: must be a permutation of 0..n-1")
        values = [values[i] for i in order]
    outcome = run_two_phase(values, config)
    print(json.dumps(outcome.to_json(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="overbook")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config of Monte Carlo experiments")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--seed", type=int, default=None, help="override master seeds")
    run.add_argument("--trials", type=int, default=None, help="override trial counts")
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="exact oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    dp = oracle_sub.add_parser("dp", help="optimal-online backward induction")
    dp.add_argument("--instance", required=True,
                    help="JSON file: {components: [...], ell: int, k: int}")
    dp.add_argument("--policy", action="store_true", help="include the full policy")
    dp.set_defaults(func=_cmd_oracle_dp)

    mech = sub.add_parser("mechanism", help="two-phase auction")
    mech_sub = mech.add_subparsers(dest="mechanism_command", required=True)
    sim = mech_sub.add_parser("simulate", help="run one auction profile")
    sim.add_argument("--config", required=True,
                     help="JSON file: {ell, k, threshold, mode?, prior?, values, order?}")
    sim.set_defaults(func=_cmd_mechanism_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
