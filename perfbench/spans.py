"""Span tracing from outside the package, and the per-layer metrics of a trace.

The tracer replaces public functions of each `overbook` module at the point
where another module (or the benchmark) calls them, so no file in `src/`
changes. Spans are kept in memory as (name, start, end, parent, pass id) and
written out when the run ends. The traced passes run with jobs=1, so one
stack gives every span its parent.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter

from overbook import distributions, experiments, harness, mechanisms, prophet, secretary

LAYERS = ("harness", "experiments", "seeding", "distributions", "prophet",
          "secretary", "mechanisms", "oracle")

ENGINES = ("alg_tau", "alg_max", "alg_max_atoms", "secretary", "mechanism_welfare",
           "mechanism_revenue")

THRESHOLDS = ("max_quantile", "max_quantile_inf", "monopoly_price")

#: (owner, attribute, span name): the owner is the module or class whose
#: attribute the caller looks up at call time.
SPANS = [
    (harness, "run_experiments", "harness.run_experiments"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "emit_report", "harness.emit_report"),
    (harness, "optimal_online_dp", "oracle.optimal_online_dp"),
    (harness, "exact_prophet_benchmark", "oracle.exact_prophet_benchmark"),
    (harness, "secretary_max_prob_dp", "oracle.secretary_max_prob_dp"),
    (harness, "default_beta", "secretary.default_beta"),
    *[(experiments, f"{e}_trials", f"experiments.{e}_trials") for e in ENGINES],
    (experiments, "trial_rng", "seeding.trial_rng"),
    *[(experiments, t, f"distributions.{t}") for t in THRESHOLDS],
    (prophet, "max_quantile", "distributions.max_quantile"),
    (prophet, "max_quantile_inf", "distributions.max_quantile_inf"),
    (distributions.ProductInstance, "sample_matrix", "distributions.sample_matrix"),
    (distributions.ValueDistribution, "sample_n", "distributions.sample_n"),
    (prophet, "alg_tau", "prophet.alg_tau"),
    (prophet, "alg_max", "prophet.alg_max"),
    (prophet, "alg_max_atoms", "prophet.alg_max_atoms"),
    (secretary, "run_secretary", "secretary.run_secretary"),
    (mechanisms, "deviation_test", "mechanisms.deviation_test"),
]

#: Called tens of thousands of times per pass, so counted without a span.
COUNTED = [(mechanisms, "run_two_phase", "mechanisms.run_two_phase")]

PASS_SPAN = "pass"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, pass_id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.cells: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        is_sampler = name == "distributions.sample_matrix"

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._pass_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if is_sampler:
                self.cells[self._pass_id] += result.size
            return result
        return traced

    def _wrap_count(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[self._pass_id][name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Swap the traced functions in; restore the originals on exit."""
        saved = []
        try:
            for table, wrap in ((SPANS, self._wrap), (COUNTED, self._wrap_count)):
                for owner, attr, name in table:
                    orig = vars(owner)[attr]
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Trace one pass under a root span named `pass`."""
        self._pass_id = pass_id
        rec = [PASS_SPAN, 0.0, 0.0, -1, pass_id]
        with self.installed():
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                yield
            finally:
                rec[2] = perf_counter()
                self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")

    # ---- aggregation ----

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        child = defaultdict(float)
        for i in ids:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        for i in ids:
            name, start, end, _, _ = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        layer_self = defaultdict(float)
        for name, value in self_time.items():
            layer_self[name.split(".")[0]] += value

        m = {
            "distributions.sample_matrix.s": total["distributions.sample_matrix"],
            "distributions.sample_matrix.self_s": self_time["distributions.sample_matrix"],
            "distributions.sample_matrix.cells": self.cells[pass_id],
            "distributions.sample_n.calls": calls["distributions.sample_n"],
            "distributions.sample_n.s": total["distributions.sample_n"],
            "distributions.threshold.s": sum(total[f"distributions.{t}"] for t in THRESHOLDS),
            "distributions.threshold.calls": sum(calls[f"distributions.{t}"] for t in THRESHOLDS),
            "seeding.trial_rng.calls": calls["seeding.trial_rng"],
            "seeding.trial_rng.s": total["seeding.trial_rng"],
            "oracle.optimal_online_dp.s": total["oracle.optimal_online_dp"],
            "oracle.exact_prophet_benchmark.s": total["oracle.exact_prophet_benchmark"],
            "oracle.secretary_max_prob_dp.s": total["oracle.secretary_max_prob_dp"],
            "prophet.alg_tau.s": total["prophet.alg_tau"],
            "prophet.alg_max.s": total["prophet.alg_max"],
            "prophet.alg_max_atoms.s": total["prophet.alg_max_atoms"],
            "prophet.calls": sum(calls[f"prophet.{f}"] for f in ("alg_tau", "alg_max", "alg_max_atoms")),
            "secretary.run_secretary.s": total["secretary.run_secretary"],
            "secretary.run_secretary.calls": calls["secretary.run_secretary"],
            "secretary.default_beta.s": total["secretary.default_beta"],
            "mechanisms.deviation_test.s": total["mechanisms.deviation_test"],
            "mechanisms.run_two_phase.calls": self.counts[pass_id]["mechanisms.run_two_phase"],
            "harness.run_experiment.calls": calls["harness.run_experiment"],
        }
        for e in ENGINES:
            m[f"experiments.{e}_trials.s"] = total[f"experiments.{e}_trials"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def metrics(self, pass_ids: list[int]) -> dict[str, float]:
        """Median over the traced passes of each per-layer metric."""
        per_pass = [self.pass_metrics(p) for p in pass_ids]
        return {name: median(m[name] for m in per_pass) for name in per_pass[0]}


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name == "trace.overhead_frac":
        return "fraction"
    if name.endswith((".calls", ".cells")):
        return "count"
    return "s"
