"""Mutation table: does a verdict of the harness FAIL when a rule is wrong?

Each row swaps one module attribute for a changed version of it and runs
one small fixed config, a spec of every kind, through `run_experiments`; a
change inside a function body is compiled from the function's own source
(`_edited`). A caught mutant makes at least one report FAIL. A mutant that
no verdict catches yet is a strict xfail whose reason says why, so a new
check that catches it shows up as an XPASS until its row moves to caught.
(Mutation analysis: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer, 1978.)
"""

import __future__
import inspect

import numpy as np
import pytest

from overbook import experiments, harness, prophet, secretary
from overbook.harness import ExperimentSpec, run_experiments
from overbook.secretary import BetaVector

_UNIFORM = {"kind": "uniform-interval", "params": {"lo": 0.0, "hi": 1.0}}
_ATOMS = {"kind": "finite-support", "params": {"atoms": [[0.0, 0.5], [1.0, 0.25], [2.0, 0.25]]}}

CONFIG = [
    ExperimentSpec("prophet-tau", 30, 2, 8, 4_000, 1, distribution={"iid": _UNIFORM}),
    ExperimentSpec("prophet-max", 30, 1, 6, 4_000, 2, distribution={"iid": _UNIFORM}),
    ExperimentSpec("prophet-max", 10, 1, 3, 4_000, 3, distribution={"iid": _ATOMS}),
    ExperimentSpec("secretary", 200, 1, 10, 2_000, 4,
                   values={"kind": "geometric", "ratio": 1.05}),
    ExperimentSpec("hard-instance-dp", 3, 1, 2, 1, 5),
    ExperimentSpec("secretary-upper-bound", 20, 1, 2, 1, 6),
    ExperimentSpec("mechanism-welfare", 30, 2, 6, 4_000, 7, distribution={"iid": _UNIFORM}),
    ExperimentSpec("mechanism-welfare", 30, 2, 8, 4_000, 8, distribution={"iid": _UNIFORM},
                   source="alg_tau-sample"),
    ExperimentSpec("mechanism-revenue", 20, 2, 16, 4_000, 9, distribution={"iid": _UNIFORM}),
]


def _level_one_step_up(real):
    """(2/3)^k for the strict rule, not (2/3)^(k-1)."""
    return lambda k, first_ge=False: real(k + 1, first_ge)


def _beta_over_e_ell(real):
    """Boundaries floor(j n e^(-s/j) / (e ell)), not / (2 e ell): at 2n the
    true rule's inner boundaries are exactly these."""
    return lambda n, ell, k: BetaVector((*real(2 * n, ell, k).boundaries[:-1], n))


def _phase_k_minus_4ell(real):
    """The phase exponent (k - 4 ell) / (2 + 2 ln ell), not (k - 8 ell) / ...:
    `default_beta` reads it, the harness bound keeps its own import."""
    return lambda ell, k: real(ell, k + 4 * ell)


def _tau_one_higher(real):
    return lambda ell, k: real(ell, k) + 1


def _half_stderr(real):
    def ratio_stderr(self, i=0, j=1):
        ratio, stderr = real(self, i, j)
        return ratio, stderr / 2
    return ratio_stderr


def _value_as_virtual_value(real):
    """The value itself, as if the agents kept no information rent."""
    return lambda prior, x: np.asarray(x, dtype=float)


def _no_capacity_cut(real):
    return lambda values, thr, k, m, first_ge=False: real(values, thr, values.shape[1], m,
                                                            first_ge)


def _edited(old, new):
    """A function compiled from the real one's source with its one `old`
    replaced by `new`, for a fault inside a function body."""
    def mutate(real):
        source = inspect.getsource(real)
        if source.count(old) != 1:
            # not an AssertionError, which an uncaught row would take as its xfail
            raise LookupError(f"{real.__name__} holds {old!r} {source.count(old)} times")
        scope = dict(vars(inspect.getmodule(real)))
        exec(compile(source.replace(old, new), inspect.getsourcefile(real), "exec",
                     __future__.annotations.compiler_flag, dont_inherit=True), scope)
        return scope[real.__name__]
    return mutate


def _uncaught(reason):
    # only a PASS of every verdict is the expected failure, not an error
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


MUTANTS = [
    pytest.param(prophet, "max_level", _level_one_step_up, id="max_level-two-thirds-to-the-k",
                 marks=_uncaught("the max-selector bound 1 - 1.5 exp(-k/6) is 0.45 at k = 6; "
                                 "the mutant moves the prophet-max ratio from 0.87 to 0.92 and "
                                 "the alg_max welfare ratio from 0.74 to 0.81, and no exact "
                                 "max-selector ratio is checked")),
    pytest.param(harness, "default_beta", _beta_over_e_ell, id="default_beta-over-e-ell",
                 marks=_uncaught("the secretary bound is 0.44 at ell = 1, k = 10; the mutant "
                                 "moves the ratio from 0.94 to 0.87")),
    pytest.param(secretary, "secretary_phase_length", _phase_k_minus_4ell,
                 id="phase_length-k-minus-4-ell",
                 marks=_uncaught("the secretary bound is 0.44 at ell = 1, k = 10; the mutant "
                                 "moves the ratio from 0.94 to 0.99")),
    pytest.param(harness, "default_tau", _tau_one_higher, id="default_tau-one-higher",
                 marks=_uncaught("the tau-selector bound is vacuous below k = 47 at ell = 1 "
                                 "(k = 72 at ell = 2), and it is read at the shifted tau")),
    pytest.param(experiments._Moments, "ratio_stderr", _half_stderr, id="ratio_stderr-halved",
                 marks=_uncaught("the estimates clear their non-vacuous bounds by more than "
                                 "100 halved stderrs, and no check holds a stderr to an exact "
                                 "ratio")),
    pytest.param(experiments, "virtual_value_array", _value_as_virtual_value,
                 id="virtual_value_array-is-the-value"),
    pytest.param(experiments, "_threshold_top", _no_capacity_cut,
                 id="threshold_top-without-capacity-cut"),
    # winners pay the ell-th ticket value, their own lowest bid, not the (ell+1)-th
    pytest.param(experiments, "mechanism_revenue_trials",
                 _edited("tickets[:, ell])", "tickets[:, ell - 1])"),
                 id="revenue-price-from-ell-th-ticket"),
    # the accept branch of the max-probability DP without the extra miss
    # factor: the corrected recurrence, since success after a position does
    # not depend on whether that position is a record
    pytest.param(harness, "secretary_max_prob_dp",
                 _edited("p_max + miss_max * g[b - 1]", "p_max + g[b - 1]"),
                 id="secretary_max_prob_dp-corrected",
                 marks=_uncaught("the ceiling (1 + 1/n)(1 - e^-k) is 0.908 at n = 20, k = 2; "
                                 "the committed DP gives 0.512, the corrected one 0.618, and "
                                 "both pass it")),
]


def test_config_passes_unmutated():
    reports = run_experiments(CONFIG)
    assert [r.spec.kind for r in reports if not r.passed] == []


@pytest.mark.parametrize("owner,name,mutate", MUTANTS)
def test_mutant_is_caught(owner, name, mutate, monkeypatch):
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    reports = run_experiments(CONFIG)
    assert any(not r.passed for r in reports)
