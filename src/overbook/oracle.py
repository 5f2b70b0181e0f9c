"""Offline benchmarks and exact optimal-online oracles.

These are the ground-truth references the competitive-ratio experiments
compare against: the exact top-l benchmark (by enumeration), the exact
optimal-online value under a k-acceptance budget (backward induction), and
the exact best probability of catching the maximum in the random-arrival
setting.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import ProductInstance

STATE_SPACE_LIMIT = 10**7


class StateSpaceTooLargeError(RuntimeError):
    """Exact enumeration refused: the oracle must stay exact, not sampled."""


@dataclass(frozen=True)
class TopEllResult:
    indices: tuple[int, ...]
    value: float


def top_ell(values: Sequence[float], ell: int) -> TopEllResult:
    """Best subset of at most ell values and its total.

    Ties break toward the lower index, so the result is deterministic.
    Indices are 0-based and reported in increasing order.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    vals = np.asarray(values, dtype=float)
    take = min(ell, len(vals))
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))[:take]
    chosen = tuple(sorted(order))
    return TopEllResult(chosen, float(vals[list(chosen)].sum()))


def top_block(matrix: np.ndarray, m: int) -> np.ndarray:
    """The m largest entries of each row of a (rows, n) matrix, in no set
    order; the matrix itself when m >= n."""
    n = matrix.shape[1]
    if m == 1:
        return matrix.max(axis=1, keepdims=True)
    if m >= n:
        return matrix
    # copied out, so the partitioned (rows, n) buffer is freed at once
    return np.partition(matrix, n - m, axis=1)[:, n - m:].copy()


def top_ell_values(matrix: np.ndarray, ell: int) -> np.ndarray:
    """Row-wise top-ell sums of a (trials, n) matrix of nonnegative values."""
    return top_block(matrix, ell).sum(axis=1)


def _atom_lists(instance: ProductInstance) -> list[list[tuple[float, float]]]:
    lists = []
    for comp in instance.components:
        atoms = comp.atoms
        if atoms is None:
            raise StateSpaceTooLargeError("exact enumeration requires finite supports")
        lists.append(atoms)
    return lists


def exact_prophet_benchmark(instance: ProductInstance, ell: int) -> float:
    """Exact E[top-ell value] by enumerating all outcome combinations."""
    lists = _atom_lists(instance)
    total_outcomes = 1
    for atoms in lists:
        total_outcomes *= len(atoms)
        if total_outcomes > STATE_SPACE_LIMIT:
            raise StateSpaceTooLargeError(f"{total_outcomes} outcomes exceed the cutoff")
    expectation = 0.0
    for combo in itertools.product(*lists):
        prob = 1.0
        for _, p in combo:
            prob *= p
        vals = sorted((v for v, _ in combo), reverse=True)[:ell]
        expectation += prob * sum(vals)
    return expectation


@dataclass
class DpPolicyValue:
    """Exact optimal-online value plus the realizing accept/reject policy.

    The policy maps (position, kept top-ell tuple, accepted count) to a
    per-atom accept decision. The kept tuple stores only the top ell accepted
    values (ascending): lower accepted values never affect the objective or
    any future decision.
    """

    expected_value: float
    policy: dict = field(default_factory=dict)

    def policy_json(self) -> str:
        triples = [
            {"position": pos, "kept": list(kept), "count": cnt, "atom": atom, "accept": dec}
            for (pos, kept, cnt), decisions in sorted(self.policy.items())
            for atom, dec in sorted(decisions.items())
        ]
        return json.dumps(triples)


def optimal_online_dp(instance: ProductInstance, ell: int, k: int) -> DpPolicyValue:
    """Best achievable expected top-ell value for an online algorithm that
    accepts at most k elements, by backward induction over finite supports.

    Accept/reject ties break toward accept.
    """
    if ell < 1 or k < 1:
        raise ValueError("ell and k must be >= 1")
    lists = _atom_lists(instance)
    n = len(lists)
    memo: dict[tuple, float] = {}
    policy: dict[tuple, dict[float, bool]] = {}

    def value(pos: int, kept: tuple[float, ...], count: int) -> float:
        if pos == n:
            return sum(kept)
        key = (pos, kept, count)
        if key in memo:
            return memo[key]
        if len(memo) > STATE_SPACE_LIMIT:
            raise StateSpaceTooLargeError("DP state space exceeds the cutoff")
        total = 0.0
        decisions: dict[float, bool] = {}
        for atom, prob in lists[pos]:
            reject = value(pos + 1, kept, count)
            if count < k:
                new_kept = tuple(sorted(kept + (atom,))[-ell:])
                accept = value(pos + 1, new_kept, count + 1)
                take = accept >= reject
            else:
                accept, take = reject, False
            decisions[atom] = take
            total += prob * (accept if take else reject)
        memo[key] = total
        policy[key] = decisions
        return total

    return DpPolicyValue(value(0, (), 0), policy)


def secretary_max_prob_dp(n: int, k: int) -> float:
    """Exact best probability of accepting the overall maximum under random
    arrival order with at most k acceptances.

    Backward induction g(i, b) over (elements seen, remaining budget): the
    element at position i+1 is a record with probability 1/(i+1), and a
    record there is the overall maximum with probability (i+1)/n.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    # one rolling row: g[b] holds g(pos, b) and becomes g(pos - 1, b); b runs
    # downward, so g[b - 1] still holds g(pos, b - 1) when g[b] is rewritten
    g = [0.0] * (k + 1)
    for pos in range(n, 0, -1):
        p_record = 1.0 / pos
        p_max = pos / n
        miss_record = 1.0 - p_record
        miss_max = 1.0 - p_max
        for b in range(k, 0, -1):
            skip = g[b]
            accept = p_max + miss_max * g[b - 1]
            # max(accept, skip) without the builtin call, which dominates the loop
            g[b] = p_record * (accept if accept >= skip else skip) + miss_record * skip
    return g[k]
