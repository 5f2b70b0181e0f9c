"""Deterministic per-trial seed derivation.

Every trial (or fixed-size batch of trials) draws from a stream derived as
SeedSequence(entropy=master_seed, spawn_key=(index,)). The scheme is
injective in the index and independent of execution schedule, so sequential
and parallel runs consume identical randomness.
"""

from __future__ import annotations

import numpy as np

#: Trials per vectorized batch. Part of the reproducibility contract: batch
#: index b seeds the stream for trials [b * BATCH_SIZE, (b+1) * BATCH_SIZE).
#: So is how a batch consumes its stream. A sample-threshold engine first
#: draws its thresholds with `ProductInstance.sample_rank`: one beta draw per
#: row for an i.i.d. atomless instance, a full sample matrix otherwise. Then
#: a threshold engine draws the values with `ProductInstance.sample_rows`. On
#: an i.i.d. atomless instance those are reduced rows: one binomial count per
#: row, then one uniform per counted value above the threshold, row by row,
#: then a (trials, min(ell, n)) block of uniforms for the values below it.
#: On any other instance at a fixed threshold they are reduced rows too:
#: with one run of identical components, one binomial count per row of the
#: values at or above the threshold; with several, the standard exponentials
#: behind each run's geometric gaps, run after run, for each run that reaches
#: the threshold with a probability strictly between 0 and 1. Then one
#: uniform per value at or above the threshold, in row and arrival order,
#: then one (rows, n) block of uniforms for the rows with fewer than
#: min(ell, n) such values. At per-row thresholds on any other instance
#: `ProductInstance.sample_matrix` draws column i as the i-th block, as n
#: successive per-component `sample_n(rng, trials)` calls would. The revenue
#: engine draws its i.i.d. values with one C-order
#: `sample_n(rng, (trials, n))` call. The secretary engine draws one
#: `rng.random((rows, n))` block per row chunk, chunk after chunk, and column
#: g of a row is the arrival time of global rank g (0 = largest value).
BATCH_SIZE = 20_000


def derive_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Seed for one trial (or batch), injective in trial_index."""
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, trial_index))


def batch_indices(trials: int, batch: int = BATCH_SIZE):
    """Yield (batch_index, batch_size) pairs covering `trials`."""
    done = 0
    idx = 0
    while done < trials:
        size = min(batch, trials - done)
        yield idx, size
        done += size
        idx += 1
