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
#: draws its thresholds with `ProductInstance.sample_rank`: one beta draw
#: per row for a single run of identical components, of any kind, a full
#: sample matrix otherwise. Then a threshold engine draws the values with
#: `ProductInstance.sample_rows`, each by inversion through its component's
#: `isf`. For a single run, at a fixed or per-row threshold, those are
#: reduced rows: first the count of each row's values at or above the
#: threshold, one uniform per row at a fixed threshold, looked up in a table
#: of the binomial CDF, and one `rng.binomial` draw per row at per-row
#: thresholds; then one uniform per value kept in arrival order, row by row
#: (every counted value of a row with more than k, the first of any other);
#: then a (rows with 2 to k counted values, min(ell, n)) block of uniforms
#: for the top of the rest; then a (rows with fewer than min(ell, n) counted
#: values, min(ell, n)) block for the values below the threshold. At a fixed
#: threshold with exactly one atom at or above it, the two draws for the
#: counted values are skipped; the counts are still drawn. For several runs at a fixed threshold they
#: are reduced rows too: the standard exponentials behind each run's
#: geometric gaps, run after run, for each run that reaches the threshold
#: with a probability strictly between 0 and 1, then one uniform per value
#: at or above the threshold, in row and arrival order, then one (rows, n)
#: block of uniforms for the rows with fewer than min(ell, n) such values.
#: For several runs at per-row thresholds `ProductInstance.sample_matrix`
#: draws column i as the i-th block, as n successive per-component
#: `sample_n(rng, trials)` calls would. The revenue engine draws its i.i.d.
#: values with one C-order `sample_n(rng, (trials, n))` call. The secretary
#: engine walks the ranks of all the batch's rows together, best first
#: (`experiments._candidate_walk`): each step draws, for the rows still
#: walking, in row order, one block of standard exponentials, then one
#: block of binomial skips, then one block of uniform integers, the index
#: of the next candidate's position among the free ones it can take.
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
