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
#: it draws the values. `ProductInstance.sample_matrix` draws column i as the
#: i-th block, as n successive per-component `sample_n(rng, trials)` calls
#: would; the revenue engine draws its i.i.d. values with one C-order
#: `sample_n(rng, (trials, n))` call.
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
