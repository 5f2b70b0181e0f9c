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
#: So is how a batch consumes its stream, which each sampler's docstring
#: states: `ProductInstance.sample_rank`, `ProductInstance.sample_rows`,
#: `experiments._candidate_walk` and `experiments.mechanism_revenue_trials`.
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
