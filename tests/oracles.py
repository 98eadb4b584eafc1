"""Test-only oracles: plain recomputations that the library never needs."""

import itertools

import numpy as np

from acqbench.acquisition import _check_features, _cosine_similarity_matrix
from acqbench.aggregation import EXPLOIT, AnnealingSchedule, annealing_phase


def facility_location_value(pool_features: np.ndarray, batch: np.ndarray) -> float:
    """Objective value of a batch under facility location's floored-cosine
    coverage, from the full n x n similarity matrix."""
    pool = _check_features(pool_features, "pool features")
    batch = np.asarray(batch, dtype=np.int64)
    if len(batch) == 0:
        return 0.0
    sims = _cosine_similarity_matrix(pool)
    return float(np.maximum(sims[:, batch].max(axis=1), 0.0).sum())


def exploit_lengths(sched: AnnealingSchedule, n: int) -> list[int]:
    """First n exploit phase lengths, read off `annealing_phase` round by round."""
    phases = (annealing_phase(sched, t) for t in itertools.count(1))
    runs = (len(list(run)) for phase, run in itertools.groupby(phases) if phase == EXPLOIT)
    return list(itertools.islice(runs, n))
