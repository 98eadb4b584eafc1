"""Test-only oracles: plain recomputations that the library never needs."""

import itertools

import numpy as np

from acqbench.acquisition import _check_budget, _unit_rows
from acqbench.aggregation import EXPLOIT, AnnealingSchedule, annealing_phase
from acqbench.rng import _array


def cosine_similarity_matrix(f: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; rows with zero norm get similarity 0.

    `unit @ unit.T` goes to a symmetric rank-k update that computes one
    triangle and mirrors it, so the matrix is exactly symmetric.
    """
    unit = _unit_rows(f)
    sims = unit @ unit.T
    return np.clip(sims, -1.0, 1.0, out=sims)


def facility_location_value(pool_features: np.ndarray, batch: np.ndarray) -> float:
    """Objective value of a batch under facility location's floored-cosine
    coverage, from the full n x n similarity matrix."""
    pool = _array(pool_features, "pool features", 2)
    batch = np.asarray(batch, dtype=np.int64)
    if len(batch) == 0:
        return 0.0
    sims = cosine_similarity_matrix(pool)
    return float(np.maximum(sims[:, batch].max(axis=1), 0.0).sum())


# `acquisition.select_disparity_min` as it was when it read its columns off
# the full n x n distance matrix.
def select_disparity_min(candidate_features: np.ndarray, b: int) -> np.ndarray:
    """Greedily grow a batch maximizing the minimum pairwise cosine distance.

    Starts from position 0 and repeatedly adds the candidate whose
    distance (1 - cosine similarity) to the nearest already-selected
    candidate is largest. Unlike the other selectors this one is order
    sensitive on purpose: position 0 of the candidate list is the seed,
    which lets an upstream stage hand over its top-ranked pick.
    """
    feats = _array(candidate_features, "candidate features", 2)
    _check_budget(b, len(feats))
    if b == 0:
        return np.empty(0, dtype=np.int64)
    sims = cosine_similarity_matrix(feats)
    dist = np.subtract(1.0, sims, out=sims)
    chosen = np.empty(b, dtype=np.int64)
    chosen[0] = 0
    min_d = dist[:, 0].copy()
    min_d[0] = -np.inf
    for step in range(1, b):
        pick = int(np.argmax(min_d))
        chosen[step] = pick
        min_d = np.minimum(min_d, dist[:, pick])
        min_d[pick] = -np.inf
    return chosen


def exploit_lengths(sched: AnnealingSchedule, n: int) -> list[int]:
    """First n exploit phase lengths, read off `annealing_phase` round by round."""
    phases = (annealing_phase(sched, t) for t in itertools.count(1))
    runs = (len(list(run)) for phase, run in itertools.groupby(phases) if phase == EXPLOIT)
    return list(itertools.islice(runs, n))


# Reference for `aggregation.parallel_ranked_select` that ranks with its own
# lexsort instead of `select_top_k`.
def parallel_ranked_select(s1: np.ndarray, s2: np.ndarray, b: int) -> np.ndarray:
    """Positions with the b smallest rank sums across two score vectors.

    Each vector is ranked 1 = best by descending score; tied scores give
    the better rank to the lower position. Output is ordered by ascending
    rank sum, then position.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape or s1.ndim != 1:
        raise ValueError(f"score vectors must be equal-length 1-D, got {s1.shape} and {s2.shape}")
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise ValueError("non-finite scores")
    n = len(s1)
    if not 0 <= b <= n:
        raise ValueError(f"budget {b} out of range for {n} candidates")

    def ranks(s):
        order = np.lexsort((np.arange(n), -s))
        r = np.empty(n, dtype=np.int64)
        r[order] = np.arange(1, n + 1)
        return r

    sums = ranks(s1) + ranks(s2)
    return np.lexsort((np.arange(n), sums))[:b].astype(np.int64)
