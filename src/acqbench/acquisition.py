"""Acquisition scoring and selection primitives.

Scorers consume a stack of Monte Carlo softmax passes and return one
desirability score per candidate (higher = more worth labeling). Selectors
turn scores or feature geometry into an ordered batch of distinct candidate
positions. Everything here is positional: functions know nothing about
dataset indices, rounds, or models, which keeps them easy to test against
hand oracles.

Conventions fixed across the module: natural log everywhere; 0*ln(0) = 0;
ties broken toward the lowest position; returned batches are int64 arrays
of distinct positions into the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream


@dataclass(frozen=True)
class ProbabilityTensor:
    """Softmax outputs of n_passes stochastic forward passes, [k, n, C]."""

    data: np.ndarray

    def __post_init__(self):
        d = np.array(self.data, dtype=np.float64)
        if d.ndim != 3:
            raise ValueError(f"expected [n_passes, n, n_classes], got shape {d.shape}")
        if d.shape[0] < 1 or d.shape[1] < 1 or d.shape[2] < 1:
            raise ValueError(f"degenerate tensor shape {d.shape}")
        if d.min() < -1e-12 or d.max() > 1.0 + 1e-12:
            raise ValueError("probabilities outside [0, 1]")
        sums = d.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("probability rows must sum to 1 within 1e-9")
        object.__setattr__(self, "data", d)
        d.flags.writeable = False

    @property
    def n_passes(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def n_classes(self) -> int:
        return self.data.shape[2]

    def mean(self) -> np.ndarray:
        """MC-mean distribution, [n, n_classes]."""
        return self.data.mean(axis=0)


def _entropy(p: np.ndarray) -> np.ndarray:
    """Rowwise Shannon entropy in nats with the 0*ln(0)=0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def entropy_scores(t: ProbabilityTensor) -> np.ndarray:
    """Predictive entropy of the MC-mean distribution."""
    return _entropy(t.mean())


def least_confident_scores(t: ProbabilityTensor) -> np.ndarray:
    """One minus the MC-mean probability of the most likely class."""
    return 1.0 - t.mean().max(axis=1)


def margin_scores(t: ProbabilityTensor) -> np.ndarray:
    """Negated gap between the top two MC-mean probabilities.

    The sign flip makes higher mean "smaller margin", so selection is a
    plain argmax like every other scorer. Range [-1, 0].
    """
    if t.n_classes < 2:
        raise ValueError("margin requires at least 2 classes")
    ordered = np.sort(t.mean(), axis=1)
    return ordered[:, -2] - ordered[:, -1]


def mean_std_scores(t: ProbabilityTensor) -> np.ndarray:
    """Per-class std across passes (population form), averaged over classes."""
    var = t.data.var(axis=0)
    return np.sqrt(np.maximum(var, 0.0)).mean(axis=1)


def bald_scores(t: ProbabilityTensor) -> np.ndarray:
    """Mutual information between predictions and the dropout posterior.

    Entropy of the MC-mean minus mean per-pass entropy. Mathematically
    nonnegative; tiny negative rounding residue is clamped to zero.
    """
    disagreement = entropy_scores(t) - _entropy(t.data).mean(axis=0)
    return np.maximum(disagreement, 0.0)


def _check_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite scores")
    return s


def _check_budget(b: int, n: int) -> None:
    if b < 0:
        raise ValueError(f"budget must be >= 0, got {b}")
    if b > n:
        raise ValueError(f"budget {b} exceeds {n} candidates")


def select_top_k(scores: np.ndarray, b: int) -> np.ndarray:
    """Positions of the b highest scores, descending, ties to lower position."""
    s = _check_scores(scores)
    _check_budget(b, len(s))
    order = np.lexsort((np.arange(len(s)), -s))
    return order[:b].astype(np.int64)


def select_power(scores: np.ndarray, b: int, power: float, seed: int) -> np.ndarray:
    """Sample b positions without replacement with probability ~ score**power.

    Scores must be nonnegative. They are normalized by their max before
    exponentiation so large powers cannot overflow; the distribution is
    unchanged because it is scale-free. If fewer than b positions carry
    positive weight, the remainder is drawn uniformly from what is left.
    """
    s = _check_scores(scores)
    _check_budget(b, len(s))
    if s.min() < 0.0:
        raise ValueError("power selection requires nonnegative scores")
    if power <= 0.0:
        raise ValueError(f"power must be positive, got {power}")
    g = stream(seed)
    top = s.max()
    w = (s / top) ** power if top > 0.0 else np.zeros_like(s)

    chosen: list[int] = []
    remaining = np.arange(len(s))
    while len(chosen) < b:
        wr = w[remaining]
        total = wr.sum()
        if total <= 0.0:
            fill = g.choice(remaining, size=b - len(chosen), replace=False)
            chosen.extend(int(i) for i in fill)
            break
        pick = int(g.choice(remaining, p=wr / total))
        chosen.append(pick)
        remaining = remaining[remaining != pick]
    return np.asarray(chosen, dtype=np.int64)


def _check_features(f: np.ndarray, name: str = "features") -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"non-finite {name}")
    return f


def select_k_centers(pool_features: np.ndarray, labeled_features: np.ndarray, b: int) -> np.ndarray:
    """Greedy farthest-first traversal (k-center 2-approximation).

    Each pick maximizes the Euclidean distance to the nearest point in the
    labeled set plus the picks so far. An empty labeled set leaves every
    distance infinite, so the first pick is position 0 by the tie rule.
    """
    pool = _check_features(pool_features, "pool features")
    labeled = _check_features(labeled_features, "labeled features") if len(labeled_features) else None
    if labeled is not None and labeled.shape[1] != pool.shape[1]:
        raise ValueError("pool and labeled feature widths differ")
    _check_budget(b, len(pool))

    if labeled is None or len(labeled) == 0:
        min_d = np.full(len(pool), np.inf)
    else:
        diffs = pool[:, None, :] - labeled[None, :, :]
        min_d = np.sqrt((diffs**2).sum(axis=2)).min(axis=1)

    chosen = np.empty(b, dtype=np.int64)
    for step in range(b):
        pick = int(np.argmax(min_d))
        chosen[step] = pick
        d_new = np.sqrt(((pool - pool[pick]) ** 2).sum(axis=1))
        min_d = np.minimum(min_d, d_new)
        min_d[pick] = -np.inf
    return chosen


def gradient_embeddings(t: ProbabilityTensor, f: np.ndarray) -> np.ndarray:
    """Last-layer loss-gradient embeddings under the argmax pseudo-label.

    Row i flattens the outer product of (mean_probs_i - onehot(argmax_i))
    with the feature vector, giving width n_classes * feature_dim. A row is
    all zero exactly when the MC-mean is already one-hot.
    """
    feats = _check_features(f)
    if feats.shape[0] != t.n:
        raise ValueError(f"feature rows {feats.shape[0]} != tensor candidates {t.n}")
    mean = t.mean()
    resid = mean.copy()
    resid[np.arange(t.n), mean.argmax(axis=1)] -= 1.0
    return np.einsum("nc,nh->nch", resid, feats).reshape(t.n, t.n_classes * feats.shape[1])


def select_kmeanspp(embeddings: np.ndarray, b: int, seed: int) -> np.ndarray:
    """k-means++ seeding over embedding rows.

    First pick uniform; each later pick is drawn from the unchosen rows
    with probability proportional to squared Euclidean distance to the
    nearest chosen row, falling back to uniform when every remaining
    distance is zero.
    """
    emb = _check_features(embeddings, "embeddings")
    _check_budget(b, len(emb))
    if b == 0:
        return np.empty(0, dtype=np.int64)
    g = stream(seed)
    n = len(emb)
    chosen = [int(g.integers(n))]
    sq_d = ((emb - emb[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < b:
        remaining = np.setdiff1d(np.arange(n), chosen, assume_unique=False)
        w = sq_d[remaining]
        total = w.sum()
        if total <= 0.0:
            pick = int(g.choice(remaining))
        else:
            pick = int(g.choice(remaining, p=w / total))
        chosen.append(pick)
        sq_d = np.minimum(sq_d, ((emb - emb[pick]) ** 2).sum(axis=1))
    return np.asarray(chosen, dtype=np.int64)


def _cosine_similarity_matrix(f: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; rows with zero norm get similarity 0."""
    norms = np.sqrt((f**2).sum(axis=1))
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = f / safe[:, None]
    return np.clip(unit @ unit.T, -1.0, 1.0)


def select_facility_location(pool_features: np.ndarray, b: int) -> np.ndarray:
    """Greedy facility-location maximization over cosine similarity.

    Maximizes sum_i max(0, max_{j in batch} sim(i, j)) by picking the
    largest marginal gain each step. The zero floor keeps the objective
    monotone for arbitrary inputs; post-ReLU features are nonnegative so
    there it coincides with the unfloored objective. Greedy achieves at
    least (1 - 1/e) of the optimal batch value.
    """
    pool = _check_features(pool_features, "pool features")
    _check_budget(b, len(pool))
    sims = _cosine_similarity_matrix(pool)
    cover = np.zeros(len(pool))
    chosen = np.empty(b, dtype=np.int64)
    blocked = np.zeros(len(pool), dtype=bool)
    for step in range(b):
        gains = np.maximum(sims, cover[:, None]).sum(axis=0) - cover.sum()
        gains[blocked] = -np.inf
        pick = int(np.argmax(gains))
        chosen[step] = pick
        blocked[pick] = True
        cover = np.maximum(cover, sims[:, pick])
    return chosen


def facility_location_value(pool_features: np.ndarray, batch: np.ndarray) -> float:
    """Objective value of a batch under the same floored-cosine coverage."""
    pool = _check_features(pool_features, "pool features")
    batch = np.asarray(batch, dtype=np.int64)
    if len(batch) == 0:
        return 0.0
    sims = _cosine_similarity_matrix(pool)
    return float(np.maximum(sims[:, batch].max(axis=1), 0.0).sum())


def select_disparity_min(candidate_features: np.ndarray, b: int, seed_index: int = 0) -> np.ndarray:
    """Greedily grow a batch maximizing the minimum pairwise cosine distance.

    Starts from `seed_index` and repeatedly adds the candidate whose
    distance (1 - cosine similarity) to the nearest already-selected
    candidate is largest. Unlike the other selectors this one is order
    sensitive on purpose: position 0 of the candidate list is the default
    seed, which lets an upstream stage hand over its top-ranked pick.
    """
    feats = _check_features(candidate_features, "candidate features")
    _check_budget(b, len(feats))
    if b == 0:
        return np.empty(0, dtype=np.int64)
    if not 0 <= seed_index < len(feats):
        raise ValueError(f"seed_index {seed_index} out of range for {len(feats)} candidates")
    dist = 1.0 - _cosine_similarity_matrix(feats)
    chosen = np.empty(b, dtype=np.int64)
    chosen[0] = seed_index
    min_d = dist[:, seed_index].copy()
    min_d[seed_index] = -np.inf
    for step in range(1, b):
        pick = int(np.argmax(min_d))
        chosen[step] = pick
        min_d = np.minimum(min_d, dist[:, pick])
        min_d[pick] = -np.inf
    return chosen
