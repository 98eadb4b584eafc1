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

from .rng import _array, _integer, _number, _read_only, stream

# Byte budget for one block of the distance kernels' bound arrays or
# differences; under glibc's default 128 KiB mmap threshold, so a block's
# arrays come from the heap rather than from freshly mapped pages.
_BLOCK_BYTES = 96 << 10


@dataclass(frozen=True)
class ProbabilityTensor:
    """Softmax outputs of n_passes stochastic forward passes, [k, n, C]."""

    data: np.ndarray

    def __post_init__(self):
        d = _array(self.data, "probabilities", 3, frozen=True)
        if d.shape[0] < 1 or d.shape[1] < 1 or d.shape[2] < 1:
            raise ValueError(f"degenerate tensor shape {d.shape}")
        if d.min() < -1e-12 or d.max() > 1.0 + 1e-12:
            raise ValueError("probabilities outside [0, 1]")
        if np.max(np.abs(d.sum(axis=2) - 1.0)) > 1e-9:
            raise ValueError("probability rows must sum to 1 within 1e-9")
        object.__setattr__(self, "data", d)

    @classmethod
    def _of_softmax(cls, stack: np.ndarray) -> ProbabilityTensor:
        """The tensor of a softmax stack its caller has just built and holds
        no other reference to: frozen in place, without the copy and the
        range scan the public constructor makes."""
        t = object.__new__(cls)
        object.__setattr__(t, "data", _read_only(stack))
        return t

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


def _check_budget(b: int, n: int) -> None:
    if _integer(b, "budget", 0) > n:
        raise ValueError(f"budget {b} exceeds {n} candidates")


def select_top_k(scores: np.ndarray, b: int) -> np.ndarray:
    """Positions of the b highest scores, descending, ties to lower position."""
    s = _array(scores, "scores", 1)
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
    s = _array(scores, "scores", 1)
    _check_budget(b, len(s))
    if (s < 0.0).any():
        raise ValueError("power selection requires nonnegative scores")
    power = _number(power, "power", gt=0)
    g = stream(seed)
    top = s.max(initial=0.0)
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


def _closer_sq(rows: np.ndarray, row_sq: np.ndarray, centers: np.ndarray, current: np.ndarray):
    """(i, j, exact `((rows[i] - centers[j]) ** 2).sum(axis=-1)`): for each
    row i with a center j whose bound says it can beat `current[i]`, the
    least such j (ties to the lower center).

    The bound |p|^2 + |c|^2 - 2 p.c (`row_sq` is |p|^2) is one GEMM and only
    filters: its error grows with the norms, not the distance. With unit
    roundoff u and width w it is within (2w + 1) u (|p|^2 + |c|^2) + u |bound|
    of the distance, a computed distance within (w + 2) u of it; `slack`
    covers both (times 1 + 2^-20, plus 4w subnormals). A pair is skipped
    only when bound - slack > `current[i]`, first lowered to the row's least
    bound + slack; a NaN bound keeps it. Kept pairs get the full tensor's
    bits, computed about `_BLOCK_BYTES` of differences at a time.
    """
    w, fp = rows.shape[1], np.finfo(np.float64)
    norms = row_sq[:, None] + np.einsum("ij,ij->i", centers, centers)
    approx = norms - 2.0 * (rows @ centers.T)
    slack = (1 + 2.0**-20) * fp.eps / 2 * ((2 * w + 1) * norms + (w + 4) * np.abs(approx)) + 4 * w * fp.smallest_subnormal
    keep = ~(approx - slack > np.minimum(current, (approx + slack).min(axis=1))[:, None])
    i, j = np.nonzero(keep)
    sq, step = np.empty(len(i)), max(1, _BLOCK_BYTES // max(8 * w, 1))
    for lo in range(0, len(i), step):
        sq[lo : lo + step] = ((rows[i[lo : lo + step]] - centers[j[lo : lo + step]]) ** 2).sum(axis=-1)
    if len(centers) > 1:  # each row's least kept pair, ties to the lower center
        least = np.lexsort((sq, i))
        least = least[np.r_[True, i[least[1:]] != i[least[:-1]]]]
        i, j, sq = i[least], j[least], sq[least]
    return i, j, sq


def _reach(min_sq: np.ndarray, w: int) -> np.ndarray:
    """For each row, the squared distance `cc` from its nearest center n to
    a new center c beyond which c cannot be strictly closer to the row.

    Each squared distance here is a sum of w squared differences, summed in
    some order: within g = (w + 2) u / (1 - (w + 2) u) of the exact d^2,
    relative, plus w s from underflow (u the unit roundoff, s the least
    subnormal). So the row x lies at most M = (min_sq + w s) / (1 - g) from
    n, squared. If d(c, n)^2 >= 4M, the triangle inequality gives
    d(x, c) >= d(c, n) - d(x, n) >= sqrt(M) (Elkan 2003), so x's computed
    distance to c is at least (1 - g) M - w s = min_sq. Since
    d(c, n)^2 >= (cc - w s) / (1 + g), that holds once
    cc >= 4 r (min_sq + w s) + w s, r = (1 + g) / (1 - g). The reach
    4 fl(fl(min_sq + 2 w s) f), f = 1 + (w + 4) eps, is at least that: for
    widths below 10^7, f (1 - u)^2 >= r covers its two relative roundings,
    and the extra w s the absolute ones. An infinite min_sq, or one whose
    reach overflows, rules nothing out.
    """
    fp = np.finfo(np.float64)
    return 4.0 * ((min_sq + 2 * w * fp.smallest_subnormal) * (1.0 + (w + 4) * fp.eps))


class _Nearest:
    """Each point's least computed squared distance to a growing set of
    centers, `min_sq`; for the triangle test, a center at that distance,
    `near`, and its `_reach`.

    The first `add` (the labeled set, or a first pick) bounds every point
    against its centers in blocks of rows whose bound arrays take about
    `_BLOCK_BYTES`. Each later center c gets its squared distances to the
    centers so far, and a point whose nearest center lies beyond its reach
    from c keeps its distance. The rest are gathered into one buffer reused
    across calls; when more than an eighth of the points remain, every point
    is bounded instead. `_closer_sq` computes each distance a bound keeps
    exactly, so `min_sq` holds the bits of a full recomputation, and only a
    strictly smaller distance moves it.
    """

    def __init__(self, points: np.ndarray, capacity: int):
        n, w = points.shape
        self.points, self.points_sq = points, np.einsum("ij,ij->i", points, points)
        self.min_sq, self.centers, self.m = np.full(n, np.inf), np.empty((capacity, w)), 0
        self.reach, self.near = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
        self.diff, self.buf = np.empty((capacity, w)), np.empty((n // 8, w))

    def add(self, new: np.ndarray) -> None:
        """Make the rows of `new` centers: all rows of a first call, then one."""
        m, k, n = self.m, len(new), len(self.points)
        self.centers[m : m + k] = new
        self.m += k
        if m:
            d = np.subtract(self.centers[:m], new[0], out=self.diff[:m])
            live = np.flatnonzero(np.einsum("ij,ij->i", d, d)[self.near] <= self.reach)
            if len(live) <= len(self.buf):
                self._lower(live, np.take(self.points, live, axis=0, out=self.buf[: len(live)]), new, m)
                return
        step = max(1, _BLOCK_BYTES // (8 * k))
        for lo in range(0, n, step):
            self._lower(slice(lo, lo + step), self.points[lo : lo + step], new, m)

    def _lower(self, at, rows: np.ndarray, new: np.ndarray, m: int) -> None:
        """Lower the distances of `rows`, the points at `at` (positions, or
        a slice), to the new centers."""
        i, j, sq = _closer_sq(rows, self.points_sq[at], new, self.min_sq[at])
        i = i + at.start if isinstance(at, slice) else at[i]
        fell = sq < self.min_sq[i]
        i, sq = i[fell], sq[fell]
        self.min_sq[i], self.near[i], self.reach[i] = sq, j[fell] + m, _reach(sq, rows.shape[1])


def select_k_centers(pool_features: np.ndarray, labeled_features: np.ndarray, b: int) -> np.ndarray:
    """Greedy farthest-first traversal (k-center 2-approximation).

    Each pick maximizes the Euclidean distance to the nearest point in the
    labeled set plus the picks so far. An empty labeled set leaves every
    distance infinite, so the first pick is position 0 by the tie rule.

    Squared distances come from `_Nearest`: one GEMM per block of pool rows
    for the labeled set, then per pick only the rows the triangle
    inequality cannot rule out. The argmax runs on the minima's square
    roots, so distinct squares that round to one root still tie to the
    lowest position.
    """
    pool = _array(pool_features, "pool features", 2)
    labeled = _array(labeled_features, "labeled features", (None, pool.shape[1])) if len(labeled_features) else None
    _check_budget(b, len(pool))

    nearest = _Nearest(pool, b + (0 if labeled is None else len(labeled)))
    if labeled is not None:
        nearest.add(labeled)
    min_d = np.sqrt(nearest.min_sq)

    chosen = np.empty(b, dtype=np.int64)
    for step in range(b):
        pick = int(np.argmax(min_d))
        chosen[step] = pick
        nearest.add(pool[pick : pick + 1])
        np.sqrt(nearest.min_sq, out=min_d)
        min_d[chosen[: step + 1]] = -np.inf
    return chosen


def gradient_embeddings(t: ProbabilityTensor, f: np.ndarray) -> np.ndarray:
    """Last-layer loss-gradient embeddings under the argmax pseudo-label.

    Row i flattens the outer product of (mean_probs_i - onehot(argmax_i))
    with the feature vector, giving width n_classes * feature_dim. A row is
    all zero exactly when the MC-mean is already one-hot.
    """
    feats = _array(f, "features", (t.n, None))
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
    emb = _array(embeddings, "embeddings", 2)
    _check_budget(b, len(emb))
    if b == 0:
        return np.empty(0, dtype=np.int64)
    g = stream(seed)
    n = len(emb)
    chosen = [int(g.integers(n))]
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    nearest = _Nearest(emb, b)
    nearest.add(emb[chosen[0] : chosen[0] + 1])
    sq_d = nearest.min_sq
    while len(chosen) < b:
        remaining = np.flatnonzero(~taken)
        w = sq_d[remaining]
        total = w.sum()
        if total <= 0.0:
            pick = int(g.choice(remaining))
        else:
            pick = int(g.choice(remaining, p=w / total))
        chosen.append(pick)
        taken[pick] = True
        nearest.add(emb[pick : pick + 1])
    return np.asarray(chosen, dtype=np.int64)


def _unit_rows(f: np.ndarray) -> np.ndarray:
    """Rows scaled to unit Euclidean norm; rows with zero norm stay zero."""
    norms = np.sqrt((f**2).sum(axis=1))
    return f / np.where(norms > 0.0, norms, 1.0)[:, None]


def _raise_cover(unit, tot, cover, sims, cands, rows, tol, buf):
    """Raise `cover` to a pick's similarities `sims` and add the change to
    the totals of `cands`: new_i - clip(sim(i, j), old_i, new_i), summed
    over the points i whose cover rose. Every block's product goes into
    `buf`, at least min(rows, n) * n floats, so one block is held at a time.

    Those points go in blocks of `rows`, lowest reach first, and each block
    is one GEMM against only the candidates it can reach. On the unit
    sphere angle(i, j) >= angle(j, p) - angle(i, p), so a candidate farther
    from the pick p than a block's largest reach angle(i, p) + arccos(old_i)
    has sim(i, j) <= old_i for the whole block, and its change is exactly
    the block's gap sum. Every cosine moves by `tol` toward the safe side
    before arccos, and every angle by 16 eps, several ulps of pi, for
    arccos's own rounding.
    """
    rise = np.flatnonzero(sims > cover)
    if len(rise) == 0:
        return
    old, new = cover[rise], sims[rise]
    cover[rise] = new
    margin = 16 * np.finfo(np.float64).eps
    far = np.arccos(np.minimum(sims[cands] + tol, 1.0)) - margin
    reach = np.arccos(np.maximum(new - tol, -1.0)) + np.arccos(np.maximum(old - tol, -1.0)) + margin
    by_reach = np.argsort(reach)
    near = np.flatnonzero(far <= reach[by_reach[-1]])
    near = near[np.argsort(far[near])]
    far, near, near_units = far[near], cands[near], unit[cands[near]]
    tot[cands] += (new - old).sum()
    delta = np.zeros(len(near))
    for lo in range(0, len(rise), rows):
        blk = by_reach[lo : lo + rows]
        k = np.searchsorted(far, reach[blk[-1]], side="right")
        s = np.matmul(unit[rise[blk]], near_units[:k].T, out=buf[: len(blk) * k].reshape(len(blk), k))
        np.maximum(s, old[blk, None], out=s)
        np.minimum(s, new[blk, None], out=s)
        delta[:k] += old[blk].sum() - s.sum(axis=0)
    tot[near] += delta


def select_facility_location(pool_features: np.ndarray, b: int) -> np.ndarray:
    """Greedy facility-location maximization over cosine similarity.

    Maximizes sum_i max(0, max_{j in batch} sim(i, j)) by picking the
    largest marginal gain each step. The zero floor keeps the objective
    monotone for arbitrary inputs; post-ReLU features are nonnegative so
    there it coincides with the unfloored objective. Greedy achieves at
    least (1 - 1/e) of the optimal batch value.

    Candidate j's similarities are the column `clip(unit @ unit[j])`, as
    in `select_disparity_min`, and memory stays O(n * width): no n x n
    matrix is built. Each candidate keeps a total
    tot[j] = sum_i max(sim(i, j), cover_i), every cover 0 at first, and
    its gain is tot[j] - sum(cover). The first totals are one matrix-vector
    product `unit @ unit.sum(0)` when no feature is negative, else one pass
    of clip(sim, 0, 1) in blocks of `rows` = max(width, 16) rows. After a
    pick only the points whose cover rose change a total (`_raise_cover`).

    Bound, then verify: the picks are those of summing every candidate's
    column in order with `np.cumsum`. A total and that sum each stay near
    the exact sum over the rows' directions, and `slack` bounds their
    distance. Every computed cosine is within tol = (w + 4) eps of the
    exact one: w u from the product, (w + 4) u from the unit rows' norms.
    A point's terms telescope over disjoint cover intervals, so its cosine
    errors add up to 3 tol in a total and tol in a column. The sums of
    terms in [0, 1] add at most n (3n + w + rows + 4) u over a call: the
    first totals, the gap sums (which telescope too) and the in-order sum.
    Each step adds at most (n + 1)(2 rows + 2n / rows + 6) u: at most
    n / rows + 1 blocks, each summing at most `rows` terms in [0, 1] into a
    partial sum below n + 1. So only candidates within 2 `slack` of the
    best total can win. Each gets its column, summed in order, and ties go
    to the lowest position. Bit-identical unit rows give bit-identical
    columns, so of those only the lowest position is verified.
    """
    pool = _array(pool_features, "pool features", 2)
    n, w = pool.shape
    _check_budget(b, n)
    chosen = np.empty(b, dtype=np.int64)
    if b == 0:
        return chosen
    unit = _unit_rows(pool)
    rows, u = max(w, 16), np.finfo(np.float64).eps / 2
    tol = (2 * w + 8) * u
    slack = 4 * n * tol + u * (n * (3 * n + w + rows + 4) + b * (n + 1) * (2 * rows + 2 * n / rows + 6))
    if pool.min() >= 0.0:
        tot = unit @ unit.sum(axis=0)
    else:
        tot = sum(np.clip(unit[lo : lo + rows] @ unit.T, 0.0, 1.0).sum(axis=0) for lo in range(0, n, rows))
    cover, buf = np.zeros(n), np.empty(min(rows, n) * n)
    live = np.ones(n, dtype=bool)
    for step in range(b):
        total = cover.sum()
        gain = np.where(live, tot - total, -np.inf)
        best, seen = -np.inf, set()
        for j in np.flatnonzero(gain >= gain.max() - 2 * slack):
            if unit[j].tobytes() in seen:  # the same column as a lower position's, which won the tie
                continue
            seen.add(unit[j].tobytes())
            col = np.clip(unit @ unit[j], -1.0, 1.0)
            exact = np.cumsum(np.maximum(col, cover))[-1] - total
            if exact > best:
                best, chosen[step], sims = exact, j, col
        live[chosen[step]] = False
        if step + 1 < b:
            _raise_cover(unit, tot, cover, sims, np.flatnonzero(live), rows, tol, buf)
    return chosen


def select_disparity_min(candidate_features: np.ndarray, b: int) -> np.ndarray:
    """Greedily grow a batch maximizing the minimum pairwise cosine distance.

    Starts from position 0 and repeatedly adds the candidate whose
    distance (1 - cosine similarity) to the nearest already-selected
    candidate is largest. Unlike the other selectors this one is order
    sensitive on purpose: position 0 of the candidate list is the seed,
    which lets an upstream stage hand over its top-ranked pick: every
    distance starts infinite, so the first pick is position 0 by the tie rule.

    Only the picks' distance columns are read, each as one matrix-vector
    product `1 - clip(unit @ unit[pick])`, so memory stays O(n * width).
    Its rounding can differ from a symmetric product's in the last bit, so
    only near ties can rank differently than from the full matrix.
    """
    feats = _array(candidate_features, "candidate features", 2)
    _check_budget(b, len(feats))
    unit = _unit_rows(feats)
    chosen = np.empty(b, dtype=np.int64)
    min_d = np.full(len(unit), np.inf)
    for step in range(b):
        pick = chosen[step] = np.argmax(min_d)
        np.minimum(min_d, 1.0 - np.clip(unit @ unit[pick], -1.0, 1.0), out=min_d)
        min_d[pick] = -np.inf
    return chosen
