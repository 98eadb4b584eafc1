"""Tests for uncertainty scorers and batch selectors."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from acqbench import acquisition
from acqbench.acquisition import (
    _BLOCK_BYTES,
    ProbabilityTensor,
    _check_budget,
    bald_scores,
    entropy_scores,
    gradient_embeddings,
    least_confident_scores,
    margin_scores,
    mean_std_scores,
    select_disparity_min,
    select_facility_location,
    select_k_centers,
    select_kmeanspp,
    select_power,
    select_top_k,
)
from acqbench.rng import _array, stream
from oracles import cosine_similarity_matrix, facility_location_value
from oracles import select_disparity_min as reference_disparity_min


def _tensor(rows, n_passes=1):
    """Stack the same [n, C] probability rows into an [n_passes, n, C] tensor."""
    arr = np.asarray(rows, dtype=float)
    return ProbabilityTensor(np.repeat(arr[None, :, :], n_passes, axis=0))


class TestProbabilityTensor:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            ProbabilityTensor(np.zeros((2, 3)))

    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            ProbabilityTensor(np.full((1, 1, 2), 0.7))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (1, 0, 3), (2, 1, 0)])
    def test_degenerate_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"degenerate tensor shape"):
            ProbabilityTensor(np.zeros(shape))

    @pytest.mark.parametrize("row", [[1.5, -0.5], [-0.5, 1.5]])
    def test_out_of_range_rejected(self, row):
        # the row sums to 1, so only the range check can refuse it
        with pytest.raises(ValueError, match=r"probabilities outside \[0, 1\]"):
            ProbabilityTensor(np.array([[row]]))

    def test_mean_over_passes(self):
        data = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        t = ProbabilityTensor(data)
        np.testing.assert_allclose(t.mean(), [[0.5, 0.5]])

    def test_properties(self):
        t = _tensor([[0.5, 0.5], [1.0, 0.0]], n_passes=3)
        assert (t.n_passes, t.n, t.n_classes) == (3, 2, 2)

    def test_callers_array_stays_writeable_and_detached(self):
        data = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        t = ProbabilityTensor(data)
        assert data.flags.writeable
        data[0, 0] = [0.0, 1.0]
        np.testing.assert_array_equal(t.data[0, 0], [1.0, 0.0])
        assert not t.data.flags.writeable


class TestProbabilityTensorNaN:
    # NaN fails every comparison, so it used to pass the range and row-sum
    # checks: bald_scores then returned zeros for an all-NaN stack
    def test_all_nan_stack_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            ProbabilityTensor(np.full((2, 3, 4), np.nan))

    def test_one_nan_cell_rejected(self):
        data = np.full((2, 3, 2), 0.5)
        data[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="probabilities"):
            ProbabilityTensor(data)


class TestEntropy:
    def test_uniform_four_classes(self):
        t = _tensor([[0.25, 0.25, 0.25, 0.25]])
        np.testing.assert_allclose(entropy_scores(t), [math.log(4)], atol=1e-9)

    def test_one_hot_zero(self):
        t = _tensor([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(entropy_scores(t), [0.0], atol=1e-9)

    def test_two_mass_symmetry(self):
        t = _tensor([[0.5, 0.5, 0.0, 0.0]])
        np.testing.assert_allclose(entropy_scores(t), [math.log(2)], atol=1e-9)


class TestLeastConfident:
    def test_basic(self):
        t = _tensor([[0.7, 0.2, 0.1]])
        np.testing.assert_allclose(least_confident_scores(t), [0.3], atol=1e-9)

    def test_one_hot(self):
        t = _tensor([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(least_confident_scores(t), [0.0], atol=1e-9)

    def test_uniform_five_classes(self):
        t = _tensor([[0.2] * 5])
        np.testing.assert_allclose(least_confident_scores(t), [0.8], atol=1e-9)


class TestMargin:
    def test_basic(self):
        t = _tensor([[0.7, 0.2, 0.1]])
        np.testing.assert_allclose(margin_scores(t), [-0.5], atol=1e-9)

    def test_one_hot(self):
        t = _tensor([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(margin_scores(t), [-1.0], atol=1e-9)

    def test_uniform_most_desirable(self):
        t = _tensor([[0.25, 0.25, 0.25, 0.25]])
        np.testing.assert_allclose(margin_scores(t), [0.0], atol=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            margin_scores(ProbabilityTensor(np.ones((1, 2, 1))))


class TestMeanStd:
    def test_identical_passes_zero(self):
        t = _tensor([[0.3, 0.7], [0.9, 0.1]], n_passes=4)
        np.testing.assert_allclose(mean_std_scores(t), [0.0, 0.0], atol=1e-9)

    def test_two_opposite_passes(self):
        # per class: E[p^2]=0.5, E[p]^2=0.25, sigma=0.5; mean over classes 0.5
        data = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        t = ProbabilityTensor(data)
        np.testing.assert_allclose(mean_std_scores(t), [0.5], atol=1e-9)

    def test_matches_direct_recomputation(self):
        g = np.random.default_rng(5)
        raw = g.random((3, 4, 5))
        raw /= raw.sum(axis=2, keepdims=True)
        t = ProbabilityTensor(raw)
        direct = np.sqrt(raw.var(axis=0)).mean(axis=1)
        np.testing.assert_allclose(mean_std_scores(t), direct, atol=1e-12)


class TestBald:
    def test_identical_passes_zero(self):
        t = _tensor([[0.3, 0.7]], n_passes=5)
        np.testing.assert_allclose(bald_scores(t), [0.0], atol=1e-9)

    def test_opposite_one_hots(self):
        data = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        t = ProbabilityTensor(data)
        np.testing.assert_allclose(bald_scores(t), [math.log(2)], atol=1e-9)

    def test_uniform_passes_zero(self):
        t = _tensor([[0.25] * 4], n_passes=3)
        np.testing.assert_allclose(bald_scores(t), [0.0], atol=1e-9)

    def test_nonnegative(self):
        g = np.random.default_rng(1)
        raw = g.random((4, 30, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        assert np.all(bald_scores(ProbabilityTensor(raw)) >= 0)


class TestScorerProperties:
    SCORERS = (
        entropy_scores,
        least_confident_scores,
        margin_scores,
        mean_std_scores,
        bald_scores,
    )

    def test_permutation_equivariance(self):
        g = np.random.default_rng(7)
        raw = g.random((3, 12, 4))
        raw /= raw.sum(axis=2, keepdims=True)
        t = ProbabilityTensor(raw)
        perm = g.permutation(12)
        tp = ProbabilityTensor(raw[:, perm, :])
        for scorer in self.SCORERS:
            np.testing.assert_allclose(scorer(tp), scorer(t)[perm], atol=1e-12)

    def test_mean_only_scorers_ignore_pass_structure(self):
        # entropy / least-confident / margin depend only on the MC-mean
        g = np.random.default_rng(8)
        raw = g.random((4, 6, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        t = ProbabilityTensor(raw)
        flat = ProbabilityTensor(raw.mean(axis=0, keepdims=True))
        for scorer in (entropy_scores, least_confident_scores, margin_scores):
            np.testing.assert_allclose(scorer(t), scorer(flat), atol=1e-12)


class TestTopK:
    def test_basic(self):
        np.testing.assert_array_equal(select_top_k(np.array([3.0, 1.0, 2.0]), 2), [0, 2])

    def test_tie_break_lowest_index(self):
        np.testing.assert_array_equal(select_top_k(np.array([1.0, 1.0, 0.0]), 1), [0])

    def test_full_budget(self):
        out = select_top_k(np.array([1.0, 3.0, 2.0]), 3)
        np.testing.assert_array_equal(out, [1, 2, 0])

    def test_budget_too_large(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([1.0, 2.0]), 3)

    def test_invariant_under_increasing_transform(self):
        g = np.random.default_rng(2)
        for _ in range(20):
            s = g.random(15)
            for f in (lambda x: 3 * x + 1, np.exp, lambda x: x**3):
                np.testing.assert_array_equal(select_top_k(s, 6), select_top_k(f(s), 6))


class TestPowerSelection:
    def test_uniform_scores_uniform_frequencies(self):
        # b=1 draws over equal scores: each of 4 indices expected n/4 times
        n_draws = 10**5
        counts = np.zeros(4)
        scores = np.ones(4)
        for seed in range(n_draws):
            counts[select_power(scores, 1, 1.0, seed)[0]] += 1
        expected = n_draws / 4
        sigma = math.sqrt(n_draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_large_power_matches_top_k(self):
        g = np.random.default_rng(3)
        scores = np.array([0.9, 0.1, 0.5, 0.7, 0.3])
        want = select_top_k(scores, 2)
        hits = sum(
            set(select_power(scores, 2, 100.0, seed)) == set(want) for seed in range(10**4)
        )
        assert hits / 10**4 >= 0.999
        del g

    def test_full_budget_returns_all(self):
        out = select_power(np.array([0.2, 0.5, 0.1]), 3, 1.0, 0)
        assert sorted(out) == [0, 1, 2]

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            select_power(np.array([-0.1, 1.0]), 1, 1.0, 0)

    def test_zero_scores_uniform_fallback(self):
        out = select_power(np.zeros(5), 3, 1.0, 11)
        assert len(set(out)) == 3

    def test_deterministic_given_seed(self):
        s = np.array([0.2, 0.5, 0.1, 0.9])
        np.testing.assert_array_equal(select_power(s, 2, 1.0, 42), select_power(s, 2, 1.0, 42))


# Reference oracles: the straightforward full-tensor k-centers and two
# recompute-every-gain facility locations, kept verbatim so the blocked and
# incremental selectors are checked pick for pick against them.
def _reference_k_centers(pool_features: np.ndarray, labeled_features: np.ndarray, b: int) -> np.ndarray:
    pool = _array(pool_features, "pool features", 2)
    labeled = _array(labeled_features, "labeled features", 2) if len(labeled_features) else None
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


def _reference_facility_location(pool_features: np.ndarray, b: int) -> np.ndarray:
    """Facility location off the full symmetric matrix, summing every gain in order."""
    pool = _array(pool_features, "pool features", 2)
    _check_budget(b, len(pool))
    sims = cosine_similarity_matrix(pool)
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


def _column_facility_location(pool_features: np.ndarray, b: int) -> np.ndarray:
    """Facility location reading candidate j's similarities as the column
    `clip(unit @ unit[j])` and summing its gain in order."""
    pool = _array(pool_features, "pool features", 2)
    _check_budget(b, len(pool))
    unit = acquisition._unit_rows(pool)
    cover = np.zeros(len(pool))
    chosen = np.empty(b, dtype=np.int64)
    blocked = np.zeros(len(pool), dtype=bool)
    for step in range(b):
        total = cover.sum()
        gains = np.array([np.cumsum(np.maximum(np.clip(unit @ row, -1.0, 1.0), cover))[-1] - total for row in unit])
        gains[blocked] = -np.inf
        pick = int(np.argmax(gains))
        chosen[step] = pick
        blocked[pick] = True
        cover = np.maximum(cover, np.clip(unit @ unit[pick], -1.0, 1.0))
    return chosen


def _reference_kmeanspp(embeddings: np.ndarray, b: int, seed: int) -> np.ndarray:
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
    sq_d = ((emb - emb[chosen[0]]) ** 2).sum(axis=1)
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
        sq_d = np.minimum(sq_d, ((emb - emb[pick]) ** 2).sum(axis=1))
    return np.asarray(chosen, dtype=np.int64)


def _selector_fixtures():
    """Seeded (pool, labeled, b) cases for the oracle checks.

    240 small pools cycle through signed Gaussian features (negative
    cosines), rounded features (ties), duplicated rows and nonnegative
    rounded features with all-zero rows; labeled sets of 0, 1 or several
    rows; and budgets 0, 1, n and one drawn in between. Then pools one row
    short of, at, and one row past k-centers' block of rows (as many rows
    as fill `_BLOCK_BYTES` with one bound per labeled row), and past two
    blocks, for a 192 x 16 labeled set.
    """
    g = np.random.default_rng(12)
    for i in range(240):
        n = int(g.integers(1, 61))
        w = int(g.integers(1, 6))
        pool = g.normal(size=(n, w))
        shape = i % 4
        if shape == 1:
            pool = np.round(pool)
        elif shape == 2:
            pool = pool[g.integers(0, max(1, n // 3), size=n)]
        elif shape == 3:
            pool = np.abs(np.round(pool, 1))
            pool[g.random(n) < 0.3] = 0.0
        n_lab = (0, 1, int(g.integers(2, 13)))[(i // 4) % 3]
        if i % 2:
            labeled = pool[g.integers(0, n, size=n_lab)]
        else:
            labeled = np.round(g.normal(size=(n_lab, w)), shape % 2)
        b = (0, 1, n, int(g.integers(0, n + 1)))[(i // 12) % 4]
        yield pool, labeled, b
    labeled = np.round(g.normal(size=(192, 16)), 1)
    rows = _BLOCK_BYTES // (8 * len(labeled))
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        pool = np.round(g.normal(size=(n, 16)), 1)
        pool[::7] = labeled[: len(pool[::7])]
        yield pool, labeled, n


def _pruning_fixtures():
    """Seeded (pool, labeled, b) cases where the distance selectors' cheap
    bounds are weakest.

    Rows offset by 1e4 to 1e8 from the origin with a spread of 1e-3, where
    cancellation in |p|^2 + |c|^2 - 2 p.c lets every pair within a cluster
    through the filter: one cluster, where every pair survives, or four,
    where about a quarter of them do. Then rows one ulp apart, and squared
    distances one ulp apart whose roots are equal; duplicated and all-zero
    rows; widths up to 512; and labeled sets spanning several of k-centers'
    row blocks, up to one larger than a whole block.
    """
    g = np.random.default_rng(21)
    for offset, w, clusters in itertools.product((1e4, 1e6, 1e8), (1, 2, 5, 32, 512), (1, 4)):
        n, n_lab = (60, 30) if w < 512 else (20, 10)
        center = offset * g.uniform(0.5, 1.5, size=w) * g.choice([-1.0, 1.0], size=w)
        shift = 0.01 * center * np.arange(clusters)[:, None]
        pool = center + shift[np.arange(n) % clusters] + 1e-3 * g.normal(size=(n, w))
        labeled = center + shift[np.arange(n_lab) % clusters] + 1e-3 * g.normal(size=(n_lab, w))
        yield pool, labeled, min(n, 25)
    for w in (1, 3, 16):
        base = g.normal(size=(10, w))
        pool = np.repeat(base, 4, axis=0)
        nudged = g.integers(0, w, size=len(pool))
        pool[np.arange(len(pool)), nudged] = np.nextafter(
            pool[np.arange(len(pool)), nudged], g.choice([-np.inf, np.inf], size=len(pool))
        )
        yield pool, base[:3], len(pool)
    # (s, 0) and (s, s * 2^-26) lie s^2 and s^2 (1 + 2^-52) from the origin,
    # and both roots round to s
    scales = 2.0 ** g.integers(-8, 9, size=12)
    pool = np.stack([np.repeat(scales, 2), np.repeat(scales, 2) * np.tile([0.0, 2.0**-26], 12)], axis=1)
    yield pool, np.zeros((1, 2)), 12
    yield pool[::-1].copy(), np.zeros((1, 2)), 12
    for w in (4, 64):
        pool = np.abs(np.round(g.normal(size=(50, w)), 1))
        pool = pool[g.integers(0, 20, size=50)]
        pool[g.random(50) < 0.3] = 0.0
        yield pool, np.vstack([np.zeros((2, w)), pool[:5]]), 30
    for w, n, n_lab in ((64, 40, 600), (512, 6, 1100)):
        labeled = np.round(g.normal(size=(n_lab, w)), 1)
        pool = np.round(g.normal(size=(n, w)), 1)
        pool[::5] = labeled[: len(pool[::5])]
        yield pool, labeled, n


def _reach_fixtures():
    """Seeded (pool, labeled, b) cases where the triangle-inequality test of
    `_Nearest` is tightest or degenerate, each picked to the last row.

    Integer points on a line and on a grid, where a later center lies
    exactly twice a row's distance from the row's nearest center and every
    distance is computed exactly; duplicated centers and rows; rows offset
    by 1e8 from the origin; width 1; and an empty labeled set.
    """
    g = np.random.default_rng(23)
    line = np.arange(21.0)[:, None] * [3.0, 4.0]
    yield line, line[:1], len(line)
    grid = np.stack(np.meshgrid(np.arange(-6.0, 7.0), np.arange(-6.0, 7.0)), axis=-1).reshape(-1, 2)
    yield grid, np.zeros((1, 2)), len(grid)
    base = g.normal(size=(6, 3))
    yield base[g.integers(0, 6, size=40)], base[[0, 0, 1, 1]], 40
    yield 1e8 + g.normal(size=(50, 4)), 1e8 + g.normal(size=(5, 4)), 50
    yield 1e8 + np.round(g.normal(size=(50, 2)) * 4), 1e8 + np.zeros((2, 2)), 50
    yield g.normal(size=(60, 1)), g.normal(size=(3, 1)), 60
    yield np.round(g.normal(size=(60, 1)) * 3), np.zeros((1, 1)), 60
    yield g.normal(size=(40, 5)), np.zeros((0, 5)), 40


def _traced_peak(call):
    """(call(), the most bytes tracemalloc saw allocated during it above what
    was allocated before)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _polygon_pools():
    """Regular polygons of 13 to 36 vertices, alone and with copies of every
    third vertex appended."""
    for n in (13, 16, 24, 36):
        angles = 2 * np.pi * np.arange(n) / n
        polygon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        yield polygon
        yield np.vstack([polygon, polygon[::3]])


def _brute_force_farthest_first(pool, labeled, b):
    """Reference greedy with explicit min-distance bookkeeping."""
    chosen = []
    centers = [row for row in labeled]
    for _ in range(b):
        best_i, best_d = None, -1.0
        for i in range(len(pool)):
            if i in chosen:
                continue
            if centers or chosen:
                d = min(
                    np.linalg.norm(pool[i] - c)
                    for c in centers + [pool[j] for j in chosen]
                )
            else:
                d = math.inf
            if d > best_d + 1e-12:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.array(chosen)


class TestCloserSq:
    def test_keeps_every_pair_that_can_beat_current(self):
        # each center's nearest quarter of rows beats a current one ulp above
        # its distance and must come back, with the full tensor's bits; the
        # other rows cannot beat half their distance
        for pool, labeled, _ in _pruning_fixtures():
            exact = ((pool[:, None, :] - labeled[None, :, :]) ** 2).sum(axis=2)
            for j in range(0, len(labeled), 3):
                near = exact[:, j] <= np.quantile(exact[:, j], 0.25)
                current = np.where(near, np.nextafter(exact[:, j], np.inf), exact[:, j] / 2)
                i, jj, sq = acquisition._closer_sq(pool, (pool**2).sum(axis=1), labeled[j : j + 1], current)
                assert set(np.flatnonzero(near)) <= set(i.tolist())
                np.testing.assert_array_equal(jj, np.zeros_like(i))
                np.testing.assert_array_equal(sq, exact[i, j])


class TestNearest:
    def test_every_center_matches_a_full_recomputation(self):
        # a row the triangle inequality rules out must not have a strictly
        # closer new center: after each center, every row's minimum holds
        # the bits of recomputing all its distances, and its `near` center
        # lies at exactly that distance
        g = np.random.default_rng(24)
        for pool, labeled, _ in itertools.chain(_selector_fixtures(), _pruning_fixtures(), _reach_fixtures()):
            nearest = acquisition._Nearest(pool, len(labeled) + len(pool))
            want = np.full(len(pool), np.inf)
            if len(labeled):
                nearest.add(labeled)
                want = ((pool[:, None] - labeled) ** 2).sum(axis=-1).min(axis=1)
            for c in g.permutation(len(pool)):
                nearest.add(pool[c : c + 1])
                want = np.minimum(want, ((pool - pool[c]) ** 2).sum(axis=1))
                np.testing.assert_array_equal(nearest.min_sq, want)
                at = np.isfinite(want)
                near_sq = ((pool - nearest.centers[nearest.near]) ** 2).sum(axis=1)
                np.testing.assert_array_equal(near_sq[at], want[at])

    def test_reach_covers_the_worst_rounding(self):
        # the least cc that `_reach` rules out, taken at its worst under the
        # rounding model (every distance off by g relative and w subnormals),
        # still puts the new center 4 M from the row's nearest one, M the
        # largest the row's own distance can be; the row then cannot get
        # strictly closer. Rows at zero, subnormal, tiny and huge minima
        u, s = Fraction(1, 2**53), Fraction(2) ** -1074
        for w in (1, 2, 3, 16, 96, 512, 10**6, 10**7 - 1):
            g = (w + 2) * u / (1 - (w + 2) * u)
            for min_sq in (0.0, 5e-324, 1e-310, 2.3e-308, 1e-200, 0.75, 1.0, 3.7, 1e100, 1e300, 1e308):
                with np.errstate(over="ignore"):
                    reach = acquisition._reach(np.array([min_sq]), w)[0]
                if reach == np.inf:
                    continue  # nothing is ruled out
                cc = Fraction(np.nextafter(reach, np.inf))
                assert (cc - w * s) / (1 + g) >= 4 * (Fraction(min_sq) + w * s) / (1 - g), (w, min_sq)

    def test_reach_keeps_a_center_at_exactly_twice_the_distance(self):
        # (3, 4) lies 5 from (0, 0) and from (6, 8), which lies 10 from (0, 0):
        # kept, by a margin of rounding size
        assert 100.0 <= acquisition._reach(np.array([25.0]), 2)[0] < 100.0 * (1 + 1e-12)


class TestKCenters:
    def test_one_dimensional_example(self):
        pool = np.array([[1.0], [2.0], [10.0]])
        labeled = np.array([[0.0]])
        np.testing.assert_array_equal(select_k_centers(pool, labeled, 2), [2, 1])

    def test_empty_budget(self):
        out = select_k_centers(np.zeros((3, 2)), np.zeros((1, 2)), 0)
        assert out.shape == (0,)

    def test_pool_equals_labeled_tie_break(self):
        pool = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(select_k_centers(pool, pool[:1], 2), [0, 1])

    def test_empty_labeled_starts_at_zero(self):
        pool = np.array([[5.0], [4.0], [9.0]])
        out = select_k_centers(pool, np.zeros((0, 1)), 2)
        assert out[0] == 0
        assert out[1] == 2  # 9.0 is farther from 5.0 than 4.0 is

    def test_matches_reference_greedy(self):
        g = np.random.default_rng(4)
        for _ in range(50):
            pool = g.normal(size=(8, 3))
            labeled = g.normal(size=(2, 3))
            np.testing.assert_array_equal(
                select_k_centers(pool, labeled, 4),
                _brute_force_farthest_first(pool, labeled, 4),
            )
        for pool, labeled, b in _selector_fixtures():
            np.testing.assert_array_equal(
                select_k_centers(pool, labeled, b), _reference_k_centers(pool, labeled, b)
            )

    def test_matches_reference_where_pruning_is_tightest(self):
        cases = itertools.chain(_selector_fixtures(), _pruning_fixtures(), _reach_fixtures())
        for pool, labeled, b in cases:
            np.testing.assert_array_equal(
                select_k_centers(pool, labeled, b), _reference_k_centers(pool, labeled, b)
            )

    def test_root_tie_goes_to_lowest_position(self):
        # squared distances 1 and 1 + 2^-52 share the root 1.0
        pool = np.array([[1.0, 0.0], [1.0, 2.0**-26]])
        np.testing.assert_array_equal(select_k_centers(pool, np.zeros((1, 2)), 1), [0])

    def test_memory_bounded_by_blocks(self):
        # the full [pool, labeled, width] difference tensor here is 146 MiB
        g = np.random.default_rng(5)
        pool, labeled = g.normal(size=(2000, 96)), g.normal(size=(100, 96))
        _, peak = _traced_peak(lambda: select_k_centers(pool, labeled, 1))
        assert peak < 32 * 2**20

    def test_every_pair_surviving_the_bound_stays_exact_and_chunked(self):
        # one tight cluster 1e8 from the origin: cancellation lets every pair
        # through `_closer_sq`'s bound. Its chunks keep the peak near 1 MiB;
        # one gather per block of rows would take 7 MiB, one gather of the
        # whole labeled pass 98 MiB
        g = np.random.default_rng(25)
        center = 1e8 * g.uniform(0.5, 1.5, size=32)
        pool = center + 1e-3 * g.normal(size=(2000, 32))
        labeled = center + 1e-3 * g.normal(size=(200, 32))
        picks, peak = _traced_peak(lambda: select_k_centers(pool, labeled, 50))
        assert peak < 4 * 2**20
        np.testing.assert_array_equal(picks, _reference_k_centers(pool, labeled, 50))

    def test_two_approximation(self):
        # greedy covering radius at most twice the exhaustive optimum
        g = np.random.default_rng(9)
        for _ in range(200):
            n = int(g.integers(4, 11))
            b = int(g.integers(1, 4))
            pool = g.normal(size=(n, 2))
            picks = select_k_centers(pool, np.zeros((0, 2)), b)
            d = np.linalg.norm(pool[:, None, :] - pool[None, :, :], axis=2)
            greedy_radius = d[:, picks].min(axis=1).max()
            opt = min(
                d[:, list(combo)].min(axis=1).max()
                for combo in itertools.combinations(range(n), b)
            )
            assert greedy_radius <= 2 * opt + 1e-9


class TestGradientEmbeddings:
    def test_one_hot_zero_row(self):
        t = _tensor([[1.0, 0.0]])
        f = np.array([[2.0, 3.0]])
        np.testing.assert_allclose(gradient_embeddings(t, f), np.zeros((1, 4)), atol=1e-12)

    def test_hand_example(self):
        t = _tensor([[0.6, 0.4]])
        f = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(
            gradient_embeddings(t, f), [[-0.4, -0.8, 0.4, 0.8]], atol=1e-12
        )

    def test_width(self):
        g = np.random.default_rng(0)
        raw = g.random((2, 5, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        t = ProbabilityTensor(raw)
        f = g.normal(size=(5, 7))
        assert gradient_embeddings(t, f).shape == (5, 21)

    def test_length_mismatch_rejected(self):
        t = _tensor([[0.6, 0.4]])
        with pytest.raises(ValueError):
            gradient_embeddings(t, np.zeros((3, 2)))


class TestKMeansPP:
    def test_two_clusters_one_pick_each(self):
        emb = np.vstack(
            [
                np.random.default_rng(0).normal(0.0, 0.01, size=(4, 2)),
                np.random.default_rng(1).normal(100.0, 0.01, size=(4, 2)),
            ]
        )
        hits = 0
        for seed in range(10**4):
            picks = select_kmeanspp(emb, 2, seed)
            hits += (picks < 4).sum() == 1
        assert hits / 10**4 >= 0.99

    def test_identical_embeddings_distinct_fallback(self):
        out = select_kmeanspp(np.ones((5, 3)), 3, 0)
        assert len(set(out)) == 3

    def test_single_pick_uniform(self):
        emb = np.arange(8.0).reshape(4, 2)
        counts = np.zeros(4)
        n_draws = 4 * 10**4
        for seed in range(n_draws):
            counts[select_kmeanspp(emb, 1, seed)[0]] += 1
        expected = n_draws / 4
        sigma = math.sqrt(n_draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_matches_reference_where_pruning_is_tightest(self):
        cases = itertools.chain(_selector_fixtures(), _pruning_fixtures(), _reach_fixtures())
        for seed, (pool, labeled, b) in enumerate(cases):
            for emb in (pool, labeled):
                k = min(b, len(emb))
                np.testing.assert_array_equal(select_kmeanspp(emb, k, seed), _reference_kmeanspp(emb, k, seed))

    def test_deterministic_given_seed(self):
        emb = np.random.default_rng(2).normal(size=(9, 4))
        np.testing.assert_array_equal(select_kmeanspp(emb, 4, 5), select_kmeanspp(emb, 4, 5))

    def test_memory_below_half_the_embeddings(self):
        # nearly every row survives the second pick's triangle test, so
        # gathering the survivors into new arrays, or one [n, w] temporary
        # of any kind, would pass half of the embeddings' bytes
        emb = np.random.default_rng(16).normal(size=(2500, 192))
        _, peak = _traced_peak(lambda: select_kmeanspp(emb, 50, 3))
        assert peak < emb.nbytes / 2


class TestFacilityLocation:
    def test_identical_rows_lowest_indices(self):
        pool = np.ones((6, 3))
        np.testing.assert_array_equal(select_facility_location(pool, 2), [0, 1])

    def test_full_budget(self):
        pool = np.random.default_rng(0).random((4, 3))
        assert sorted(select_facility_location(pool, 4)) == [0, 1, 2, 3]

    def test_matches_reference_greedy(self):
        for pool, _, b in _selector_fixtures():
            np.testing.assert_array_equal(select_facility_location(pool, b), _column_facility_location(pool, b))

    def test_matches_reference_where_bounds_are_weakest(self):
        for pool, _, b in _pruning_fixtures():
            np.testing.assert_array_equal(select_facility_location(pool, b), _column_facility_location(pool, b))

    def test_matches_reference_at_near_ties(self):
        # a regular polygon's rows hold the same similarities in rotated
        # order, so the exact gains tie and rounding alone ranks them, with
        # pairwise and in-order sums ranking them differently; appended
        # copies of every third vertex add exact ties
        flips = 0
        for pool in _polygon_pools():
            floored = np.maximum(cosine_similarity_matrix(pool), 0.0)
            flips += np.argmax(floored.sum(axis=1)) != np.argmax(floored.sum(axis=0))
            np.testing.assert_array_equal(
                select_facility_location(pool, len(pool)), _column_facility_location(pool, len(pool))
            )
        assert flips > 0  # some first pick differs between the two sums

    def test_matches_full_matrix_reference_on_continuous_features(self):
        # signed features make the first totals a blocked pass, and several
        # blocks of risen points per step exercise the angle pruning; late
        # gains of rectified features can tie to the last bits, so those
        # are held to the column reference only
        g = np.random.default_rng(32)
        for w in (1, 2, 3, 8, 32, 96):
            for _ in range(3):
                n = int(g.integers(2, 301))
                feats = g.normal(size=(n, w))
                for f in (feats, np.maximum(feats, 0.0)):
                    b = int(g.integers(1, min(n, 40) + 1))
                    got = select_facility_location(f, b)
                    np.testing.assert_array_equal(got, _column_facility_location(f, b))
                    if f is feats:
                        np.testing.assert_array_equal(got, _reference_facility_location(f, b))

    def test_differs_from_full_matrix_reference_only_at_near_ties(self, capsys):
        # each cosine of a matrix-vector column and of the symmetric product
        # is within (w + 4) eps of the exact one, so both covers and both
        # columns are; where the picks first part, the reference's own gains
        # of the two picks lie within 4 n (w + 4) eps plus both in-order sums'
        # n^2 eps of each other
        cases = differing = 0
        eps = np.finfo(np.float64).eps
        polygons = ((pool, None, len(pool)) for pool in _polygon_pools())
        for pool, _, b in itertools.chain(_selector_fixtures(), _pruning_fixtures(), polygons):
            n, w = pool.shape
            got, want = select_facility_location(pool, b), _reference_facility_location(pool, b)
            cases += 1
            if np.array_equal(got, want):
                continue
            differing += 1
            step = int(np.argmax(got != want))
            sims = cosine_similarity_matrix(pool)
            cover = np.maximum(sims[:, want[:step]].max(axis=1, initial=0.0), 0.0)
            gains = np.maximum(sims, cover[:, None]).sum(axis=0)
            assert abs(gains[got[step]] - gains[want[step]]) <= (4 * n * (w + 4) + 2 * n * n) * eps
        assert differing < cases
        with capsys.disabled():
            print(f"\nfacility_location picks differ from the full-matrix reference on {differing} of {cases} fixtures")

    def test_sums_in_order_every_gain_within_twice_the_slack(self, monkeypatch):
        # row 11 lies 2.5e-7 rad from row 10, the centre of a symmetric fan,
        # so its gain trails the best by between one and two slacks: a
        # total off by up to a slack could still rank it first
        angles = np.array([-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 2.5e-7])
        pool = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        (n, w), b, rows, u = pool.shape, 1, 16, np.finfo(np.float64).eps / 2
        slack = 4 * n * (2 * w + 8) * u + u * (n * (3 * n + w + rows + 4) + b * (n + 1) * (2 * rows + 2 * n / rows + 6))
        gains = np.maximum(cosine_similarity_matrix(pool), 0.0).sum(axis=1)
        assert np.argmax(gains) == 10 and slack < gains[10] - gains[11] < 2 * slack
        summed, cumsum = [], np.cumsum

        def counted_cumsum(a, **kwargs):
            summed.append(len(a))
            return cumsum(a, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted_cumsum)
        np.testing.assert_array_equal(select_facility_location(pool, b), [10])
        assert summed == [n, n]  # rows 10 and 11, each summed in order

    def test_duplicated_rows_verified_once_per_distinct_row(self, monkeypatch):
        # a thousand copies of one row tie exactly, so all are near-best at
        # the first step; only the lowest copy's column is summed, and the
        # picks still equal the column reference's
        g = np.random.default_rng(33)
        pool = np.repeat(np.abs(g.normal(size=(1, 96))), 1000, axis=0)
        pool = np.insert(pool, [0, 250, 500, 1000], np.abs(g.normal(size=(4, 96))), axis=0)
        want = _column_facility_location(pool, 8)
        summed, cumsum = [], np.cumsum

        def counted_cumsum(a, **kwargs):
            summed.append(len(a))
            return cumsum(a, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted_cumsum)
        np.testing.assert_array_equal(select_facility_location(pool, 8), want)
        assert len(summed) <= 8 * 5  # at most one column per distinct row and step

    def test_memory_linear_in_candidates(self):
        # the n x n similarity matrix alone would be 122 MiB here
        n, w = 4000, 96
        feats = np.maximum(np.random.default_rng(15).normal(size=(n, w)), 0.0)
        _, peak = _traced_peak(lambda: select_facility_location(feats, 50))
        assert peak < 4 * n * w * 8

    def test_submodular_guarantee(self):
        g = np.random.default_rng(6)
        bound = 1 - 1 / math.e
        for _ in range(100):
            n = int(g.integers(5, 13))
            b = int(g.integers(1, 4))
            pool = g.random((n, 3))  # nonnegative features
            greedy = facility_location_value(pool, select_facility_location(pool, b))
            opt = max(
                facility_location_value(pool, np.array(combo))
                for combo in itertools.combinations(range(n), b)
            )
            assert greedy >= bound * opt - 1e-9


class TestDisparityMin:
    def test_single_pick_is_seed(self):
        feats = np.random.default_rng(0).normal(size=(5, 2))
        np.testing.assert_array_equal(select_disparity_min(feats[[3, 0, 1, 2, 4]], 1), [0])

    def test_angle_example(self):
        angles = np.deg2rad([0.0, 10.0, 90.0])
        feats = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        np.testing.assert_array_equal(select_disparity_min(feats, 2), [0, 2])

    def test_identical_candidates_lowest_indices(self):
        feats = np.ones((4, 2))
        np.testing.assert_array_equal(select_disparity_min(feats, 3), [0, 1, 2])

    def test_matches_full_matrix_reference_on_continuous_features(self):
        g = np.random.default_rng(31)
        for w in (1, 2, 3, 8, 32, 96):
            for _ in range(6):
                n = int(g.integers(2, 401))
                feats = g.normal(size=(n, w))
                for f in (feats, np.maximum(feats, 0.0)):
                    b = int(g.integers(1, min(n, 60) + 1))
                    np.testing.assert_array_equal(select_disparity_min(f, b), reference_disparity_min(f, b))

    def test_differs_from_full_matrix_reference_only_at_near_ties(self, capsys):
        # a column from a matrix-vector product and one from the symmetric
        # product each hold every distance within (w + 2) eps of the exact
        # one, so where the picks first part the reference's distances of the
        # two picks lie within 2 (w + 2) eps of each other
        cases = differing = 0
        eps = np.finfo(np.float64).eps
        for pool, labeled, b in itertools.chain(_selector_fixtures(), _pruning_fixtures()):
            for feats in (pool, labeled):
                k = min(b, len(feats))
                got, want = select_disparity_min(feats, k), reference_disparity_min(feats, k)
                cases += 1
                if np.array_equal(got, want):
                    continue
                differing += 1
                step = int(np.argmax(got != want))
                min_d = (1.0 - cosine_similarity_matrix(feats))[:, want[:step]].min(axis=1)
                assert abs(min_d[got[step]] - min_d[want[step]]) <= 2 * (feats.shape[1] + 2) * eps
        with capsys.disabled():
            print(f"\ndisparity_min picks differ from the full-matrix reference on {differing} of {cases} fixtures")

    def test_memory_linear_in_candidates(self):
        # the n x n distance matrix alone would be 122 MiB here
        n, w = 4000, 96
        feats = np.maximum(np.random.default_rng(15).normal(size=(n, w)), 0.0)
        _, peak = _traced_peak(lambda: select_disparity_min(feats, 50))
        assert peak < 4 * n * w * 8


class TestSimilarityMatrix:
    def test_exactly_symmetric(self):
        # the full-matrix references read a candidate's row as its column
        for pool, labeled, _ in _selector_fixtures():
            for feats in (pool, labeled):
                if len(feats):
                    sims = cosine_similarity_matrix(feats)
                    np.testing.assert_array_equal(sims, sims.T)


class TestSelectorContracts:
    def test_distinct_in_bounds_exact_length(self):
        g = np.random.default_rng(10)
        raw = g.random((3, 9, 4))
        raw /= raw.sum(axis=2, keepdims=True)
        t = ProbabilityTensor(raw)
        feats = g.normal(size=(9, 5))
        batches = [
            select_top_k(entropy_scores(t), 4),
            select_power(bald_scores(t) + 1e-9, 4, 1.0, 0),
            select_k_centers(feats, g.normal(size=(2, 5)), 4),
            select_kmeanspp(gradient_embeddings(t, feats), 4, 0),
            select_facility_location(np.abs(feats), 4),
            select_disparity_min(feats, 4),
        ]
        for batch in batches:
            assert len(batch) == 4
            assert len(set(batch.tolist())) == 4
            assert np.all((batch >= 0) & (batch < 9))

    def test_empty_pool_gives_empty_batch(self):
        empty, t = np.empty((0, 3)), ProbabilityTensor(np.full((2, 1, 2), 0.5))
        batches = [
            select_top_k(np.empty(0), 0),
            select_power(np.empty(0), 0, 1.0, 0),
            select_k_centers(empty, np.ones((2, 3)), 0),
            select_kmeanspp(gradient_embeddings(t, np.ones((1, 3)))[:0], 0, 0),
            select_facility_location(empty, 0),
            select_disparity_min(empty, 0),
        ]
        for batch in batches:
            assert batch.dtype == np.int64 and batch.shape == (0,)
