"""Tests for uncertainty scorers and batch selectors."""

import itertools
import math

import numpy as np
import pytest

from acqbench.acquisition import (
    ProbabilityTensor,
    bald_scores,
    entropy_scores,
    facility_location_value,
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

    def test_deterministic_given_seed(self):
        emb = np.random.default_rng(2).normal(size=(9, 4))
        np.testing.assert_array_equal(select_kmeanspp(emb, 4, 5), select_kmeanspp(emb, 4, 5))


class TestFacilityLocation:
    def test_identical_rows_lowest_indices(self):
        pool = np.ones((6, 3))
        np.testing.assert_array_equal(select_facility_location(pool, 2), [0, 1])

    def test_full_budget(self):
        pool = np.random.default_rng(0).random((4, 3))
        assert sorted(select_facility_location(pool, 4)) == [0, 1, 2, 3]

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
        np.testing.assert_array_equal(select_disparity_min(feats, 1, seed_index=3), [3])

    def test_angle_example(self):
        angles = np.deg2rad([0.0, 10.0, 90.0])
        feats = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        np.testing.assert_array_equal(select_disparity_min(feats, 2, seed_index=0), [0, 2])

    def test_identical_candidates_lowest_indices(self):
        feats = np.ones((4, 2))
        np.testing.assert_array_equal(select_disparity_min(feats, 3, seed_index=0), [0, 1, 2])

    def test_seed_index_validated(self):
        with pytest.raises(ValueError):
            select_disparity_min(np.ones((3, 2)), 2, seed_index=5)


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
            select_disparity_min(feats, 4, seed_index=0),
        ]
        for batch in batches:
            assert len(batch) == 4
            assert len(set(batch.tolist())) == 4
            assert np.all((batch >= 0) & (batch < 9))
