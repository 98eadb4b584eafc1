"""Tests for the combination structures and their model-free policy.

The structures are exercised through their `Strategy` classes with a
fixed-score test leaf, so no model is needed.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from acqbench.acquisition import select_k_centers, select_top_k
from acqbench.aggregation import (
    EXPLOIT,
    EXPLORE,
    AnnealingSchedule,
    FeedbackState,
    annealing_phase,
    check_selection,
    feedback_choice,
    feedback_update,
    parallel_ranked_select,
    random_alternate,
)
from acqbench.rng import stream
from acqbench.strategies import (
    AnnealingStrategy,
    FeedbackStrategy,
    HybridStrategy,
    ParallelStrategy,
    SeriesStrategy,
    Strategy,
)
from oracles import exploit_lengths, parallel_ranked_select as reference_ranked_select


class FixedScores(Strategy):
    """Test leaf: top-b of a fixed per-index score vector, low index on ties."""

    def __init__(self, scores, name="fixed"):
        super().__init__(name)
        self.score_of = np.asarray(scores, dtype=float)

    def select(self, state, candidates, budget, seed):
        cands = np.sort(np.asarray(candidates, dtype=np.int64))
        return cands[select_top_k(self.score_of[cands], budget)]


def _lowest_index():
    return FixedScores(-np.arange(200.0), name="lowest")


def _highest_index():
    return FixedScores(np.arange(200.0), name="highest")


class TestParallelRanked:
    def test_agreeing_orders(self):
        out = parallel_ranked_select(np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(out, [0, 1])

    def test_identical_vectors(self):
        out = parallel_ranked_select(np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0]), 1)
        np.testing.assert_array_equal(out, [0])

    def test_rank_sum_oracle(self):
        # ranks s1: [1,3,2], s2: [2,1,3] -> sums [3,4,5]
        out = parallel_ranked_select(np.array([3.0, 1.0, 2.0]), np.array([2.0, 3.0, 1.0]), 1)
        np.testing.assert_array_equal(out, [0])

    def test_tie_goes_to_lower_position(self):
        out = parallel_ranked_select(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1)
        np.testing.assert_array_equal(out, [0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parallel_ranked_select(np.ones(3), np.ones(4), 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            parallel_ranked_select(np.array([1.0, np.nan]), np.ones(2), 1)

    def test_matches_reference_on_heavy_ties(self):
        g = np.random.default_rng(11)
        for n in (0, 1, 2, 3, 7, 50, 200):
            for high in (1, 2, 4):
                s1, s2 = g.integers(0, high + 1, size=(2, n)).astype(float)
                for b in range(n + 1):
                    got = parallel_ranked_select(s1, s2, b)
                    want = reference_ranked_select(s1, s2, b)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("s1, s2, b", [
        (np.float64(1.0), np.float64(1.0), 0),
        (np.ones((2, 2)), np.ones((2, 2)), 1),
        (np.ones(3), np.ones(2), 1),
        (np.ones(3), np.array([1.0, np.nan, 1.0]), 1),
        (np.ones(3), np.ones(3), -1),
        (np.ones(3), np.ones(3), 4),
    ])
    def test_rejected_inputs(self, s1, s2, b):
        with pytest.raises(ValueError):
            parallel_ranked_select(s1, s2, b)


class TestParallel:
    def test_constant_scores_pick_half_minima(self):
        pool = np.arange(20, dtype=np.int64)
        sel = FixedScores(np.zeros(20))
        seed = (0, 1, 2)
        out = ParallelStrategy(sel, sel).select(None, pool, 4, seed)
        perm = stream(*seed, 0).permutation(len(pool))
        half_a, half_b = pool[perm[:10]], pool[perm[10:]]
        np.testing.assert_array_equal(out[:2], np.sort(half_a)[:2])
        np.testing.assert_array_equal(out[2:], np.sort(half_b)[:2])

    def test_global_minimum_always_selected(self):
        pool = np.array([7, 3, 11, 5, 2, 9], dtype=np.int64)
        sel = FixedScores(np.zeros(12))
        for s in range(10):
            out = ParallelStrategy(sel, sel).select(None, pool, 2, (s,))
            assert 2 in out

    def test_output_contract(self):
        pool = np.arange(10, 30, dtype=np.int64)
        g = np.random.default_rng(0)
        sel_a = FixedScores(g.random(30))
        sel_b = FixedScores(g.random(30))
        out = ParallelStrategy(sel_a, sel_b).select(None, pool, 6, (5,))
        check_selection(pool, out, 6)

    def test_deterministic(self):
        pool = np.arange(16, dtype=np.int64)
        sel = FixedScores(np.random.default_rng(1).random(16))
        a = ParallelStrategy(sel, sel).select(None, pool, 4, (9, 9))
        b = ParallelStrategy(sel, sel).select(None, pool, 4, (9, 9))
        np.testing.assert_array_equal(a, b)

    def test_odd_budget_rejected(self):
        with pytest.raises(ValueError):
            ParallelStrategy(_lowest_index(), _lowest_index()).select(
                None, np.arange(10, dtype=np.int64), 3, (0,)
            )


class TestSeriesSpec:
    def test_final_kappa_must_be_one(self):
        with pytest.raises(ValueError):
            SeriesStrategy(_lowest_index(), kappas=(2.0,))

    def test_kappas_nonincreasing(self):
        with pytest.raises(ValueError):
            SeriesStrategy(_lowest_index(), _lowest_index(), kappas=(1.0, 2.0))
        SeriesStrategy(_lowest_index(), _lowest_index(), kappas=(2.0, 1.0))

    def test_kappas_at_least_one(self):
        with pytest.raises(ValueError):
            SeriesStrategy(_lowest_index(), _lowest_index(), kappas=(0.5, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SeriesStrategy(_lowest_index(), kappas=(2.0, 1.0))

    def test_at_least_one_stage(self):
        with pytest.raises(ValueError):
            SeriesStrategy(kappas=())


class TestSeries:
    def test_kappa_one_reduces_to_first_stage(self):
        g = np.random.default_rng(0)
        for _ in range(50):
            pool = g.choice(100, size=int(g.integers(6, 20)), replace=False).astype(np.int64)
            scores_a, scores_b = g.random(100), g.random(100)
            sel_a, sel_b = FixedScores(scores_a), FixedScores(scores_b)
            series = SeriesStrategy(sel_a, sel_b, kappas=(1.0, 1.0))
            b = int(g.integers(1, len(pool) // 2 + 1))
            out = series.select(None, pool, b, (7,))
            want = sel_a.select(None, pool, b, (0,))
            assert set(out.tolist()) == set(want.tolist())

    def test_full_first_stage_reduces_to_second(self):
        g = np.random.default_rng(1)
        for _ in range(50):
            b = int(g.integers(1, 5))
            m = int(g.integers(2, 5))
            pool = g.choice(100, size=b * m, replace=False).astype(np.int64)
            sel_a = FixedScores(g.random(100))
            sel_b = FixedScores(g.random(100))
            series = SeriesStrategy(sel_a, sel_b, kappas=(float(m), 1.0))
            out = series.select(None, pool, b, (3,))
            want = sel_b.select(None, pool, b, (0,))
            assert set(out.tolist()) == set(want.tolist())

    def test_crafted_two_stage_pipeline(self):
        # 1-D line 0..11, farthest-first from a labeled point at 0 keeps
        # {11, 5, 8, 2} at kappa=2, b=2; then score=position keeps {11, 8}
        feats = np.arange(12, dtype=float).reshape(-1, 1)
        labeled = np.array([[0.0]])

        class KCentersStage(Strategy):
            def select(self, state, candidates, budget, seed):
                return candidates[select_k_centers(feats[candidates], labeled, budget)]

        series = SeriesStrategy(KCentersStage("kc"), FixedScores(np.arange(12.0)), kappas=(2.0, 1.0))
        out = series.select(None, np.arange(12, dtype=np.int64), 2, (0,))
        assert set(out.tolist()) == {11, 8}

    def test_first_stage_demand_exceeding_pool_rejected(self):
        series = SeriesStrategy(_lowest_index(), _lowest_index(), kappas=(3.0, 1.0))
        with pytest.raises(ValueError):
            series.select(None, np.arange(5, dtype=np.int64), 2, (0,))

    def test_stage_seeds_differ(self):
        seen = []

        class Recording(Strategy):
            def select(self, state, candidates, budget, seed):
                seen.append(seed)
                return np.sort(candidates)[:budget]

        series = SeriesStrategy(Recording("rec"), Recording("rec"), kappas=(2.0, 1.0))
        series.select(None, np.arange(10, dtype=np.int64), 2, (4,))
        assert seen[0] != seen[1]


class TestHybrid:
    def test_same_scorer_decomposes_top_k(self):
        g = np.random.default_rng(2)
        for _ in range(50):
            pool = g.choice(100, size=int(g.integers(8, 25)), replace=False).astype(np.int64)
            sel = FixedScores(g.random(100))
            b1 = int(g.integers(1, 4))
            b2 = int(g.integers(1, 4))
            out = HybridStrategy(sel, sel, [b1, b2]).select(None, pool, b1 + b2, (1,))
            want = sel.select(None, pool, b1 + b2, (0,))
            assert set(out.tolist()) == set(want.tolist())

    def test_zero_first_budget_is_second_alone(self):
        pool = np.arange(10, dtype=np.int64)
        sel_b = _highest_index()
        out = HybridStrategy(_lowest_index(), sel_b, [0, 3]).select(None, pool, 3, (0,))
        np.testing.assert_array_equal(out, sel_b.select(None, pool, 3, (0,)))

    def test_crafted_two_step(self):
        # A takes the two lowest indices, B then takes the two highest left
        pool = np.array([4, 1, 9, 6, 3], dtype=np.int64)
        out = HybridStrategy(_lowest_index(), _highest_index(), [2, 2]).select(None, pool, 4, (0,))
        np.testing.assert_array_equal(out, [1, 3, 9, 6])

    def test_disjoint_picks(self):
        g = np.random.default_rng(3)
        pool = np.arange(12, dtype=np.int64)
        sel = FixedScores(g.random(12))
        out = HybridStrategy(sel, sel, [3, 3]).select(None, pool, 6, (2,))
        check_selection(pool, out, 6)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            HybridStrategy(_lowest_index(), _lowest_index(), [-1, 2])
        with pytest.raises(ValueError):
            HybridStrategy(_lowest_index(), _lowest_index(), [0, 0])


class TestFeedbackState:
    def test_eps_validated(self):
        with pytest.raises(ValueError):
            FeedbackState(eps=0.6)

    def test_lam_validated(self):
        with pytest.raises(ValueError):
            FeedbackState(lam=0.0)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            FeedbackState(n_window=0)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 5.0, True, 0])
    def test_window_must_be_a_positive_integer(self, value):
        # NaN used to pass and fail at the first update with a TypeError
        with pytest.raises(ValueError, match="n_window"):
            FeedbackState(n_window=value)

    def test_nan_lam_rejected(self):
        # it used to fail at the first update, blaming beta
        with pytest.raises(ValueError, match="lam"):
            FeedbackState(lam=float("nan"))

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            FeedbackState(beta=1.0)


class TestFeedbackUpdate:
    def test_rising_loss_clips_high(self):
        # trend score 1 gives 0.5 * 0.9 * e ~ 1.2236, clipped to 1 - eps
        state = FeedbackState(beta=0.5, losses=(1.0,))
        new = feedback_update(state, 2.0)
        assert new.score == pytest.approx(1.0)
        assert new.beta == pytest.approx(0.9)

    def test_flat_loss_decays(self):
        state = FeedbackState(beta=0.5, losses=(1.0, 1.0))
        new = feedback_update(state, 1.0)
        assert new.score == 0.0
        assert new.beta == pytest.approx(max(0.9 * 0.5, 0.1))

    def test_decay_bottoms_out_at_eps(self):
        state = FeedbackState(beta=0.5)
        for _ in range(60):
            state = feedback_update(state, 1.0)
        assert state.beta == pytest.approx(0.1)

    def test_window_limits_history(self):
        # an old spike outside the 5-long window must not affect the trend
        a = FeedbackState(beta=0.5, losses=(9.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        b = FeedbackState(beta=0.5, losses=(1.0, 1.0, 1.0, 1.0, 1.0))
        assert feedback_update(a, 1.0).score == feedback_update(b, 1.0).score

    def test_beta_stays_in_bounds(self):
        g = np.random.default_rng(4)
        for _ in range(300):
            state = FeedbackState()
            for loss in g.random(20) * 5.0:
                state = feedback_update(state, float(loss))
                assert 0.1 <= state.beta <= 0.9

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            feedback_update(FeedbackState(), -1.0)
        with pytest.raises(ValueError):
            feedback_update(FeedbackState(), float("nan"))


class TestFeedbackChoice:
    def test_boundary_explores(self):
        assert feedback_choice(FeedbackState(beta=0.5)) == EXPLORE

    def test_above_boundary_exploits(self):
        assert feedback_choice(FeedbackState(beta=0.51)) == EXPLOIT

    def test_low_balance_explores(self):
        assert feedback_choice(FeedbackState(beta=0.1)) == EXPLORE

    def test_select_dispatches(self):
        pool = np.arange(8, dtype=np.int64)
        s = FeedbackStrategy(_lowest_index(), _highest_index(), FeedbackState(beta=0.5))
        batch = s.select(None, pool, 2, (0,))
        assert s.last_tag == f"{EXPLORE}:lowest"
        np.testing.assert_array_equal(batch, [0, 1])
        s = FeedbackStrategy(_lowest_index(), _highest_index(), FeedbackState(beta=0.7))
        batch = s.select(None, pool, 2, (0,))
        assert s.last_tag == f"{EXPLOIT}:highest"
        np.testing.assert_array_equal(batch, [7, 6])


class TestAnnealing:
    def test_phase_recital_twenty_rounds(self):
        sched = AnnealingSchedule(5, 5, 5, 1.5)
        want = [EXPLORE] * 5 + [EXPLOIT] * 5 + [EXPLORE] * 5 + [EXPLOIT] * 5
        got = [annealing_phase(sched, t) for t in range(1, 21)]
        assert got == want

    def test_exploit_lengths_grow(self):
        sched = AnnealingSchedule(5, 5, 5, 1.5)
        assert exploit_lengths(sched, 4) == [5, 7, 10, 15]

    def test_rate_one_fixed_alternation(self):
        sched = AnnealingSchedule(3, 2, 4, 1.0)
        assert exploit_lengths(sched, 5) == [2, 2, 2, 2, 2]
        got = [annealing_phase(sched, t) for t in range(1, 16)]
        want = ([EXPLORE] * 3 + [EXPLOIT] * 2 + [EXPLORE] * 4 + [EXPLOIT] * 2
                + [EXPLORE] * 4)
        assert got == want

    def test_phase_consistent_with_lengths(self):
        sched = AnnealingSchedule(2, 3, 2, 2.0)
        # unroll the schedule from the reported exploit lengths
        phases = [EXPLORE] * 2
        for length in exploit_lengths(sched, 4):
            phases += [EXPLOIT] * length + [EXPLORE] * 2
        got = [annealing_phase(sched, t) for t in range(1, len(phases) + 1)]
        assert got == phases

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(0, 5, 5, 1.5)
        with pytest.raises(ValueError):
            AnnealingSchedule(5, 5, 5, 0.5)
        with pytest.raises(ValueError):
            annealing_phase(AnnealingSchedule(), 0)

    @pytest.mark.parametrize("field", ["t_initial", "t_exploit", "t_explore"])
    def test_phase_length_must_be_a_positive_integer(self, field):
        # NaN used to end in OverflowError, and 2.5 ran a fractional schedule
        for value in (float("nan"), 2.5, 5.0, True, 0):
            with pytest.raises(ValueError, match=field):
                AnnealingSchedule(**{field: value})
        assert getattr(AnnealingSchedule(**{field: np.int64(3)}), field) == 3

    def test_infinite_rate_rejected(self):
        # it used to raise OverflowError at the second exploit phase
        with pytest.raises(ValueError, match="rate"):
            AnnealingSchedule(rate=float("inf"))

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            AnnealingSchedule(rate=float("nan"))


class TestRandomAlternate:
    def test_deterministic_per_round(self):
        for t in range(1, 50):
            assert random_alternate(3, t) == random_alternate(3, t)

    def test_frequency_near_half(self):
        n = 10**4
        explores = sum(random_alternate(0, t) == EXPLORE for t in range(1, n + 1))
        assert abs(explores / n - 0.5) <= 0.02

    def test_seeds_differ(self):
        a = [random_alternate(0, t) for t in range(1, 101)]
        b = [random_alternate(1, t) for t in range(1, 101)]
        assert a != b

    def test_round_index_validated(self):
        with pytest.raises(ValueError):
            random_alternate(0, 0)


class TestAlternateSelect:
    def test_dispatch(self):
        # rounds 1 and 2 of a one-round-phase schedule: explore, then exploit
        pool = np.arange(6, dtype=np.int64)
        s = AnnealingStrategy(_lowest_index(), _highest_index(), t_initial=1, t_exploit=1, t_explore=1, rate=1.0)
        out = s.select(SimpleNamespace(round_index=1), pool, 2, (0,))
        np.testing.assert_array_equal(out, [0, 1])
        out = s.select(SimpleNamespace(round_index=2), pool, 2, (0,))
        np.testing.assert_array_equal(out, [5, 4])


class TestCheckSelection:
    def test_valid_passes_through(self):
        pool = np.array([3, 8, 1], dtype=np.int64)
        np.testing.assert_array_equal(check_selection(pool, np.array([8, 1]), 2), [8, 1])

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            check_selection(np.arange(5), np.array([0, 1]), 3)

    def test_duplicates(self):
        with pytest.raises(ValueError):
            check_selection(np.arange(5), np.array([1, 1]), 2)

    def test_foreign_indices(self):
        with pytest.raises(ValueError):
            check_selection(np.arange(5), np.array([4, 7]), 2)
