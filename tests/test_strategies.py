"""Tests for strategy construction, naming, ordering, and metering."""

import numpy as np
import pytest

from acqbench import acquisition as acq
from acqbench import model as mdl
from acqbench.strategies import KNOWN_KINDS, RoundState, build_strategy

SCORER_KINDS = ("entropy", "least_confident", "margin", "mean_std", "bald")


def _state(n=30, n_labeled=6, n_passes=3, seed=0):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, 4))
    params = mdl.init_model(4, 8, 3, dropout=0.3, seed=seed)
    labeled = np.arange(n_labeled, dtype=np.int64)
    mc = mdl.MCConfig(n_passes=n_passes, seed=seed)
    return RoundState(params, X, labeled, mc, round_index=1, run_seed=seed)


def _pool(state, k=12):
    return np.arange(len(state.labeled), len(state.labeled) + k, dtype=np.int64)


def _spec(kind, **kw):
    spec = {"kind": kind}
    spec.update(kw)
    return spec


COMPOSITE_SPECS = {
    "series": _spec("series", params={"kappas": [2, 1]},
                    constituents=[_spec("k_centers"), _spec("bald")]),
    "parallel": _spec("parallel", constituents=[_spec("entropy"), _spec("badge")]),
    "parallel_ranked": _spec("parallel_ranked",
                             constituents=[_spec("entropy"), _spec("bald")]),
    "hybrid": _spec("hybrid", params={"budgets": [2, 2]},
                    constituents=[_spec("entropy"), _spec("k_centers")]),
    "feedback": _spec("feedback", constituents=[_spec("random"), _spec("bald")]),
    "annealing": _spec("annealing", constituents=[_spec("random"), _spec("bald")]),
    "random_alternate": _spec("random_alternate",
                              constituents=[_spec("random"), _spec("bald")]),
}


def _spec_for(kind):
    if kind in COMPOSITE_SPECS:
        return COMPOSITE_SPECS[kind]
    return _spec(kind)


class TestBuildStrategy:
    def test_every_kind_constructs_and_selects(self):
        for kind in KNOWN_KINDS:
            strategy = build_strategy(_spec_for(kind))
            state = _state()
            batch = strategy.select(state, _pool(state), 4, (0, 1, 2))
            assert len(batch) == 4
            assert len(set(batch.tolist())) == 4

    def test_derived_names(self):
        cases = {
            "series_k_centers_bald_k2x1": COMPOSITE_SPECS["series"],
            "parallel_entropy_badge": COMPOSITE_SPECS["parallel"],
            "parallel_ranked_entropy_bald": COMPOSITE_SPECS["parallel_ranked"],
            "hybrid_entropy2_k_centers2": COMPOSITE_SPECS["hybrid"],
            "feedback_random_bald": COMPOSITE_SPECS["feedback"],
            "annealing_random_bald_r1.5": COMPOSITE_SPECS["annealing"],
            "random_alt_random_bald": COMPOSITE_SPECS["random_alternate"],
            "power_bald_p2": _spec("power_bald", params={"power": 2}),
            "bald": _spec("bald"),
        }
        for want, spec in cases.items():
            assert build_strategy(spec).name == want

    def test_name_override(self):
        s = build_strategy(_spec("bald", name="my_strategy"))
        assert s.name == "my_strategy"
        assert s.last_tag == "my_strategy"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_strategy(_spec("gradient_descent"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="bogus"):
            build_strategy({"kind": "bald", "bogus": 1})

    def test_unknown_param_key(self):
        with pytest.raises(ValueError, match="powerr"):
            build_strategy(_spec("power_bald", params={"powerr": 2}))

    def test_scorer_takes_no_constituents(self):
        with pytest.raises(ValueError):
            build_strategy(_spec("entropy", constituents=[_spec("bald")]))

    def test_pair_structures_need_two_constituents(self):
        with pytest.raises(ValueError, match="2"):
            build_strategy(_spec("parallel", constituents=[_spec("entropy")]))

    def test_parallel_ranked_rejects_non_scorers(self):
        with pytest.raises(ValueError):
            build_strategy(_spec("parallel_ranked",
                                 constituents=[_spec("entropy"), _spec("k_centers")]))

    def test_series_needs_kappas_list(self):
        with pytest.raises(ValueError, match="kappas"):
            build_strategy(_spec("series", constituents=[_spec("bald")]))

    def test_series_kappa_count_must_match(self):
        with pytest.raises(ValueError):
            build_strategy(_spec("series", params={"kappas": [2, 1]},
                                 constituents=[_spec("bald")]))

    def test_hybrid_needs_budget_pair(self):
        with pytest.raises(ValueError, match="budgets"):
            build_strategy(_spec("hybrid", params={"budgets": [2]},
                                 constituents=[_spec("entropy"), _spec("bald")]))

    def test_empty_name_override_rejected(self):
        with pytest.raises(ValueError, match="name"):
            build_strategy(_spec("bald", name=""))

    def test_non_dict_spec_rejected(self):
        with pytest.raises(ValueError):
            build_strategy(["bald"])


class TestCandidateOrdering:
    def test_scored_strategies_ignore_candidate_order(self):
        for kind in SCORER_KINDS + ("k_centers", "facility_location", "badge"):
            strategy = build_strategy(_spec(kind))
            pool = np.array([25, 7, 13, 9, 21, 11, 17, 8], dtype=np.int64)
            a = strategy.select(_state(), pool, 3, (5,))
            b = strategy.select(_state(), pool[::-1].copy(), 3, (5,))
            np.testing.assert_array_equal(a, b)

    def test_disparity_min_seeds_on_first_given(self):
        strategy = build_strategy(_spec("disparity_min"))
        pool = np.array([25, 7, 13, 9], dtype=np.int64)
        a = strategy.select(_state(), pool, 1, (5,))
        b = strategy.select(_state(), pool[::-1].copy(), 1, (5,))
        assert a[0] == 25 and b[0] == 9


class TestTags:
    def test_base_strategy_tag_is_its_name(self):
        s = build_strategy(_spec("bald"))
        assert s.last_tag == "bald"

    def test_annealing_tags_follow_schedule(self):
        spec = _spec("annealing", params={"t_initial": 1, "t_exploit": 1,
                                          "t_explore": 1, "rate": 1.0},
                     constituents=[_spec("random"), _spec("bald")])
        s = build_strategy(spec)
        tags = []
        for t in (1, 2, 3):
            state = _state()
            state.round_index = t
            s.select(state, _pool(state), 2, (0,))
            tags.append(s.last_tag)
        assert tags == ["explore:random", "exploit:bald", "explore:random"]

    def test_feedback_tag_reflects_choice(self):
        s = build_strategy(COMPOSITE_SPECS["feedback"])
        state = _state()
        s.select(state, _pool(state), 2, (0,))
        assert s.last_tag == "explore:random"  # beta starts at 0.5

    def test_nested_alternator_choice_reaches_the_root_tag(self):
        annealing = _spec("annealing", params={"t_initial": 1, "t_exploit": 1,
                                               "t_explore": 1, "rate": 1.0},
                          constituents=[_spec("random"), _spec("bald")])
        s = build_strategy(_spec("series", params={"kappas": [2, 1]},
                                 constituents=[_spec("k_centers"), annealing]))
        assert s.last_tag == s.name
        tags = []
        for t in (1, 2):
            state = _state()
            state.round_index = t
            s.select(state, _pool(state), 2, (0,))
            tags.append(s.last_tag)
        assert tags == [f"{s.name}[k_centers,explore:random]", f"{s.name}[k_centers,exploit:bald]"]

    def test_alternator_tag_nests_its_arms_tag(self):
        inner = _spec("feedback", constituents=[_spec("random"), _spec("bald")])
        s = build_strategy(_spec("random_alternate", constituents=[_spec("entropy"), inner]))
        state = _state()  # the coin for run seed 0, round 1 is exploit
        s.select(state, _pool(state), 2, (0,))
        assert s.last_tag == "exploit:explore:random"

    def test_structure_without_alternator_tags_its_name(self):
        for spec in COMPOSITE_SPECS.values():
            if spec["kind"] in ("feedback", "annealing", "random_alternate"):
                continue
            s = build_strategy(spec)
            state = _state()
            s.select(state, _pool(state), 4, (0,))
            assert s.last_tag == s.name


class TestMetering:
    def test_mc_scorers_cost_passes_times_candidates(self):
        for kind in SCORER_KINDS:
            state = _state(n_passes=3)
            build_strategy(_spec(kind)).select(state, _pool(state, 10), 3, (0,))
            assert state.n_mc == 3 * 10
            assert state.n_features == 0

    def test_k_centers_costs_pool_plus_labeled_features(self):
        state = _state(n_labeled=6)
        build_strategy(_spec("k_centers")).select(state, _pool(state, 10), 3, (0,))
        assert state.n_features == 10 + 6
        assert state.n_mc == 0

    def test_badge_costs_mc_and_features(self):
        state = _state(n_passes=3)
        build_strategy(_spec("badge")).select(state, _pool(state, 10), 3, (0,))
        assert state.n_mc == 3 * 10
        assert state.n_features == 10

    def test_parallel_ranked_shares_one_mc_pass(self):
        state = _state(n_passes=3)
        build_strategy(COMPOSITE_SPECS["parallel_ranked"]).select(
            state, _pool(state, 10), 3, (0,)
        )
        assert state.n_mc == 3 * 10  # both scorers read the same tensor

    def test_random_costs_nothing(self):
        state = _state()
        build_strategy(_spec("random")).select(state, _pool(state), 3, (0,))
        assert state.n_mc + state.n_features == 0

    def test_series_adds_stage_costs(self):
        state = _state(n_labeled=6, n_passes=3)
        build_strategy(COMPOSITE_SPECS["series"]).select(state, _pool(state, 12), 3, (0,))
        # k_centers reads 12 pool + 6 labeled features, bald scores 2*3 survivors
        assert state.n_features == 12 + 6
        assert state.n_mc == 3 * 6

    def test_counters_are_not_constructor_params(self):
        state = _state()
        with pytest.raises(TypeError):
            RoundState(state.params, state.X, state.labeled, state.mc, n_mc=5)


class TestRoundMemo:
    """Each point's MC stack and features are computed once per round."""

    @pytest.fixture
    def computed(self, monkeypatch):
        # (function, rows, result) of every mc_predict / features call
        calls = []
        for name in ("mc_predict", "features"):
            def spy(p, X, *rest, _real=getattr(mdl, name), _name=name):
                out = _real(p, X, *rest)
                calls.append((_name, len(X), out))
                return out
            monkeypatch.setattr(mdl, name, spy)
        return calls

    def test_repeated_and_subset_requests_cost_nothing(self, computed):
        state = _state(n_passes=3)
        idx = _pool(state, 10)
        t, f = state.mc_probs(idx), state.features_of(idx)
        computed.clear()
        again, part = state.mc_probs(idx), state.mc_probs(idx[[7, 2, 5]])
        f_again, f_part = state.features_of(idx), state.features_of(idx[[7, 2, 5]])
        assert computed == []
        assert (state.n_mc, state.n_features) == (3 * 10, 10)
        assert again.data.tobytes() == t.data.tobytes()
        assert part.data.tobytes() == t.data[:, [7, 2, 5]].tobytes()
        assert f_again.tobytes() == f.tobytes() and f_part.tobytes() == f[[7, 2, 5]].tobytes()

    def test_partial_overlap_computes_only_the_misses(self, computed):
        state = _state(n_passes=3)
        first = state.mc_probs(np.arange(6, 12))
        state.features_of(np.arange(6, 12))
        computed.clear()
        t = state.mc_probs(np.arange(10, 16))
        f = state.features_of(np.arange(10, 16))
        assert [(name, rows) for name, rows, _ in computed] == [("mc_predict", 4), ("features", 4)]
        assert (state.n_mc, state.n_features) == (3 * (6 + 4), 6 + 4)
        # hits keep the rows of the first request; misses are one call on the misses
        assert t.data[:, :2].tobytes() == first.data[:, 4:].tobytes()
        assert t.data[:, 2:].tobytes() == mdl.mc_predict(state.params, state.X[12:16], state.mc).data.tobytes()
        assert f.tobytes() == mdl.features(state.params, state.X[10:16]).tobytes()

    def test_new_round_state_starts_empty(self, computed):
        idx = _pool(_state(), 10)
        for _ in range(2):
            state = _state(n_passes=3)
            for _ in range(2):
                state.mc_probs(idx)
                state.features_of(idx)
            assert (state.n_mc, state.n_features) == (3 * 10, 10)
        assert [(name, rows) for name, rows, _ in computed] == [("mc_predict", 10), ("features", 10)] * 2

    def test_returned_arrays_are_read_only(self, computed):
        state = _state()
        fresh, fresh_f = state.mc_probs(np.arange(6, 12)), state.features_of(np.arange(6, 12))
        # a request without a hit gets the computed array itself, no copy
        assert fresh is computed[0][2] and fresh_f is computed[1][2]
        gathered, gathered_f = state.mc_probs(np.arange(4, 10)), state.features_of(np.arange(4, 10))
        for arr in (fresh.data, fresh_f, gathered.data, gathered_f):
            assert not arr.flags.writeable

    def test_gathered_stacks_skip_the_public_constructor(self, monkeypatch):
        # the memo's rows were softmax rows when computed: a request with
        # hits wraps the gathered copy without the constructor's checks
        state = _state(n_passes=3)
        first = state.mc_probs(np.arange(6, 12))

        def refuse(self):
            raise AssertionError("the validating constructor ran")

        monkeypatch.setattr(acq.ProbabilityTensor, "__post_init__", refuse)
        t = state.mc_probs(np.arange(8, 14))
        assert isinstance(t, acq.ProbabilityTensor) and not t.data.flags.writeable
        assert t.data[:, :4].tobytes() == first.data[:, 2:].tobytes()
        assert t.data[:, 4:].tobytes() == mdl.mc_predict(state.params, state.X[12:14], state.mc).data.tobytes()

    def test_empty_labeled_set_has_no_features(self, computed):
        state = _state(n_labeled=0)
        f = state.labeled_features()
        assert f.shape == (0, state.params.hidden)
        assert computed == [] and state.n_features == 0

    def test_hybrid_second_arm_pays_only_its_misses(self):
        # bald scores all n candidates; badge's MC rows are hits, its features are not
        state = _state(n_passes=3)
        spec = _spec("hybrid", params={"budgets": [2, 2]}, constituents=[_spec("bald"), _spec("badge")])
        build_strategy(spec).select(state, _pool(state, 12), 4, (0,))
        assert state.n_mc == 3 * 12
        assert state.n_features == 12 - 2


class TestCheckBudget:
    """`check_budget(b, n)` fails exactly when some node would pick more
    than its candidates; the counts follow each structure's routing."""

    @pytest.mark.parametrize("spec,budget,n", [
        (_spec("bald"), 3, 3),
        # stage 1 picks round(4 * 3) = 12 of the pool, stage 2 3 of those 12
        (_spec("series", params={"kappas": [4, 1]}, constituents=[_spec("k_centers"), _spec("bald")]), 3, 12),
        # halves of ceil(n/2) and floor(n/2) candidates, 2 picks each
        (_spec("parallel", constituents=[_spec("bald"), _spec("random")]), 4, 4),
        # the second arm gets the n - 2 the first arm left, and its series stage picks 6
        (_spec("hybrid", params={"budgets": [2, 2]}, constituents=[
            _spec("bald"), _spec("series", params={"kappas": [3, 1]}, constituents=[_spec("k_centers"), _spec("bald")])
        ]), 4, 8),
        (_spec("feedback", constituents=[_spec("random"), _spec("series", params={"kappas": [4, 1]},
                                                             constituents=[_spec("k_centers"), _spec("bald")])]), 2, 8),
    ])
    def test_smallest_candidate_count(self, spec, budget, n):
        strategy = build_strategy(spec)
        strategy.check_budget(budget, n)
        with pytest.raises(ValueError, match="budget .* exceeds .* candidates"):
            strategy.check_budget(budget, n - 1)

    def test_constituent_that_picks_nothing_is_not_walked(self):
        # hybrid's select never runs an arm of budget 0, so its series stage
        # is not asked for a budget of at least 1
        spec = _spec("hybrid", params={"budgets": [0, 4]}, constituents=[
            _spec("series", params={"kappas": [2, 1]}, constituents=[_spec("k_centers"), _spec("bald")]), _spec("bald")])
        build_strategy(spec).check_budget(4, 100)
        state = _state()
        assert len(build_strategy(spec).select(state, _pool(state), 4, (0,))) == 4
        assert state.n_features == 0  # the k_centers stage computed nothing


class TestFeedbackWiring:
    def test_observe_loss_moves_the_balance(self):
        s = build_strategy(COMPOSITE_SPECS["feedback"])
        assert s.state.beta == 0.5
        s.observe_loss(1.0)
        s.observe_loss(2.0)  # rising loss pushes toward exploit
        assert s.state.beta > 0.5

    def test_observe_loss_noop_on_base_strategies(self):
        s = build_strategy(_spec("bald"))
        s.observe_loss(1.0)  # must not raise or change behavior
        state = _state()
        np.testing.assert_array_equal(
            s.select(state, _pool(state), 2, (0,)),
            build_strategy(_spec("bald")).select(_state(), _pool(_state()), 2, (0,)),
        )


class TestHybridBudget:
    def test_mismatched_round_budget_rejected(self):
        s = build_strategy(COMPOSITE_SPECS["hybrid"])
        state = _state()
        with pytest.raises(ValueError, match="budget"):
            s.select(state, _pool(state), 5, (0,))


class TestRandomStrategy:
    def test_deterministic_given_seed_key(self):
        s = build_strategy(_spec("random"))
        state = _state()
        a = s.select(state, _pool(state), 4, (1, 2, 3))
        b = s.select(state, _pool(state), 4, (1, 2, 3))
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ_somewhere(self):
        s = build_strategy(_spec("random"))
        state = _state()
        draws = {tuple(s.select(state, _pool(state), 4, (k,)).tolist()) for k in range(20)}
        assert len(draws) > 1
