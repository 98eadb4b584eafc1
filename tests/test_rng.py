"""Tests for keyed random streams, the package's integer, number, array,
shape and label rules, and atomic artifact writes."""

import re
from pathlib import Path

import numpy as np
import pytest

from acqbench.acquisition import (
    ProbabilityTensor,
    gradient_embeddings,
    select_disparity_min,
    select_facility_location,
    select_k_centers,
    select_kmeanspp,
    select_power,
    select_top_k,
)
from acqbench.aggregation import (
    AnnealingSchedule,
    FeedbackState,
    annealing_phase,
    check_selection,
    feedback_update,
    parallel_ranked_select,
    random_alternate,
)
from acqbench.config import validate_config
from acqbench.datasets import Dataset, load_csv, make_blobs, make_grid_toy, split
from acqbench.evaluation import AccuracyTable, WinningRateMatrix, compute_heatmap, t_score, winning_rate
from acqbench.fileio import atomic_write_text, csv_text
from acqbench.model import MCConfig, ModelParams, TrainConfig, init_model, predict_proba, train
from acqbench.rng import _array, derive_seed, stream
from acqbench.simulator import ExperimentConfig, check_seeds, sweep
from acqbench.strategies import LeafStrategy, build_strategy, check_fields


class TestStream:
    def test_same_key_same_draws(self):
        np.testing.assert_array_equal(stream(1, 2, 3).random(8), stream(1, 2, 3).random(8))

    def test_different_keys_differ(self):
        assert not np.array_equal(stream(1, 2, 3).random(8), stream(1, 2, 4).random(8))
        assert not np.array_equal(stream(0).random(8), stream(1).random(8))

    def test_trailing_zero_aliases_by_design(self):
        # the seed hash absorbs trailing zeros; parents must not draw
        np.testing.assert_array_equal(stream(1).random(8), stream(1, 0).random(8))
        assert not np.array_equal(stream(1).random(8), stream(1, 1).random(8))

    def test_streams_are_fresh_objects(self):
        g = stream(5)
        g.random(100)
        np.testing.assert_array_equal(stream(5).random(4), stream(5).random(4))

    def test_negative_keys_allowed(self):
        np.testing.assert_array_equal(stream(-1, 7).random(4), stream(-1, 7).random(4))

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            stream()


class TestStreamKeys:
    def test_numpy_key_same_as_int(self):
        np.testing.assert_array_equal(stream(np.int64(3), 1).random(4), stream(3, 1).random(4))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_key_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_in_63_bit_range(self):
        for k in range(50):
            s = derive_seed(k, 9)
            assert 0 <= s < (1 << 63)


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        p = atomic_write_text(tmp_path / "a" / "b.txt", "hello\n")
        assert p.read_text() == "hello\n"

    def test_creates_parent_dirs(self, tmp_path):
        atomic_write_text(tmp_path / "x" / "y" / "z.csv", "1\n")
        assert (tmp_path / "x" / "y" / "z.csv").is_file()

    def test_overwrite_warns_but_succeeds(self, tmp_path, capsys):
        target = tmp_path / "f.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert "overwriting" in capsys.readouterr().err

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


class TestCsvText:
    def test_float_cells_written_as_python_float_repr(self):
        row = np.array([0.1, 1 / 3])
        cells = [np.float64(0.1), 0.1, -0.0, 1e16, 1e-05, np.float32(0.1), *row]
        assert csv_text([cells]) == ",".join(repr(float(v)) for v in cells) + "\n"
        assert csv_text([[np.float64(0.1)]]) == "0.1\n"

    def test_other_cells_pass_through(self):
        assert csv_text([[np.int64(3), 7, "a,b", "x"]]) == '3,7,"a,b",x\n'


# --- the integer rule at every site that takes a count, budget, seed or key ---

_TINY = make_blobs(12, [[0.0, 0.0], [3.0, 0.0]], 0.3, seed=1)


def _experiment(**kw):
    params = dict(strategy_spec={"kind": "random"}, seed=0, hidden=4, epochs=1, n_passes=1,
                  initial_labeled=4, rounds=1, budget=2, pool_size=10) | kw
    return ExperimentConfig(_TINY, _TINY, **params)


_SERIES = {"kind": "series", "params": {"kappas": [2, 1]}, "constituents": [{"kind": "entropy"}, {"kind": "bald"}]}


def _hybrid(b1):
    return build_strategy({"kind": "hybrid", "params": {"budgets": [b1, 1]},
                           "constituents": [{"kind": "random"}, {"kind": "entropy"}]})


# (the field its error names, a call taking the value, a value the site accepts)
SITES = {
    "stream": ("stream key", lambda v: stream(v), 2),
    "n_window": ("n_window", lambda v: FeedbackState(n_window=v), 5),
    "t_initial": ("t_initial", lambda v: AnnealingSchedule(t_initial=v), 5),
    "t_exploit": ("t_exploit", lambda v: AnnealingSchedule(t_exploit=v), 5),
    "t_explore": ("t_explore", lambda v: AnnealingSchedule(t_explore=v), 5),
    "annealing_phase": ("round index", lambda v: annealing_phase(AnnealingSchedule(), v), 2),
    "random_alternate": ("round index", lambda v: random_alternate(0, v), 2),
    "epochs": ("epochs", lambda v: TrainConfig(epochs=v), 1),
    "minibatch": ("minibatch", lambda v: TrainConfig(minibatch=v), 8),
    "TrainConfig.seed": ("train seed", lambda v: TrainConfig(seed=v), 3),
    "MCConfig.seed": ("MC seed", lambda v: MCConfig(seed=v), 3),
    "n_passes": ("n_passes", lambda v: MCConfig(n_passes=v), 2),
    "input_dim": ("input_dim", lambda v: init_model(v, 4, 2, 0.0, 0), 2),
    "hidden": ("hidden", lambda v: init_model(2, v, 2, 0.0, 0), 4),
    "n_classes": ("n_classes", lambda v: init_model(2, 4, v, 0.0, 0), 2),
    "initial_labeled": ("initial_labeled", lambda v: _experiment(initial_labeled=v), 4),
    "rounds": ("rounds", lambda v: _experiment(rounds=v), 1),
    "budget": ("budget", lambda v: _experiment(budget=v), 2),
    "seed": ("seed", lambda v: _experiment(seed=v), 3),
    "pool_size": ("pool_size", lambda v: _experiment(pool_size=v), 10),
    "jobs": ("jobs", lambda v: sweep([(_experiment(), "runs")], [0], jobs=v), 1),
    "check_seeds": ("seeds", lambda v: check_seeds([v]), 3),
    "Dataset.n_classes": ("n_classes", lambda v: Dataset(_TINY.X, _TINY.y, v), 3),
    "cells_per_side": ("cells_per_side", lambda v: make_grid_toy(cells_per_side=v, n_per_cell=1), 2),
    "n_per_cell": ("n_per_cell", lambda v: make_grid_toy(n_per_cell=v), 1),
    "make_grid_toy.seed": ("stream key", lambda v: make_grid_toy(n_per_cell=1, seed=v), 2),
    "n_per_class": ("n_per_class", lambda v: make_blobs(v, [[0.0], [1.0]], 0.1), 2),
    "label_column": ("label_column", lambda v: load_csv("points.csv", v), 2),
    "select_top_k.budget": ("budget", lambda v: select_top_k(np.arange(3.0), v), 2),
    "AccuracyTable.seeds": ("seeds", lambda v: AccuracyTable("a", (v,), [[0.5]]), 3),
    "series.budget": ("series budget", lambda v: build_strategy(_SERIES).plan(10, v), 3),
    "hybrid.budgets": ("hybrid budgets", _hybrid, 2),
    "check_fields": ("'model.hidden'", lambda v: check_fields({"hidden": v}, {"hidden": 32}, "model"), 4),
}
# load_csv takes "3" as a column name, which this headerless file lacks
_BAD = [float("nan"), float("inf"), 2.5, True, "3"]
_CASES = [(site, v) for site in SITES for v in _BAD if not (site == "label_column" and v == "3")]


@pytest.fixture
def points_csv(tmp_path, monkeypatch):
    """A 4-row headerless CSV `points.csv` in the working directory."""
    (tmp_path / "points.csv").write_text("0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,0\n0.7,0.8,1\n")
    monkeypatch.chdir(tmp_path)


class TestIntegerRule:
    @pytest.mark.parametrize("site,value", _CASES)
    def test_non_integers_rejected_by_name(self, site, value, points_csv):
        field, call, _ = SITES[site]
        with pytest.raises(ValueError, match=re.escape(field) + ".* must be an integer, got "):
            call(value)

    @pytest.mark.parametrize("site", SITES)
    def test_numpy_integer_accepted(self, site, points_csv):
        _, call, good = SITES[site]
        call(np.int64(good))

    @pytest.mark.parametrize("site", ["n_window", "annealing_phase", "random_alternate", "budget"])
    def test_too_small_names_the_bound(self, site):
        field, call, _ = SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be >= 1, got 0")):
            call(0)


class TestAliasedInputs:
    def test_fractional_seeds_are_not_truncated(self):
        # (1.2, 1.7) passed the duplicate check and was stored as (1, 1)
        with pytest.raises(ValueError, match="a: seeds entries must be an integer, got 1.2"):
            AccuracyTable("a", (1.2, 1.7), [[0.5, 0.6]])


def _hybrid_config(tmp_path, **al):
    return {
        "dataset": {"kind": "blobs", "params": {"n_per_class": 40, "centers": [[0.0, 0.0], [4.0, 0.0]],
                                                "spread": 0.6, "seed": 1}},
        "al": {"M": 2, "T": 1, "b": 50} | al,
        "strategy": {"kind": "hybrid", "params": {"budgets": [25.0, 25.0]},
                     "constituents": [{"kind": "random"}, {"kind": "entropy"}]},
        "seeds": [0, 1.0],
        "output_dir": str(tmp_path),
    }


class TestConfigBoundary:
    """JSON may write an integer as 2.0; only the config boundary converts it."""

    def test_integral_floats_become_ints(self, tmp_path):
        cfg = validate_config(_hybrid_config(tmp_path, M=2.0))
        assert cfg["al"]["M"] == 2 and type(cfg["al"]["M"]) is int
        assert cfg["seeds"] == [0, 1] and all(type(s) is int for s in cfg["seeds"])
        split = build_strategy(cfg["strategy"]).split
        assert split == (25, 25) and all(type(b) is int for b in split)

    def test_library_stays_strict(self):
        with pytest.raises(ValueError, match="initial_labeled must be an integer, got 2.0"):
            _experiment(initial_labeled=2.0)


# --- the key rule at every site that takes a stream key or run seed ---

# (the field its error names, a call taking the key)
KEY_SITES = {
    "stream": ("stream key", lambda v: stream(3, v)),
    "check_seeds": ("'seeds' entries", lambda v: check_seeds([1, v])),
    "ExperimentConfig.seed": ("seed", lambda v: _experiment(seed=v)),
    "config seeds": ("'seeds' entries", lambda v: validate_config(_hybrid_config("out") | {"seeds": [1, v]})),
}


class TestKeyRule:
    """A key is a signed 64-bit integer: `stream` masks keys to 64 bits, so
    a wider one would draw the same stream as some key in range."""

    @pytest.mark.parametrize("value", [2**63, 2**64, 2**64 - 1, -(2**63) - 1])
    @pytest.mark.parametrize("site", KEY_SITES)
    def test_keys_outside_64_bits_rejected_by_name(self, site, value):
        field, call = KEY_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be >= -2**63 and < 2**63, got {value}")):
            call(value)

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63), np.int64(-(2**63)), np.uint64(2**63 - 1)])
    @pytest.mark.parametrize("site", KEY_SITES)
    def test_64_bit_edges_accepted(self, site, value):
        KEY_SITES[site][1](value)

    def test_aliasing_seeds_are_no_longer_paired(self):
        # stream(0) drew the same as stream(2**64), so these two "seeds" were one run
        with pytest.raises(ValueError, match="'seeds' entries must be >= -2"):
            check_seeds([0, 2**64])

    def test_draws_in_range_unchanged(self):
        for key, word in [(-1, 2**64 - 1), (-(2**63), 2**63), (2**63 - 1, 2**63 - 1)]:
            expected = np.random.default_rng(np.random.SeedSequence([7, word])).random(4)
            np.testing.assert_array_equal(stream(7, key).random(4), expected)


# --- the number rule at every site that takes a float scalar ---

_WEIGHTS_OF = init_model(2, 4, 2, 0.0, 0).weights


def _series(kappa):
    return build_strategy({"kind": "series", "params": {"kappas": [kappa, 1]},
                           "constituents": [{"kind": "entropy"}, {"kind": "bald"}]})


# (the field its error names, a call taking the value, a value the site
# accepts, and a value outside its range with the range's wording, or None)
NUMBER_SITES = {
    "ModelParams.dropout": ("dropout", lambda v: ModelParams(v, *_WEIGHTS_OF), 0, (1.0, ">= 0 and < 1")),
    "init_model.dropout": ("dropout", lambda v: init_model(2, 4, 2, v, 0), 0, (-0.1, ">= 0 and < 1")),
    "lr": ("lr", lambda v: TrainConfig(lr=v), 1, (0, "> 0")),
    "eps": ("eps", lambda v: FeedbackState(eps=v), 0.2, (0.7, "> 0 and < 0.5")),
    "lam": ("lam", lambda v: FeedbackState(lam=v), 1, (0, "> 0")),
    "beta": ("beta", lambda v: FeedbackState(beta=v), 0.5, (1.0, "> 0 and < 1")),
    "feedback_update": ("loss", lambda v: feedback_update(FeedbackState(), v), 1, (-0.5, ">= 0")),
    "rate": ("rate", lambda v: AnnealingSchedule(rate=v), 2, (0.5, ">= 1")),
    "make_grid_toy.spread": ("spread", lambda v: make_grid_toy(n_per_cell=1, spread=v), 1, (-0.1, ">= 0")),
    "make_blobs.spread": ("spread", lambda v: make_blobs(2, [[0.0], [1.0]], v), 1, (-0.1, ">= 0")),
    "test_fraction": ("test_fraction", lambda v: split(_TINY, v), 0.25, (1.0, "> 0 and < 1")),
    "select_power": ("power", lambda v: select_power(np.arange(3.0), 1, v, 0), 2, (0, "> 0")),
    "power_bald": ("power_bald power", lambda v: LeafStrategy("power_bald", power=v), 2, (-1, "> 0")),
    "winning_rate": ("critical t value", lambda v: winning_rate(np.full((2, 2), 0.7), np.full((2, 2), 0.5), v),
                     2, (-1, ">= 0")),
    "series.kappas": ("series kappas", _series, 2, None),
    "check_fields": ("'model.dropout'", lambda v: check_fields({"dropout": v}, {"dropout": 0.5}, "model"), 1, None),
}
_NOT_NUMBERS = [float("nan"), float("inf"), -float("inf"), True, "0.1"]


class TestNumberRule:
    @pytest.mark.parametrize("value", _NOT_NUMBERS)
    @pytest.mark.parametrize("site", NUMBER_SITES)
    def test_non_numbers_rejected_by_name(self, site, value):
        field, call, _, _ = NUMBER_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a finite number, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("site", NUMBER_SITES)
    def test_numpy_float_accepted(self, site):
        _, call, good, _ = NUMBER_SITES[site]
        call(np.float64(good))

    @pytest.mark.parametrize("site", [s for s, row in NUMBER_SITES.items() if isinstance(row[2], int)])
    def test_numpy_integer_accepted(self, site):
        _, call, good, _ = NUMBER_SITES[site]
        call(np.int64(good))

    @pytest.mark.parametrize("site", [s for s, row in NUMBER_SITES.items() if row[3]])
    def test_out_of_range_names_the_bound(self, site):
        field, call, _, (bad, bound) = NUMBER_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {bound}, got {bad}")):
            call(bad)

    @pytest.mark.parametrize("value", [10**400, -10**400])
    @pytest.mark.parametrize("site", NUMBER_SITES)
    def test_ints_too_large_for_a_float_rejected_by_name(self, site, value):
        # np.isfinite raised a TypeError on these, which no CLI command catches
        field, call, _, _ = NUMBER_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a finite number, got {value!r}")):
            call(value)

    def test_dropout_kept_as_a_float(self):
        assert type(ModelParams(np.float64(0.5), *_WEIGHTS_OF).dropout) is float
        assert type(init_model(2, 4, 2, 0, 0).dropout) is float


# --- the array and label rules at every site that takes a float array or labels ---

_F = np.arange(6.0).reshape(3, 2)
_Y = np.array([0.0, 1.0, 0.0])
_P = init_model(2, 4, 2, 0.0, 0)
_T = ProbabilityTensor(np.full((2, 3, 2), 0.5))
_WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _params_with(name):
    return lambda a: ModelParams(_P.dropout, **{n: getattr(_P, n) for n in _WEIGHTS} | {name: a})


# (the field its error names, a call taking the array, an array the site accepts)
ARRAY_SITES = {
    "ProbabilityTensor": ("probabilities", ProbabilityTensor, np.full((2, 3, 2), 0.5)),
    "select_top_k": ("scores", lambda a: select_top_k(a, 1), np.arange(3.0)),
    "select_power": ("scores", lambda a: select_power(a, 1, 1.0, 0), np.arange(3.0)),
    "k_centers.pool": ("pool features", lambda a: select_k_centers(a, np.zeros((0, 2)), 1), _F),
    "k_centers.labeled": ("labeled features", lambda a: select_k_centers(_F, a, 1), _F),
    "gradient_embeddings": ("features", lambda a: gradient_embeddings(_T, a), _F),
    "kmeanspp": ("embeddings", lambda a: select_kmeanspp(a, 1, 0), _F),
    "facility_location": ("pool features", lambda a: select_facility_location(a, 1), _F),
    "disparity_min": ("candidate features", lambda a: select_disparity_min(a, 1), _F),
    **{f"ModelParams.{n}": (n, _params_with(n), getattr(_P, n)) for n in _WEIGHTS},
    "model inputs": ("input features", lambda a: predict_proba(_P, a), _F),
    "model labels": ("labels", lambda y: train(_P, _F, y, TrainConfig(epochs=1)), _Y),
    "Dataset.X": ("dataset features", lambda a: Dataset(a, _Y, 2), _F),
    "Dataset.y": ("labels", lambda y: Dataset(_F, y, 2), _Y),
    "make_blobs.centers": ("centers", lambda a: make_blobs(2, a, 0.1), np.array([[0.0, 0.0], [1.0, 1.0]])),
    "AccuracyTable": ("a: accuracies", lambda a: AccuracyTable("a", (0, 1), a), np.full((2, 2), 0.5)),
    "t_score.a": ("paired samples a", lambda a: t_score(a, [0.5, 0.5, 0.5]), np.array([0.4, 0.5, 0.7])),
    "t_score.b": ("paired samples b", lambda b: t_score([0.5, 0.5, 0.5], b), np.array([0.4, 0.5, 0.7])),
    "winning_rate": ("accuracy table", lambda a: winning_rate(a, np.full((2, 2), 0.5)), np.full((2, 2), 0.7)),
    "WinningRateMatrix": ("winning rates", lambda a: WinningRateMatrix(("a", "b"), a, 2.0),
                          np.array([[0.0, 0.5], [0.5, 0.0]])),
}


def _bad(good, how):
    """`good` with its last entry NaN or inf, or with one axis fewer (one
    more for a vector). A NaN `WinningRateMatrix` used to reach the SVG, and
    a 1-D `w1` made `ModelParams.hidden` raise IndexError."""
    if how == "ndim":
        return good[0] if good.ndim > 1 else good[None]
    bad = np.array(good, dtype=np.float64)
    bad.flat[-1] = {"nan": np.nan, "inf": np.inf}[how]
    return bad


class TestArrayRule:
    @pytest.mark.parametrize("how", ["nan", "inf", "ndim"])
    @pytest.mark.parametrize("site", ARRAY_SITES)
    def test_bad_arrays_rejected_by_name(self, site, how):
        field, call, good = ARRAY_SITES[site]
        with pytest.raises(ValueError, match=re.escape(field)):
            call(_bad(good, how))

    @pytest.mark.parametrize("site", ARRAY_SITES)
    def test_good_array_accepted(self, site):
        _, call, good = ARRAY_SITES[site]
        call(good.copy())

    def test_call_paths_get_the_callers_array(self):
        # selectors and model calls must not copy their inputs
        assert _array(_F, "f", 2) is _F


def _heatmap_of(data):
    return compute_heatmap([AccuracyTable("a", (0, 1), np.full((2, 2), 0.5)), AccuracyTable("b", (0, 1), data)])


# (the field its error names, a call taking the array, an array of one wrong
# length); each length is one the site's own shape names: a layer width, a
# candidate count, a seed count, or the shape of the array paired with it
LENGTH_SITES = {
    "model inputs": ("input features", lambda a: predict_proba(_P, a), np.zeros((3, 3))),
    "k_centers.labeled": ("labeled features", lambda a: select_k_centers(_F, a, 1), np.zeros((2, 3))),
    "gradient_embeddings": ("features", lambda a: gradient_embeddings(_T, a), np.zeros((2, 2))),
    "parallel_ranked_select": ("score vector s2", lambda a: parallel_ranked_select(np.arange(3.0), a, 1),
                               np.arange(2.0)),
    "AccuracyTable": ("a: accuracies", lambda a: AccuracyTable("a", (0, 1), a), np.full((2, 3), 0.5)),
    "t_score": ("paired samples b", lambda b: t_score([0.5, 0.5, 0.5], b), np.array([0.4, 0.5])),
    "winning_rate": ("accuracy table b", lambda b: winning_rate(np.full((2, 2), 0.5), b), np.full((3, 2), 0.5)),
    "WinningRateMatrix": ("winning rates", lambda a: WinningRateMatrix(("a", "b"), a, 2.0), np.zeros((3, 3))),
    "compute_heatmap": ("table b", _heatmap_of, np.full((3, 2), 0.5)),
    "check_selection": ("batch", lambda a: check_selection(np.arange(5), a, 3), np.array([0, 1])),
    "labels": ("labels", lambda y: Dataset(_F, y, 2), np.array([0, 1])),
    # a bias of length 1 used to broadcast, and a wrong w2 failed inside matmul
    "ModelParams.b1": ("b1", _params_with("b1"), np.zeros(1)),
    "ModelParams.w2": ("w2", _params_with("w2"), np.zeros((4, 5))),
    "ModelParams.b2": ("b2", _params_with("b2"), np.zeros(5)),
    "ModelParams.w3": ("w3", _params_with("w3"), np.zeros((3, 2))),
    "ModelParams.b3": ("b3", _params_with("b3"), np.zeros(1)),
}


class TestShapeRule:
    @pytest.mark.parametrize("site", LENGTH_SITES)
    def test_wrong_lengths_rejected_by_name(self, site):
        field, call, bad = LENGTH_SITES[site]
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be \\[[*0-9, ]+\\], got shape "):
            call(bad)

    def test_one_wording(self):
        with pytest.raises(ValueError, match=re.escape("w2 must be [4, 4], got shape (4, 5)")):
            _params_with("w2")(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=re.escape("input features must be [*, 2], got shape (3,)")):
            predict_proba(_P, np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("f must be [*, *], got shape (2, 2, 2)")):
            _array(np.zeros((2, 2, 2)), "f", 2)

    def test_free_axes_take_any_length(self):
        assert _array(np.zeros((0, 7)), "f", (None, 7)).shape == (0, 7)
        assert _array(np.zeros((5, 2)), "f", (5, None)).shape == (5, 2)


# read as `src_lines` in conftest.py reads it
_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acqbench"


def _outside_rng(pattern: re.Pattern) -> list[str]:
    """Every match of `pattern` in the package's modules other than rng.py."""
    return [
        f"{path.name}: {match.group(0).strip()}"
        for path in sorted(_PACKAGE.rglob("*.py")) if path.name != "rng.py"
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    ]


class TestRuleOwners:
    def test_only_fileio_writes_a_float_cell(self):
        # `csv_text` owns the float-cell rule; its callers pass plain values
        offenders = [
            f"{path.name}: {line.strip()}"
            for path in sorted(_PACKAGE.rglob("*.py")) if path.name != "fileio.py"
            for line in path.read_text(encoding="utf-8").splitlines() if "repr(float(" in line
        ]
        assert offenders == []

    def test_only_rng_checks_finiteness_or_freezes_arrays(self):
        # the array rule has one owner; a second copy of it must not regrow
        pattern = re.compile(r"\bnp\.isfinite\b|\.flags\.writeable\s*=(?!=)")
        offenders = [
            f"{path.name}: {line.strip()}"
            for path in sorted(_PACKAGE.rglob("*.py")) if path.name != "rng.py"
            for line in path.read_text(encoding="utf-8").splitlines() if pattern.search(line)
        ]
        assert offenders == []

    def test_only_rng_checks_scalar_finiteness(self):
        # the number rule has one owner too
        assert _outside_rng(re.compile(r"\bmath\.isfinite\b")) == []

    def test_only_rng_compares_or_words_a_shape(self):
        # the shape rule has one owner: `_array`, `_labels` and
        # `check_selection` name a shape, and `rng._shape` compares it
        pattern = re.compile(r"\.shape(\[\d+\])?\s*!=|np\.shape\([^)]*\)\s*!=|got shape")
        assert _outside_rng(pattern) == []

    def test_only_rng_words_a_range_error(self):
        # a hand-written range check raises "x must be in (0, 1)", "must be
        # positive" or "must be >= 0"; the rules in rng word every such error
        pattern = re.compile(r"""raise \w+\(\s*f?["'][^"'\n]*\bmust be (?:finite|positive|nonnegative|in [\[(]|[<>])""")
        assert _outside_rng(pattern) == []
