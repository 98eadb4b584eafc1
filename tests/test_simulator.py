"""Tests for the active-learning loop, its artifacts, and seed handling."""

import json

import numpy as np
import pytest

from acqbench import model as mdl
from acqbench.datasets import Dataset, make_blobs
from acqbench.rng import NS_INIT_LABELED, NS_MODEL_INIT, NS_TRAIN, derive_seed, stream
from acqbench.simulator import (
    ExperimentConfig,
    RoundRow,
    RunRecord,
    oracle_label,
    read_record_csv,
    record_csv_text,
    record_summary,
    run_experiment,
    sweep,
    write_record,
)

CENTERS = np.array([[0.0, 0.0], [6.0, 0.0]])


def _config(strategy_spec, **overrides):
    base = dict(
        train_ds=make_blobs(60, CENTERS, 0.8, seed=0),
        test_ds=make_blobs(30, CENTERS, 0.8, seed=1),
        strategy_spec=strategy_spec,
        seed=3,
        hidden=8,
        dropout=0.3,
        lr=0.05,
        epochs=5,
        minibatch=16,
        n_passes=2,
        initial_labeled=5,
        rounds=3,
        budget=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _strip_timings(record):
    return [
        (r.round, r.n_labeled, r.test_accuracy, r.batch_loss_prev_model,
         r.strategy_tag, r.n_infer, r.selected)
        for r in record.rows
    ]


class TestLoopBookkeeping:
    def test_labeled_count_trace(self):
        rec = run_experiment(_config({"kind": "random"}))
        assert [r.n_labeled for r in rec.rows] == [9, 13, 17]

    def test_no_index_labeled_twice(self):
        cfg = _config({"kind": "entropy"})
        rec = run_experiment(cfg)
        initial = stream(cfg.seed, NS_INIT_LABELED).choice(
            len(cfg.train_ds), size=cfg.initial_labeled, replace=False
        )
        seen = set(int(i) for i in initial)
        for row in rec.rows:
            assert not (set(row.selected) & seen)
            seen |= set(row.selected)

    def test_single_round_is_one_training_on_the_union(self):
        cfg = _config({"kind": "random"}, rounds=1)
        rec = run_experiment(cfg)
        initial = stream(cfg.seed, NS_INIT_LABELED).choice(
            len(cfg.train_ds), size=cfg.initial_labeled, replace=False
        )
        labeled = np.sort(np.concatenate([initial, np.asarray(rec.rows[0].selected)]))
        params = mdl.train(
            mdl.init_model(2, cfg.hidden, 2, cfg.dropout,
                           seed=derive_seed(cfg.seed, NS_MODEL_INIT, 1)),
            cfg.train_ds.X[labeled],
            cfg.train_ds.y[labeled],
            mdl.TrainConfig(lr=cfg.lr, epochs=cfg.epochs, minibatch=cfg.minibatch,
                            seed=derive_seed(cfg.seed, NS_TRAIN, 1)),
        )
        assert rec.rows[0].test_accuracy == mdl.accuracy(params, cfg.test_ds.X, cfg.test_ds.y)

    def test_accuracies_in_range(self):
        rec = run_experiment(_config({"kind": "bald"}))
        for acc in [rec.initial_accuracy] + [r.test_accuracy for r in rec.rows]:
            assert 0.0 < acc <= 1.0

    def test_identical_reruns_match_exactly(self):
        cfg = _config({"kind": "k_centers"})
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert _strip_timings(a) == _strip_timings(b)
        assert a.initial_accuracy == b.initial_accuracy
        assert record_csv_text(a) == record_csv_text(b)

    def test_seeds_change_the_run(self):
        a = run_experiment(_config({"kind": "random"}, seed=1))
        b = run_experiment(_config({"kind": "random"}, seed=2))
        assert _strip_timings(a) != _strip_timings(b)


class TestInferenceAccounting:
    # round 1: pool = 120 - 5 = 115 candidates, 5 labeled

    def test_mc_scorer_cost(self):
        rec = run_experiment(_config({"kind": "bald"}))
        labeled = 5
        for row in rec.rows:
            pool = 120 - labeled
            assert row.n_infer == 2 * pool  # n_passes * pool, no features
            labeled = row.n_labeled

    def test_coverage_strategy_cost(self):
        rec = run_experiment(_config({"kind": "k_centers"}))
        labeled = 5
        for row in rec.rows:
            pool = 120 - labeled
            assert row.n_infer == pool + labeled  # features of pool and labeled
            labeled = row.n_labeled

    def test_series_cost_sums_stage_costs(self):
        spec = {
            "kind": "series",
            "params": {"kappas": [2, 1]},
            "constituents": [{"kind": "k_centers"}, {"kind": "bald"}],
        }
        rec = run_experiment(_config(spec))
        labeled = 5
        for row in rec.rows:
            pool = 120 - labeled
            # stage 1 features pool + labeled, stage 2 MC on kappa * b survivors
            assert row.n_infer == (pool + labeled) + 2 * (2 * 4)
            labeled = row.n_labeled

    def test_random_strategy_costs_nothing(self):
        rec = run_experiment(_config({"kind": "random"}))
        assert all(r.n_infer == 0 for r in rec.rows)

    def test_pool_draw_caps_cost(self):
        rec = run_experiment(_config({"kind": "bald"}, pool_size=20))
        assert all(r.n_infer == 2 * 20 for r in rec.rows)


class TestOracle:
    def test_identity(self):
        ds = make_blobs(10, CENTERS, 0.5)
        idx = np.array([0, 5, 19])
        np.testing.assert_array_equal(oracle_label(ds, idx), ds.y[idx])

    def test_idempotent(self):
        ds = make_blobs(10, CENTERS, 0.5)
        idx = np.arange(20)
        np.testing.assert_array_equal(oracle_label(ds, idx), oracle_label(ds, idx))

    def test_out_of_range(self):
        ds = make_blobs(10, CENTERS, 0.5)
        with pytest.raises(ValueError):
            oracle_label(ds, np.array([20]))
        with pytest.raises(ValueError):
            oracle_label(ds, np.array([-1]))


class TestSweep:
    def test_one_record_per_seed_in_order(self):
        cfg = _config({"kind": "random"}, rounds=2)
        recs = sweep(cfg, [4, 2, 7])
        assert [r.seed for r in recs] == [4, 2, 7]

    def test_each_seed_matches_solo_run(self):
        cfg = _config({"kind": "entropy"}, rounds=2)
        recs = sweep(cfg, [1, 2])
        for rec in recs:
            solo = run_experiment(_config({"kind": "entropy"}, rounds=2, seed=rec.seed))
            assert _strip_timings(rec) == _strip_timings(solo)

    def test_parallel_matches_sequential(self):
        cfg = _config({"kind": "random"}, rounds=2)
        seq = sweep(cfg, [1, 2, 3], jobs=1)
        par = sweep(cfg, [1, 2, 3], jobs=2)
        assert [_strip_timings(r) for r in seq] == [_strip_timings(r) for r in par]

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            sweep(_config({"kind": "random"}), [1, 1])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            sweep(_config({"kind": "random"}), [])


class TestArtifacts:
    def test_write_and_read_round_trip(self, tmp_path):
        rec = run_experiment(_config({"kind": "margin"}, rounds=2))
        out = write_record(rec, tmp_path / "r")
        rows = read_record_csv(out / "record.csv")
        assert [r["round"] for r in rows] == [1, 2]
        for got, want in zip(rows, rec.rows):
            assert got["n_labeled"] == want.n_labeled
            assert got["test_accuracy"] == want.test_accuracy
            assert got["batch_loss_prev_model"] == want.batch_loss_prev_model
            assert got["n_infer"] == want.n_infer
            assert got["acq_ms"] is None

    def test_summary_json(self, tmp_path):
        rec = run_experiment(_config({"kind": "margin"}, rounds=2))
        out = write_record(rec, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "margin"
        assert summary["final_accuracy"] == rec.final_accuracy
        assert summary["total_n_infer"] == rec.total_inferences
        assert len(summary["rounds"]) == 2
        assert summary["rounds"][0]["selected"] == list(rec.rows[0].selected)

    def test_timings_included_on_request(self):
        rec = run_experiment(_config({"kind": "random"}, rounds=1))
        text = record_csv_text(rec, include_timings=True)
        row = text.splitlines()[1].split(",")
        assert float(row[5]) >= 0.0 and float(row[6]) > 0.0

    def test_timings_excluded_by_default(self):
        rec = run_experiment(_config({"kind": "random"}, rounds=1))
        row = record_csv_text(rec).splitlines()[1].split(",")
        assert row[5] == "" and row[6] == ""

    def test_unexpected_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_record_csv(p)


class TestRecordTypes:
    def _row(self, t):
        return RoundRow(round=t, n_labeled=10, test_accuracy=0.5,
                        batch_loss_prev_model=0.7, strategy_tag="x", acq_ms=0.0,
                        train_ms=0.0, n_infer=0, n_infer_mc=0, n_infer_features=0,
                        selected=(1, 2))

    def test_rounds_must_be_contiguous(self):
        with pytest.raises(ValueError):
            RunRecord(strategy="x", seed=0, initial_accuracy=0.5,
                      rows=(self._row(1), self._row(3)))

    def test_final_accuracy_falls_back_to_initial(self):
        rec = RunRecord(strategy="x", seed=0, initial_accuracy=0.42)
        assert rec.final_accuracy == 0.42


class TestConfigValidation:
    def test_budget_exceeding_training_set(self):
        with pytest.raises(ValueError):
            _config({"kind": "random"}, rounds=50, budget=10)

    def test_pool_smaller_than_budget(self):
        with pytest.raises(ValueError):
            _config({"kind": "random"}, pool_size=2)

    def test_class_count_mismatch(self):
        three = Dataset(np.random.default_rng(0).normal(size=(30, 2)),
                        np.arange(30) % 3, 3)
        with pytest.raises(ValueError):
            _config({"kind": "random"}, test_ds=three)

    def test_strategy_budget_rule_checked_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the budget rule was checked")

        monkeypatch.setattr(mdl, "train", no_training)
        spec = {"kind": "parallel", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        with pytest.raises(ValueError, match="even budget"):
            run_experiment(_config(spec, budget=3))
