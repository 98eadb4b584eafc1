"""Tests for the active-learning loop, its artifacts, and seed handling."""

import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from acqbench import model as mdl
from acqbench import simulator
from acqbench.datasets import Dataset, make_blobs
from acqbench.rng import NS_INIT_LABELED, NS_MODEL_INIT, NS_TRAIN, derive_seed, stream
from acqbench.simulator import (
    RECORD_COLUMNS,
    ExperimentConfig,
    RoundRow,
    RunRecord,
    oracle_label,
    read_record_csv,
    read_run,
    record_csv_text,
    record_summary,
    run_experiment,
    start,
    step,
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
        assert a == b
        assert record_csv_text(a) == record_csv_text(b)

    def test_seeds_change_the_run(self):
        a = run_experiment(_config({"kind": "random"}, seed=1))
        b = run_experiment(_config({"kind": "random"}, seed=2))
        assert a.rows != b.rows


def _alternator(kind, **params):
    return {"kind": kind, "params": params, "constituents": [{"kind": "random"}, {"kind": "bald"}]}


class TestStep:
    @pytest.mark.parametrize("spec", [
        _alternator("feedback"),
        _alternator("annealing", t_initial=1, t_exploit=1, t_explore=1),
        _alternator("random_alternate"),
    ], ids=["feedback", "annealing", "random_alternate"])
    def test_runs_advanced_round_robin_match_run_experiment(self, spec):
        # every run carries its own state, so interleaving them changes nothing
        cfgs = [_config(spec, seed=s) for s in (0, 1, 2)]
        runs = [start(cfg) for cfg in cfgs]
        for t in range(1, cfgs[0].rounds + 1):
            for run in runs:
                row = step(run)
                assert row is run.rows[-1]
                assert row.round == t
                assert row.n_labeled == run.cfg.initial_labeled + t * run.cfg.budget
        for cfg, run in zip(cfgs, runs):
            solo = run_experiment(cfg)
            stepped = RunRecord(run.strategy.name, cfg.seed, run.initial_accuracy, tuple(run.rows))
            assert record_csv_text(stepped) == record_csv_text(solo)
            assert [r.selected for r in stepped.rows] == [r.selected for r in solo.rows]
            assert stepped.initial_accuracy == solo.initial_accuracy

    def test_nested_feedback_observes_every_round_loss(self):
        spec = {"kind": "series", "params": {"kappas": [2, 1]},
                "constituents": [{"kind": "k_centers"}, _alternator("feedback")]}
        run = start(_config(spec, rounds=4))
        for _ in range(4):
            step(run)
        nested = run.strategy.constituents[1]
        assert nested.state.losses == tuple(r.batch_loss_prev_model for r in run.rows)

    def test_round_state_dropped_before_the_loss_probe_and_refit(self, monkeypatch):
        # the memo's MC stacks and features are not held through the probe,
        # the refit and the test evaluation
        states, alive = [], []

        class TrackedState(simulator.RoundState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(weakref.ref(self))

        def counting(fn):
            def wrapped(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in states))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(simulator, "RoundState", TrackedState)
        monkeypatch.setattr(simulator, "_fit", counting(simulator._fit))
        monkeypatch.setattr(mdl, "mean_cross_entropy", counting(mdl.mean_cross_entropy))
        spec = {"kind": "series", "params": {"kappas": [2, 1]},
                "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]}
        run = start(_config(spec))
        for _ in range(2):
            row = step(run)
            assert row.n_infer_mc > 0 and row.n_infer_features > 0
        assert len(states) == 2 and alive == [0, 0, 0, 0, 0]

    def test_labeled_mask_grows_by_each_batch(self):
        run = start(_config({"kind": "entropy"}))
        before = run.labeled.copy()
        row = step(run)
        assert np.flatnonzero(run.labeled & ~before).tolist() == sorted(row.selected)


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

    def test_zero_budget_hybrid_arm_does_not_run(self):
        # the k_centers arm used to run on the empty rest of a 4-point pool
        # and fail with "empty input batch"; on a larger pool it added passes
        spec = {"kind": "hybrid", "params": {"budgets": [4, 0]},
                "constituents": [{"kind": "entropy"}, {"kind": "k_centers"}]}
        hybrid = run_experiment(_config(spec, pool_size=4))
        alone = run_experiment(_config({"kind": "entropy"}, pool_size=4))
        assert [r.n_infer for r in hybrid.rows] == [r.n_infer for r in alone.rows] == [2 * 4] * 3
        assert [r.selected for r in hybrid.rows] == [r.selected for r in alone.rows]


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


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestSweep:
    def test_one_record_per_seed_in_order(self, tmp_path):
        # pair by pair, seed by seed; each run in root/<strategy>/<seed>
        runs = [(_config({"kind": "random"}, rounds=2), tmp_path / "a"),
                (_config({"kind": "margin"}, rounds=2), tmp_path)]
        dirs = sweep(runs, [4, 2, 7])
        assert dirs == [tmp_path / "a" / "random" / s for s in ("4", "2", "7")] + [
            tmp_path / "margin" / s for s in ("4", "2", "7")]
        assert [json.loads((d / "summary.json").read_text())["seed"] for d in dirs] == [4, 2, 7] * 2

    def test_each_seed_matches_solo_run(self, tmp_path):
        cfg = _config({"kind": "entropy"}, rounds=2)
        for run_dir in sweep([(cfg, tmp_path / "sweep")], [1, 2]):
            solo = write_record(run_experiment(_config({"kind": "entropy"}, rounds=2, seed=int(run_dir.name))),
                                tmp_path / "solo" / run_dir.name)
            assert _tree(run_dir) == _tree(solo)

    def test_parallel_matches_sequential(self, tmp_path):
        runs = [(_config({"kind": kind}, rounds=2), tmp_path / "seq") for kind in ("random", "bald")]
        seq = sweep(runs, [1, 2, 3], jobs=1)
        par = sweep([(cfg, tmp_path / "par") for cfg, _ in runs], [1, 2, 3], jobs=2)
        assert [d.relative_to(tmp_path / "seq") for d in seq] == [d.relative_to(tmp_path / "par") for d in par]
        assert _tree(tmp_path / "seq") == _tree(tmp_path / "par")
        assert len(_tree(tmp_path / "seq")) == 12

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep([(_config({"kind": "random"}), tmp_path)], [1, 1])
        assert list(tmp_path.iterdir()) == []

    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep([(_config({"kind": "random"}), tmp_path)], [])

    def test_range_and_numpy_seeds_accepted(self, tmp_path):
        cfg = _config({"kind": "random"}, rounds=1)
        want = sweep([(cfg, tmp_path / "list")], [0, 1])
        for seeds in (range(2), np.arange(2)):
            root = tmp_path / type(seeds).__name__
            dirs = sweep([(cfg, root)], seeds)
            assert [d.relative_to(root) for d in dirs] == [d.relative_to(tmp_path / "list") for d in want]
            assert [json.loads((d / "summary.json").read_text())["seed"] for d in dirs] == [0, 1]
            assert _tree(root) == _tree(tmp_path / "list")

    @pytest.mark.parametrize("seeds", [[True, 2], [np.bool_(True), 2]])
    def test_bool_seed_rejected(self, seeds, tmp_path):
        with pytest.raises(ValueError, match="seeds"):
            sweep([(_config({"kind": "random"}), tmp_path)], seeds)


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
            assert got["strategy_tag"] == want.strategy_tag

    def test_round_trip_with_timings(self, tmp_path):
        # wall times are not part of a record: two runs of one config write
        # byte-identical record.csv files, no timing column comes back, and
        # a request for timings is refused
        cfg = _config({"kind": "margin"}, rounds=2)
        rec = run_experiment(cfg)
        first = write_record(rec, tmp_path / "a") / "record.csv"
        second = write_record(run_experiment(cfg), tmp_path / "b") / "record.csv"
        assert first.read_bytes() == second.read_bytes()
        rows = read_record_csv(first)
        assert all(set(r) == set(RECORD_COLUMNS) for r in rows)
        assert [r["strategy_tag"] for r in rows] == [w.strategy_tag for w in rec.rows]
        with pytest.raises(TypeError):
            write_record(rec, tmp_path / "c", include_timings=True)

    def test_nested_alternator_choice_reaches_record_csv(self, tmp_path):
        annealing = {"kind": "annealing", "params": {"t_initial": 1, "t_exploit": 1, "t_explore": 1, "rate": 1},
                     "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        spec = {"kind": "series", "params": {"kappas": [2, 1]}, "constituents": [{"kind": "k_centers"}, annealing]}
        rec = run_experiment(_config(spec))
        rows = read_record_csv(write_record(rec, tmp_path / "r") / "record.csv")
        name = rec.strategy
        assert [r["strategy_tag"] for r in rows] == [
            f"{name}[k_centers,explore:random]", f"{name}[k_centers,exploit:bald]", f"{name}[k_centers,explore:random]"
        ]

    def test_summary_json(self, tmp_path):
        rec = run_experiment(_config({"kind": "margin"}, rounds=2))
        out = write_record(rec, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "margin"
        assert summary["final_accuracy"] == rec.rows[-1].test_accuracy
        assert summary["total_n_infer"] == sum(r.n_infer for r in rec.rows)
        assert len(summary["rounds"]) == 2
        assert summary["rounds"][0]["selected"] == list(rec.rows[0].selected)

    def test_read_run_matches_selected_by_round(self, tmp_path):
        rec = run_experiment(_config({"kind": "margin"}, rounds=3))
        out = write_record(rec, tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        summary["rounds"].reverse()
        (out / "summary.json").write_text(json.dumps(summary))
        rows = read_run(out)
        assert [r["selected"] for r in rows] == [list(r.selected) for r in rec.rows]
        assert [{c: r[c] for c in RECORD_COLUMNS} for r in rows] == read_record_csv(out / "record.csv")

    def test_read_run_rejects_a_round_summary_lacks(self, tmp_path):
        out = write_record(run_experiment(_config({"kind": "margin"}, rounds=2)), tmp_path / "r")
        summary = json.loads((out / "summary.json").read_text())
        del summary["rounds"][1]
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=re.escape(f"{out}: summary.json has no round 2")):
            read_run(out)

    def test_read_run_rejects_a_record_without_summary(self, tmp_path):
        # a run that died between its two atomic writes
        out = write_record(run_experiment(_config({"kind": "margin"}, rounds=1)), tmp_path / "r")
        (out / "summary.json").unlink()
        with pytest.raises(ValueError, match=re.escape(f"{out}: record.csv has no summary.json beside it")):
            read_run(out)

    def test_unexpected_columns_rejected(self, tmp_path):
        # one format: a record with wall-time columns is refused too, and
        # the error names the columns a record must have
        expected = re.escape(f"expected {list(RECORD_COLUMNS)}")
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match=expected):
            read_record_csv(p)
        p.write_text("round,n_labeled,test_accuracy,batch_loss_prev_model,strategy_tag,acq_ms,train_ms,n_infer\n"
                     "1,9,0.5,0.7,x,,,0\n")
        with pytest.raises(ValueError, match=expected):
            read_record_csv(p)

    def test_header_only_record_rejected(self, tmp_path):
        p = tmp_path / "record.csv"
        p.write_text(",".join(RECORD_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_record_csv(p)


class TestRecordTypes:
    def _row(self, t):
        return RoundRow(round=t, n_labeled=10, test_accuracy=0.5,
                        batch_loss_prev_model=0.7, strategy_tag="x", n_infer=0,
                        n_infer_mc=0, n_infer_features=0, selected=(1, 2))

    def test_rounds_must_be_contiguous(self):
        with pytest.raises(ValueError):
            RunRecord(strategy="x", seed=0, initial_accuracy=0.5,
                      rows=(self._row(1), self._row(3)))

    def test_final_accuracy_falls_back_to_initial(self):
        summary = record_summary(RunRecord(strategy="x", seed=0, initial_accuracy=0.42))
        assert summary["final_accuracy"] == 0.42
        assert summary["total_n_infer"] == 0


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

    @pytest.mark.parametrize(
        "field,value",
        [("n_passes", 0), ("lr", float("inf")), ("dropout", 1.5), ("hidden", 0), ("epochs", -1), ("minibatch", 0)],
    )
    def test_round_settings_checked_when_built(self, monkeypatch, field, value):
        # each round builds its model, train and MC settings from these; a bad
        # one used to pass here, train round 0, and fail later or elsewhere
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the settings were checked")

        monkeypatch.setattr(mdl, "train", no_training)
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            _config({"kind": "random"}, **{field: value})


class TestNoWallClock:
    def test_no_module_reads_a_wall_clock(self):
        # every artifact is a function of config and seed; wall times are
        # measured from outside, by bench/run.py --trace 1
        pattern = re.compile(r"^\s*(?:import time\b|from time import)|\btime\.(?:perf_counter|time|monotonic)", re.M)
        offenders = [
            f"{path.name}: {match.group(0).strip()}"
            for path in sorted(Path(simulator.__file__).parent.rglob("*.py"))
            for match in pattern.finditer(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
