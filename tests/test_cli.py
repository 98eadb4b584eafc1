"""Tests for config validation and the command line front end."""

import copy
import csv
import json
import os
import re
import shutil
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from acqbench import cli
from acqbench.cli import _parse_seeds, _parse_values, main, toy_config
from acqbench.config import build_experiment, validate_config


def _base_config(out_dir):
    return {
        "dataset": {
            "kind": "blobs",
            "params": {"n_per_class": 30, "centers": [[0.0, 0.0], [4.0, 0.0]],
                       "spread": 0.6, "seed": 1},
        },
        "model": {"hidden": 6, "dropout": 0.3},
        "train": {"lr": 0.05, "epochs": 3, "minibatch": 16},
        "mc": {"n_passes": 2},
        "al": {"M": 4, "T": 2, "b": 3},
        "strategy": {"kind": "entropy"},
        "seeds": [0, 1],
        "output_dir": str(out_dir),
    }


def _write_config(tmp_path, cfg=None, name="config.json"):
    cfg = cfg if cfg is not None else _base_config(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestValidateConfig:
    def test_fills_defaults(self):
        cfg = validate_config(
            {
                "dataset": {"kind": "grid"},
                "al": {"M": 5, "T": 2, "b": 4},
                "strategy": {"kind": "random"},
                "seeds": [0],
                "output_dir": "/tmp/x",
            }
        )
        assert cfg["model"] == {"hidden": 32, "dropout": 0.5}
        assert cfg["train"] == {"lr": 0.001, "epochs": 40, "minibatch": 32}
        assert cfg["mc"] == {"n_passes": 5}
        assert cfg["dataset"]["params"]["test_fraction"] == 0.25
        assert cfg["al"]["pool_size"] == 1_000_000_000

    def test_unknown_top_level_key_named(self):
        cfg = _base_config("/tmp/x")
        cfg["extra_section"] = {}
        with pytest.raises(ValueError, match="extra_section"):
            validate_config(cfg)

    def test_unknown_section_key_named(self):
        cfg = _base_config("/tmp/x")
        cfg["train"]["learning_rate"] = 0.1
        with pytest.raises(ValueError, match="learning_rate"):
            validate_config(cfg)

    def test_missing_al_key_named(self):
        cfg = _base_config("/tmp/x")
        del cfg["al"]["M"]
        with pytest.raises(ValueError, match="'M'"):
            validate_config(cfg)

    def test_unknown_dataset_kind(self):
        cfg = _base_config("/tmp/x")
        cfg["dataset"]["kind"] = "mnist"
        with pytest.raises(ValueError, match="mnist"):
            validate_config(cfg)

    def test_bool_is_not_an_integer(self):
        cfg = _base_config("/tmp/x")
        cfg["al"]["M"] = True
        with pytest.raises(ValueError, match="'al.M'"):
            validate_config(cfg)

    def test_bad_strategy_reported(self):
        cfg = _base_config("/tmp/x")
        cfg["strategy"] = {"kind": "nope"}
        with pytest.raises(ValueError, match="strategy"):
            validate_config(cfg)

    def test_duplicate_seeds_rejected(self):
        cfg = _base_config("/tmp/x")
        cfg["seeds"] = [0, 0]
        with pytest.raises(ValueError, match="seeds"):
            validate_config(cfg)

    def test_dropout_bounded(self):
        cfg = _base_config("/tmp/x")
        cfg["model"]["dropout"] = 1.0
        with pytest.raises(ValueError, match="dropout"):
            validate_config(cfg)

    def test_empty_output_dir_rejected(self):
        with pytest.raises(ValueError, match="'output_dir' must be a nonempty string"):
            validate_config(_base_config(""))

    def test_list_where_an_object_belongs_named(self):
        cfg = _base_config("/tmp/x")
        cfg["train"] = [0.1]
        with pytest.raises(ValueError, match=re.escape("'config.train' must be an object, got [0.1]")):
            validate_config(cfg)

    @staticmethod
    def _with_strategy(strategy, b=4):
        cfg = _base_config("/tmp/x")
        cfg["strategy"] = strategy
        cfg["al"]["b"] = b
        return cfg

    def test_fractional_int_param_rejected(self):
        cfg = self._with_strategy({"kind": "annealing", "params": {"t_initial": 2.7},
                                   "constituents": [{"kind": "random"}, {"kind": "bald"}]})
        with pytest.raises(ValueError, match="t_initial"):
            validate_config(cfg)

    def test_integral_float_int_param_accepted(self):
        cfg = self._with_strategy({"kind": "annealing", "params": {"t_initial": 2.0},
                                   "constituents": [{"kind": "random"}, {"kind": "bald"}]})
        validate_config(cfg)

    def test_hybrid_arm_that_picks_nothing_is_not_walked(self, tmp_path):
        # its series arm would need a budget of at least 1, but never runs
        cfg = self._with_strategy({"kind": "hybrid", "params": {"budgets": [0, 4]}, "constituents": [
            {"kind": "series", "params": {"kappas": [2, 1]}, "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
            {"kind": "bald"}]})
        cfg["al"]["T"], cfg["output_dir"] = 1, str(tmp_path / "out")
        assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 0
        (record,) = (tmp_path / "out").glob("*/0/record.csv")
        rows = list(csv.DictReader(record.open()))
        assert [(r["round"], r["n_labeled"]) for r in rows] == [("1", "8")]

    def test_bool_hybrid_budget_rejected(self):
        cfg = self._with_strategy({"kind": "hybrid", "params": {"budgets": [True, 9]},
                                   "constituents": [{"kind": "bald"}, {"kind": "random"}]}, b=10)
        with pytest.raises(ValueError, match="budgets"):
            validate_config(cfg)

    def test_bool_float_param_rejected(self):
        cfg = self._with_strategy({"kind": "power_bald", "params": {"power": True}})
        with pytest.raises(ValueError, match="power"):
            validate_config(cfg)

    def test_nonpositive_power_rejected(self):
        cfg = self._with_strategy({"kind": "power_bald", "params": {"power": -1}})
        with pytest.raises(ValueError, match="power"):
            validate_config(cfg)

    def test_hybrid_budgets_must_sum_to_round_budget(self):
        cfg = self._with_strategy({"kind": "hybrid", "params": {"budgets": [2, 2]},
                                   "constituents": [{"kind": "bald"}, {"kind": "random"}]}, b=10)
        with pytest.raises(ValueError, match="2\\+2 != round budget 10"):
            validate_config(cfg)

    def test_parallel_needs_even_round_budget(self):
        cfg = self._with_strategy({"kind": "parallel",
                                   "constituents": [{"kind": "bald"}, {"kind": "random"}]}, b=9)
        with pytest.raises(ValueError, match="even budget"):
            validate_config(cfg)

    def test_budget_rule_checked_inside_series(self):
        # the series hands round(2 * 5) = 10 to the hybrid stage, not 4
        hybrid = {"kind": "hybrid", "params": {"budgets": [2, 2]},
                  "constituents": [{"kind": "bald"}, {"kind": "random"}]}
        cfg = self._with_strategy({"kind": "series", "params": {"kappas": [2, 1]},
                                   "constituents": [hybrid, {"kind": "bald"}]}, b=5)
        with pytest.raises(ValueError, match="2\\+2 != round budget 10"):
            validate_config(cfg)
        cfg["al"]["b"] = 2
        validate_config(cfg)

    def test_stage_budget_checked_against_round_pool(self, tmp_path, capsys, monkeypatch):
        # the series' k_centers stage picks 4 * 10 = 40 from a 20-point pool
        cfg = self._with_strategy({"kind": "series", "params": {"kappas": [4, 1]},
                                   "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]}, b=10)
        cfg["dataset"] = {"kind": "grid", "params": {"cells_per_side": 4, "n_per_cell": 25}}
        cfg["al"].update(M=10, T=3, pool_size=20)
        cfg["output_dir"] = str(tmp_path / "out")
        with pytest.raises(ValueError, match="invalid 'strategy': k_centers budget 40 exceeds 20 candidates"):
            validate_config(cfg)
        monkeypatch.setattr("acqbench.model.train", lambda *a, **k: pytest.fail("trained before the budget check"))
        assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 1
        assert "invalid 'strategy': k_centers budget 40 exceeds 20 candidates" in capsys.readouterr().err

    def test_stage_budget_checked_against_last_round_pool(self):
        # 45 training rows: round t's pool holds 45 - 4 - 10 (t - 1), so the
        # stage's 30 picks fit rounds 1 and 2 (41 and 31) but not round 3 (21)
        cfg = self._with_strategy({"kind": "series", "params": {"kappas": [3, 1]},
                                   "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]}, b=10)
        validate_config(cfg)
        cfg["al"]["T"] = 3
        with pytest.raises(ValueError, match="invalid 'strategy': k_centers budget 30 exceeds 21 candidates"):
            validate_config(cfg)

    @pytest.mark.parametrize("kappas", [[2, 2], [1, 2], [2, 1, 1]])
    def test_bad_series_kappas_named(self, kappas):
        cfg = self._with_strategy({"kind": "series", "params": {"kappas": kappas},
                                   "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]}, b=3)
        with pytest.raises(ValueError, match="invalid 'strategy': series kappas"):
            validate_config(cfg)

    @pytest.mark.parametrize("section,key", [("train", "lr"), ("model", "dropout"), ("params", "spread")])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, section, key, literal):
        cfg = _base_config("/tmp/x")
        (cfg["dataset"] if section == "params" else cfg)[section][key] = json.loads(literal)
        with pytest.raises(ValueError, match=key):
            validate_config(cfg)

    def test_integral_float_int_setting_accepted(self):
        cfg = _base_config("/tmp/x")
        cfg["al"]["M"] = 2.0
        al = validate_config(cfg)["al"]
        assert al["M"] == 2 and type(al["M"]) is int

    def test_fractional_int_setting_rejected(self):
        cfg = _base_config("/tmp/x")
        cfg["al"]["M"] = 2.5
        with pytest.raises(ValueError, match="'al.M'"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "path,value,section,words",
        [
            ("dataset.params.cells_per_side", 1, "dataset", "cells_per_side"),
            ("dataset.params.n_per_cell", 0, "dataset", "n_per_cell"),
            ("dataset.params.n_per_class", 0, "dataset", "n_per_class"),
            ("dataset.params.spread", -1, "dataset", "spread"),
            ("dataset.params.test_fraction", 0, "dataset", "test_fraction"),
            ("dataset.params.test_fraction", 1, "dataset", "test_fraction"),
            ("model.hidden", 0, "model", "hidden"),
            ("model.dropout", -0.1, "model", "dropout"),
            ("model.dropout", 1.0, "model", "dropout"),
            ("al.M", 0, "al", "initial_labeled"),
            ("al.T", 0, "al", "rounds"),
            ("al.b", 0, "al", "budget"),
            ("al.pool_size", 2, "al", "pool_size"),
        ],
    )
    def test_range_rejected_naming_section(self, path, value, section, words):
        cfg = _base_config("/tmp/x")
        if path.split(".")[-1] in ("cells_per_side", "n_per_cell"):
            cfg["dataset"] = {"kind": "grid", "params": {"cells_per_side": 3, "n_per_cell": 10}}
        *parents, key = path.split(".")
        target = cfg
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(ValueError, match=f"invalid '{section}': .*{words}"):
            validate_config(cfg)

    def test_budgets_must_fit_training_split(self):
        # 60 blob rows leave 45 for training; 4 + 2 * 30 = 64 do not fit
        cfg = _base_config("/tmp/x")
        cfg["al"]["b"] = 30
        with pytest.raises(ValueError, match="invalid 'al': .*64 exceeds training set of 45"):
            validate_config(cfg)

    @staticmethod
    def _csv_config(tmp_path, label_column):
        path = tmp_path / "points.csv"
        g = np.random.default_rng(0)
        lines = ["x0,x1,label"] + [f"{x0},{x1},{i % 2}" for i, (x0, x1) in enumerate(g.normal(size=(40, 2)).tolist())]
        path.write_text("\n".join(lines) + "\n")
        cfg = _base_config("/tmp/x")
        cfg["dataset"] = {"kind": "csv", "params": {"path": str(path), "label_column": label_column}}
        return cfg

    @pytest.mark.parametrize("label_column", ["label", 2, -1])
    def test_csv_dataset_validates_and_builds(self, tmp_path, label_column):
        cfg = validate_config(self._csv_config(tmp_path, label_column))
        exp = build_experiment(cfg, 0)
        assert len(exp.train_ds) == 30 and len(exp.test_ds) == 10
        assert exp.train_ds.n_classes == 2 and exp.train_ds.X.shape[1] == 2

    @pytest.mark.parametrize("label_column", ["nope", 5])
    def test_csv_bad_label_column_named(self, tmp_path, label_column):
        with pytest.raises(ValueError, match=f"invalid 'dataset': .*label column.*{label_column}"):
            validate_config(self._csv_config(tmp_path, label_column))

    def test_csv_label_column_type_checked(self, tmp_path):
        with pytest.raises(ValueError, match="label_column"):
            validate_config(self._csv_config(tmp_path, 1.5))

    def test_csv_missing_file_named(self, tmp_path):
        cfg = self._csv_config(tmp_path, "label")
        cfg["dataset"]["params"]["path"] = str(tmp_path / "absent.csv")
        with pytest.raises(ValueError, match="invalid 'dataset': .*absent.csv"):
            validate_config(cfg)

    def test_build_experiment_shares_split_across_run_seeds(self):
        cfg = validate_config(_base_config("/tmp/x"))
        a = build_experiment(cfg, 0)
        b = build_experiment(cfg, 7)
        assert (a.train_ds.X == b.train_ds.X).all()
        assert (a.test_ds.X == b.test_ds.X).all()


class TestParseSeeds:
    def test_range(self):
        assert _parse_seeds("0..3") == [0, 1, 2, 3]

    def test_list(self):
        assert _parse_seeds("1,5,7") == [1, 5, 7]

    def test_whitespace(self):
        assert _parse_seeds(" 2..4 ") == [2, 3, 4]

    @pytest.mark.parametrize("seeds", ["0..x", "1,a", "1.5"])
    def test_unparsable_seeds_name_the_flag(self, seeds):
        # int()'s own message named neither the flag nor the text
        with pytest.raises(ValueError, match=f"^--seeds .*got {seeds!r}"):
            _parse_seeds(seeds)


class TestParseValues:
    def test_list(self):
        assert _parse_values("1, 2.5,") == [1.0, 2.5]

    @pytest.mark.parametrize("values", ["1,x", ","])
    def test_unparsable_values_name_the_flag(self, values):
        with pytest.raises(ValueError, match=f"^--values .*got {values!r}"):
            _parse_values(values)


class TestRunCommand:
    def test_exit_zero_and_artifacts(self, tmp_path, capsys):
        rc = main(["run", "--config", _write_config(tmp_path)])
        assert rc == 0
        out = tmp_path / "out" / "entropy" / "0"
        assert (out / "record.csv").is_file()
        assert (out / "summary.json").is_file()
        assert "final accuracy" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        rc = main(["run", "--config", _write_config(tmp_path), "--seed", "5"])
        assert rc == 0
        assert (tmp_path / "out" / "entropy" / "5" / "record.csv").is_file()

    def test_bad_config_exits_nonzero_naming_key(self, tmp_path, capsys):
        cfg = _base_config(tmp_path / "out")
        cfg["al"]["budget"] = 3
        rc = main(["run", "--config", _write_config(tmp_path, cfg)])
        assert rc != 0
        assert "budget" in capsys.readouterr().err

    def test_invalid_json_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["run", "--config", str(path)])
        assert rc != 0
        assert "JSON" in capsys.readouterr().err

    def test_int_too_large_for_a_float_exits_one_naming_the_key(self, tmp_path, capsys):
        # json reads this as a Python int that no float holds
        cfg = _base_config(tmp_path / "out")
        cfg["train"]["lr"] = 10**400
        rc = main(["run", "--config", _write_config(tmp_path, cfg)])
        assert rc == 1
        assert "'train.lr' must be a finite number, got 1000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc != 0

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        # one seed runs in-process; `run` has no worker pool to size
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", _write_config(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, tmp_path):
        # every file a run writes, summary.json included
        cfg_path = _write_config(tmp_path)
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")])
        a = _tree_bytes(tmp_path / "a")
        assert sorted(a) == ["entropy/0/record.csv", "entropy/0/summary.json"]
        assert a == _tree_bytes(tmp_path / "b")

    @pytest.mark.parametrize("command, flags", [
        ("run", []),
        ("sweep", []),
        ("ablate", ["--parameter", "rate", "--values", "1.5"]),
        ("toy", ["--seeds", "0,1", "--rounds", "1"]),
    ])
    def test_timings_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, flags):
        # records hold no wall times; bench/run.py --trace 1 reports them
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "sweep", no_runs)
        where = ["--out", str(tmp_path / "out")] if command == "toy" else ["--config", _write_config(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([command, *where, *flags, "--timings"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_all_seeds_written(self, tmp_path, capsys):
        rc = main(["sweep", "--config", _write_config(tmp_path)])
        assert rc == 0
        for seed in (0, 1):
            assert (tmp_path / "out" / "entropy" / str(seed) / "record.csv").is_file()
        assert "median final accuracy" in capsys.readouterr().out

    def test_seed_range_override(self, tmp_path):
        rc = main(["sweep", "--config", _write_config(tmp_path), "--seeds", "3..5"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "out" / "entropy").iterdir())
        assert dirs == ["3", "4", "5"]

    @pytest.mark.parametrize("command", ["sweep", "ablate", "toy"])
    @pytest.mark.parametrize("seeds", ["0..x", "1,a"])
    def test_unparsable_seed_list_exits_one_naming_the_flag(self, tmp_path, capsys, command, seeds):
        cfg = _base_config(tmp_path / "out")
        cfg["strategy"] = {"kind": "annealing", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        config = ["--config", _write_config(tmp_path, cfg)]
        args = {"sweep": config, "ablate": [*config, "--parameter", "rate", "--values", "2"],
                "toy": ["--out", str(tmp_path / "out")]}[command]
        rc = main([command, *args, "--seeds", seeds])
        assert rc == 1
        assert f"error: --seeds must be integers as a list '0,1,2' or a range '0..9', got {seeds!r}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("seeds", ["3..1", ","])
    def test_bad_seed_list_exits_one(self, tmp_path, capsys, command, seeds):
        cfg = _base_config(tmp_path / "out")
        cfg["strategy"] = {"kind": "annealing", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        extra = ["--parameter", "rate", "--values", "2"] if command == "ablate" else []
        rc = main([command, "--config", _write_config(tmp_path, cfg), "--seeds", seeds, *extra])
        assert rc == 1
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "ablate", "toy"])
    @pytest.mark.parametrize("flags,message", [
        (["--jobs", "0"], "error: --jobs must be >= 1, got 0"),
        (["--seeds", "3..1"], "error: --seeds must name at least one seed"),
        (["--seeds", "0,0"], "error: --seeds contains duplicates: [0, 0]"),
    ])
    def test_bad_flag_is_named_before_any_run(self, tmp_path, capsys, monkeypatch, command, flags, message):
        # these named `jobs` and the config key 'seeds', which the user never wrote
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the flags were checked")

        monkeypatch.setattr(cli, "sweep", no_runs)
        cfg = _base_config(tmp_path / "out")
        cfg["strategy"] = {"kind": "annealing", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        config = ["--config", _write_config(tmp_path, cfg)]
        args = {"sweep": config, "ablate": [*config, "--parameter", "rate", "--values", "2"],
                "toy": ["--out", str(tmp_path / "out"), "--rounds", "1"]}[command]
        rc = main([command, *args, *flags])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flags,seeds", [
        ("sweep", [], [0, 2**64]),
        ("sweep", ["--seeds", f"0,{2**64}"], [0, 1]),
        ("run", ["--seed", str(2**64)], [0, 1]),
    ])
    def test_seed_outside_64_bits_exits_before_any_run(self, tmp_path, capsys, monkeypatch, command, flags, seeds):
        # stream keys are masked to 64 bits, so seed 2**64 would repeat seed 0's run
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the seeds were checked")

        monkeypatch.setattr(cli, "sweep", no_runs)
        cfg = _base_config(tmp_path / "out") | {"seeds": seeds}
        rc = main([command, "--config", _write_config(tmp_path, cfg), *flags])
        assert rc == 1
        assert f"must be >= -2**63 and < 2**63, got {2**64}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", ".", "a<b"])
    def test_unsafe_strategy_name_rejected_before_any_write(self, tmp_path, capsys, name):
        # "../x" would put the records beside output_dir; "a<b" breaks the SVG
        cfg = _base_config(tmp_path / "out")
        cfg["strategy"] = {"kind": "entropy", "name": name}
        rc = main(["sweep", "--config", _write_config(tmp_path, cfg)])
        assert rc == 1
        assert "strategy 'name' must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "seq"), "--jobs", "1"])
        main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "par"), "--jobs", "2"])
        for seed in (0, 1):
            a = (tmp_path / "seq" / "entropy" / str(seed) / "record.csv").read_bytes()
            b = (tmp_path / "par" / "entropy" / str(seed) / "record.csv").read_bytes()
            assert a == b


class TestCompareCommand:
    def _results_tree(self, tmp_path):
        out = tmp_path / "results"
        cfg = _base_config(out)
        main(["sweep", "--config", _write_config(tmp_path, cfg, "c1.json")])
        cfg2 = copy.deepcopy(cfg)
        cfg2["strategy"] = {"kind": "random"}
        main(["sweep", "--config", _write_config(tmp_path, cfg2, "c2.json")])
        return out

    def test_heatmap_files_written(self, tmp_path, capsys):
        out = self._results_tree(tmp_path)
        rc = main(["compare", str(out)])
        assert rc == 0
        assert (out / "heatmap.csv").is_file()
        assert (out / "heatmap.svg").is_file()
        assert "compared 2 strategies" in capsys.readouterr().out

    def test_heatmap_matrix_invariants(self, tmp_path):
        out = self._results_tree(tmp_path)
        main(["compare", str(out)])
        with open(out / "heatmap.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        names = rows[0][1:-1]
        assert sorted(names) == ["entropy", "random"]
        for i, row in enumerate(rows[1:]):
            vals = [float(v) for v in row[1:-1]]
            assert vals[i] == 0.0
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_critical_flag_respected(self, tmp_path):
        # raising the threshold can only remove wins
        out = self._results_tree(tmp_path)
        main(["compare", str(out), "--out", str(tmp_path / "soft"), "--critical", "0.1"])
        main(["compare", str(out), "--out", str(tmp_path / "hard"), "--critical", "1e9"])

        def matrix(d):
            with open(d / "heatmap.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            return [[float(v) for v in row[1:]] for row in rows[1:]]

        for soft_row, hard_row in zip(matrix(tmp_path / "soft"), matrix(tmp_path / "hard")):
            assert all(h <= s for s, h in zip(soft_row, hard_row))

    @pytest.mark.parametrize("critical", ["-1", "nan"])
    def test_bad_critical_exits_one(self, tmp_path, capsys, critical):
        out = self._results_tree(tmp_path)
        rc = main(["compare", str(out), "--out", str(tmp_path / "h"), "--critical", critical])
        assert rc == 1
        assert "critical" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_bad_critical_checked_before_the_tree_is_read(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "missing"), "--critical", "nan"])
        assert rc == 1
        assert "critical t value must be a finite number, got nan" in capsys.readouterr().err

    def test_missing_tree_fails(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nothing")])
        assert rc != 0

    def test_tree_without_records_fails(self, tmp_path, capsys):
        root = tmp_path / "res"
        (root / "entropy" / "0").mkdir(parents=True)
        assert main(["compare", str(root)]) == 1
        assert f"no strategy results under {root}" in capsys.readouterr().err

    def test_duplicate_seed_directories_rejected(self, tmp_path, capsys):
        # 1/ and 01/ both parse to seed 1; neither may silently win
        out = self._results_tree(tmp_path)
        shutil.copytree(out / "random" / "1", out / "random" / "01")
        rc = main(["compare", str(out), "--out", str(tmp_path / "h")])
        assert rc == 1
        assert "01: seed directory name must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("seed_dir", ["1_0", "+1", "01"])
    def test_seed_directory_sweep_never_writes_rejected(self, tmp_path, capsys, seed_dir):
        # int() reads these as 10, 1 and 1; sweep names seed s's directory str(s)
        out = self._results_tree(tmp_path)
        (out / "random" / "1").rename(out / "random" / seed_dir)
        rc = main(["compare", str(out), "--out", str(tmp_path / "h")])
        assert rc == 1
        assert f"{seed_dir}: seed directory name must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_svg_escapes_strategy_directory_names(self, tmp_path):
        out = self._results_tree(tmp_path)
        (out / "random").rename(out / "a<b&c")
        assert main(["compare", str(out), "--out", str(tmp_path / "h")]) == 0
        svg = xml.dom.minidom.parse(str(tmp_path / "h" / "heatmap.svg"))
        labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert labels.count("a<b&c") == 2

    def test_non_integer_seed_directory_rejected(self, tmp_path, capsys):
        out = self._results_tree(tmp_path)
        shutil.copytree(out / "entropy" / "1", out / "entropy" / "one")
        rc = main(["compare", str(out), "--out", str(tmp_path / "h")])
        assert rc == 1
        assert "one: seed directory name must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_round_count_disagreement_rejected(self, tmp_path, capsys):
        out = self._results_tree(tmp_path)
        record = out / "random" / "1" / "record.csv"
        record.write_text("".join(record.read_text().splitlines(keepends=True)[:-1]))
        rc = main(["compare", str(out), "--out", str(tmp_path / "h")])
        assert rc == 1
        assert "random: seeds disagree on round count [1, 2]" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_record_without_summary_rejected(self, tmp_path, capsys):
        # a run that died between its two atomic writes used to be counted
        out = self._results_tree(tmp_path)
        (out / "random" / "1" / "summary.json").unlink()
        rc = main(["compare", str(out), "--out", str(tmp_path / "h")])
        assert rc == 1
        assert f"error: {out / 'random' / '1'}: record.csv has no summary.json beside it" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_rerun_byte_identical_heatmap(self, tmp_path):
        out = self._results_tree(tmp_path)
        main(["compare", str(out), "--out", str(tmp_path / "h1")])
        main(["compare", str(out), "--out", str(tmp_path / "h2")])
        assert (tmp_path / "h1" / "heatmap.csv").read_bytes() == (
            tmp_path / "h2" / "heatmap.csv"
        ).read_bytes()


class TestAblateCommand:
    def _series_config(self, tmp_path):
        cfg = _base_config(tmp_path / "abl")
        cfg["strategy"] = {
            "kind": "series",
            "params": {"kappas": [2, 1]},
            "constituents": [{"kind": "k_centers"}, {"kind": "bald"}],
        }
        return _write_config(tmp_path, cfg)

    def test_kappa_values_make_subtrees(self, tmp_path, capsys):
        rc = main(["ablate", "--config", self._series_config(tmp_path),
                   "--parameter", "kappa", "--values", "1,2,5"])
        assert rc == 0
        for v in ("1", "2", "5"):
            sub = tmp_path / "abl" / f"kappa_{v}"
            assert (sub / "curve.csv").is_file()
            assert any(sub.glob("*/0/record.csv"))
        assert "wrote 3 ablation subtrees" in capsys.readouterr().out

    def test_rate_values_make_subtrees(self, tmp_path):
        cfg = _base_config(tmp_path / "abl")
        cfg["strategy"] = {
            "kind": "annealing",
            "params": {"t_initial": 1, "t_exploit": 1, "t_explore": 1},
            "constituents": [{"kind": "random"}, {"kind": "bald"}],
        }
        rc = main(["ablate", "--config", _write_config(tmp_path, cfg),
                   "--parameter", "rate", "--values", "1.0,1.5"])
        assert rc == 0
        assert (tmp_path / "abl" / "rate_1" / "curve.csv").is_file()
        assert (tmp_path / "abl" / "rate_1.5" / "curve.csv").is_file()

    def test_kappa_on_non_series_fails(self, tmp_path, capsys):
        rc = main(["ablate", "--config", _write_config(tmp_path),
                   "--parameter", "kappa", "--values", "1,2"])
        assert rc != 0
        assert "series" in capsys.readouterr().err

    def test_kappa_on_one_stage_series_fails(self, tmp_path, capsys):
        cfg = _base_config(tmp_path / "abl")
        cfg["strategy"] = {"kind": "series", "params": {"kappas": [1]}, "constituents": [{"kind": "bald"}]}
        rc = main(["ablate", "--config", _write_config(tmp_path, cfg),
                   "--parameter", "kappa", "--values", "1,2"])
        assert rc == 1
        assert "kappa ablation needs a series with at least 2 stages" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_unknown_parameter_rejected(self):
        # the command line's choices stop it before this check
        with pytest.raises(ValueError, match="unknown ablation parameter 'lr'"):
            cli._apply_ablation({"kind": "series"}, "lr", 1.0)

    def test_rate_on_non_annealing_fails(self, tmp_path, capsys):
        rc = main(["ablate", "--config", _write_config(tmp_path),
                   "--parameter", "rate", "--values", "1.5"])
        assert rc != 0
        assert "annealing" in capsys.readouterr().err

    def test_bad_rate_exits_before_any_run(self, tmp_path, capsys):
        cfg = _base_config(tmp_path / "abl")
        cfg["strategy"] = {"kind": "annealing", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        rc = main(["ablate", "--config", _write_config(tmp_path, cfg),
                   "--parameter", "rate", "--values", "2,0.5"])
        assert rc == 1
        assert "rate" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_bad_kappa_exits_before_any_run(self, tmp_path, capsys):
        rc = main(["ablate", "--config", self._series_config(tmp_path),
                   "--parameter", "kappa", "--values", "2,0.5"])
        assert rc == 1
        assert "invalid 'strategy'" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    @pytest.mark.parametrize("values", ["1,1.0000001", "2,2"])
    def test_colliding_subtree_names_exit_before_any_run(self, tmp_path, capsys, values):
        cfg = _base_config(tmp_path / "abl")
        cfg["strategy"] = {"kind": "annealing", "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        rc = main(["ablate", "--config", _write_config(tmp_path, cfg),
                   "--parameter", "rate", "--values", values])
        assert rc == 1
        first, second = (repr(float(v)) for v in values.split(","))
        assert f"--values {first} and {second} would share the subtree rate_{float(first):g}/" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "abl").exists()

    def test_unparsable_values_exit_one_naming_the_flag(self, tmp_path, capsys):
        rc = main(["ablate", "--config", self._series_config(tmp_path),
                   "--parameter", "kappa", "--values", "1,x"])
        assert rc == 1
        assert "error: --values must be comma-separated numbers, got '1,x'" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_bad_kappa_names_kappas(self, tmp_path, capsys):
        rc = main(["ablate", "--config", self._series_config(tmp_path),
                   "--parameter", "kappa", "--values", "0.5"])
        assert rc == 1
        assert "kappas" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_rerun_byte_identical(self, tmp_path):
        # curve.csv, each record.csv and each summary.json
        cfg_path = self._series_config(tmp_path)
        for out in ("a", "b"):
            main(["ablate", "--config", cfg_path, "--parameter", "kappa", "--values", "1,2",
                  "--out", str(tmp_path / out)])
        a = _tree_bytes(tmp_path / "a")
        assert {name.rsplit("/", 1)[-1] for name in a} == {"curve.csv", "record.csv", "summary.json"}
        assert a == _tree_bytes(tmp_path / "b")

    def test_curve_csv_is_well_formed(self, tmp_path):
        main(["ablate", "--config", self._series_config(tmp_path),
              "--parameter", "kappa", "--values", "2"])
        with open(tmp_path / "abl" / "kappa_2" / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "n_labeled", "mean_accuracy",
                           "median_accuracy", "mean_cum_n_infer"]
        assert len(rows) == 3  # header + 2 rounds
        cum = [float(r[4]) for r in rows[1:]]
        assert cum == sorted(cum)


class TestToyCommand:
    def test_artifacts_and_selection_dump(self, tmp_path, capsys):
        out = tmp_path / "toy"
        rc = main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "2"])
        assert rc == 0
        printed = capsys.readouterr().out
        for name in ("random", "least_confident", "k_centers"):
            assert (out / name / "accuracy_table.csv").is_file()
            assert (out / name / "0" / "record.csv").is_file()
            assert f"{name}: median final accuracy" in printed
        assert (out / "heatmap.csv").is_file()
        assert (out / "heatmap.svg").is_file()

        with open(out / "selections.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "seed", "round", "index", "x0", "x1", "label"]
        # 3 strategies x 2 seeds x 2 rounds x 10 picks
        assert len(rows) - 1 == 3 * 2 * 2 * 10
        assert {r[0] for r in rows[1:]} == {"random", "least_confident", "k_centers"}
        assert all(r[6] in ("0", "1") for r in rows[1:])

    def test_accuracy_table_shape(self, tmp_path):
        out = tmp_path / "toy"
        main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "2"])
        with open(out / "random" / "accuracy_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "seed_0", "seed_1"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for row in rows[1:]:
            for v in row[1:]:
                assert 0.0 < float(v) <= 1.0

    def test_heatmap_matches_compare_over_its_records(self, tmp_path):
        # toy builds its tables from the records it wrote, as compare does,
        # and both write them in name order
        out = tmp_path / "toy"
        assert main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "2", "--critical", "1.5"]) == 0
        assert main(["compare", str(out), "--out", str(tmp_path / "cmp"), "--critical", "1.5"]) == 0
        for name in ("heatmap.csv", "heatmap.svg"):
            assert (out / name).read_bytes() == (tmp_path / "cmp" / name).read_bytes()

    def test_stale_out_stays_out_of_its_tables(self, tmp_path):
        # only the strategies and seeds this run ran reach its tables
        out = tmp_path / "toy"
        assert main(["toy", "--out", str(out), "--seeds", "0..2", "--rounds", "2"]) == 0
        (out / "other" / "0").mkdir(parents=True)
        shutil.copy(out / "random" / "0" / "record.csv", out / "other" / "0" / "record.csv")
        assert main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "1"]) == 0
        with open(out / "heatmap.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["strategy", "k_centers", "least_confident", "random"]
        for name in ("random", "least_confident", "k_centers"):
            with open(out / name / "accuracy_table.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["round", "seed_0", "seed_1"]
            assert len(rows) == 2

    @pytest.mark.parametrize("critical", ["nan", "-1"])
    def test_bad_critical_exits_before_any_run(self, tmp_path, capsys, monkeypatch, critical):
        # it used to train every strategy for every seed before the heatmap refused it
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before --critical was checked")

        monkeypatch.setattr(cli, "sweep", no_runs)
        out = tmp_path / "toy"
        rc = main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "2", "--critical", critical])
        assert rc == 1
        assert "critical t value must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["3", "4..4"])
    def test_one_seed_exits_before_any_run(self, tmp_path, capsys, monkeypatch, seeds):
        # it used to train every strategy, then the heatmap's t-test refused one pair
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the seed count was checked")

        monkeypatch.setattr(cli, "sweep", no_runs)
        out = tmp_path / "toy"
        rc = main(["toy", "--out", str(out), "--seeds", seeds, "--rounds", "1"])
        assert rc == 1
        assert "error: --seeds must name at least 2 seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_rounds_named_before_any_run(self, tmp_path, capsys, monkeypatch):
        # it used to name the config section 'al', which the user never wrote
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before --rounds was checked")

        monkeypatch.setattr(cli, "sweep", no_runs)
        out = tmp_path / "toy"
        rc = main(["toy", "--out", str(out), "--seeds", "0,1", "--rounds", "0"])
        assert rc == 1
        assert "error: --rounds must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_is_a_valid_config(self):
        cfg = toy_config("/tmp/t", [0, 1], rounds=20)
        needed = cfg["al"]["M"] + cfg["al"]["T"] * cfg["al"]["b"]
        train_rows = 6 * 6 * 100 * 0.75
        assert needed <= train_rows
        assert cfg["al"]["pool_size"] >= cfg["al"]["b"]


class TestOneSweepPerCommand:
    """Each command runs all of its runs through one `sweep` call, whose
    workers hand back run directories, not records."""

    @staticmethod
    def _count_sweeps(monkeypatch):
        returned = []
        sweep = cli.sweep

        def counted(*args, **kwargs):
            returned.append(sweep(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "sweep", counted)
        return returned

    def _ablate(self, tmp_path, jobs):
        cfg = _base_config(tmp_path / "unused")
        cfg["strategy"] = {"kind": "annealing", "params": {"t_initial": 1},
                           "constituents": [{"kind": "random"}, {"kind": "bald"}]}
        return ["ablate", "--config", _write_config(tmp_path, cfg), "--parameter", "rate", "--values", "1,2,3",
                "--out", str(tmp_path / f"ablate{jobs}"), "--jobs", jobs]

    @pytest.mark.parametrize("command", ["toy", "ablate"])
    def test_one_sweep_call_same_tree_at_two_jobs(self, tmp_path, monkeypatch, command):
        returned = self._count_sweeps(monkeypatch)
        for jobs in ("1", "2"):
            argv = (["toy", "--out", str(tmp_path / f"toy{jobs}"), "--seeds", "0,1", "--rounds", "2", "--jobs", jobs]
                    if command == "toy" else self._ablate(tmp_path, jobs))
            assert main(argv) == 0
            assert len(returned) == 1
            assert len(returned[0]) == 3 * 2  # three strategies or values, two seeds
            assert all(isinstance(run_dir, Path) and (run_dir / "summary.json").is_file() for run_dir in returned[0])
            returned.clear()
        derived = {"toy": {"accuracy_table.csv", "selections.csv", "heatmap.csv", "heatmap.svg"}, "ablate": {"curve.csv"}}
        one = _tree_bytes(tmp_path / f"{command}1")
        assert {name.rsplit("/", 1)[-1] for name in one} == {"record.csv", "summary.json"} | derived[command]
        assert one == _tree_bytes(tmp_path / f"{command}2")


class TestDefaultJobs:
    """Without --jobs, a command hands `sweep` the number of CPUs this
    process may use; no environment variable changes it."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """The `jobs` of every `cli.sweep` call, through a pass-through counter."""
        handed = []
        sweep = cli.sweep

        def counted(*args, **kwargs):
            handed.append(kwargs["jobs"])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep", counted)
        return handed

    @staticmethod
    def _sweep(tmp_path, out, *flags):
        assert main(["sweep", "--config", _write_config(tmp_path), "--out", str(tmp_path / out), *flags]) == 0
        return _tree_bytes(tmp_path / out)

    def test_one_cpu_runs_in_process(self, tmp_path, monkeypatch, handed):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self._sweep(tmp_path, "one")
        assert handed == [1]

    def test_two_cpus_two_workers_same_tree(self, tmp_path, monkeypatch, handed):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = self._sweep(tmp_path, "two")
        assert two == self._sweep(tmp_path, "seq", "--jobs", "1")
        assert handed == [2, 1]

    @pytest.mark.parametrize("value", ["2", "two", "0"])
    def test_env_var_changes_nothing(self, tmp_path, monkeypatch, handed, value):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        plain = self._sweep(tmp_path, "plain")
        monkeypatch.setenv("ACQBENCH_JOBS", value)
        assert self._sweep(tmp_path, "env") == plain
        assert handed == [1, 1]

    @pytest.mark.parametrize("count,jobs", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, tmp_path, monkeypatch, handed, count, jobs):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        self._sweep(tmp_path, "out")
        assert handed == [jobs]
