"""Tests for config validation and the command line front end."""

import copy
import csv
import json
import os

import pytest

from acqbench.cli import _parse_seeds, main, toy_config
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

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc != 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "entropy" / "0" / "record.csv").read_bytes()
        b = (tmp_path / "b" / "entropy" / "0" / "record.csv").read_bytes()
        assert a == b

    def test_timings_fill_cells(self, tmp_path):
        main(["run", "--config", _write_config(tmp_path), "--timings"])
        text = (tmp_path / "out" / "entropy" / "0" / "record.csv").read_text()
        row = text.splitlines()[1].split(",")
        assert float(row[5]) >= 0.0 and float(row[6]) > 0.0


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

    def test_missing_tree_fails(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nothing")])
        assert rc != 0

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

    def test_rate_on_non_annealing_fails(self, tmp_path, capsys):
        rc = main(["ablate", "--config", _write_config(tmp_path),
                   "--parameter", "rate", "--values", "1.5"])
        assert rc != 0
        assert "annealing" in capsys.readouterr().err

    def test_curve_csv_is_well_formed(self, tmp_path):
        main(["ablate", "--config", self._series_config(tmp_path),
              "--parameter", "kappa", "--values", "2"])
        with open(tmp_path / "abl" / "kappa_2" / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["round", "n_labeled", "mean_accuracy",
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

    def test_preset_is_a_valid_config(self):
        cfg = toy_config("/tmp/t", [0, 1], rounds=20)
        needed = cfg["al"]["M"] + cfg["al"]["T"] * cfg["al"]["b"]
        train_rows = 6 * 6 * 100 * 0.75
        assert needed <= train_rows
        assert cfg["al"]["pool_size"] >= cfg["al"]["b"]


class TestJobsEnv:
    def test_env_var_controls_default_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACQBENCH_JOBS", "2")
        cfg_path = _write_config(tmp_path)
        rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "env")])
        assert rc == 0
        a = (tmp_path / "env" / "entropy" / "0" / "record.csv").read_bytes()
        monkeypatch.delenv("ACQBENCH_JOBS")
        main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "plain")])
        b = (tmp_path / "plain" / "entropy" / "0" / "record.csv").read_bytes()
        assert a == b
