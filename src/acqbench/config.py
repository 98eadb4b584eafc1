"""Config file schema: validation with exact key diagnostics, and builders.

A config is one JSON object describing one strategy's experiment. Every
section goes through `strategies.check_fields`, the checker strategy
params use too: unknown keys are rejected by name before any work happens,
and missing optional keys get the defaults of the classes that take them
(`ExperimentConfig`, `TrainConfig`, `MCConfig`). Ranges are checked by
the code that uses them: validation builds the dataset, the model, the
train and MC settings, the first seed's `ExperimentConfig` (so M + T * b
must fit the training split) and the strategy once each, and names the
section whose builder refused. `build_experiment` turns a
validated config plus a run seed into an ExperimentConfig; the train/test
split is derived from the dataset seed, not the run seed, so every run of
every strategy shares the same split and stays seed-paired.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

from . import model as mdl
from .datasets import Dataset, load_csv, make_blobs, make_grid_toy, split
from .rng import NS_DATASET, derive_seed
from .simulator import ExperimentConfig, check_seeds
from .strategies import build_strategy, check_fields

# `check_fields` schemas: key -> default, or the type of a required value.
_SPLIT = {"seed": 0, "test_fraction": 0.25}
DATASETS: dict[str, dict[str, Any]] = {
    "grid": {k: p.default for k, p in inspect.signature(make_grid_toy).parameters.items()} | _SPLIT,
    "blobs": {"n_per_class": int, "centers": list, "spread": float, **_SPLIT},
    "csv": {"path": str, "label_column": None, **_SPLIT},
}
SECTIONS: dict[str, dict[str, Any]] = {
    "model": {"hidden": ExperimentConfig.hidden, "dropout": ExperimentConfig.dropout},
    "train": {"lr": mdl.TrainConfig.lr, "epochs": mdl.TrainConfig.epochs, "minibatch": mdl.TrainConfig.minibatch},
    "mc": {"n_passes": mdl.MCConfig.n_passes},
    "al": {"M": int, "T": int, "b": int, "pool_size": ExperimentConfig.pool_size},
}
CONFIG = {
    "dataset": dict, "model": {}, "train": {}, "mc": {}, "al": dict,
    "strategy": None, "seeds": list, "output_dir": str,
}


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict and fill defaults; raises on any violation."""
    try:
        return _validate(raw)
    except ValueError as e:
        raise ValueError(f"config error: {e}") from None


def _validate(raw: dict) -> dict:
    cfg = check_fields(raw, CONFIG, "config")
    dataset = check_fields(cfg["dataset"], {"kind": str, "params": {}}, "dataset")
    kind = dataset["kind"]
    if kind not in DATASETS:
        raise ValueError(f"'dataset.kind' must be one of {sorted(DATASETS)}, got {kind!r}")
    params = check_fields(dataset["params"], DATASETS[kind], "dataset.params")
    if not cfg["output_dir"]:
        raise ValueError("'output_dir' must be a nonempty string")
    out = {
        "dataset": {"kind": kind, "params": params},
        **{key: check_fields(cfg[key], schema, key) for key, schema in SECTIONS.items()},
        "strategy": copy.deepcopy(cfg["strategy"]),
        "seeds": check_seeds(cfg["seeds"]),
        "output_dir": cfg["output_dir"],
    }

    train_ds, test_ds = _checked_by("dataset", build_datasets, out["dataset"])
    n_in, n_classes = train_ds.X.shape[1], train_ds.n_classes
    _checked_by("model", mdl.init_model, n_in, out["model"]["hidden"], n_classes, out["model"]["dropout"], 0)
    _checked_by("train", mdl.TrainConfig, **out["train"])
    _checked_by("mc", mdl.MCConfig, **out["mc"])
    exp = _checked_by("al", _experiment, out, out["seeds"][0], train_ds, test_ds)
    _checked_by("strategy", lambda: build_strategy(out["strategy"]).check_budget(exp.budget, exp.smallest_pool))
    return out


def _checked_by(section: str, owner, *args, **kwargs):
    """`owner(*args, **kwargs)`, its error prefixed with the config section."""
    try:
        return owner(*args, **kwargs)
    except (ValueError, OSError) as e:
        raise ValueError(f"invalid '{section}': {e}") from None


def build_datasets(dataset_cfg: dict) -> tuple[Dataset, Dataset]:
    """Materialize the config's dataset and its shared train/test split."""
    kind, p = dataset_cfg["kind"], dataset_cfg["params"]
    if kind == "grid":
        full = make_grid_toy(p["cells_per_side"], p["n_per_cell"], p["spread"], p["seed"])
    elif kind == "blobs":
        full = make_blobs(p["n_per_class"], p["centers"], p["spread"], p["seed"])
    else:
        full = load_csv(p["path"], p["label_column"])
    return split(full, p["test_fraction"], seed=derive_seed(p["seed"], NS_DATASET))


def build_experiment(cfg: dict, seed: int) -> ExperimentConfig:
    """ExperimentConfig for one run seed of a validated config."""
    return _experiment(cfg, seed, *build_datasets(cfg["dataset"]))


def _experiment(cfg: dict, seed: int, train_ds: Dataset, test_ds: Dataset) -> ExperimentConfig:
    return ExperimentConfig(
        train_ds=train_ds,
        test_ds=test_ds,
        strategy_spec=cfg["strategy"],
        seed=int(seed),
        hidden=cfg["model"]["hidden"],
        dropout=cfg["model"]["dropout"],
        lr=cfg["train"]["lr"],
        epochs=cfg["train"]["epochs"],
        minibatch=cfg["train"]["minibatch"],
        n_passes=cfg["mc"]["n_passes"],
        initial_labeled=cfg["al"]["M"],
        rounds=cfg["al"]["T"],
        budget=cfg["al"]["b"],
        pool_size=cfg["al"]["pool_size"],
    )
