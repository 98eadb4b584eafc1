"""Config file schema: validation with exact key diagnostics, and builders.

A config is one JSON object describing one strategy's experiment. Every
section goes through `strategies.check_fields`, the checker strategy
params use too: unknown keys are rejected by name before any work happens,
and missing optional keys get the defaults of the classes that take them
(`ExperimentConfig`, `TrainConfig`, `MCConfig`). `build_experiment` turns a
validated config plus a run seed into an ExperimentConfig; the train/test
split is derived from the dataset seed, not the run seed, so every run of
every strategy shares the same split and stays seed-paired.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

from . import model as mdl
from .datasets import Dataset, load_csv, make_blobs, make_grid_toy, split
from .rng import NS_DATASET, derive_seed
from .simulator import ExperimentConfig
from .strategies import _integer, build_strategy, check_fields

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
    "strategy": None, "seeds": None, "output_dir": str,
}


def check_seeds(seeds: list) -> list[int]:
    """A run seed list: nonempty, integers, no duplicates."""
    if not isinstance(seeds, list) or not seeds:
        raise ValueError(f"'seeds' must be a nonempty list of integers, got {seeds!r}")
    seeds = [_integer(s, "'seeds' entries") for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"'seeds' contains duplicates: {seeds}")
    return seeds


def _at_least(section: dict, where: str, **bounds) -> None:
    for key, lo in bounds.items():
        if key in section and section[key] < lo:
            raise ValueError(f"'{where}.{key}' must be >= {lo}, got {section[key]}")


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
    if not 0.0 < params["test_fraction"] < 1.0:
        raise ValueError(f"'dataset.params.test_fraction' must be in (0, 1), got {params['test_fraction']}")
    _at_least(params, "dataset.params", cells_per_side=2, n_per_cell=1, n_per_class=1, spread=0.0)
    if kind == "csv" and type(params["label_column"]) not in (str, int):
        raise ValueError("'dataset.params.label_column' must be a column name or index")

    out = {"dataset": {"kind": kind, "params": params}}
    for key, schema in SECTIONS.items():
        out[key] = check_fields(cfg[key], schema, key)
    _at_least(out["model"], "model", hidden=1, dropout=0.0)
    if out["model"]["dropout"] >= 1.0:
        raise ValueError(f"'model.dropout' must be < 1, got {out['model']['dropout']}")
    for key, make in (("train", mdl.TrainConfig), ("mc", mdl.MCConfig)):
        try:
            make(**out[key])
        except ValueError as e:
            raise ValueError(f"invalid '{key}': {e}") from None
    _at_least(out["al"], "al", M=1, T=1, b=1, pool_size=1)

    try:
        build_strategy(cfg["strategy"]).check_budget(out["al"]["b"])
    except ValueError as e:
        raise ValueError(f"invalid 'strategy': {e}") from None
    if not cfg["output_dir"]:
        raise ValueError("'output_dir' must be a nonempty string")
    return {
        **out,
        "strategy": copy.deepcopy(cfg["strategy"]),
        "seeds": check_seeds(cfg["seeds"]),
        "output_dir": cfg["output_dir"],
    }


def build_datasets(dataset_cfg: dict) -> tuple[Dataset, Dataset]:
    """Materialize the config's dataset and its shared train/test split."""
    kind, p = dataset_cfg["kind"], dataset_cfg["params"]
    if kind == "grid":
        full = make_grid_toy(p["cells_per_side"], p["n_per_cell"], p["spread"], p["seed"])
    elif kind == "blobs":
        full = make_blobs(p["n_per_class"], np.asarray(p["centers"], dtype=np.float64), p["spread"], p["seed"])
    else:
        full = load_csv(p["path"], p["label_column"])
    return split(full, p["test_fraction"], seed=derive_seed(p["seed"], NS_DATASET))


def build_experiment(cfg: dict, seed: int) -> ExperimentConfig:
    """ExperimentConfig for one run seed of a validated config."""
    train_ds, test_ds = build_datasets(cfg["dataset"])
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
