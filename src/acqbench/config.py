"""Config file schema: validation with exact key diagnostics, and builders.

A config is one JSON object describing one strategy's experiment. Unknown
keys anywhere are rejected by name before any work happens; missing
optional keys get the documented defaults. `build_experiment` turns a
validated config plus a run seed into an ExperimentConfig; the train/test
split is derived from the dataset seed, not the run seed, so every run of
every strategy shares the same split and stays seed-paired.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from .datasets import Dataset, load_csv, make_blobs, make_grid_toy, split
from .rng import NS_DATASET, derive_seed
from .simulator import ExperimentConfig
from .strategies import build_strategy

DATASET_DEFAULTS: dict[str, dict[str, Any]] = {
    "grid": {"cells_per_side": 4, "n_per_cell": 25, "spread": 0.12, "seed": 0, "test_fraction": 0.25},
    "blobs": {"n_per_class": None, "centers": None, "spread": None, "seed": 0, "test_fraction": 0.25},
    "csv": {"path": None, "label_column": None, "seed": 0, "test_fraction": 0.25},
}
MODEL_DEFAULTS = {"hidden": 32, "dropout": 0.5}
TRAIN_DEFAULTS = {"lr": 0.001, "epochs": 40, "minibatch": 32}
MC_DEFAULTS = {"n_passes": 5}
AL_DEFAULTS = {"M": None, "T": None, "b": None, "pool_size": 1_000_000_000}


def _fail(msg: str):
    raise ValueError(f"config error: {msg}")


def _section(raw: dict, key: str, defaults: dict, required: bool, label: str | None = None) -> dict:
    label = label or key
    if key not in raw:
        if required:
            _fail(f"missing section '{label}'")
        return copy.deepcopy({k: v for k, v in defaults.items() if v is not None})
    section = raw[key]
    if not isinstance(section, dict):
        _fail(f"section '{label}' must be an object")
    for sub in section:
        if sub not in defaults:
            _fail(f"unknown key '{sub}' in '{label}'")
    merged = copy.deepcopy(defaults)
    merged.update(section)
    for sub, val in merged.items():
        if val is None:
            _fail(f"missing key '{sub}' in '{label}'")
    return merged


def _check_int(section: dict, key: str, where: str, lo: int | None = None) -> None:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"'{where}.{key}' must be an integer, got {v!r}")
    if lo is not None and v < lo:
        _fail(f"'{where}.{key}' must be >= {lo}, got {v}")


def _check_num(section: dict, key: str, where: str, lo: float | None = None, strict: bool = False) -> None:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"'{where}.{key}' must be a number, got {v!r}")
    if lo is not None and (v <= lo if strict else v < lo):
        _fail(f"'{where}.{key}' must be {'>' if strict else '>='} {lo}, got {v}")


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict and fill defaults; raises on any violation."""
    if not isinstance(raw, dict):
        _fail("top level must be an object")
    allowed = {"dataset", "model", "train", "mc", "al", "strategy", "seeds", "output_dir"}
    for key in raw:
        if key not in allowed:
            _fail(f"unknown top-level key '{key}'")

    if "dataset" not in raw or not isinstance(raw["dataset"], dict):
        _fail("missing or invalid section 'dataset'")
    for sub in raw["dataset"]:
        if sub not in ("kind", "params"):
            _fail(f"unknown key '{sub}' in 'dataset'")
    kind = raw["dataset"].get("kind")
    if kind not in DATASET_DEFAULTS:
        _fail(f"'dataset.kind' must be one of {sorted(DATASET_DEFAULTS)}, got {kind!r}")
    params_raw = raw["dataset"].get("params", {})
    if not isinstance(params_raw, dict):
        _fail("'dataset.params' must be an object")
    params = _section({"params": params_raw}, "params", DATASET_DEFAULTS[kind], required=True, label="dataset.params")
    _check_num(params, "test_fraction", "dataset.params")
    if not 0.0 < params["test_fraction"] < 1.0:
        _fail(f"'dataset.params.test_fraction' must be in (0, 1), got {params['test_fraction']}")
    _check_int(params, "seed", "dataset.params")
    if kind == "grid":
        _check_int(params, "cells_per_side", "dataset.params", lo=2)
        _check_int(params, "n_per_cell", "dataset.params", lo=1)
        _check_num(params, "spread", "dataset.params", lo=0.0)
    elif kind == "blobs":
        _check_int(params, "n_per_class", "dataset.params", lo=1)
        _check_num(params, "spread", "dataset.params", lo=0.0)
        if not isinstance(params["centers"], list):
            _fail("'dataset.params.centers' must be a list of coordinate lists")
    else:
        if not isinstance(params["path"], str):
            _fail("'dataset.params.path' must be a string")
        if not isinstance(params["label_column"], (str, int)) or isinstance(params["label_column"], bool):
            _fail("'dataset.params.label_column' must be a column name or index")

    model = _section(raw, "model", MODEL_DEFAULTS, required=False)
    _check_int(model, "hidden", "model", lo=1)
    _check_num(model, "dropout", "model", lo=0.0)
    if model["dropout"] >= 1.0:
        _fail(f"'model.dropout' must be < 1, got {model['dropout']}")

    train = _section(raw, "train", TRAIN_DEFAULTS, required=False)
    _check_num(train, "lr", "train", lo=0.0, strict=True)
    _check_int(train, "epochs", "train", lo=0)
    _check_int(train, "minibatch", "train", lo=1)

    mc = _section(raw, "mc", MC_DEFAULTS, required=False)
    _check_int(mc, "n_passes", "mc", lo=1)

    al = _section(raw, "al", AL_DEFAULTS, required=True)
    for key in ("M", "T", "b", "pool_size"):
        _check_int(al, key, "al", lo=1)

    if "strategy" not in raw:
        _fail("missing section 'strategy'")
    try:
        build_strategy(raw["strategy"]).check_budget(al["b"])
    except ValueError as e:
        _fail(f"invalid 'strategy': {e}")

    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        _fail("'seeds' must be a nonempty list of integers")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int):
            _fail(f"'seeds' entries must be integers, got {s!r}")
    if len(set(seeds)) != len(seeds):
        _fail(f"'seeds' contains duplicates: {seeds}")

    out = raw.get("output_dir")
    if not isinstance(out, str) or not out:
        _fail("'output_dir' must be a nonempty string")

    return {
        "dataset": {"kind": kind, "params": params},
        "model": model,
        "train": train,
        "mc": mc,
        "al": al,
        "strategy": copy.deepcopy(raw["strategy"]),
        "seeds": list(seeds),
        "output_dir": out,
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
        dropout=float(cfg["model"]["dropout"]),
        lr=float(cfg["train"]["lr"]),
        epochs=cfg["train"]["epochs"],
        minibatch=cfg["train"]["minibatch"],
        n_passes=cfg["mc"]["n_passes"],
        initial_labeled=cfg["al"]["M"],
        rounds=cfg["al"]["T"],
        budget=cfg["al"]["b"],
        pool_size=cfg["al"]["pool_size"],
    )
