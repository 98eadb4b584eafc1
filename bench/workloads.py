"""The benchmark's workloads: the `acqbench` command lines of one repeat,
and the (strategy, seed) runs those commands must leave behind.

The benchmark seed picks the run seeds (initial labels, pool draws,
model init, dropout masks); each workload keeps one fixed dataset, so a
different seed changes the runs, not the amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from acqbench.config import build_datasets, validate_config
from acqbench.strategies import build_strategy

WHY = {
    "pool": "acquisition-bound: 7 strategies pick b=50 from a 2,500-point unlabeled pool (2 seeds, 1 round); training is ~5%",
    "sweep": "criterion-9 heatmap: 6 strategies x 5 seeds of tiny models at --jobs 2; per-step training overhead",
}

POOL_STRATEGIES = (
    {"kind": "bald"},
    {"kind": "k_centers"},
    {"kind": "badge"},
    {"kind": "facility_location"},
    {"kind": "disparity_min"},
    {"kind": "series", "params": {"kappas": [4, 1]}, "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
    {"kind": "hybrid", "params": {"budgets": [25, 25]}, "constituents": [{"kind": "bald"}, {"kind": "badge"}]},
)

SWEEP_STRATEGIES = (
    {"kind": "random"},
    {"kind": "bald"},
    {"kind": "k_centers"},
    {"kind": "badge"},
    {"kind": "series", "params": {"kappas": [2, 1]}, "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
    {"kind": "random_alternate", "constituents": [{"kind": "bald"}, {"kind": "badge"}]},
)


@dataclass(frozen=True)
class Run:
    """One (strategy, seed) run a repeat must produce, with what its
    record must satisfy."""

    strategy: str
    seed: int
    leaf: str | None  # strategy kind when it is a leaf, for the n_infer closed form
    M: int
    T: int
    b: int
    pool_size: int
    passes: int
    n_train: int


@dataclass(frozen=True)
class Plan:
    commands: list[list[str]]
    configs: dict[str, dict]  # file name (under the repeat dir) -> config
    runs: list[Run]


def _runs(cfg: dict, specs, seeds) -> list[Run]:
    n_train = len(build_datasets(cfg["dataset"])[0])
    al = cfg["al"]
    return [
        Run(
            strategy=build_strategy(spec).name,
            seed=seed,
            leaf=None if spec.get("constituents") else spec["kind"],
            M=al["M"],
            T=al["T"],
            b=al["b"],
            pool_size=al["pool_size"],
            passes=cfg["mc"]["n_passes"],
            n_train=n_train,
        )
        for spec in specs
        for seed in seeds
    ]


def _config_sweep(base: dict, specs, out: Path, jobs: int) -> Plan:
    configs = {f"cfg_{i}.json": {**base, "strategy": spec, "output_dir": str(out)} for i, spec in enumerate(specs)}
    commands = [["sweep", "--config", str(out.parent / name), "--jobs", str(jobs)] for name in configs]
    commands.append(["compare", str(out)])
    return Plan(commands, configs, _runs(validate_config(next(iter(configs.values()))), specs, base["seeds"]))


def plan(workload: str, seed: int, rep_dir: Path) -> Plan:
    """Commands, config files and expected runs of one repeat in rep_dir;
    artifacts go to rep_dir/out."""
    out = rep_dir / "out"
    if workload == "pool":
        base = {
            "dataset": {"kind": "grid", "params": {"cells_per_side": 6, "n_per_cell": 100, "spread": 0.12, "seed": 0}},
            "model": {"hidden": 96, "dropout": 0.15},
            "train": {"lr": 0.1, "epochs": 5, "minibatch": 32},
            "mc": {"n_passes": 5},
            "al": {"M": 200, "T": 1, "b": 50},
            "seeds": [2 * seed, 2 * seed + 1],
        }
        return _config_sweep(base, POOL_STRATEGIES, out, jobs=1)
    if workload == "sweep":
        base = {
            "dataset": {"kind": "grid", "params": {"cells_per_side": 4, "n_per_cell": 25, "spread": 0.12, "seed": 0}},
            "model": {"hidden": 24, "dropout": 0.2},
            "train": {"lr": 0.1, "epochs": 80, "minibatch": 32},
            "mc": {"n_passes": 5},
            "al": {"M": 10, "T": 10, "b": 10},
            "seeds": list(range(5 * seed, 5 * seed + 5)),
        }
        return _config_sweep(base, SWEEP_STRATEGIES, out, jobs=2)
    raise ValueError(f"unknown workload {workload!r}, expected one of {sorted(WHY)}")


def write_configs(p: Plan, rep_dir: Path) -> None:
    rep_dir.mkdir(parents=True)
    for name, cfg in p.configs.items():
        (rep_dir / name).write_text(json.dumps(cfg, indent=1), encoding="utf-8")
