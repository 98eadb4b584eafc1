"""Command line front end.

Subcommands: run (one seed), sweep (many seeds, one worker per usable CPU),
compare (heatmap over a results tree), ablate (parameter sweep with
accuracy-vs-cost curves), toy (built-in checkerboard demo comparing random,
least-confident, and k-centers selection).

Each command makes one `sweep` call, in one pool, over all of its runs.
Each run writes output_dir/<strategy>/<seed>/{record.csv,summary.json}, and
every derived file and printed line is read back from those through
`simulator.read_run`, as `compare` reads any tree (`toy`: its own runs only).
All artifact writes are atomic. Commands exit 0 only after every artifact
landed; config violations exit nonzero naming the offending key.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import build_datasets, build_experiment, validate_config
from .evaluation import (
    DEFAULT_CRITICAL,
    AccuracyTable,
    _check_critical,
    compute_heatmap,
    heatmap_csv_text,
    heatmap_svg_text,
    table_from_runs,
)
from .fileio import atomic_write_text, csv_text
from .rng import _integer
from .simulator import check_seeds, read_run, sweep

TOY_STRATEGIES = (
    {"kind": "random"},
    {"kind": "least_confident"},
    {"kind": "k_centers"},
)


def toy_config(output_dir: str, seeds: list[int], rounds: int = 20) -> dict:
    """Built-in checkerboard preset tuned so coverage-based selection wins.

    The small per-round pool draw (40 candidates over 36 cells) matters: it
    forces farthest-first picks toward cluster interiors, and the 500-epoch
    budget is where evenly allocated label sets train reliably while uneven
    random draws still stall.
    """
    return validate_config(
        {
            "dataset": {
                "kind": "grid",
                "params": {"cells_per_side": 6, "n_per_cell": 100, "spread": 0.12, "seed": 7},
            },
            "model": {"hidden": 96, "dropout": 0.15},
            "train": {"lr": 0.1, "epochs": 500, "minibatch": 32},
            "mc": {"n_passes": 5},
            "al": {"M": 10, "T": rounds, "b": 10, "pool_size": 40},
            "strategy": {"kind": "random"},
            "seeds": seeds,
            "output_dir": output_dir,
        }
    )


def _parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1) if sep else [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--seeds must be integers as a list '0,1,2' or a range '0..9', got {text!r}") from None
    return check_seeds(seeds, "--seeds")


def _parse_values(text: str) -> list[float]:
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise ValueError(f"--values must be comma-separated numbers, got {text!r}")
    return vals


def _jobs(args) -> int:
    """`--jobs`, else the CPUs this process may use (`sweep` caps it at the run count)."""
    if args.jobs is not None:
        return _integer(args.jobs, "--jobs", 1)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config error: {path} is not valid JSON: {e}") from None
    return validate_config(raw)


def _sweep(cfg: dict, runs, seeds: list[int], jobs: int) -> list[tuple[str, list[tuple[int, list[dict]]]]]:
    """Run every (strategy spec, output root) pair under every seed in one
    `sweep` call; per pair, (strategy name, [(seed, rows)]) read back."""
    exps = [(build_experiment({**cfg, "strategy": spec}, seeds[0]), root) for spec, root in runs]
    dirs = sweep(exps, seeds, jobs=jobs)
    return [(dirs[i].parent.name, _read_runs(dirs[i : i + len(seeds)])) for i in range(0, len(dirs), len(seeds))]


def _read_runs(seed_dirs) -> list[tuple[int, list[dict]]]:
    """(seed, `read_run` rows) per seed directory, out/<strategy>/<seed>."""
    runs = []
    for seed_dir in seed_dirs:
        seed = int(seed_dir.name) if seed_dir.name.removeprefix("-").isdecimal() else None
        if seed is None or str(seed) != seed_dir.name:
            raise ValueError(f"{seed_dir}: seed directory name must be an integer as sweep writes it")
        runs.append((seed, read_run(seed_dir)))
    return runs


def _median_final(runs) -> float:
    return float(np.median([rows[-1]["test_accuracy"] for _, rows in runs]))


def table_csv_text(table: AccuracyTable) -> str:
    """Accuracy table as CSV: one row per round, one column per seed."""
    rows = ([t, *accs] for t, accs in enumerate(table.data, start=1))
    return csv_text([["round", *(f"seed_{s}" for s in table.seeds)], *rows])


def curve_csv_text(runs) -> str:
    """Accuracy-vs-cost curve aggregated over (seed, rows) runs; the cost
    axis is the cumulative inference count."""
    header = [
        "round",
        "n_labeled",
        "mean_accuracy",
        "median_accuracy",
        "mean_cum_n_infer",
    ]
    n_rounds = len(runs[0][1])
    accs = np.array([[rows[t]["test_accuracy"] for _, rows in runs] for t in range(n_rounds)])
    infer = np.array([[rows[t]["n_infer"] for _, rows in runs] for t in range(n_rounds)]).cumsum(axis=0)
    rows = (
        [t + 1, runs[0][1][t]["n_labeled"], accs[t].mean(), np.median(accs[t]), infer[t].mean()]
        for t in range(n_rounds)
    )
    return csv_text([header, *rows])


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    out = Path(args.out or cfg["output_dir"])
    [(name, [(_, rows)])] = _sweep(cfg, [(cfg["strategy"], out)], [seed], jobs=1)
    print(f"{name} seed={seed}: final accuracy {rows[-1]['test_accuracy']:.4f} after {len(rows)} rounds")
    print(f"wrote {out / name / str(seed)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    seeds = _parse_seeds(args.seeds) if args.seeds else cfg["seeds"]
    out = Path(args.out or cfg["output_dir"])
    [(name, runs)] = _sweep(cfg, [(cfg["strategy"], out)], seeds, _jobs(args))
    print(f"{name}: {len(runs)} seeds, median final accuracy {_median_final(runs):.4f}")
    print(f"wrote {out / name}")
    return 0


def _strategy_table(name: str, runs) -> AccuracyTable:
    """One strategy's accuracy table from its (seed, rows) runs."""
    return table_from_runs(name, [(seed, [row["test_accuracy"] for row in rows]) for seed, rows in runs])


def _discover_tables(root: Path) -> list[AccuracyTable]:
    """Rebuild accuracy tables from an output tree (strategy/seed/record.csv)."""
    tables = []
    for sdir in sorted(p for p in root.iterdir() if p.is_dir()):
        seed_dirs = sorted(rec_path.parent for rec_path in sdir.glob("*/record.csv"))
        if seed_dirs:
            tables.append(_strategy_table(sdir.name, _read_runs(seed_dirs)))
    if not tables:
        raise ValueError(f"no strategy results under {root}")
    return tables


def _write_heatmap(tables: list[AccuracyTable], out: Path, critical: float) -> None:
    """heatmap.csv and heatmap.svg, strategies in name order whatever order
    the tables come in, so `toy` and `compare` write the same bytes."""
    hm = compute_heatmap(sorted(tables, key=lambda table: table.name), critical)
    atomic_write_text(out / "heatmap.csv", heatmap_csv_text(hm))
    atomic_write_text(out / "heatmap.svg", heatmap_svg_text(hm))


def _cmd_compare(args) -> int:
    _check_critical(args.critical)
    root = Path(args.results_dir)
    out = Path(args.out or root)
    tables = _discover_tables(root)
    _write_heatmap(tables, out, args.critical)
    print(f"compared {len(tables)} strategies over {tables[0].data.shape[1]} seeds")
    print(f"wrote {out / 'heatmap.csv'} and {out / 'heatmap.svg'}")
    return 0


def _apply_ablation(spec: dict, parameter: str, value: float) -> dict:
    spec = copy.deepcopy(spec)
    if parameter == "kappa":
        if spec.get("kind") != "series":
            raise ValueError("--parameter kappa requires a series strategy")
        n_stages = len(spec.get("constituents", []))
        if n_stages < 2:
            raise ValueError("kappa ablation needs a series with at least 2 stages")
        spec.setdefault("params", {})["kappas"] = [float(value)] * (n_stages - 1) + [1.0]
    elif parameter == "rate":
        if spec.get("kind") != "annealing":
            raise ValueError("--parameter rate requires an annealing strategy")
        spec.setdefault("params", {})["rate"] = float(value)
    else:
        raise ValueError(f"unknown ablation parameter {parameter!r}")
    return spec


def _cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    seeds = _parse_seeds(args.seeds) if args.seeds else cfg["seeds"]
    out = Path(args.out or cfg["output_dir"])
    values = _parse_values(args.values)
    subtrees = [f"{args.parameter}_{value:g}" for value in values]
    for i, subtree in enumerate(subtrees):
        if subtree in subtrees[:i]:
            first = values[subtrees.index(subtree)]
            raise ValueError(f"--values {first!r} and {values[i]!r} would share the subtree {subtree}/")
    specs = [_apply_ablation(cfg["strategy"], args.parameter, value) for value in values]
    for spec in specs:
        validate_config({**cfg, "strategy": spec})
    results = _sweep(cfg, [(spec, out / subtree) for spec, subtree in zip(specs, subtrees)], seeds, _jobs(args))
    for subtree, value, (name, runs) in zip(subtrees, values, results):
        atomic_write_text(out / subtree / "curve.csv", curve_csv_text(runs))
        print(
            f"{args.parameter}={value:g} ({name}): median final accuracy "
            f"{_median_final(runs):.4f}, mean inferences/run "
            f"{float(np.mean([sum(row['n_infer'] for row in rows) for _, rows in runs])):.0f}"
        )
    print(f"wrote {len(values)} ablation subtrees under {out}")
    return 0


def _cmd_toy(args) -> int:
    _check_critical(args.critical)
    seeds = _parse_seeds(args.seeds)
    if len(seeds) < 2:
        raise ValueError(f"--seeds must name at least 2 seeds for the heatmap's paired t-test, got {len(seeds)}")
    cfg = toy_config(args.out, seeds, rounds=_integer(args.rounds, "--rounds", 1))
    out = Path(cfg["output_dir"])
    train_ds, _ = build_datasets(cfg["dataset"])

    tables = []
    selections = [["strategy", "seed", "round", "index", "x0", "x1", "label"]]
    for name, runs in _sweep(cfg, [(spec, out) for spec in TOY_STRATEGIES], seeds, _jobs(args)):
        table = _strategy_table(name, runs)
        tables.append(table)
        atomic_write_text(out / name / "accuracy_table.csv", table_csv_text(table))
        selections += (
            [name, seed, row["round"], idx, *train_ds.X[idx], train_ds.y[idx]]
            for seed, rows in runs
            for row in rows
            for idx in row["selected"]
        )
        print(f"{name}: median final accuracy {_median_final(runs):.4f}")

    atomic_write_text(out / "selections.csv", csv_text(selections))
    _write_heatmap(tables, out, args.critical)
    print(f"wrote toy benchmark artifacts under {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="acqbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True, jobs=True):
        if config:
            p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="override output directory")
        if jobs:
            p.add_argument(
                "--jobs", type=int, default=None,
                help="worker processes (default: usable CPUs, at most one per run); each worker starts "
                "one BLAS thread per CPU unless OPENBLAS_NUM_THREADS=1 is set",
            )

    p_run = sub.add_parser("run", help="run one experiment (first config seed by default)")
    p_run.set_defaults(handler=_cmd_run)
    add_common(p_run, jobs=False)
    p_run.add_argument("--seed", type=int, default=None, help="run seed override")

    p_sweep = sub.add_parser("sweep", help="run the config across seeds")
    p_sweep.set_defaults(handler=_cmd_sweep)
    add_common(p_sweep)
    p_sweep.add_argument("--seeds", default=None, help="seed list '0,1,2' or range '0..9' (default config seeds)")

    p_cmp = sub.add_parser("compare", help="build the winning-rate heatmap from a results tree")
    p_cmp.set_defaults(handler=_cmd_compare)
    p_cmp.add_argument("results_dir", help="tree of <strategy>/<seed>/record.csv")
    p_cmp.add_argument("--critical", type=float, default=DEFAULT_CRITICAL, help="t threshold for a win")
    p_cmp.add_argument("--out", default=None, help="where to write heatmap files (default results_dir)")

    p_abl = sub.add_parser("ablate", help="sweep a structure parameter (kappa or rate)")
    p_abl.set_defaults(handler=_cmd_ablate)
    add_common(p_abl)
    p_abl.add_argument("--parameter", required=True, choices=("kappa", "rate"))
    p_abl.add_argument("--values", required=True, help="comma-separated values, e.g. '1,2,5'")
    p_abl.add_argument("--seeds", default=None, help="seed list or range override")

    p_toy = sub.add_parser("toy", help="built-in checkerboard benchmark (random vs least_confident vs k_centers)")
    p_toy.set_defaults(handler=_cmd_toy)
    add_common(p_toy, config=False)
    p_toy.add_argument("--seeds", default="0..9", help="seed list or range (default 0..9)")
    p_toy.add_argument("--rounds", type=int, default=20, help="acquisition rounds (default 20)")
    p_toy.add_argument("--critical", type=float, default=DEFAULT_CRITICAL, help="t threshold for a win")

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
