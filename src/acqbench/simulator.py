"""Pool-based batch active-learning loop and its run artifacts.

One experiment: `start` seeds `initial_labeled` points and trains from
scratch; each `step` then draws a candidate pool from the unlabeled set,
lets the strategy pick `budget` points with the current model, reveals
their labels, retrains from scratch, and records test accuracy plus
acquisition cost. `run_experiment` is `start` followed by `rounds` steps.
A `Run` carries all of its own state (labeled mask, model, strategy tree,
rows), so runs can be advanced in any interleaving. All randomness is keyed
by (run seed, namespace, round), so records are bit-identical across
re-runs and across processes. A sweep's run writes its record in the
process that ran it and returns only its directory; `read_run` reads it back.

Inference accounting covers acquisition-phase forward passes only (what the
model computed for the strategy; a point asked for twice in a round is
computed once). Test-set evaluation and the batch-loss probe
are bookkeeping, not acquisition cost, and are excluded on purpose so the
per-strategy cost identities stay exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model as mdl
from .aggregation import check_selection
from .datasets import Dataset
from .fileio import atomic_write_text, csv_text
from .rng import (
    NS_ACQUIRE,
    NS_INIT_LABELED,
    NS_MC,
    NS_MODEL_INIT,
    NS_POOL_DRAW,
    NS_TRAIN,
    _integer,
    _json_integer,
    _key,
    derive_seed,
    stream,
)
from .strategies import RoundState, Strategy, build_strategy


# record.csv: each column, a `RoundRow` field, with the parser of its
# cells. Every cell is a function of the config and seed alone, so reruns
# write the same bytes.
_RECORD_PARSERS = {
    "round": int,
    "n_labeled": int,
    "test_accuracy": float,
    "batch_loss_prev_model": float,
    "strategy_tag": str,
    "n_infer": int,
}
RECORD_COLUMNS = tuple(_RECORD_PARSERS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs. Budgets must fit the training split."""

    train_ds: Dataset
    test_ds: Dataset
    strategy_spec: dict
    seed: int
    hidden: int = 32
    dropout: float = 0.5
    lr: float = mdl.TrainConfig.lr
    epochs: int = mdl.TrainConfig.epochs
    minibatch: int = mdl.TrainConfig.minibatch
    n_passes: int = mdl.MCConfig.n_passes
    initial_labeled: int = 10
    rounds: int = 10
    budget: int = 10
    pool_size: int = 1_000_000_000

    def __post_init__(self):
        if self.train_ds.n_classes != self.test_ds.n_classes:
            raise ValueError("train and test class counts differ")
        for name in ("initial_labeled", "rounds", "budget"):
            _integer(getattr(self, name), name, 1)
        _key(self.seed, "seed")
        if _integer(self.pool_size, "pool_size") < self.budget:
            raise ValueError(f"pool_size {self.pool_size} smaller than budget {self.budget}")
        needed = self.initial_labeled + self.rounds * self.budget
        if needed > len(self.train_ds):
            raise ValueError(
                f"initial_labeled + rounds * budget = {needed} exceeds training set of {len(self.train_ds)}"
            )
        # every round builds these from the settings; building them once here fails a bad one now
        mdl.init_model(self.train_ds.X.shape[1], self.hidden, self.train_ds.n_classes, self.dropout, 0)
        mdl.TrainConfig(lr=self.lr, epochs=self.epochs, minibatch=self.minibatch)
        mdl.MCConfig(n_passes=self.n_passes)

    @property
    def smallest_pool(self) -> int:
        """Candidates in the last round's pool, the smallest of the run."""
        return min(self.pool_size, len(self.train_ds) - self.initial_labeled - (self.rounds - 1) * self.budget)


@dataclass(frozen=True)
class RoundRow:
    """One acquisition round's record."""

    round: int
    n_labeled: int
    test_accuracy: float
    batch_loss_prev_model: float
    strategy_tag: str
    n_infer: int
    n_infer_mc: int
    n_infer_features: int
    selected: tuple[int, ...]


@dataclass(frozen=True)
class RunRecord:
    """Full trace of one run: per-round rows plus run-level summary."""

    strategy: str
    seed: int
    initial_accuracy: float
    rows: tuple[RoundRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for t, row in enumerate(self.rows, start=1):
            if row.round != t:
                raise ValueError(f"round numbers must be contiguous from 1, got {row.round} at {t}")


def oracle_label(ds: Dataset, indices: np.ndarray) -> np.ndarray:
    """Ground-truth labels for the given rows (the simulated annotator)."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(ds)):
        raise ValueError(f"indices outside [0, {len(ds)})")
    return ds.y[idx]


def _fit(cfg: ExperimentConfig, labeled: np.ndarray, t: int) -> tuple[mdl.ModelParams, float]:
    """From-scratch fit on the labeled mask with round-derived seeds:
    (params, test accuracy)."""
    idx = np.flatnonzero(labeled)
    n_in, n_classes = cfg.train_ds.X.shape[1], cfg.train_ds.n_classes
    init = mdl.init_model(n_in, cfg.hidden, n_classes, cfg.dropout, seed=derive_seed(cfg.seed, NS_MODEL_INIT, t))
    tc = mdl.TrainConfig(lr=cfg.lr, epochs=cfg.epochs, minibatch=cfg.minibatch, seed=derive_seed(cfg.seed, NS_TRAIN, t))
    params = mdl.train(init, cfg.train_ds.X[idx], oracle_label(cfg.train_ds, idx), tc)
    return params, mdl.accuracy(params, cfg.test_ds.X, cfg.test_ds.y)


@dataclass
class Run:
    """One run in progress; `step` reads and advances only this state.
    `labeled` is a boolean mask over the training split."""

    cfg: ExperimentConfig
    strategy: Strategy
    labeled: np.ndarray
    params: mdl.ModelParams
    initial_accuracy: float
    rows: list[RoundRow] = field(default_factory=list)


def start(cfg: ExperimentConfig) -> Run:
    """Build and budget-check the strategy tree, draw the initial labels,
    and fit and evaluate the round-0 model."""
    strategy = build_strategy(cfg.strategy_spec)
    strategy.check_budget(cfg.budget, cfg.smallest_pool)
    labeled = np.zeros(len(cfg.train_ds), dtype=bool)
    labeled[stream(cfg.seed, NS_INIT_LABELED).choice(len(labeled), size=cfg.initial_labeled, replace=False)] = True
    params, accuracy = _fit(cfg, labeled, 0)
    return Run(cfg, strategy, labeled, params, accuracy)


def step(run: Run) -> RoundRow:
    """Advance `run` by one round: draw the pool, select, reveal the batch,
    refit and evaluate. Appends the round's row and returns it."""
    cfg, t = run.cfg, len(run.rows) + 1
    pool = np.flatnonzero(~run.labeled)
    if len(pool) > cfg.pool_size:
        pool = np.sort(stream(cfg.seed, NS_POOL_DRAW, t).choice(pool, size=cfg.pool_size, replace=False))

    mc = mdl.MCConfig(n_passes=cfg.n_passes, seed=derive_seed(cfg.seed, NS_MC, t))
    state = RoundState(run.params, cfg.train_ds.X, np.flatnonzero(run.labeled), mc, round_index=t, run_seed=cfg.seed)
    batch = run.strategy.select(state, pool, cfg.budget, (cfg.seed, NS_ACQUIRE, t))
    batch = check_selection(pool, batch, cfg.budget)
    n_mc, n_features = state.n_mc, state.n_features
    del state  # its memo's stacks and features are not needed past selection

    batch_loss = mdl.mean_cross_entropy(run.params, cfg.train_ds.X[batch], oracle_label(cfg.train_ds, batch))
    run.strategy.observe_loss(batch_loss)
    run.labeled[batch] = True
    run.params, accuracy = _fit(cfg, run.labeled, t)

    row = RoundRow(
        round=t,
        n_labeled=int(run.labeled.sum()),
        test_accuracy=accuracy,
        batch_loss_prev_model=batch_loss,
        strategy_tag=run.strategy.last_tag,
        n_infer=n_mc + n_features,
        n_infer_mc=n_mc,
        n_infer_features=n_features,
        selected=tuple(int(i) for i in batch),
    )
    run.rows.append(row)
    return row


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run one seeded experiment to completion: `start`, then one `step`
    per round."""
    run = start(cfg)
    for _ in range(cfg.rounds):
        step(run)
    return RunRecord(run.strategy.name, cfg.seed, run.initial_accuracy, tuple(run.rows))


def _run_with_seed(task: tuple[ExperimentConfig, Path, int]) -> Path:
    cfg, root, seed = task
    record = run_experiment(replace(cfg, seed=seed))
    return write_record(record, Path(root) / record.strategy / str(seed))


def check_seeds(seeds, where: str = "'seeds'") -> list[int]:
    """A run seed list from any iterable of Python or numpy integers, or
    JSON's integral floats: nonempty, no bools, no duplicates, each a key.
    Errors name `where`: the config key, or the flag the seeds came from."""
    seeds = [_key(_json_integer(s, f"{where} entries"), f"{where} entries") for s in seeds]
    if not seeds:
        raise ValueError(f"{where} must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"{where} contains duplicates: {seeds}")
    return seeds


def sweep(runs, seeds, jobs: int = 1) -> list[Path]:
    """Run each (config, output root) pair under each seed in one pool of up
    to `jobs` processes. Each run writes root/<strategy>/<seed> itself and
    derives all its randomness from its seed, so the run directories come
    back pair by pair, seed by seed, with the same bytes at any `jobs`."""
    seeds = check_seeds(seeds)
    tasks = [(cfg, root, s) for cfg, root in runs for s in seeds]
    workers = min(_integer(jobs, "jobs", 1), len(tasks))
    if workers <= 1:
        return [_run_with_seed(t) for t in tasks]
    # imported here: the import takes ~20 ms, which in-process runs never need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_with_seed, tasks))


# --- artifacts ---------------------------------------------------------------


def record_csv_text(record: RunRecord) -> str:
    """Render the per-round CSV."""
    return csv_text([RECORD_COLUMNS, *([getattr(r, c) for c in RECORD_COLUMNS] for r in record.rows)])


def record_summary(record: RunRecord) -> dict:
    """JSON-ready run summary."""
    return {
        "strategy": record.strategy,
        "seed": record.seed,
        "n_rounds": len(record.rows),
        "initial_accuracy": record.initial_accuracy,
        "final_accuracy": record.rows[-1].test_accuracy if record.rows else record.initial_accuracy,
        "total_n_infer": sum(r.n_infer for r in record.rows),
        "rounds": [asdict(r) for r in record.rows],
    }


def write_record(record: RunRecord, out_dir: str | Path) -> Path:
    """Write record.csv and summary.json under out_dir; returns the dir."""
    out = Path(out_dir)
    atomic_write_text(out / "record.csv", record_csv_text(record))
    atomic_write_text(out / "summary.json", json.dumps(record_summary(record), indent=2, sort_keys=True) + "\n")
    return out


def read_record_csv(path: str | Path) -> list[dict]:
    """Parse a record.csv back into typed row dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}, expected {list(RECORD_COLUMNS)}")
        rows = [{c: parse(raw[c]) for c, parse in _RECORD_PARSERS.items()} for raw in reader]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def read_run(run_dir: str | Path) -> list[dict]:
    """A run directory's record.csv rows, each with its `selected` indices
    from summary.json, matched by round number."""
    run_dir = Path(run_dir)
    rows = read_record_csv(run_dir / "record.csv")
    if not (run_dir / "summary.json").is_file():
        raise ValueError(f"{run_dir}: record.csv has no summary.json beside it")
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    selected = {r["round"]: r["selected"] for r in summary["rounds"]}
    for row in rows:
        if row["round"] not in selected:
            raise ValueError(f"{run_dir}: summary.json has no round {row['round']}")
        row["selected"] = selected[row["round"]]
    return rows
