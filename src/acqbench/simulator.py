"""Pool-based batch active-learning loop and its run artifacts.

One experiment: seed `initial_labeled` points, train from scratch, then for
`rounds` rounds draw a candidate pool from the unlabeled set, let the
strategy pick `budget` points with the current model, reveal their labels,
retrain from scratch, and record test accuracy plus acquisition cost. All
randomness is keyed by (run seed, namespace, round), so records are
bit-identical across re-runs and across processes in a sweep.

Inference accounting covers acquisition-phase forward passes only (what the
strategy asked the model for). Test-set evaluation and the batch-loss probe
are bookkeeping, not acquisition cost, and are excluded on purpose so the
per-strategy cost identities stay exact.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model as mdl
from .aggregation import check_selection
from .datasets import Dataset
from .fileio import atomic_write_text
from .rng import (
    NS_ACQUIRE,
    NS_INIT_LABELED,
    NS_MC,
    NS_MODEL_INIT,
    NS_POOL_DRAW,
    NS_TRAIN,
    derive_seed,
    stream,
)
from .strategies import RoundState, build_strategy

RECORD_COLUMNS = (
    "round",
    "n_labeled",
    "test_accuracy",
    "batch_loss_prev_model",
    "strategy_tag",
    "acq_ms",
    "train_ms",
    "n_infer",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs. Budgets must fit the training split."""

    train_ds: Dataset
    test_ds: Dataset
    strategy_spec: dict
    seed: int
    hidden: int = 32
    dropout: float = 0.5
    lr: float = 0.001
    epochs: int = 40
    minibatch: int = 32
    n_passes: int = 5
    initial_labeled: int = 10
    rounds: int = 10
    budget: int = 10
    pool_size: int = 1_000_000_000

    def __post_init__(self):
        if self.train_ds.n_classes != self.test_ds.n_classes:
            raise ValueError("train and test class counts differ")
        if self.initial_labeled < 1:
            raise ValueError(f"initial_labeled must be >= 1, got {self.initial_labeled}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.pool_size < self.budget:
            raise ValueError(f"pool_size {self.pool_size} smaller than budget {self.budget}")
        needed = self.initial_labeled + self.rounds * self.budget
        if needed > len(self.train_ds):
            raise ValueError(
                f"initial_labeled + rounds * budget = {needed} exceeds training set of {len(self.train_ds)}"
            )


@dataclass(frozen=True)
class RoundRow:
    """One acquisition round's record."""

    round: int
    n_labeled: int
    test_accuracy: float
    batch_loss_prev_model: float
    strategy_tag: str
    acq_ms: float
    train_ms: float
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

    @property
    def final_accuracy(self) -> float:
        return self.rows[-1].test_accuracy if self.rows else self.initial_accuracy

    @property
    def total_inferences(self) -> int:
        return sum(r.n_infer for r in self.rows)


def oracle_label(ds: Dataset, indices: np.ndarray) -> np.ndarray:
    """Ground-truth labels for the given rows (the simulated annotator)."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(ds)):
        raise ValueError(f"indices outside [0, {len(ds)})")
    return ds.y[idx]


def _retrain(cfg: ExperimentConfig, labeled: np.ndarray, round_index: int) -> mdl.ModelParams:
    """From-scratch fit on the current labeled set with round-derived seeds."""
    init = mdl.init_model(
        cfg.train_ds.X.shape[1],
        cfg.hidden,
        cfg.train_ds.n_classes,
        cfg.dropout,
        seed=derive_seed(cfg.seed, NS_MODEL_INIT, round_index),
    )
    tc = mdl.TrainConfig(
        lr=cfg.lr,
        epochs=cfg.epochs,
        minibatch=cfg.minibatch,
        seed=derive_seed(cfg.seed, NS_TRAIN, round_index),
    )
    X = cfg.train_ds.X[labeled]
    y = oracle_label(cfg.train_ds, labeled)
    return mdl.train(init, X, y, tc)


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run one seeded experiment to completion."""
    strategy = build_strategy(cfg.strategy_spec)
    strategy.check_budget(cfg.budget)
    n = len(cfg.train_ds)
    labeled = np.sort(
        stream(cfg.seed, NS_INIT_LABELED).choice(n, size=cfg.initial_labeled, replace=False)
    )
    unlabeled = np.setdiff1d(np.arange(n), labeled)

    params = _retrain(cfg, labeled, round_index=0)
    initial_accuracy = mdl.accuracy(params, cfg.test_ds.X, cfg.test_ds.y)

    rows: list[RoundRow] = []
    for t in range(1, cfg.rounds + 1):
        if len(unlabeled) > cfg.pool_size:
            drawn = stream(cfg.seed, NS_POOL_DRAW, t).choice(
                unlabeled, size=cfg.pool_size, replace=False
            )
            pool = np.sort(drawn)
        else:
            pool = unlabeled.copy()

        state = RoundState(
            params,
            cfg.train_ds.X,
            labeled,
            mdl.MCConfig(n_passes=cfg.n_passes, dropout_active=True, seed=derive_seed(cfg.seed, NS_MC, t)),
            round_index=t,
            run_seed=cfg.seed,
        )
        t0 = time.perf_counter()
        batch = strategy.select(state, pool, cfg.budget, (cfg.seed, NS_ACQUIRE, t))
        acq_ms = (time.perf_counter() - t0) * 1000.0
        batch = check_selection(pool, batch, cfg.budget)

        batch_loss = mdl.mean_cross_entropy(params, cfg.train_ds.X[batch], oracle_label(cfg.train_ds, batch))
        strategy.observe_loss(batch_loss)

        labeled = np.sort(np.concatenate([labeled, batch]))
        unlabeled = np.setdiff1d(unlabeled, batch)

        t0 = time.perf_counter()
        params = _retrain(cfg, labeled, round_index=t)
        train_ms = (time.perf_counter() - t0) * 1000.0

        rows.append(
            RoundRow(
                round=t,
                n_labeled=len(labeled),
                test_accuracy=mdl.accuracy(params, cfg.test_ds.X, cfg.test_ds.y),
                batch_loss_prev_model=batch_loss,
                strategy_tag=strategy.last_tag,
                acq_ms=acq_ms,
                train_ms=train_ms,
                n_infer=state.meter.total,
                n_infer_mc=state.meter.mc,
                n_infer_features=state.meter.features,
                selected=tuple(int(i) for i in batch),
            )
        )

    return RunRecord(
        strategy=strategy.name, seed=cfg.seed, initial_accuracy=initial_accuracy, rows=tuple(rows)
    )


def _run_with_seed(args: tuple[ExperimentConfig, int]) -> RunRecord:
    cfg, seed = args
    return run_experiment(replace(cfg, seed=seed))


def sweep(cfg: ExperimentConfig, seeds: list[int], jobs: int = 1) -> list[RunRecord]:
    """Run the same config under each seed; optionally across processes.

    Results are returned in seed order regardless of scheduling, and each
    worker derives all its randomness from its own seed, so parallel and
    sequential sweeps produce identical records.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in sweep: {seeds}")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(cfg, int(s)) for s in seeds]
    if jobs == 1 or len(seeds) == 1:
        return [_run_with_seed(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
        return list(pool.map(_run_with_seed, tasks))


# --- artifacts ---------------------------------------------------------------


def record_csv_text(record: RunRecord, include_timings: bool = False) -> str:
    """Render the per-round CSV. Timing cells stay empty unless asked for:
    wall time is machine noise and would break byte-identical re-runs."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(RECORD_COLUMNS)
    for r in record.rows:
        w.writerow(
            [
                r.round,
                r.n_labeled,
                repr(r.test_accuracy),
                repr(r.batch_loss_prev_model),
                r.strategy_tag,
                repr(r.acq_ms) if include_timings else "",
                repr(r.train_ms) if include_timings else "",
                r.n_infer,
            ]
        )
    return buf.getvalue()


def record_summary(record: RunRecord) -> dict:
    """JSON-ready run summary; always carries the measured wall times."""
    return {
        "strategy": record.strategy,
        "seed": record.seed,
        "n_rounds": len(record.rows),
        "initial_accuracy": record.initial_accuracy,
        "final_accuracy": record.final_accuracy,
        "total_n_infer": record.total_inferences,
        "total_acq_ms": sum(r.acq_ms for r in record.rows),
        "total_train_ms": sum(r.train_ms for r in record.rows),
        "rounds": [
            {
                "round": r.round,
                "n_labeled": r.n_labeled,
                "test_accuracy": r.test_accuracy,
                "batch_loss_prev_model": r.batch_loss_prev_model,
                "strategy_tag": r.strategy_tag,
                "acq_ms": r.acq_ms,
                "train_ms": r.train_ms,
                "n_infer": r.n_infer,
                "n_infer_mc": r.n_infer_mc,
                "n_infer_features": r.n_infer_features,
                "selected": list(r.selected),
            }
            for r in record.rows
        ],
    }


def write_record(record: RunRecord, out_dir: str | Path, include_timings: bool = False) -> Path:
    """Write record.csv and summary.json under out_dir; returns the dir."""
    out = Path(out_dir)
    atomic_write_text(out / "record.csv", record_csv_text(record, include_timings))
    atomic_write_text(out / "summary.json", json.dumps(record_summary(record), indent=2, sort_keys=True) + "\n")
    return out


def read_record_csv(path: str | Path) -> list[dict]:
    """Parse a record.csv back into typed row dicts (timings may be None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        rows = []
        for raw in reader:
            rows.append(
                {
                    "round": int(raw["round"]),
                    "n_labeled": int(raw["n_labeled"]),
                    "test_accuracy": float(raw["test_accuracy"]),
                    "batch_loss_prev_model": float(raw["batch_loss_prev_model"]),
                    "strategy_tag": raw["strategy_tag"],
                    "acq_ms": float(raw["acq_ms"]) if raw["acq_ms"] else None,
                    "train_ms": float(raw["train_ms"]) if raw["train_ms"] else None,
                    "n_infer": int(raw["n_infer"]),
                }
            )
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows
