"""Toy datasets and loading utilities.

Two generators (checkerboard grid, Gaussian blobs), a strict numeric CSV
loader, and a seeded train/test split. Generators are deterministic given
their seed; the split keeps each side in original row order so downstream
indices are stable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .rng import NS_SPLIT, _array, _integer, _labels, _number, stream


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and integer labels in [0, n_classes)."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        X = _array(self.X, "dataset features", 2, frozen=True)
        if len(X) == 0:
            raise ValueError("empty dataset")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", _labels(self.y, len(X), _integer(self.n_classes, "n_classes", 2)))

    def __len__(self) -> int:
        return len(self.X)


def make_grid_toy(
    cells_per_side: int = 4,
    n_per_cell: int = 25,
    spread: float = 0.12,
    seed: int = 0,
) -> Dataset:
    """Checkerboard of Gaussian clusters on a unit-pitch grid, 2 classes.

    Cell (i, j) is centered at (i, j) minus the grid midpoint (so the data
    is centered at the origin) and labeled (i + j) mod 2. `spread` is the
    per-axis standard deviation within a cell; the default keeps neighbor
    cells visually separated.
    """
    _integer(cells_per_side, "cells_per_side", 2)
    _integer(n_per_cell, "n_per_cell", 1)
    spread = _number(spread, "spread", ge=0)
    g = stream(seed)
    mid = (cells_per_side - 1) / 2.0
    points, labels = [], []
    for i in range(cells_per_side):
        for j in range(cells_per_side):
            center = np.array([i - mid, j - mid])
            points.append(center + g.normal(0.0, spread, size=(n_per_cell, 2)))
            labels.append(np.full(n_per_cell, (i + j) % 2, dtype=np.int64))
    return Dataset(np.vstack(points), np.concatenate(labels), 2)


def make_blobs(
    n_per_class: int,
    centers: np.ndarray,
    spread: float,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian blob per center row; class = center row index."""
    centers = _array(centers, "centers", 2)
    if len(centers) < 2:
        raise ValueError(f"centers must have at least 2 rows, got {len(centers)}")
    if len(np.unique(centers, axis=0)) != len(centers):
        raise ValueError("duplicate blob centers")
    _integer(n_per_class, "n_per_class", 1)
    spread = _number(spread, "spread", ge=0)
    g = stream(seed)
    points = [c + g.normal(0.0, spread, size=(n_per_class, centers.shape[1])) for c in centers]
    labels = np.repeat(np.arange(len(centers), dtype=np.int64), n_per_class)
    return Dataset(np.vstack(points), labels, len(centers))


def load_csv(path: str, label_column: int | str) -> Dataset:
    """Load a numeric CSV with integer labels in one column.

    The first line is treated as a header when any of its cells does not
    parse as a number. A string `label_column` requires a header; an int
    addresses the column directly. Labels are remapped to 0..C-1 by sorted
    value; row order is preserved. Parse failures report the offending
    1-based row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def parses(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header: list[str] | None = None
    if not all(parses(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header but no data rows")

    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise ValueError(f"{path}: label column {label_column!r} needs a header row")
        if label_column not in header:
            raise ValueError(f"{path}: unknown label column {label_column!r}, have {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = _integer(label_column, "label_column")
        if not -width <= label_idx < width:
            raise ValueError(f"{path}: label column index {label_idx} out of range for width {width}")
        label_idx %= width

    feats, raw_labels = [], []
    for r, row in enumerate(rows, start=2 if header else 1):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        vals = []
        for c, cell in enumerate(row, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: row {r}, column {c}: {cell!r} is not numeric") from None
        label = vals.pop(label_idx)
        if not label.is_integer():
            raise ValueError(f"{path}: row {r}: label {label!r} is not an integer")
        raw_labels.append(int(label))
        feats.append(vals)

    uniques = sorted(set(raw_labels))
    remap = {v: i for i, v in enumerate(uniques)}
    y = np.asarray([remap[v] for v in raw_labels], dtype=np.int64)
    return Dataset(np.asarray(feats, dtype=np.float64), y, len(uniques))


def split(ds: Dataset, test_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded disjoint train/test split; train gets ceil(n * (1 - fraction)).

    Both sides keep ascending original row order.
    """
    test_fraction = _number(test_fraction, "test_fraction", gt=0, lt=1)
    n = len(ds)
    n_train = math.ceil(n * (1.0 - test_fraction))
    if n_train < 1 or n_train >= n:
        raise ValueError(f"degenerate split: {n_train} train of {n} rows")
    perm = stream(seed, NS_SPLIT).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return (
        Dataset(ds.X[train_idx], ds.y[train_idx], ds.n_classes),
        Dataset(ds.X[test_idx], ds.y[test_idx], ds.n_classes),
    )
