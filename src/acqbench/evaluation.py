"""Statistical comparison of strategies across seeds.

Runs are paired by seed: for each round, the accuracy difference between
two strategies across N seeds gives a paired t-score, and a strategy "wins"
the round when that score clears a fixed critical value (default 2.776,
the two-sided 95% point at 4 degrees of freedom, i.e. N = 5 seeds). The
winning rate over rounds fills an all-pairs heatmap. No distribution
lookups: the critical value is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

from .fileio import csv_text
from .rng import _array, _integer, _number

DEFAULT_CRITICAL = 2.776


@dataclass(frozen=True)
class AccuracyTable:
    """Per-round test accuracies of one strategy: rows=rounds, cols=seeds."""

    name: str
    seeds: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        seeds = tuple(_integer(s, f"{self.name}: seeds entries") for s in self.seeds)
        d = _array(self.data, f"{self.name}: accuracies", (None, len(seeds)), frozen=True)
        if d.size == 0:
            raise ValueError(f"{self.name}: accuracies need at least one round and one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{self.name}: duplicate seeds {list(seeds)}")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "seeds", seeds)


def table_from_runs(name: str, runs) -> AccuracyTable:
    """One strategy's table from (seed, per-round accuracies) pairs, in
    seed order; every seed must appear once and have the same rounds."""
    runs = sorted(runs, key=lambda run: run[0])
    if not runs:
        raise ValueError(f"{name}: no runs")
    lengths = {len(accs) for _, accs in runs}
    if len(lengths) != 1:
        raise ValueError(f"{name}: seeds disagree on round count {sorted(lengths)}")
    return AccuracyTable(name, tuple(seed for seed, _ in runs), np.array([accs for _, accs in runs]).T)


def t_score(a: np.ndarray, b: np.ndarray) -> float:
    """Paired t statistic sqrt(N) * mean(d) / std(d, ddof=1), d = a - b.

    Zero spread degenerates to +/-inf by the sign of the mean difference
    (a constant nonzero gap is infinitely significant) and to 0 when the
    runs are identical.
    """
    a = _array(a, "paired samples a", 1)
    b = _array(b, "paired samples b", a.shape)
    if len(a) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(a)}")
    d = a - b
    mu = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return 0.0 if mu == 0.0 else math.copysign(math.inf, mu)
    return math.sqrt(len(d)) * mu / sd


def _check_critical(critical: float) -> float:
    """A negative critical value lets a tied round count as a win for both
    sides, and NaN lets nobody win, so only finite values >= 0 pass."""
    return _number(critical, "critical t value", ge=0)


def winning_rate(a: AccuracyTable | np.ndarray, b: AccuracyTable | np.ndarray, critical: float = DEFAULT_CRITICAL) -> float:
    """Fraction of rounds where `a` beats `b` at the critical t value. Two
    tables pair column by column, so their seeds must match."""
    critical = _check_critical(critical)
    if isinstance(a, AccuracyTable) and isinstance(b, AccuracyTable) and a.seeds != b.seeds:
        raise ValueError(f"table {b.name} seeds {b.seeds} != {a.seeds} (pairing broken)")
    da = _array(getattr(a, "data", a), "accuracy table a", 2)
    db = _array(getattr(b, "data", b), "accuracy table b", da.shape)
    wins = sum(1 for r in range(da.shape[0]) if t_score(da[r], db[r]) > critical)
    return wins / da.shape[0]


@dataclass(frozen=True)
class WinningRateMatrix:
    """All-pairs winning rates; diagonal fixed at zero."""

    names: tuple[str, ...]
    matrix: np.ndarray
    critical: float

    def __post_init__(self):
        k = len(self.names)
        m = _array(self.matrix, "winning rates", (k, k), frozen=True)
        if len(set(self.names)) != k:
            raise ValueError(f"duplicate strategy names {self.names}")
        object.__setattr__(self, "critical", _check_critical(self.critical))
        object.__setattr__(self, "matrix", m)

    def row_averages(self) -> np.ndarray:
        """Mean winning rate per strategy, diagonal excluded."""
        k = len(self.names)
        if k == 1:
            return np.zeros(1)
        off = self.matrix.sum(axis=1) - np.diag(self.matrix)
        return off / (k - 1)


def compute_heatmap(tables: list[AccuracyTable], critical: float = DEFAULT_CRITICAL) -> WinningRateMatrix:
    """Pairwise winning rates for congruent, seed-paired accuracy tables."""
    if not tables:
        raise ValueError("no tables")
    for t in tables[1:]:
        _array(t.data, f"table {t.name}", tables[0].data.shape)
    k = len(tables)
    m = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                m[i, j] = winning_rate(tables[i], tables[j], critical)
    return WinningRateMatrix(tuple(t.name for t in tables), m, critical)


def heatmap_csv_text(hm: WinningRateMatrix) -> str:
    """CSV with one row per strategy and a trailing row_average column."""
    rows = ([name, *row, avg] for name, row, avg in zip(hm.names, hm.matrix, hm.row_averages()))
    return csv_text([["strategy", *hm.names, "row_average"], *rows])


def _cell_color(v: float) -> str:
    """White at 0 to steel blue at 1."""
    r = round(255 + (31 - 255) * v)
    g = round(255 + (119 - 255) * v)
    b = round(255 + (180 - 255) * v)
    return f"rgb({r},{g},{b})"


def heatmap_svg_text(hm: WinningRateMatrix) -> str:
    """Self-contained SVG rendering of the matrix with a row-average column.
    Names are XML-escaped: `compare` reads them off directory names."""
    k = len(hm.names)
    cell = 52
    left = 16 + max(len(n) for n in hm.names) * 8
    top = 16 + max(len(n) for n in hm.names) * 6
    gap = 14
    width = left + (k + 1) * cell + gap + 16
    height = top + k * cell + 28
    # the columns' left edges: the matrix, then the row averages past a gap
    xs = [*(left + j * cell for j in range(k)), left + k * cell + gap]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="14" font-size="13">pairwise winning rates '
        f"(row beats column, t &gt; {hm.critical:g})</text>",
    ]
    for x, name in zip(xs, [*hm.names, "row_average"]):
        x += cell / 2
        parts.append(
            f'<text x="{x}" y="{top - 6}" text-anchor="start" '
            f'transform="rotate(-55 {x} {top - 6})">{escape(name)}</text>'
        )
    for i, (name, row, avg) in enumerate(zip(hm.names, hm.matrix.tolist(), hm.row_averages().tolist())):
        y = top + i * cell
        parts.append(f'<text x="{left - 8}" y="{y + cell / 2 + 4}" text-anchor="end">{escape(name)}</text>')
        for j, (x, v) in enumerate(zip(xs, [*row, avg])):
            fill = "#eeeeee" if i == j else _cell_color(v)
            text = "#333333" if (i == j or v < 0.55) else "white"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}" '
                f'stroke="{"#333333" if j == k else "#999999"}"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" text-anchor="middle" '
                f'fill="{text}">{v:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
