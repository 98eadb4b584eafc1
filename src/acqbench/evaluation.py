"""Statistical comparison of strategies across seeds.

Runs are paired by seed: for each round, the accuracy difference between
two strategies across N seeds gives a paired t-score, and a strategy "wins"
the round when that score clears a fixed critical value (default 2.776,
the two-sided 95% point at 4 degrees of freedom, i.e. N = 5 seeds). The
winning rate over rounds fills an all-pairs heatmap. No distribution
lookups: the critical value is a parameter.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .simulator import RunRecord

DEFAULT_CRITICAL = 2.776


@dataclass(frozen=True)
class AccuracyTable:
    """Per-round test accuracies of one strategy: rows=rounds, cols=seeds."""

    name: str
    seeds: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        d = np.array(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(f"data must be [rounds, seeds], got shape {d.shape}")
        if d.shape[1] != len(self.seeds):
            raise ValueError(f"{d.shape[1]} columns but {len(self.seeds)} seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds {self.seeds}")
        if not np.all(np.isfinite(d)):
            raise ValueError("non-finite accuracies")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        d.flags.writeable = False

    @property
    def n_rounds(self) -> int:
        return self.data.shape[0]


def accuracy_table(records: list[RunRecord]) -> AccuracyTable:
    """Assemble one strategy's table from its per-seed records (seed-sorted)."""
    if not records:
        raise ValueError("no records")
    names = {r.strategy for r in records}
    if len(names) != 1:
        raise ValueError(f"records mix strategies {sorted(names)}")
    lengths = {len(r.rows) for r in records}
    if len(lengths) != 1:
        raise ValueError(f"records disagree on round count: {sorted(lengths)}")
    ordered = sorted(records, key=lambda r: r.seed)
    seeds = tuple(r.seed for r in ordered)
    n_rounds = lengths.pop()
    data = np.array([[r.rows[t].test_accuracy for r in ordered] for t in range(n_rounds)])
    return AccuracyTable(names.pop(), seeds, data)


def t_score(a: np.ndarray, b: np.ndarray) -> float:
    """Paired t statistic sqrt(N) * mean(d) / std(d, ddof=1), d = a - b.

    Zero spread degenerates to +/-inf by the sign of the mean difference
    (a constant nonzero gap is infinitely significant) and to 0 when the
    runs are identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired samples must be equal-length 1-D, got {a.shape} and {b.shape}")
    if len(a) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(a)}")
    d = a - b
    mu = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return 0.0 if mu == 0.0 else math.copysign(math.inf, mu)
    return math.sqrt(len(d)) * mu / sd


def winning_rate(a: AccuracyTable | np.ndarray, b: AccuracyTable | np.ndarray, critical: float = DEFAULT_CRITICAL) -> float:
    """Fraction of rounds where `a` beats `b` at the critical t value."""
    da = a.data if isinstance(a, AccuracyTable) else np.asarray(a, dtype=np.float64)
    db = b.data if isinstance(b, AccuracyTable) else np.asarray(b, dtype=np.float64)
    if da.shape != db.shape or da.ndim != 2:
        raise ValueError(f"tables must be congruent [rounds, seeds], got {da.shape} and {db.shape}")
    wins = sum(1 for r in range(da.shape[0]) if t_score(da[r], db[r]) > critical)
    return wins / da.shape[0]


@dataclass(frozen=True)
class WinningRateMatrix:
    """All-pairs winning rates; diagonal fixed at zero."""

    names: tuple[str, ...]
    matrix: np.ndarray
    critical: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        k = len(self.names)
        if m.shape != (k, k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} names")
        if len(set(self.names)) != k:
            raise ValueError(f"duplicate strategy names {self.names}")
        object.__setattr__(self, "matrix", m)
        m.flags.writeable = False

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
    names = tuple(t.name for t in tables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate strategy names {names}")
    ref = tables[0]
    for t in tables[1:]:
        if t.data.shape != ref.data.shape:
            raise ValueError(f"table {t.name} shape {t.data.shape} != {ref.data.shape}")
        if t.seeds != ref.seeds:
            raise ValueError(f"table {t.name} seeds {t.seeds} != {ref.seeds} (pairing broken)")
    k = len(tables)
    m = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                m[i, j] = winning_rate(tables[i], tables[j], critical)
    return WinningRateMatrix(names, m, float(critical))


def heatmap_csv_text(hm: WinningRateMatrix) -> str:
    """CSV with one row per strategy and a trailing row_average column."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["strategy", *hm.names, "row_average"])
    avgs = hm.row_averages()
    for i, name in enumerate(hm.names):
        w.writerow([name, *(repr(float(v)) for v in hm.matrix[i]), repr(float(avgs[i]))])
    return buf.getvalue()


def _cell_color(v: float) -> str:
    """White at 0 to steel blue at 1."""
    r = round(255 + (31 - 255) * v)
    g = round(255 + (119 - 255) * v)
    b = round(255 + (180 - 255) * v)
    return f"rgb({r},{g},{b})"


def heatmap_svg_text(hm: WinningRateMatrix) -> str:
    """Self-contained SVG rendering of the matrix with a row-average column."""
    k = len(hm.names)
    cell = 52
    left = 16 + max(len(n) for n in hm.names) * 8
    top = 16 + max(len(n) for n in hm.names) * 6
    gap = 14
    width = left + (k + 1) * cell + gap + 16
    height = top + k * cell + 28
    avgs = hm.row_averages()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="14" font-size="13">pairwise winning rates '
        f"(row beats column, t &gt; {hm.critical:g})</text>",
    ]
    for j, name in enumerate(hm.names):
        x = left + j * cell + cell / 2
        parts.append(
            f'<text x="{x}" y="{top - 6}" text-anchor="start" '
            f'transform="rotate(-55 {x} {top - 6})">{name}</text>'
        )
    avg_x = left + k * cell + gap + cell / 2
    parts.append(
        f'<text x="{avg_x}" y="{top - 6}" text-anchor="start" '
        f'transform="rotate(-55 {avg_x} {top - 6})">row_average</text>'
    )
    for i, name in enumerate(hm.names):
        y = top + i * cell
        parts.append(f'<text x="{left - 8}" y="{y + cell / 2 + 4}" text-anchor="end">{name}</text>')
        for j in range(k):
            v = float(hm.matrix[i, j])
            x = left + j * cell
            fill = "#eeeeee" if i == j else _cell_color(v)
            text = "#333333" if (i == j or v < 0.55) else "white"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}" '
                f'stroke="#999999"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" text-anchor="middle" '
                f'fill="{text}">{v:.2f}</text>'
            )
        av = float(avgs[i])
        x = left + k * cell + gap
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{_cell_color(av)}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" text-anchor="middle" '
            f'fill="{"#333333" if av < 0.55 else "white"}">{av:.2f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
