"""Atomic text artifact writes and the one CSV dialect they use."""

from __future__ import annotations

import csv
import io
import os
import sys
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write via a temp file in the same directory, then rename into place.

    Renames are atomic on POSIX, so readers never observe a partial file.
    Overwriting an existing artifact warns on stderr but proceeds.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        print(f"warning: overwriting {path}", file=sys.stderr)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


def csv_text(rows) -> str:
    """Rows of cells as CSV text with "\n" line ends.

    A float cell is written with `repr`, so callers pass numpy scalars as
    `repr(float(v))`: numpy 2 scalars repr as `np.float64(...)`.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
