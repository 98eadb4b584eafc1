"""Atomic text artifact writes and the one CSV dialect they use."""

from __future__ import annotations

import csv
import io
import os
import sys
from pathlib import Path

import numpy as np


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
    """Rows of cells as CSV text with "\n" line ends. Every float cell,
    Python or numpy, is written as `repr(float(v))`, which round-trips."""
    buf = io.StringIO()
    rows = ([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
