"""Pytest report header and the note every pin assertion prints on failure.

The golden digests and trained-weight pins are bytes of float results, and
OpenBLAS picks its kernel per CPU at load time, so a pin can differ on
another kernel with no change to the code. The header names the kernel this
run loaded, and a failing pin says which kernel the pins were computed under.
The header also gives the `src/` line count that ROADMAP tracks. Before
numpy loads, BLAS is pinned to one thread unless the environment says
otherwise.
"""

import ctypes
import glob
import os
from pathlib import Path

# one BLAS thread, as bench/run.py pins it, so that sweep workers do not
# oversubscribe the CPUs; OpenBLAS reads these only when numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

PINNED_CORE = "SkylakeX"


def openblas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library loaded, or 'unknown'."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def src_lines() -> int:
    """Lines of the package's .py files under src/, counted as `wc -l` does."""
    src = Path(__file__).resolve().parent.parent / "src"
    return sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))


def pytest_report_header(config):
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}, src/ {src_lines()} lines"


@pytest.fixture(scope="session")
def pin_note() -> str:
    return f"pins were computed under the {PINNED_CORE} OpenBLAS kernel; this run loaded {openblas_core()}"
