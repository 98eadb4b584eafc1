"""Counter-based random streams, and the package's input rules.

Every piece of randomness in the package flows through `stream`, keyed by an
integer tuple (run seed, namespace, round, ...). Streams with different keys
are independent; the same key always yields the same stream, so runs are
bit-reproducible and individual draws can be replayed in isolation.

It also owns the package's input rules: `_integer` (counts, budgets, seeds,
stream keys), `_key` (the signed 64-bit range of stream keys and run seeds),
`_number` (float scalars), `_array` (float arrays), `_shape` (the axis lengths
`_array`, `_labels` and a selection check name), `_labels` (class-label
vectors), and `_read_only`, which freezes an array no caller holds.
"""

from __future__ import annotations

import sys

import numpy as np

# Namespace constants keeping key tuples collision-free across purposes.
NS_INIT_LABELED = 1
NS_POOL_DRAW = 2
NS_ACQUIRE = 3
NS_TRAIN = 4
NS_MODEL_INIT = 5
NS_MC = 6
NS_ALTERNATE = 7
NS_SPLIT = 8
NS_DATASET = 9


def _integer(value, where: str, low: int | None = None) -> int:
    """The one integer rule, for counts, budgets, seeds and stream keys: Python
    and numpy integers pass (as an int) unless below `low`; bools, floats (2.0
    too), NaN, inf and strings fail. Private: a traced run adds no span per check."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{where} must be >= {low}, got {value}")
    return int(value)


def _key(value, where: str) -> int:
    """The one key rule, for stream keys and run seeds: a signed 64-bit
    integer, so `stream`'s 64-bit words never alias two keys."""
    if not -(1 << 63) <= _integer(value, where) < 1 << 63:
        raise ValueError(f"{where} must be >= -2**63 and < 2**63, got {value}")
    return int(value)


def _json_integer(value, where: str, low: int | None = None) -> int:
    """`_integer` at the config boundary, where JSON may write an integer
    as an integral float such as 2.0: that becomes an int first."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _integer(value, where, low)


def _number(value, where: str, ge: float | None = None, gt: float | None = None, lt: float | None = None) -> float:
    """The one float-scalar rule: Python and numpy reals pass (as a float)
    within the bounds given; bools, strings, NaN, +/-inf and values outside fail."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    if (ge is not None and value < ge) or (gt is not None and value <= gt) or (lt is not None and value >= lt):
        bounds = " and ".join(f"{op} {b:g}" for op, b in ((">=", ge), (">", gt), ("<", lt)) if b is not None)
        raise ValueError(f"{where} must be {bounds}, got {value}")
    return float(value)


def _array(value, where: str, shape: int | tuple, frozen: bool = False) -> np.ndarray:
    """The one float-array rule: `value` as float64 of `shape` (see `_shape`)
    and every entry finite, else a ValueError naming `where`. A view when the
    input already fits; `frozen=True` gives a read-only copy for a frozen
    dataclass to keep, so the caller's array stays writeable and unshared."""
    a = np.array(value, dtype=np.float64) if frozen else np.asarray(value, dtype=np.float64)
    _shape(a, where, shape)
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {where}")
    return _read_only(a) if frozen else a


def _shape(a: np.ndarray, where: str, shape: int | tuple) -> None:
    """The one shape rule: `shape` has one entry per axis, an int fixing that
    axis's length and None leaving it free; an int n is n free axes."""
    shape = (None,) * shape if isinstance(shape, int) else tuple(shape)
    if a.ndim != len(shape) or any(want is not None and want != got for want, got in zip(shape, a.shape)):
        dims = ", ".join("*" if want is None else str(want) for want in shape)
        raise ValueError(f"{where} must be [{dims}], got shape {a.shape}")


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself, made read-only: for an array that no caller holds a
    writeable view of, such as one a function has just computed."""
    a.flags.writeable = False
    return a


def _labels(y, n: int, n_classes: int) -> np.ndarray:
    """The one label rule: `y` as a new read-only int64 vector of shape [n],
    integer-valued (NaN and inf fail) and in [0, n_classes)."""
    y = np.asarray(y)
    _shape(y, "labels", (n,))
    if not (np.isfinite(y).all() and (np.mod(y, 1) == 0).all()):
        raise ValueError("labels must be integers")
    if n and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    return _read_only(y.astype(np.int64))


def stream(*key: int) -> np.random.Generator:
    """Return an independent generator for an integer key tuple.

    Trailing zero words are absorbed by the seed hash, so (k,) and (k, 0)
    alias. Callers must therefore never draw from both a key and a
    zero-extended version of it; appending 0 for a child is safe only when
    the parent key itself never draws (which holds for the structure nodes
    here: they route, their children draw).
    """
    if not key:
        raise ValueError("stream key must not be empty")
    entropy = [_key(k, "stream key") % (1 << 64) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(*key: int) -> int:
    """Fold a key tuple into a single 63-bit seed for config fields."""
    return int(stream(*key).integers(1 << 63))
