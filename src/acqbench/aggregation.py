"""Model-free policy of the combination structures.

Everything here is a pure function of scores, losses or round numbers:
rank aggregation of two score vectors (the parallel-ranked structure), the
loss-feedback explore/exploit balance, the annealing phase schedule, the
fair-coin alternation, and the check that a batch is `b` distinct members
of its candidate set. The structures themselves (series, parallel,
parallel-ranked, hybrid, feedback, annealing, random alternation) are
`Strategy` classes in `strategies.py`, which route candidates, budgets and
child seed keys and call into this module for each decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import NS_ALTERNATE, stream

EXPLORE = "explore"
EXPLOIT = "exploit"


# --- rank aggregation -------------------------------------------------------


def parallel_ranked_select(s1: np.ndarray, s2: np.ndarray, b: int) -> np.ndarray:
    """Positions with the b smallest rank sums across two score vectors.

    Each vector is ranked 1 = best by descending score; tied scores give
    the better rank to the lower position. Output is ordered by ascending
    rank sum, then position.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape or s1.ndim != 1:
        raise ValueError(f"score vectors must be equal-length 1-D, got {s1.shape} and {s2.shape}")
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise ValueError("non-finite scores")
    n = len(s1)
    if not 0 <= b <= n:
        raise ValueError(f"budget {b} out of range for {n} candidates")

    def ranks(s):
        order = np.lexsort((np.arange(n), -s))
        r = np.empty(n, dtype=np.int64)
        r[order] = np.arange(1, n + 1)
        return r

    sums = ranks(s1) + ranks(s2)
    return np.lexsort((np.arange(n), sums))[:b].astype(np.int64)


# --- adaptive feedback alternation ------------------------------------------


@dataclass(frozen=True)
class FeedbackState:
    """Explore/exploit balance driven by the loss of past selections.

    `beta` starts at 0.5 and is pushed up by rising recent losses and
    decayed by `lam` otherwise, clipped to [eps, 1 - eps]. Rounds explore
    while beta <= 0.5. `score` is the last min-max-scaled loss trend.
    """

    beta: float = 0.5
    losses: tuple[float, ...] = field(default_factory=tuple)
    score: float = 0.0
    lam: float = 0.9
    eps: float = 0.1
    n_window: int = 5

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {self.eps}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.n_window < 1:
            raise ValueError(f"n_window must be >= 1, got {self.n_window}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")


def feedback_update(state: FeedbackState, new_loss: float) -> FeedbackState:
    """Fold one observed batch loss into the state; pure, returns a new state.

    The loss trend is the expanding mean of the trailing `n_window` losses,
    min-max scaled to [0, 1] (0 when the window is flat). The new balance
    is lam * beta * exp(trend) clipped to [eps, 1 - eps].
    """
    if not math.isfinite(new_loss) or new_loss < 0.0:
        raise ValueError(f"loss must be finite and >= 0, got {new_loss}")
    losses = state.losses + (float(new_loss),)
    window = np.asarray(losses[-state.n_window :])
    averaged = np.cumsum(window) / np.arange(1, len(window) + 1)
    spread = averaged.max() - averaged.min()
    score = float((averaged[-1] - averaged.min()) / spread) if spread > 0.0 else 0.0
    beta = max(min(state.lam * state.beta * math.exp(score), 1.0 - state.eps), state.eps)
    return FeedbackState(
        beta=beta, losses=losses, score=score, lam=state.lam, eps=state.eps, n_window=state.n_window
    )


def feedback_choice(state: FeedbackState) -> str:
    """Explore while the balance has not crossed 0.5 (boundary explores)."""
    return EXPLORE if state.beta <= 0.5 else EXPLOIT


# --- annealing alternation ---------------------------------------------------


@dataclass(frozen=True)
class AnnealingSchedule:
    """Explore/exploit phase plan with geometrically growing exploit phases.

    `t_initial` explore rounds first, then exploit and explore phases
    alternate; each exploit phase length is floor(rate * previous), explore
    phases stay `t_explore` long.
    """

    t_initial: int = 5
    t_exploit: int = 5
    t_explore: int = 5
    rate: float = 1.5

    def __post_init__(self):
        if min(self.t_initial, self.t_exploit, self.t_explore) < 1:
            raise ValueError("phase lengths must be >= 1")
        if self.rate < 1.0:
            raise ValueError(f"rate must be >= 1, got {self.rate}")


def annealing_phase(sched: AnnealingSchedule, t: int) -> str:
    """Phase of 1-based round t under the schedule."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    pos = t
    if pos <= sched.t_initial:
        return EXPLORE
    pos -= sched.t_initial
    exploit_len = sched.t_exploit
    while True:
        if pos <= exploit_len:
            return EXPLOIT
        pos -= exploit_len
        if pos <= sched.t_explore:
            return EXPLORE
        pos -= sched.t_explore
        # tiny epsilon guards floor() against float dust like 1.2 * 5 -> 5.999...
        exploit_len = math.floor(sched.rate * exploit_len + 1e-9)


def exploit_lengths(sched: AnnealingSchedule, n: int) -> list[int]:
    """First n exploit phase lengths implied by the schedule."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    out: list[int] = []
    length = sched.t_exploit
    for _ in range(n):
        out.append(length)
        length = math.floor(sched.rate * length + 1e-9)
    return out


# --- fair-coin alternation ----------------------------------------------------


def random_alternate(seed: int, t: int) -> str:
    """Independent fair coin per round, reproducible from (seed, t) alone."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    return EXPLORE if int(stream(seed, NS_ALTERNATE, t).integers(2)) == 0 else EXPLOIT


def check_selection(candidates: np.ndarray, batch: np.ndarray, b: int) -> np.ndarray:
    """Validate that a selector output is b distinct members of candidates."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.shape != (b,):
        raise ValueError(f"expected batch of {b}, got shape {batch.shape}")
    if len(np.unique(batch)) != len(batch):
        raise ValueError("batch contains duplicates")
    if not np.all(np.isin(batch, candidates)):
        raise ValueError("batch contains indices outside the candidate set")
    return batch
