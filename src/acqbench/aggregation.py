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

from .acquisition import select_top_k
from .rng import NS_ALTERNATE, _array, _integer, _number, _shape, stream

EXPLORE = "explore"
EXPLOIT = "exploit"


# --- rank aggregation -------------------------------------------------------


def parallel_ranked_select(s1: np.ndarray, s2: np.ndarray, b: int) -> np.ndarray:
    """Positions with the b smallest rank sums across two score vectors.

    Each vector is ranked by `select_top_k`'s rule: descending score, ties
    to the lower position. Output is ordered by ascending rank sum, then
    position.
    """
    s1 = _array(s1, "score vector s1", 1)
    s2 = _array(s2, "score vector s2", s1.shape)
    # a position's 0-based rank is where select_top_k's full order puts it
    r1, r2 = (np.argsort(select_top_k(s, np.size(s))) for s in (s1, s2))
    return select_top_k(-(r1 + r2), b)


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
        _number(self.eps, "eps", gt=0, lt=0.5)
        _number(self.lam, "lam", gt=0)
        _integer(self.n_window, "n_window", 1)
        _number(self.beta, "beta", gt=0, lt=1)


def feedback_update(state: FeedbackState, new_loss: float) -> FeedbackState:
    """Fold one observed batch loss into the state; pure, returns a new state.

    The loss trend is the expanding mean of the trailing `n_window` losses,
    min-max scaled to [0, 1] (0 when the window is flat). The new balance
    is lam * beta * exp(trend) clipped to [eps, 1 - eps].
    """
    losses = state.losses + (_number(new_loss, "loss", ge=0),)
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
        for name in ("t_initial", "t_exploit", "t_explore"):
            _integer(getattr(self, name), name, 1)
        _number(self.rate, "rate", ge=1)


def _phases(sched: AnnealingSchedule):
    """The schedule's (phase, length) sequence, without end."""
    yield EXPLORE, sched.t_initial
    length = sched.t_exploit
    while True:
        yield EXPLOIT, length
        yield EXPLORE, sched.t_explore
        # tiny epsilon guards floor() against float dust like 1.2 * 5 -> 5.999...
        length = math.floor(sched.rate * length + 1e-9)


def annealing_phase(sched: AnnealingSchedule, t: int) -> str:
    """Phase of 1-based round t under the schedule."""
    t = _integer(t, "round index", 1)
    for phase, length in _phases(sched):
        if t <= length:
            return phase
        t -= length


# --- fair-coin alternation ----------------------------------------------------


def random_alternate(seed: int, t: int) -> str:
    """Independent fair coin per round, reproducible from (seed, t) alone."""
    t = _integer(t, "round index", 1)
    return EXPLORE if int(stream(seed, NS_ALTERNATE, t).integers(2)) == 0 else EXPLOIT


def check_selection(candidates: np.ndarray, batch: np.ndarray, b: int) -> np.ndarray:
    """Validate that a selector output is b distinct members of candidates."""
    batch = np.asarray(batch, dtype=np.int64)
    _shape(batch, "batch", (b,))
    if len(np.unique(batch)) != len(batch):
        raise ValueError("batch contains duplicates")
    if not np.all(np.isin(batch, candidates)):
        raise ValueError("batch contains indices outside the candidate set")
    return batch
