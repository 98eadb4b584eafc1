"""Acquisition strategies, leaf and structure, and the registry that
names them.

A `Strategy` owns one round-level decision: given the current model (via
`RoundState`) and a candidate index array, pick `budget` dataset indices.
Leaves score or embed the candidates and call a selector from
`acquisition`. Structures (series, parallel, parallel_ranked, hybrid,
feedback, annealing, random_alternate) route candidates, budgets and child
seed keys `(*seed, i)` to their constituents, and take their model-free
decisions from `aggregation`. `KINDS` holds each kind's params, constituent
count and factory; `build_strategy` turns a config dict (kind / params /
constituents / name) into a strategy tree from it, so config files,
ablations, and tests all share one vocabulary.

Candidate order: every strategy canonicalizes its candidates to ascending
dataset index before selecting, so "lowest index" tie-breaks always mean
dataset order. The one deliberate exception is disparity_min, which seeds
at position 0 of the list as given; a series stage upstream therefore
hands it their top-ranked pick as the seed.

`RoundState` meters every forward pass a strategy asks for (Monte Carlo
scoring vs feature extraction), which is what makes the per-round
inference accounting exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .acquisition import (
    ProbabilityTensor,
    bald_scores,
    entropy_scores,
    gradient_embeddings,
    least_confident_scores,
    margin_scores,
    mean_std_scores,
    select_disparity_min,
    select_facility_location,
    select_k_centers,
    select_kmeanspp,
    select_power,
    select_top_k,
)
from .aggregation import (
    EXPLORE,
    AnnealingSchedule,
    FeedbackState,
    annealing_phase,
    feedback_choice,
    feedback_update,
    parallel_ranked_select,
    random_alternate,
)
from .rng import derive_seed, stream


@dataclass
class InferenceMeter:
    """Forward passes consumed during one acquisition round, by purpose."""

    mc: int = 0
    features: int = 0

    @property
    def total(self) -> int:
        return self.mc + self.features


class RoundState:
    """Read-only model access for one round, with metered inference."""

    def __init__(
        self,
        params: mdl.ModelParams,
        X: np.ndarray,
        labeled: np.ndarray,
        mc: mdl.MCConfig,
        round_index: int = 1,
        run_seed: int = 0,
    ):
        self.params = params
        self.X = np.asarray(X)
        self.labeled = np.asarray(labeled, dtype=np.int64)
        self.mc = mc
        self.round_index = round_index
        self.run_seed = run_seed
        self.meter = InferenceMeter()

    def mc_probs(self, idx: np.ndarray) -> ProbabilityTensor:
        """Monte Carlo softmax stack for the given dataset indices."""
        self.meter.mc += self.mc.n_passes * len(idx)
        return mdl.mc_predict(self.params, self.X[idx], self.mc)

    def features_of(self, idx: np.ndarray) -> np.ndarray:
        """Last-hidden-layer features for the given dataset indices."""
        self.meter.features += len(idx)
        return mdl.features(self.params, self.X[idx])

    def labeled_features(self) -> np.ndarray:
        """Features of the currently labeled set (empty set costs nothing)."""
        if len(self.labeled) == 0:
            return np.zeros((0, self.params.hidden))
        return self.features_of(self.labeled)


class Strategy:
    """Base: one select() per round; alternators overwrite `last_tag`.
    `constituents` are the strategies a structure routes to (a leaf has none)."""

    def __init__(self, name: str, *constituents: Strategy):
        self.name = name
        self.last_tag = name
        self.constituents = constituents

    def select(
        self, state: RoundState, candidates: np.ndarray, budget: int, seed: tuple[int, ...]
    ) -> np.ndarray:
        raise NotImplementedError

    def observe_loss(self, loss: float) -> None:
        """Post-round hook fed the selecting model's loss on the batch."""

    def budgets(self, budget: int) -> list[int]:
        """Each constituent's budget when this node picks `budget`; the
        structure's budget rule, raising ValueError when it is broken."""
        return [budget] * len(self.constituents)

    def check_budget(self, budget: int) -> None:
        """Apply `budgets` down the whole tree, before any training."""
        for sub, b in zip(self.constituents, self.budgets(budget)):
            sub.check_budget(b)


def _ascending(candidates: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(candidates, dtype=np.int64))


def _integer(value, where: str) -> int:
    """An int, or a float with an integral value; bools are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return float(value)


class RandomStrategy(Strategy):
    def __init__(self):
        super().__init__("random")

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        picks = stream(*seed).choice(len(cands), size=budget, replace=False)
        return cands[np.sort(picks)]


SCORERS = {
    "entropy": entropy_scores,
    "least_confident": least_confident_scores,
    "margin": margin_scores,
    "mean_std": mean_std_scores,
    "bald": bald_scores,
}


class ScoredStrategy(Strategy):
    """MC-dropout scorer + deterministic top-k."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.scorer = SCORERS[kind]

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        return cands[select_top_k(self.scorer(state.mc_probs(cands)), budget)]


class PowerBaldStrategy(Strategy):
    """BALD scores sampled without replacement with probability ~ score^power."""

    def __init__(self, power: float):
        if not power > 0.0:
            raise ValueError(f"power_bald power must be > 0, got {power}")
        super().__init__(f"power_bald_p{power:g}")
        self.power = float(power)

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        scores = bald_scores(state.mc_probs(cands))
        return cands[select_power(scores, budget, self.power, derive_seed(*seed))]


class KCentersStrategy(Strategy):
    """Farthest-first coverage in feature space, aware of the labeled set."""

    def __init__(self):
        super().__init__("k_centers")

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        pool_feats = state.features_of(cands)
        return cands[select_k_centers(pool_feats, state.labeled_features(), budget)]


class BadgeStrategy(Strategy):
    """k-means++ seeding over last-layer loss-gradient embeddings."""

    def __init__(self):
        super().__init__("badge")

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        emb = gradient_embeddings(state.mc_probs(cands), state.features_of(cands))
        return cands[select_kmeanspp(emb, budget, derive_seed(*seed))]


class FacilityLocationStrategy(Strategy):
    """Greedy coverage maximization under cosine similarity."""

    def __init__(self):
        super().__init__("facility_location")

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        return cands[select_facility_location(state.features_of(cands), budget)]


class DisparityMinStrategy(Strategy):
    """Max-min cosine-distance batch, seeded at the first candidate given."""

    def __init__(self):
        super().__init__("disparity_min")

    def select(self, state, candidates, budget, seed):
        cands = np.asarray(candidates, dtype=np.int64)
        feats = state.features_of(cands)
        return cands[select_disparity_min(feats, budget, seed_index=0)]


class SeriesStrategy(Strategy):
    """Stages filter left to right; stage i keeps round(kappas[i] * b).
    Shrink factors are nonincreasing and end at exactly 1, so all are >= 1
    and the last stage emits the round budget."""

    def __init__(self, *stages: Strategy, kappas):
        if not isinstance(kappas, (list, tuple)):
            raise ValueError("series strategy requires params.kappas as a list")
        self.kappas = tuple(_number(k, "series kappas") for k in kappas)
        if not stages or len(stages) != len(self.kappas):
            raise ValueError(f"series needs one kappa per constituent, got {len(self.kappas)} for {len(stages)}")
        if any(a < b for a, b in zip(self.kappas, self.kappas[1:])):
            raise ValueError(f"shrink factors must be nonincreasing, got {self.kappas}")
        if self.kappas[-1] != 1.0:
            raise ValueError(f"final shrink factor must be 1, got {self.kappas[-1]}")
        shrink = "x".join(f"{k:g}" for k in self.kappas)
        super().__init__("series_" + "_".join(s.name for s in stages) + f"_k{shrink}", *stages)

    def budgets(self, budget):
        if budget < 1:
            raise ValueError(f"series budget must be >= 1, got {budget}")
        return [int(round(k * budget)) for k in self.kappas]

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        for i, (stage, b) in enumerate(zip(self.constituents, self.budgets(budget))):
            cands = stage.select(state, cands, b, (*seed, i))
        return cands


class ParallelStrategy(Strategy):
    """Two seeded disjoint halves of the pool, b/2 picks from each.

    The split is redrawn from the seed key on every call, so successive
    rounds see fresh halves.
    """

    def __init__(self, first: Strategy, second: Strategy):
        super().__init__(f"parallel_{first.name}_{second.name}", first, second)

    def budgets(self, budget):
        if budget % 2 != 0:
            raise ValueError(f"parallel selection needs an even budget, got {budget}")
        return [budget // 2] * 2

    def select(self, state, candidates, budget, seed):
        pool = _ascending(candidates)
        perm = stream(*seed, 0).permutation(len(pool))
        cut = (len(pool) + 1) // 2
        halves = (pool[perm[:cut]], pool[perm[cut:]])
        return np.concatenate([
            sub.select(state, half, b, (*seed, i))
            for i, (sub, half, b) in enumerate(zip(self.constituents, halves, self.budgets(budget)), start=1)
        ])


class ParallelRankedStrategy(Strategy):
    """Rank-sum aggregation of two scorers over one shared MC pass."""

    def __init__(self, first: Strategy, second: Strategy):
        if not (isinstance(first, ScoredStrategy) and isinstance(second, ScoredStrategy)):
            raise ValueError(f"parallel_ranked constituents must be scorer kinds {sorted(SCORERS)}")
        super().__init__(f"parallel_ranked_{first.name}_{second.name}", first, second)

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        t = state.mc_probs(cands)
        first, second = self.constituents
        return cands[parallel_ranked_select(first.scorer(t), second.scorer(t), budget)]


class HybridStrategy(Strategy):
    """Split budget over a shared pool: the first constituent picks
    budgets[0] from the pool, the second budgets[1] from what is left."""

    def __init__(self, first: Strategy, second: Strategy, budgets):
        if not isinstance(budgets, (list, tuple)) or len(budgets) != 2:
            raise ValueError("hybrid strategy requires params.budgets = [b_first, b_second]")
        b1, b2 = (_integer(v, "hybrid budgets") for v in budgets)
        if min(b1, b2) < 0 or b1 + b2 < 1:
            raise ValueError(f"hybrid budgets must be >= 0 with a total >= 1, got ({b1}, {b2})")
        super().__init__(f"hybrid_{first.name}{b1}_{second.name}{b2}", first, second)
        self.split = (b1, b2)

    def budgets(self, budget):
        if budget != sum(self.split):
            raise ValueError(f"hybrid budgets {self.split[0]}+{self.split[1]} != round budget {budget}")
        return list(self.split)

    def select(self, state, candidates, budget, seed):
        pool = _ascending(candidates)
        (first, second), (b1, b2) = self.constituents, self.budgets(budget)
        picked = first.select(state, pool, b1, (*seed, 1))
        rest = pool[~np.isin(pool, picked)]
        return np.concatenate([picked, second.select(state, rest, b2, (*seed, 2))])


class _AlternatingStrategy(Strategy):
    """Structures that run one arm per round, explore or exploit; a
    subclass only decides which, in `choose(state)`."""

    def select(self, state, candidates, budget, seed):
        choice = self.choose(state)
        explore, exploit = self.constituents
        arm = explore if choice == EXPLORE else exploit
        self.last_tag = f"{choice}:{arm.name}"
        return arm.select(state, _ascending(candidates), budget, seed)


class FeedbackStrategy(_AlternatingStrategy):
    """Explore/exploit gate driven by observed batch losses."""

    def __init__(self, explore: Strategy, exploit: Strategy, state: FeedbackState):
        super().__init__(f"feedback_{explore.name}_{exploit.name}", explore, exploit)
        self.state = state

    def choose(self, state):
        return feedback_choice(self.state)

    def observe_loss(self, loss):
        self.state = feedback_update(self.state, loss)


class AnnealingStrategy(_AlternatingStrategy):
    """Explore/exploit gate following a fixed growing-phase schedule."""

    def __init__(self, explore: Strategy, exploit: Strategy, **schedule):
        self.sched = AnnealingSchedule(**schedule)
        super().__init__(f"annealing_{explore.name}_{exploit.name}_r{self.sched.rate:g}", explore, exploit)

    def choose(self, state):
        return annealing_phase(self.sched, state.round_index)


class RandomAlternateStrategy(_AlternatingStrategy):
    """Fair coin per round, keyed on (run seed, round)."""

    def __init__(self, explore: Strategy, exploit: Strategy):
        super().__init__(f"random_alt_{explore.name}_{exploit.name}", explore, exploit)

    def choose(self, state):
        return random_alternate(state.run_seed, state.round_index)


@dataclass(frozen=True)
class Kind:
    """One kind: `factory(*constituents, **params)` builds it. An int or
    float default fixes a param's type; a None default marks a required
    param the class checks. `arity` is None for one or more constituents."""

    factory: Callable[..., Strategy]
    params: dict[str, object] = field(default_factory=dict)
    arity: int | None = 0


KINDS: dict[str, Kind] = {
    **{kind: Kind(functools.partial(ScoredStrategy, kind)) for kind in SCORERS},
    "random": Kind(RandomStrategy),
    "k_centers": Kind(KCentersStrategy),
    "badge": Kind(BadgeStrategy),
    "facility_location": Kind(FacilityLocationStrategy),
    "disparity_min": Kind(DisparityMinStrategy),
    "power_bald": Kind(PowerBaldStrategy, {"power": 1.0}),
    "series": Kind(SeriesStrategy, {"kappas": None}, arity=None),
    "parallel": Kind(ParallelStrategy, arity=2),
    "parallel_ranked": Kind(ParallelRankedStrategy, arity=2),
    "hybrid": Kind(HybridStrategy, {"budgets": None}, arity=2),
    "feedback": Kind(
        lambda a, b, **p: FeedbackStrategy(
            a, b, FeedbackState(lam=p["lambda"], eps=p["epsilon"], n_window=p["n_window"])
        ),
        {"lambda": 0.9, "epsilon": 0.1, "n_window": 5},
        arity=2,
    ),
    "annealing": Kind(AnnealingStrategy, {"t_initial": 5, "t_exploit": 5, "t_explore": 5, "rate": 1.5}, arity=2),
    "random_alternate": Kind(RandomAlternateStrategy, arity=2),
}

KNOWN_KINDS = tuple(KINDS)


def _check_keys(spec: dict, allowed, where: str) -> None:
    for key in spec:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")


def _param(value, default, where: str):
    if isinstance(default, int):
        return _integer(value, where)
    if isinstance(default, float):
        return _number(value, where)
    return value


def build_strategy(spec: dict) -> Strategy:
    """Build a fresh strategy tree from a config dict.

    Shape: {"kind": str, "params": {...}, "constituents": [specs...],
    "name": str}; params and constituents are optional where the kind
    allows, name overrides the derived one. Raises ValueError naming the
    offending key on any schema violation.
    """
    if not isinstance(spec, dict):
        raise ValueError("strategy spec must be an object")
    _check_keys(spec, {"kind", "params", "constituents", "name"}, "strategy spec")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}, expected one of {sorted(KINDS)}")
    schema = KINDS[kind]
    override = spec.get("name")
    if override is not None and (not isinstance(override, str) or not override):
        raise ValueError("strategy 'name' must be a nonempty string")
    raw = spec.get("params", {})
    if not isinstance(raw, dict):
        raise ValueError(f"'params' of strategy {kind!r} must be an object")
    _check_keys(raw, schema.params, f"params of strategy {kind!r}")
    subs = spec.get("constituents", [])
    if not isinstance(subs, list) or not all(isinstance(s, dict) for s in subs):
        raise ValueError(f"'constituents' of strategy {kind!r} must be a list of strategy objects")
    if schema.arity is not None and len(subs) != schema.arity:
        raise ValueError(f"strategy {kind!r} needs exactly {schema.arity} constituents, got {len(subs)}")

    params = {
        key: _param(raw.get(key, default), default, f"param {key!r} of strategy {kind!r}")
        for key, default in schema.params.items()
    }
    built = schema.factory(*(build_strategy(s) for s in subs), **params)
    if override:
        built.name = override
        built.last_tag = override
    return built
