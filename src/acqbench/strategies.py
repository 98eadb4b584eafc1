"""Acquisition strategies, leaf and structure, and the registry that
names them.

A `Strategy` owns one round-level decision: given the current model (via
`RoundState`) and a candidate index array, pick `budget` dataset indices.
Every leaf is a `LeafStrategy` running one row of the `LEAVES` table: an
acquisition function that scores or embeds the candidates and calls a
selector from `acquisition`. Structures (series, parallel, parallel_ranked,
hybrid, feedback, annealing, random_alternate) route candidates, budgets
and child seed keys `(*seed, i)` to their constituents, and take their
model-free decisions from `aggregation`. `KINDS` holds each kind's params,
constituent count and factory; `build_strategy` turns a config dict (kind /
params / constituents / name) into a strategy tree from it.

Candidate order: every strategy sorts its candidates to ascending dataset
index, so "lowest index" tie-breaks mean dataset order. The disparity_min
row alone keeps the order it is given and seeds at position 0, so a series
stage upstream hands it their top-ranked pick.

`RoundState` computes each point's Monte Carlo stack and features at most
once per round, and counts every forward pass it computed, Monte Carlo
scoring in `n_mc` and feature extraction in `n_features`, exactly.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import acquisition as acq
from . import model as mdl
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
from .rng import _integer, _json_integer, _number, _read_only, derive_seed, stream


class _Memo:
    """The rows one purpose computed this round, by dataset index: index i
    is row `row[i]` along `axis` of `blocks[block[i]]`, or not computed yet
    while `block[i]` is -1. `rows_of(result)` is a computed result's rows,
    read-only (by default the result itself, frozen); `wrap` turns gathered
    rows into a result."""

    def __init__(self, n: int, axis: int, rows_of: Callable = _read_only, wrap: Callable = _read_only):
        self.block, self.row, self.blocks = np.full(n, -1), np.zeros(n, dtype=np.int64), []
        self.axis, self.rows_of, self.wrap = axis, rows_of, wrap

    def __call__(self, idx: np.ndarray, compute: Callable) -> tuple[object, int]:
        """The result for `idx`, rows in request order, and how many rows
        were computed: the misses, in one `compute` call. A request without
        a hit gets that call's result itself; one with a hit, rows gathered.
        `compute` is not kept: a stored closure over the `RoundState` would
        make a cycle that holds the round's arrays until the cyclic GC."""
        idx = np.asarray(idx, dtype=np.int64)
        new = idx[self.block[idx] < 0]
        if len(new) or not len(idx):
            result = compute(new)
            self.block[new], self.row[new] = len(self.blocks), np.arange(len(new))
            self.blocks.append(self.rows_of(result))
            if len(new) == len(idx):
                return result, len(new)
        block, row = self.block[idx], self.row[idx]
        shape = list(self.blocks[0].shape)
        shape[self.axis] = len(idx)
        out = np.empty(shape)
        for b in np.unique(block):
            at = block == b
            np.moveaxis(out, self.axis, 0)[at] = np.moveaxis(self.blocks[b], self.axis, 0)[row[at]]
        return self.wrap(out), len(new)


class RoundState:
    """Read-only model access for one round. Monte Carlo stacks and features
    are each computed once per point and round, on the point's first
    request; `n_mc` and `n_features` count the forward passes computed, by
    purpose. Dropout masks stay keyed by row position within a call, so the
    first request of a round fixes a point's Monte Carlo prediction."""

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
        self.n_mc = self.n_features = 0
        self._mc = _Memo(len(self.X), 1, lambda t: t.data, acq.ProbabilityTensor._of_softmax)
        self._features = _Memo(len(self.X), 0)

    def mc_probs(self, idx: np.ndarray) -> acq.ProbabilityTensor:
        """Monte Carlo softmax stack for the given dataset indices."""
        # through the module, so a rebound `mdl.mc_predict` sees every computed pass
        t, computed = self._mc(idx, lambda new: mdl.mc_predict(self.params, self.X[new], self.mc))
        self.n_mc += self.mc.n_passes * computed
        return t

    def features_of(self, idx: np.ndarray) -> np.ndarray:
        """Last-hidden-layer features for the given dataset indices, read-only."""
        f, computed = self._features(idx, lambda new: mdl.features(self.params, self.X[new]))
        self.n_features += computed
        return f

    def labeled_features(self) -> np.ndarray:
        """Features of the currently labeled set (empty set costs nothing)."""
        if len(self.labeled) == 0:
            return np.zeros((0, self.params.hidden))
        return self.features_of(self.labeled)


class Strategy:
    """Base: one select() per round. `constituents` are the strategies a
    structure routes to (a leaf has none)."""

    def __init__(self, name: str, *constituents: Strategy):
        self.name = name
        self.constituents = constituents

    @property
    def last_tag(self) -> str:
        """What the last select() ran: the name, or `name[tag_1,tag_2,...]`
        when a constituent's tag is not its name."""
        tags = [sub.last_tag for sub in self.constituents]
        same = tags == [sub.name for sub in self.constituents]
        return self.name if same else f"{self.name}[{','.join(tags)}]"

    def select(
        self, state: RoundState, candidates: np.ndarray, budget: int, seed: tuple[int, ...]
    ) -> np.ndarray:
        raise NotImplementedError

    def observe_loss(self, loss: float) -> None:
        """Post-round hook fed the selecting model's loss on the batch;
        every node of the tree observes it."""
        for sub in self.constituents:
            sub.observe_loss(loss)

    def plan(self, n: int, budget: int) -> list[tuple[int, int]]:
        """(candidates, picks) for each constituent when this node picks
        `budget` of `n` candidates: the structure's one routing rule, read by
        `check_budget` and `select`, raising ValueError when it is broken."""
        return [(n, budget)] * len(self.constituents)

    def check_budget(self, budget: int, n: int) -> None:
        """Walk `plan` down the whole tree, before any training; `n` is the
        root's smallest round pool. A constituent that picks nothing is not
        run, so it is not walked."""
        for sub, (m, b) in zip(self.constituents, self.plan(n, budget)):
            if b:
                sub.check_budget(b, m)


def _ascending(candidates: np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(candidates, dtype=np.int64))


SCORERS = {
    "entropy": acq.entropy_scores,
    "least_confident": acq.least_confident_scores,
    "margin": acq.margin_scores,
    "mean_std": acq.mean_std_scores,
    "bald": acq.bald_scores,
}


@dataclass(frozen=True)
class Leaf:
    """One acquisition function. `acquire(state, cands, b, seed, **params)`
    returns the positions in `cands` to pick; `cands` are ascending unless
    `keep_order`. `name(**params)` checks the params and names the leaf
    (default: the kind). A row reads its scorer and selector per call, from
    `SCORERS` or `acq`, so rebinding those names reaches every call."""

    acquire: Callable[..., np.ndarray]
    params: dict[str, object] = field(default_factory=dict)
    keep_order: bool = False
    name: Callable[..., str] | None = None


def _top_k(kind: str) -> Leaf:
    return Leaf(lambda state, cands, b, seed: acq.select_top_k(SCORERS[kind](state.mc_probs(cands)), b))


def _power_bald_name(power: float) -> str:
    return f"power_bald_p{_number(power, 'power_bald power', gt=0):g}"


LEAVES: dict[str, Leaf] = {
    **{kind: _top_k(kind) for kind in SCORERS},
    "random": Leaf(lambda state, cands, b, seed: np.sort(stream(*seed).choice(len(cands), size=b, replace=False))),
    # BALD scores sampled without replacement with probability ~ score^power
    "power_bald": Leaf(
        lambda state, cands, b, seed, power: acq.select_power(
            acq.bald_scores(state.mc_probs(cands)), b, power, derive_seed(*seed)),
        {"power": 1.0}, name=_power_bald_name,
    ),
    # farthest-first coverage in feature space, aware of the labeled set
    "k_centers": Leaf(
        lambda state, cands, b, seed: acq.select_k_centers(state.features_of(cands), state.labeled_features(), b)
    ),
    # k-means++ seeding over last-layer loss-gradient embeddings
    "badge": Leaf(
        lambda state, cands, b, seed: acq.select_kmeanspp(
            acq.gradient_embeddings(state.mc_probs(cands), state.features_of(cands)), b, derive_seed(*seed))
    ),
    # greedy coverage maximization under cosine similarity
    "facility_location": Leaf(lambda state, cands, b, seed: acq.select_facility_location(state.features_of(cands), b)),
    # max-min cosine distance, seeded at position 0 of the candidates as given
    "disparity_min": Leaf(
        lambda state, cands, b, seed: acq.select_disparity_min(state.features_of(cands), b), keep_order=True
    ),
}


class LeafStrategy(Strategy):
    """One row of `LEAVES` with its checked params."""

    def __init__(self, kind: str, **params):
        name = LEAVES[kind].name
        super().__init__(name(**params) if name else kind)
        self.kind, self.params = kind, params

    def check_budget(self, budget, n):
        if budget > n:
            raise ValueError(f"{self.name} budget {budget} exceeds {n} candidates")

    def select(self, state, candidates, budget, seed):
        leaf = LEAVES[self.kind]
        cands = np.asarray(candidates, dtype=np.int64) if leaf.keep_order else _ascending(candidates)
        return cands[leaf.acquire(state, cands, budget, seed, **self.params)]


class SeriesStrategy(Strategy):
    """Stages filter left to right; stage i keeps round(kappas[i] * b).
    Shrink factors are nonincreasing and end at exactly 1, so all are >= 1
    and the last stage emits the round budget."""

    def __init__(self, *stages: Strategy, kappas):
        self.kappas = tuple(_number(k, "series kappas") for k in kappas)
        if not stages or len(stages) != len(self.kappas):
            raise ValueError(f"series kappas must be one per constituent, got {len(self.kappas)} for {len(stages)}")
        if any(a < b for a, b in zip(self.kappas, self.kappas[1:])):
            raise ValueError(f"series kappas must be nonincreasing, got {self.kappas}")
        if self.kappas[-1] != 1.0:
            raise ValueError(f"series kappas must end with 1, got {self.kappas[-1]}")
        shrink = "x".join(f"{k:g}" for k in self.kappas)
        super().__init__("series_" + "_".join(s.name for s in stages) + f"_k{shrink}", *stages)

    def plan(self, n, budget):
        budget = _integer(budget, "series budget", 1)
        picks = [int(round(k * budget)) for k in self.kappas]
        return list(zip([n, *picks[:-1]], picks))

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        for i, (stage, (_, b)) in enumerate(zip(self.constituents, self.plan(len(cands), budget))):
            cands = stage.select(state, cands, b, (*seed, i))
        return cands


class ParallelStrategy(Strategy):
    """Two seeded disjoint halves of the pool, b/2 picks from each.

    The split is redrawn from the seed key on every call, so successive
    rounds see fresh halves.
    """

    def __init__(self, first: Strategy, second: Strategy):
        super().__init__(f"parallel_{first.name}_{second.name}", first, second)

    def plan(self, n, budget):
        if budget % 2 != 0:
            raise ValueError(f"parallel selection needs an even budget, got {budget}")
        return [((n + 1) // 2, budget // 2), (n // 2, budget // 2)]

    def select(self, state, candidates, budget, seed):
        pool = _ascending(candidates)
        perm = stream(*seed, 0).permutation(len(pool))
        (cut, b1), (_, b2) = self.plan(len(pool), budget)
        first, second = self.constituents
        return np.concatenate([first.select(state, pool[perm[:cut]], b1, (*seed, 1)),
                               second.select(state, pool[perm[cut:]], b2, (*seed, 2))])


class ParallelRankedStrategy(Strategy):
    """Rank-sum aggregation of two scorers over one shared MC pass."""

    def __init__(self, first: Strategy, second: Strategy):
        if not all(isinstance(s, LeafStrategy) and s.kind in SCORERS for s in (first, second)):
            raise ValueError(f"parallel_ranked constituents must be scorer kinds {sorted(SCORERS)}")
        super().__init__(f"parallel_ranked_{first.name}_{second.name}", first, second)

    def select(self, state, candidates, budget, seed):
        cands = _ascending(candidates)
        t = state.mc_probs(cands)
        first, second = (SCORERS[s.kind](t) for s in self.constituents)
        return cands[parallel_ranked_select(first, second, budget)]


class HybridStrategy(Strategy):
    """Split budget over a shared pool: the first constituent picks
    budgets[0] from the pool, the second budgets[1] from what is left. An
    arm whose budget is 0 does not run, so it asks for no forward pass."""

    def __init__(self, first: Strategy, second: Strategy, budgets):
        if len(budgets) != 2:
            raise ValueError("hybrid strategy requires params.budgets = [b_first, b_second]")
        b1, b2 = (_json_integer(v, "hybrid budgets", 0) for v in budgets)
        if b1 + b2 < 1:
            raise ValueError(f"hybrid budgets must total at least 1, got ({b1}, {b2})")
        super().__init__(f"hybrid_{first.name}{b1}_{second.name}{b2}", first, second)
        self.split = (b1, b2)

    def plan(self, n, budget):
        b1, b2 = self.split
        if budget != b1 + b2:
            raise ValueError(f"hybrid budgets {b1}+{b2} != round budget {budget}")
        return [(n, b1), (n - b1, b2)]

    def select(self, state, candidates, budget, seed):
        pool = _ascending(candidates)
        (first, second), ((_, b1), (_, b2)) = self.constituents, self.plan(len(pool), budget)
        picked = first.select(state, pool, b1, (*seed, 1)) if b1 else pool[:0]
        rest = pool[~np.isin(pool, picked)]
        return np.concatenate([picked, second.select(state, rest, b2, (*seed, 2)) if b2 else rest[:0]])


class _AlternatingStrategy(Strategy):
    """Structures that run one arm per round, explore or exploit; a
    subclass only decides which, in `choose(state)`."""

    ran = None  # (choice, arm) of the last select()

    @property
    def last_tag(self):
        return self.name if self.ran is None else f"{self.ran[0]}:{self.ran[1].last_tag}"

    def select(self, state, candidates, budget, seed):
        choice = self.choose(state)
        explore, exploit = self.constituents
        arm = explore if choice == EXPLORE else exploit
        self.ran = choice, arm
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
        super().observe_loss(loss)


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


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def check_fields(raw, schema: dict, where: str) -> dict:
    """`raw` checked against `schema` (key -> default), defaults filled in.

    An int default makes the value an integer (integral floats become ints),
    a float default a number, by the rules in `rng`. A bare type (int, float,
    list, str, dict) marks a required value of that type, and None a required
    value its owner checks; a {}, [] or str default fixes the type of an
    optional value. Raises ValueError naming an unknown, missing or mistyped key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"'{where}' must be an object")
    for key in raw:
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in '{where}'")
    out = {}
    for key, default in schema.items():
        kind = default if isinstance(default, type) else type(default)
        value, label = raw.get(key, default), f"'{where}.{key}'"
        if key not in raw and (default is None or isinstance(default, type)):
            raise ValueError(f"missing key {key!r} in '{where}'")
        if kind is int:
            value = _json_integer(value, label)
        elif kind is float:
            value = _number(value, label)
        elif kind in _JSON_TYPES and not isinstance(value, kind):
            raise ValueError(f"{label} must be {_JSON_TYPES[kind]}, got {value!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class Kind:
    """One kind: `factory(*constituents, **params)` builds it from params
    checked against the `check_fields` schema `params`. `arity` is None for
    one or more constituents."""

    factory: Callable[..., Strategy]
    params: dict[str, object] = field(default_factory=dict)
    arity: int | None = 0


KINDS: dict[str, Kind] = {
    **{kind: Kind(functools.partial(LeafStrategy, kind), leaf.params) for kind, leaf in LEAVES.items()},
    "series": Kind(SeriesStrategy, {"kappas": list}, arity=None),
    "parallel": Kind(ParallelStrategy, arity=2),
    "parallel_ranked": Kind(ParallelRankedStrategy, arity=2),
    "hybrid": Kind(HybridStrategy, {"budgets": list}, arity=2),
    "feedback": Kind(
        lambda a, b, **p: FeedbackStrategy(
            a, b, FeedbackState(lam=p["lambda"], eps=p["epsilon"], n_window=p["n_window"])
        ),
        {"lambda": FeedbackState.lam, "epsilon": FeedbackState.eps, "n_window": FeedbackState.n_window},
        arity=2,
    ),
    "annealing": Kind(AnnealingStrategy, {f.name: f.default for f in fields(AnnealingSchedule)}, arity=2),
    "random_alternate": Kind(RandomAlternateStrategy, arity=2),
}

KNOWN_KINDS = tuple(KINDS)

_SPEC = {"kind": str, "params": {}, "constituents": [], "name": ""}
# A name becomes a results directory and heatmap label, so it is one path
# component that never climbs (`..`) or hides (`.x`); every derived name fits.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.+-]*")


def build_strategy(spec: dict) -> Strategy:
    """Build a fresh strategy tree from a config dict.

    Shape: {"kind": str, "params": {...}, "constituents": [specs...],
    "name": str}; params and constituents are optional where the kind
    allows, name overrides the derived one. Raises ValueError naming the
    offending key on any schema violation.
    """
    node = check_fields(spec, _SPEC, "strategy")
    kind = node["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}, expected one of {sorted(KINDS)}")
    schema = KINDS[kind]
    if "name" in spec and not _NAME.fullmatch(node["name"]):
        raise ValueError(f"strategy 'name' must be a letter or digit, then letters, digits or _.+-, "
                         f"got {node['name']!r}")
    subs = node["constituents"]
    if schema.arity is not None and len(subs) != schema.arity:
        raise ValueError(f"strategy {kind!r} needs exactly {schema.arity} constituents, got {len(subs)}")
    params = check_fields(node["params"], schema.params, f"{kind}.params")
    built = schema.factory(*(build_strategy(s) for s in subs), **params)
    if node["name"]:
        built.name = node["name"]
    return built
