"""Random strategy trees: the pre-run budget walk and the run agree.

A seeded generator draws valid specs over every kind, up to three structure
levels deep. For each tree, `check_budget(b, n)` finds the smallest
candidate count it accepts; `select` on that many candidates must then
return b distinct candidates, every structure node must hand each
constituent it runs exactly the (candidates, picks) of its `plan`, the
round's forward-pass counts must be those of the points its leaves asked
for, and a rerun on a fresh tree and state must pick the same points.
"""

import numpy as np
import pytest

from acqbench.aggregation import check_selection
from acqbench.datasets import make_grid_toy
from acqbench.model import MCConfig, init_model
from acqbench.strategies import (
    KNOWN_KINDS,
    LEAVES,
    SCORERS,
    AnnealingStrategy,
    FeedbackStrategy,
    ParallelRankedStrategy,
    RandomAlternateStrategy,
    RoundState,
    build_strategy,
)

LEAF_KINDS = tuple(LEAVES)
STRUCTURES = tuple(k for k in KNOWN_KINDS if k not in LEAVES)
ALTERNATORS = (FeedbackStrategy, AnnealingStrategy, RandomAlternateStrategy)

_DATA = make_grid_toy(cells_per_side=6, n_per_cell=15, seed=0)
_PARAMS = init_model(2, 16, 2, 0.5, seed=0)
_ORDER = np.random.default_rng(0).permutation(len(_DATA))
_LABELED, _POOL = _ORDER[:12], _ORDER[12:]


def _state() -> RoundState:
    return RoundState(_PARAMS, _DATA.X, _LABELED, MCConfig(n_passes=2, seed=1), round_index=2, run_seed=0)


def _leaf(g, kinds=LEAF_KINDS) -> dict:
    kind = str(g.choice(kinds))
    if kind == "power_bald":
        return {"kind": kind, "params": {"power": float(g.choice([0.5, 1.0, 2.0]))}}
    return {"kind": kind}


def _draw(g, budget: int, depth: int) -> dict:
    """A valid spec for a node that picks `budget`, at most `depth` structure
    levels deep: series kappas nonincreasing and ending in 1, hybrid budgets
    summing to `budget`, parallel only on an even budget, and parallel_ranked
    only over scorers."""
    if not depth or g.random() < 0.3:
        return _leaf(g)
    kind = str(g.choice([k for k in STRUCTURES if k != "parallel" or budget % 2 == 0]))
    if kind == "parallel_ranked":
        return {"kind": kind, "constituents": [_leaf(g, tuple(SCORERS)) for _ in range(2)]}
    if kind == "series":
        kappas = [float(k) for k in sorted(g.choice([1.0, 1.5, 2.0, 3.0], size=g.integers(0, 3)), reverse=True)]
        kappas.append(1.0)
        subs = [_draw(g, int(round(k * budget)), depth - 1) for k in kappas]
        return {"kind": kind, "params": {"kappas": kappas}, "constituents": subs}
    if kind == "hybrid":
        b1 = int(g.integers(0, budget + 1))
        split = [b1, budget - b1]
        return {"kind": kind, "params": {"budgets": split},
                "constituents": [_draw(g, b, depth - 1) for b in split]}
    sub_budget = budget // 2 if kind == "parallel" else budget
    return {"kind": kind, "constituents": [_draw(g, sub_budget, depth - 1) for _ in range(2)]}


def _kinds(spec: dict) -> set[str]:
    return {spec["kind"]}.union(*(_kinds(s) for s in spec.get("constituents", [])))


def _smallest_pool(tree, budget: int) -> int:
    """The smallest candidate count `check_budget` accepts; every drawn tree
    fits the pool (at most 6 picks, kappas of at most 3, three levels)."""
    def fits(n):
        try:
            tree.check_budget(budget, n)
        except ValueError as e:
            assert "exceeds" in str(e), e  # a valid spec fails only by candidate count
            return False
        return True

    lo, hi = budget, len(_POOL)
    assert fits(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid + 1, hi)
    return lo


def _record(tree) -> list[dict]:
    """Wrap every node's select so each call appends its node, candidates,
    budget, output and the index of the call that made it (None at the root)."""
    calls, stack = [], []

    def wrap(node):
        inner = node.select

        def select(state, candidates, budget, seed):
            call = {"node": node, "candidates": np.asarray(candidates), "budget": budget,
                    "parent": stack[-1] if stack else None}
            calls.append(call)
            stack.append(len(calls) - 1)
            try:
                call["output"] = inner(state, candidates, budget, seed)
            finally:
                stack.pop()
            return call["output"]

        node.select = select
        for sub in node.constituents:
            wrap(sub)

    wrap(tree)
    return calls


def _check_routing(calls: list[dict]) -> None:
    """Each call picked its budget from its candidates, and each structure
    call handed the constituents it ran the (candidates, picks) of its plan."""
    for i, call in enumerate(calls):
        check_selection(call["candidates"], call["output"], call["budget"])
        node = call["node"]
        if not node.constituents:
            continue
        plan = node.plan(len(call["candidates"]), call["budget"])
        ran = [c for c in calls if c["parent"] == i]
        which = [next(j for j, sub in enumerate(node.constituents) if sub is c["node"]) for c in ran]
        assert [(len(c["candidates"]), c["budget"]) for c in ran] == [plan[j] for j in which], node.name
        if isinstance(node, ParallelRankedStrategy):
            assert which == []  # it scores through its leaves' scorers, not their select
        elif isinstance(node, ALTERNATORS):
            assert len(which) == 1
        else:
            assert which == [j for j, (_, b) in enumerate(plan) if b], node.name


# what a call computes for the candidates it is handed: Monte Carlo passes
# to score them (a parallel_ranked node scores for its leaves), or features
MC_KINDS = (*SCORERS, "power_bald", "badge", "parallel_ranked")
FEATURE_KINDS = ("k_centers", "badge", "facility_location", "disparity_min")


def _kind(node) -> str | None:
    return "parallel_ranked" if isinstance(node, ParallelRankedStrategy) else getattr(node, "kind", None)


def _check_inference(calls: list[dict], state: RoundState) -> None:
    """Each point's passes and features were computed once in the round:
    `n_mc` is the passes times the points any scoring call was handed, and
    `n_features` the points any embedding call was handed, plus the labeled
    set when k_centers ran."""
    def handed(kinds) -> set[int]:
        return set().union(*(c["candidates"].tolist() for c in calls if _kind(c["node"]) in kinds))

    embedded = handed(FEATURE_KINDS) | (set(_LABELED.tolist()) if handed(("k_centers",)) else set())
    assert state.n_mc == state.mc.n_passes * len(handed(MC_KINDS))
    assert state.n_features == len(embedded)


def _trees(count: int = 100, seed: int = 2024) -> list[tuple[int, dict]]:
    g = np.random.default_rng(seed)
    trees = []
    for _ in range(count):
        budget = int(g.integers(1, 7))
        trees.append((budget, _draw(g, budget, 3)))
    return trees


# a hybrid arm that picks nothing is not run, so the walk must skip it: a
# walked series would refuse budget 0. No drawn tree has such an arm.
ZERO_ARM = (4, {"kind": "hybrid", "params": {"budgets": [0, 4]}, "constituents": [
    {"kind": "series", "params": {"kappas": [2, 1]}, "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
    {"kind": "bald"},
]})
TREES = [*_trees(), ZERO_ARM]


def test_trees_cover_every_kind():
    assert set().union(*(_kinds(spec) for _, spec in TREES)) == set(KNOWN_KINDS)


@pytest.mark.parametrize("budget,spec", TREES, ids=range(len(TREES)))
def test_walk_and_run_agree(budget, spec):
    # the tightest pool the walk accepts, and a roomier one of either parity
    smallest = _smallest_pool(build_strategy(spec), budget)
    for n in (smallest, 3 * smallest + 7):
        tree, candidates, key = build_strategy(spec), _POOL[:n], (0, 3, n)
        calls, state = _record(tree), _state()
        batch = tree.select(state, candidates, budget, key)
        check_selection(candidates, batch, budget)
        _check_routing(calls)
        _check_inference(calls, state)
        np.testing.assert_array_equal(build_strategy(spec).select(_state(), candidates, budget, key), batch)
