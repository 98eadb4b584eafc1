"""Acceptance suite: one test per shipped guarantee.

Each test prints a single `criterion N: PASS` line with its wall time when
it holds; a failed assertion marks the criterion FAIL in the pytest output.
The heavier end-to-end criteria (6, 7, 9) run the real CLI or simulator and
assert their stated wall-clock budgets.
"""

import copy
import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from acqbench.acquisition import (
    ProbabilityTensor,
    bald_scores,
    entropy_scores,
    facility_location_value,
    least_confident_scores,
    margin_scores,
    mean_std_scores,
    select_facility_location,
    select_k_centers,
)
from acqbench.aggregation import (
    EXPLOIT,
    EXPLORE,
    AnnealingSchedule,
    FeedbackState,
    annealing_phase,
    exploit_lengths,
    feedback_update,
)
from acqbench.cli import main
from acqbench.datasets import make_blobs
from acqbench.evaluation import compute_heatmap, t_score, winning_rate
from acqbench.simulator import ExperimentConfig, run_experiment
from acqbench.strategies import HybridStrategy, SeriesStrategy, Strategy

TOL = 1e-9


def _tensor(rows, n_passes=1):
    arr = np.asarray(rows, dtype=float)
    return ProbabilityTensor(np.repeat(arr[None, :, :], n_passes, axis=0))


def _report(n, t0, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"criterion {n}: PASS in {time.perf_counter() - t0:.2f}s{extra}")


def test_criterion_1_analytic_scorer_values():
    t0 = time.perf_counter()
    cases = [
        (entropy_scores, [[0.25, 0.25, 0.25, 0.25]], math.log(4)),
        (entropy_scores, [[1.0, 0.0, 0.0]], 0.0),
        (entropy_scores, [[0.5, 0.5, 0.0, 0.0]], math.log(2)),
        (least_confident_scores, [[0.7, 0.2, 0.1]], 0.3),
        (least_confident_scores, [[0.0, 1.0, 0.0]], 0.0),
        (least_confident_scores, [[0.2, 0.2, 0.2, 0.2, 0.2]], 0.8),
        (margin_scores, [[0.7, 0.2, 0.1]], -0.5),
        (margin_scores, [[1.0, 0.0, 0.0]], -1.0),
        (margin_scores, [[0.25, 0.25, 0.25, 0.25]], 0.0),
    ]
    for scorer, rows, want in cases:
        got = scorer(_tensor(rows))[0]
        assert abs(got - want) <= TOL, f"{scorer.__name__}({rows}) = {got}, want {want}"

    assert abs(mean_std_scores(_tensor([[0.3, 0.7]], n_passes=4))[0]) <= TOL
    two = ProbabilityTensor(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    assert abs(mean_std_scores(two)[0] - 0.5) <= TOL

    assert abs(bald_scores(_tensor([[0.3, 0.7]], n_passes=5))[0]) <= TOL
    assert abs(bald_scores(two)[0] - math.log(2)) <= TOL
    assert abs(bald_scores(_tensor([[0.25] * 4], n_passes=3))[0]) <= TOL
    _report(1, t0, "14 hand values to 1e-9")


def test_criterion_2_structure_identity_laws():
    t0 = time.perf_counter()

    class TopK(Strategy):
        """Fixed per-index scores, top-b with ties to the lower index."""

        def __init__(self, scores):
            super().__init__("top_k")
            self.scores = scores

        def select(self, state, candidates, b, seed):
            order = np.lexsort((candidates, -self.scores[candidates]))
            return candidates[order[:b]]

    g = np.random.default_rng(0)
    for i in range(50):
        b = int(g.integers(1, 5))
        m = int(g.integers(2, 5))
        pool = g.choice(200, size=b * m, replace=False).astype(np.int64)
        sel_a = TopK(g.random(200))
        sel_b = TopK(g.random(200))

        one = SeriesStrategy(sel_a, sel_b, kappas=(1.0, 1.0)).select(None, pool, b, (i,))
        assert set(one.tolist()) == set(sel_a.select(None, pool, b, (0,)).tolist())

        full = SeriesStrategy(sel_a, sel_b, kappas=(float(m), 1.0)).select(None, pool, b, (i,))
        assert set(full.tolist()) == set(sel_b.select(None, pool, b, (0,)).tolist())

        b1, b2 = int(g.integers(1, 4)), int(g.integers(1, 4))
        hpool = g.choice(200, size=b1 + b2 + int(g.integers(2, 8)), replace=False).astype(np.int64)
        hyb = HybridStrategy(sel_a, sel_a, [b1, b2]).select(None, hpool, b1 + b2, (i,))
        assert set(hyb.tolist()) == set(sel_a.select(None, hpool, b1 + b2, (0,)).tolist())
    _report(2, t0, "3 laws x 50 instances, exact index sets")


def test_criterion_3_greedy_vs_exhaustive_oracles():
    t0 = time.perf_counter()
    g = np.random.default_rng(1)
    for _ in range(200):
        n = int(g.integers(3, 11))
        b = int(g.integers(1, min(n, 4)))
        pool = g.normal(size=(n, 2))
        picks = select_k_centers(pool, np.zeros((0, 2)), b)
        d = np.linalg.norm(pool[:, None, :] - pool[None, :, :], axis=2)
        greedy = d[:, picks].min(axis=1).max()
        opt = min(
            d[:, list(c)].min(axis=1).max() for c in itertools.combinations(range(n), b)
        )
        assert greedy <= 2.0 * opt + 1e-12, f"radius {greedy} > 2 x {opt}"

    bound = 1.0 - 1.0 / math.e
    for _ in range(100):
        n = int(g.integers(4, 13))
        b = int(g.integers(1, 4))
        pool = g.random((n, 3))
        val = facility_location_value(pool, select_facility_location(pool, b))
        opt = max(
            facility_location_value(pool, np.array(c))
            for c in itertools.combinations(range(n), b)
        )
        assert val >= bound * opt - TOL, f"coverage {val} < (1-1/e) x {opt}"
    assert time.perf_counter() - t0 < 60.0
    _report(3, t0, "200 k-center + 100 facility instances")


def test_criterion_4_statistics_engine():
    t0 = time.perf_counter()
    a = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
    assert t_score(a, a.copy()) == 0.0
    assert t_score(a + 0.1, a) == math.inf
    base = np.full(5, 0.5)
    diffs = np.array([0.1, 0.2, 0.0, 0.1, 0.1])
    assert abs(t_score(base + diffs, base) - 3.1622776601683795) <= TOL
    assert abs(t_score(base + diffs, base) + t_score(base, base + diffs)) <= TOL

    lo = np.full((4, 5), 0.5)
    assert winning_rate(lo + 0.2, lo) == 1.0
    assert winning_rate(lo, lo + 0.2) == 0.0
    assert winning_rate(lo, lo.copy()) == 0.0
    noisy = np.array([0.1, -0.1, 0.1, -0.1, 0.0])  # t well under critical
    crafted_a = np.vstack([base, base + 0.1, base + noisy])
    crafted_b = np.vstack([base, base, base])
    assert winning_rate(crafted_a, crafted_b) == pytest.approx(1 / 3, abs=TOL)

    from acqbench.evaluation import AccuracyTable

    g = np.random.default_rng(2)
    for _ in range(20):
        k = int(g.integers(2, 6))
        tables = [
            AccuracyTable(f"s{i}", tuple(range(5)), 0.5 + 0.3 * g.random((6, 5)))
            for i in range(k)
        ]
        hm = compute_heatmap(tables)
        assert np.all(np.diag(hm.matrix) == 0.0)
        assert np.all(hm.matrix + hm.matrix.T <= 1.0 + TOL)
        assert np.all((hm.matrix >= 0.0) & (hm.matrix <= 1.0))
    _report(4, t0, "t/win oracles to 1e-9 + 20 random heatmaps")


def test_criterion_5_schedule_exactness():
    t0 = time.perf_counter()
    sched = AnnealingSchedule(5, 5, 5, 1.5)
    got = [annealing_phase(sched, t) for t in range(1, 21)]
    assert got == [EXPLORE] * 5 + [EXPLOIT] * 5 + [EXPLORE] * 5 + [EXPLOIT] * 5
    assert exploit_lengths(sched, 4) == [5, 7, 10, 15]

    g = np.random.default_rng(3)
    for _ in range(10**4):
        state = FeedbackState()
        for loss in g.random(12) * 4.0:
            state = feedback_update(state, float(loss))
            assert 0.1 <= state.beta <= 0.9
    _report(5, t0, "phase recital + 10^4 loss sequences in bounds")


def test_criterion_6_inference_cost_formulas():
    t0 = time.perf_counter()
    train = make_blobs(1100, np.array([[0.0, 0.0], [6.0, 0.0]]), 0.8, seed=0)
    test = make_blobs(100, np.array([[0.0, 0.0], [6.0, 0.0]]), 0.8, seed=1)

    def run(spec):
        cfg = ExperimentConfig(
            train_ds=train, test_ds=test, strategy_spec=spec, seed=0,
            hidden=16, dropout=0.3, lr=0.05, epochs=3, minibatch=32,
            n_passes=5, initial_labeled=200, rounds=1, budget=50,
        )
        return run_experiment(cfg).rows[0]

    # round 1: pool = 2200 - 200 = 2000 candidates, 200 labeled
    bald_row = run({"kind": "bald"})
    assert bald_row.n_infer == 5 * 2000 == 10000
    assert bald_row.n_infer_mc == 10000 and bald_row.n_infer_features == 0

    kc_row = run({"kind": "k_centers"})
    assert kc_row.n_infer == 2000 + 200 == 2200
    assert kc_row.n_infer_features == 2200 and kc_row.n_infer_mc == 0

    series_row = run({
        "kind": "series",
        "params": {"kappas": [2, 1]},
        "constituents": [{"kind": "k_centers"}, {"kind": "bald"}],
    })
    assert series_row.n_infer == (2000 + 200) + 2 * 50 * 5 == 2700
    assert series_row.n_infer_features == 2200
    assert series_row.n_infer_mc == 500

    ratio = bald_row.n_infer / series_row.n_infer
    assert ratio >= 3.7, f"series saves only {ratio:.2f}x"
    assert time.perf_counter() - t0 < 120.0
    _report(6, t0, f"10000 / 2200 / 2700 inferences, {ratio:.2f}x saving")


def test_criterion_7_toy_benchmark_ordering(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "toy"
    rc = main(["toy", "--out", str(out), "--seeds", "0..9", "--rounds", "20"])
    assert rc == 0

    def median_final(name):
        with open(out / name / "accuracy_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        finals = [float(v) for v in rows[-1][1:]]
        assert len(finals) == 10
        return float(np.median(finals))

    rand = median_final("random")
    lc = median_final("least_confident")
    kc = median_final("k_centers")
    assert kc >= rand + 0.03, f"k_centers {kc:.4f} < random {rand:.4f} + 0.03"
    assert rand >= lc + 0.02, f"random {rand:.4f} < least_confident {lc:.4f} + 0.02"
    assert kc >= 0.88, f"k_centers median {kc:.4f} < 0.88"
    assert time.perf_counter() - t0 < 600.0
    _report(7, t0, f"medians lc={lc:.4f} rand={rand:.4f} kc={kc:.4f}")


def _small_config(out_dir):
    return {
        "dataset": {
            "kind": "blobs",
            "params": {"n_per_class": 40, "centers": [[0.0, 0.0], [4.0, 0.0]],
                       "spread": 0.6, "seed": 1},
        },
        "model": {"hidden": 8, "dropout": 0.3},
        "train": {"lr": 0.05, "epochs": 4, "minibatch": 16},
        "mc": {"n_passes": 3},
        "al": {"M": 5, "T": 3, "b": 4},
        "strategy": {"kind": "bald"},
        "seeds": [0, 1, 2],
        "output_dir": str(out_dir),
    }


def test_criterion_8_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_small_config(tmp_path / "unused")))

    for cmd in (["run", "--seed", "1"], ["sweep"], ["sweep", "--jobs", "2"]):
        outs = []
        for rep in ("a", "b"):
            root = tmp_path / f"{cmd[0]}_{'_'.join(cmd[1:])}{rep}"
            rc = main([cmd[0], "--config", str(cfg_path), "--out", str(root), *cmd[1:]])
            assert rc == 0
            outs.append(sorted(root.rglob("*.csv")))
        assert [p.relative_to(p.parents[2]) for p in outs[0]] == [
            p.relative_to(p.parents[2]) for p in outs[1]
        ]
        for pa, pb in zip(*outs):
            assert pa.read_bytes() == pb.read_bytes(), f"{pa} differs on rerun"

    # sequential and parallel sweeps of the same config also agree
    a = (tmp_path / "sweep_a" / "bald" / "0" / "record.csv").read_bytes()
    b = (tmp_path / "sweep_--jobs_2a" / "bald" / "0" / "record.csv").read_bytes()
    assert a == b
    _report(8, t0, "run/sweep/parallel sweep all byte-identical")


def test_criterion_9_desk_scale_heatmap_pipeline(tmp_path):
    t0 = time.perf_counter()
    strategies = [
        {"kind": "random"},
        {"kind": "bald"},
        {"kind": "k_centers"},
        {"kind": "badge"},
        {"kind": "series", "params": {"kappas": [2, 1]},
         "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
        {"kind": "random_alternate",
         "constituents": [{"kind": "bald"}, {"kind": "badge"}]},
    ]
    results = tmp_path / "results"
    base = {
        "dataset": {"kind": "grid",
                    "params": {"cells_per_side": 4, "n_per_cell": 25,
                               "spread": 0.12, "seed": 0}},
        "model": {"hidden": 24, "dropout": 0.2},
        "train": {"lr": 0.1, "epochs": 80, "minibatch": 32},
        "mc": {"n_passes": 5},
        "al": {"M": 10, "T": 10, "b": 10},
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": str(results),
    }
    for i, spec in enumerate(strategies):
        cfg = copy.deepcopy(base)
        cfg["strategy"] = spec
        path = tmp_path / f"cfg_{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0

    assert main(["compare", str(results)]) == 0
    with open(results / "heatmap.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:-1]
    assert len(names) == 6
    assert "series_k_centers_bald_k2x1" in names
    assert "random_alt_bald_badge" in names
    matrix = np.array([[float(v) for v in row[1:-1]] for row in rows[1:]])
    assert np.all(np.diag(matrix) == 0.0)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert np.all(matrix + matrix.T <= 1.0 + TOL)
    averages = np.array([float(row[-1]) for row in rows[1:]])
    np.testing.assert_allclose(averages, matrix.sum(axis=1) / 5, atol=TOL)
    assert (results / "heatmap.svg").is_file()
    assert time.perf_counter() - t0 < 1800.0
    _report(9, t0, "6 strategies x 5 seeds, all matrix invariants hold")
