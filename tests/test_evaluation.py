"""Tests for paired t-scores, winning rates, and the all-pairs heatmap."""

import csv
import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import stats

from acqbench.evaluation import (
    AccuracyTable,
    WinningRateMatrix,
    accuracy_table,
    compute_heatmap,
    heatmap_csv_text,
    heatmap_svg_text,
    t_score,
    winning_rate,
)
from acqbench.simulator import RoundRow, RunRecord


def _record(strategy, seed, accs):
    rows = tuple(
        RoundRow(round=t, n_labeled=10 + t, test_accuracy=float(acc),
                 batch_loss_prev_model=0.5, strategy_tag=strategy, acq_ms=0.0,
                 train_ms=0.0, n_infer=0, n_infer_mc=0, n_infer_features=0,
                 selected=())
        for t, acc in enumerate(accs, start=1)
    )
    return RunRecord(strategy=strategy, seed=seed, initial_accuracy=0.5, rows=rows)


def _table(name, data, seeds=None):
    data = np.asarray(data, dtype=float)
    seeds = tuple(range(data.shape[1])) if seeds is None else tuple(seeds)
    return AccuracyTable(name, seeds, data)


class TestTScore:
    def test_identical_runs_zero(self):
        a = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        assert t_score(a, a.copy()) == 0.0

    def test_constant_gap_signed_infinity(self):
        a = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        assert t_score(a + 0.1, a) == math.inf
        assert t_score(a - 0.1, a) == -math.inf

    def test_hand_oracle(self):
        # diffs [0.1, 0.2, 0.0, 0.1, 0.1]: mean 0.1, sd sqrt(0.005)
        b = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        a = b + np.array([0.1, 0.2, 0.0, 0.1, 0.1])
        want = math.sqrt(5) * 0.1 / math.sqrt(0.005)
        assert t_score(a, b) == pytest.approx(3.1622776601683795, abs=1e-9)
        assert t_score(a, b) == pytest.approx(want, abs=1e-12)

    def test_matches_scipy(self):
        g = np.random.default_rng(0)
        for _ in range(25):
            a, b = g.random(8), g.random(8)
            want = stats.ttest_rel(a, b).statistic
            assert t_score(a, b) == pytest.approx(want, abs=1e-10)

    def test_antisymmetry(self):
        g = np.random.default_rng(1)
        for _ in range(25):
            a, b = g.random(6), g.random(6)
            assert t_score(a, b) == pytest.approx(-t_score(b, a), abs=1e-12)
        c = np.full(4, 0.5)
        assert t_score(c + 0.1, c) == -t_score(c, c + 0.1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            t_score(np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            t_score(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            t_score(np.ones((2, 2)), np.ones((2, 2)))


class TestWinningRate:
    def test_total_dominance(self):
        b = np.full((4, 5), 0.5)
        assert winning_rate(b + 0.2, b) == 1.0
        assert winning_rate(b, b + 0.2) == 0.0

    def test_identical_tables(self):
        a = np.random.default_rng(0).random((6, 5))
        assert winning_rate(a, a.copy()) == 0.0

    def test_exactly_one_round_of_three_wins(self):
        base = np.full(5, 0.5)
        a = np.vstack([base, base + 0.1, base + np.array([0.1, -0.1, 0.1, -0.1, 0.0])])
        b = np.vstack([base, base, base])
        assert winning_rate(a, b) == pytest.approx(1 / 3)

    def test_accepts_tables(self):
        a = _table("a", np.full((3, 5), 0.7))
        b = _table("b", np.full((3, 5), 0.5))
        assert winning_rate(a, b) == 1.0

    def test_critical_value_gates_wins(self):
        base = np.full(5, 0.5)
        diffs = np.array([0.1, 0.2, 0.0, 0.1, 0.1])  # t ~ 3.1623
        a, b = (base + diffs)[None, :], base[None, :]
        assert winning_rate(a, b, critical=2.776) == 1.0
        assert winning_rate(a, b, critical=3.2) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            winning_rate(np.ones((2, 5)), np.ones((3, 5)))


class TestAccuracyTable:
    def test_assembled_from_records_in_seed_order(self):
        recs = [
            _record("bald", 3, [0.6, 0.7]),
            _record("bald", 1, [0.5, 0.8]),
        ]
        table = accuracy_table(recs)
        assert table.name == "bald"
        assert table.seeds == (1, 3)
        np.testing.assert_allclose(table.data, [[0.5, 0.6], [0.8, 0.7]])

    def test_mixed_strategies_rejected(self):
        with pytest.raises(ValueError):
            accuracy_table([_record("a", 0, [0.5]), _record("b", 1, [0.5])])

    def test_round_count_disagreement_rejected(self):
        with pytest.raises(ValueError):
            accuracy_table([_record("a", 0, [0.5]), _record("a", 1, [0.5, 0.6])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_table([])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            AccuracyTable("a", (1, 1), np.ones((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AccuracyTable("a", (0, 1), np.array([[0.5, np.nan]]))


class TestHeatmap:
    def test_dominant_two_strategy_matrix(self):
        hi = _table("hi", np.full((4, 5), 0.9))
        lo = _table("lo", np.full((4, 5), 0.5))
        hm = compute_heatmap([hi, lo])
        np.testing.assert_allclose(hm.matrix, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(hm.row_averages(), [1.0, 0.0])

    def test_identical_data_all_zero(self):
        data = np.random.default_rng(2).random((5, 5))
        hm = compute_heatmap([_table("a", data), _table("b", data.copy())])
        np.testing.assert_allclose(hm.matrix, np.zeros((2, 2)))

    def test_matches_pairwise_calls(self):
        g = np.random.default_rng(3)
        tables = [_table(n, 0.5 + 0.1 * g.random((6, 5))) for n in "abc"]
        hm = compute_heatmap(tables)
        for i in range(3):
            for j in range(3):
                want = 0.0 if i == j else winning_rate(tables[i], tables[j])
                assert hm.matrix[i, j] == want

    def test_randomized_invariants(self):
        g = np.random.default_rng(4)
        for _ in range(20):
            k = int(g.integers(2, 5))
            tables = [_table(f"s{i}", 0.5 + 0.2 * g.random((5, 5))) for i in range(k)]
            hm = compute_heatmap(tables)
            assert np.all(np.diag(hm.matrix) == 0.0)
            assert np.all((hm.matrix >= 0.0) & (hm.matrix <= 1.0))
            # a round has at most one winner per pair
            assert np.all(hm.matrix + hm.matrix.T <= 1.0 + 1e-12)
            np.testing.assert_allclose(
                hm.row_averages(), hm.matrix.sum(axis=1) / (k - 1)
            )

    def test_seed_pairing_enforced(self):
        a = _table("a", np.ones((2, 3)), seeds=(0, 1, 2))
        b = _table("b", np.ones((2, 3)), seeds=(0, 1, 5))
        with pytest.raises(ValueError, match="seeds"):
            compute_heatmap([a, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_heatmap([_table("a", np.ones((2, 3))), _table("b", np.ones((3, 3)))])

    def test_duplicate_names_rejected(self):
        data = np.ones((2, 2))
        with pytest.raises(ValueError):
            compute_heatmap([_table("a", data), _table("a", data)])


class TestMatrixType:
    def test_row_average_excludes_diagonal(self):
        m = np.array([[0.7, 0.4], [0.2, 0.9]])
        hm = WinningRateMatrix(("a", "b"), m, 2.776)
        np.testing.assert_allclose(hm.row_averages(), [0.4, 0.2])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            WinningRateMatrix(("a", "b"), np.zeros((3, 3)), 2.776)

    def test_callers_arrays_stay_writeable_and_detached(self):
        m, acc = np.array([[0.0, 0.4], [0.2, 0.0]]), np.array([[0.5, 0.6]])
        hm = WinningRateMatrix(("a", "b"), m, 2.776)
        table = AccuracyTable("bald", (0, 1), acc)
        assert m.flags.writeable and acc.flags.writeable
        m[0, 1], acc[0, 0] = 1.0, 1.0
        assert hm.matrix[0, 1] == 0.4 and table.data[0, 0] == 0.5
        assert not hm.matrix.flags.writeable and not table.data.flags.writeable


class TestRendering:
    def _heatmap(self):
        hi = _table("alpha", np.full((3, 5), 0.9))
        lo = _table("beta", np.full((3, 5), 0.5))
        return compute_heatmap([hi, lo])

    def test_csv_round_trips(self):
        hm = self._heatmap()
        rows = list(csv.reader(io.StringIO(heatmap_csv_text(hm))))
        assert rows[0] == ["strategy", "alpha", "beta", "row_average"]
        assert rows[1][0] == "alpha"
        assert [float(v) for v in rows[1][1:]] == [0.0, 1.0, 1.0]
        assert [float(v) for v in rows[2][1:]] == [0.0, 0.0, 0.0]

    def test_svg_is_well_formed_and_labeled(self):
        svg = heatmap_svg_text(self._heatmap())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "alpha" in svg and "beta" in svg and "row_average" in svg
