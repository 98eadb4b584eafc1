"""Tests for dataset generators, CSV loading, and splitting."""

import math

import numpy as np
import pytest

from acqbench.datasets import Dataset, load_csv, make_blobs, make_grid_toy, split


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
        assert len(ds) == 3
        assert ds.n_classes == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)

    def test_rejects_fractional_labels(self):
        with pytest.raises(ValueError, match="integers"):
            Dataset(np.zeros((3, 2)), [0.5, 1.9, 0.0], 2)

    def test_callers_arrays_stay_writeable_and_detached(self):
        X, y = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = Dataset(X, y, 2)
        assert X.flags.writeable and y.flags.writeable
        X[0, 0], y[0] = 9.0, 1
        assert ds.X[0, 0] == 0.0 and ds.y[0] == 0
        assert not ds.X.flags.writeable and not ds.y.flags.writeable

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 2)

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)

    def test_arrays_read_only(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0


class TestGridToy:
    def test_size_and_balance(self):
        ds = make_grid_toy(cells_per_side=4, n_per_cell=25)
        assert len(ds) == 400
        assert ds.n_classes == 2
        assert (ds.y == 0).sum() == 200
        assert (ds.y == 1).sum() == 200

    def test_tiny_spread_nearest_centroid_is_perfect(self):
        c = 4
        ds = make_grid_toy(cells_per_side=c, n_per_cell=10, spread=1e-6, seed=1)
        mid = (c - 1) / 2.0
        centers = np.array([[i - mid, j - mid] for i in range(c) for j in range(c)])
        labels = np.array([(i + j) % 2 for i in range(c) for j in range(c)])
        d = np.linalg.norm(ds.X[:, None, :] - centers[None, :, :], axis=2)
        pred = labels[d.argmin(axis=1)]
        assert (pred == ds.y).mean() == 1.0

    def test_centered_at_origin(self):
        ds = make_grid_toy(cells_per_side=5, n_per_cell=40, spread=0.05, seed=2)
        assert np.abs(ds.X.mean(axis=0)).max() < 0.05

    def test_deterministic(self):
        a = make_grid_toy(seed=7)
        b = make_grid_toy(seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        c = make_grid_toy(seed=8)
        assert not np.array_equal(a.X, c.X)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_grid_toy(cells_per_side=1)
        with pytest.raises(ValueError):
            make_grid_toy(n_per_cell=0)
        with pytest.raises(ValueError):
            make_grid_toy(spread=-0.1)


class TestBlobs:
    CENTERS = np.array([[0.0, 0.0], [6.0, 0.0]])

    def test_balanced_and_labeled_by_center(self):
        ds = make_blobs(50, self.CENTERS, 0.5, seed=3)
        assert len(ds) == 100
        np.testing.assert_array_equal(ds.y, np.repeat([0, 1], 50))

    def test_tiny_spread_linearly_separable(self):
        ds = make_blobs(100, self.CENTERS, 0.5, seed=4)
        # midline x0 = 3 separates the blobs at this spread (6 sigma apart)
        pred = (ds.X[:, 0] > 3.0).astype(int)
        assert (pred == ds.y).mean() == 1.0

    def test_deterministic(self):
        a = make_blobs(20, self.CENTERS, 0.3, seed=5)
        b = make_blobs(20, self.CENTERS, 0.3, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        c = make_blobs(20, self.CENTERS, 0.3, seed=6)
        assert not np.array_equal(a.X, c.X)

    def test_validation(self):
        with pytest.raises(ValueError, match="^centers must have at least 2 rows, got 1$"):
            make_blobs(10, np.zeros((1, 2)), 0.5)
        with pytest.raises(ValueError):
            make_blobs(10, np.zeros((2, 2)), 0.5)  # duplicate centers
        with pytest.raises(ValueError):
            make_blobs(0, self.CENTERS, 0.5)
        with pytest.raises(ValueError):
            make_blobs(10, self.CENTERS, -1.0)


class TestLoadCsv:
    def test_three_row_round_trip(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("1.5,2.5,0\n3.5,4.5,1\n5.5,6.5,0\n")
        ds = load_csv(str(p), 2)
        np.testing.assert_allclose(ds.X, [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]])
        np.testing.assert_array_equal(ds.y, [0, 1, 0])
        assert ds.n_classes == 2

    def test_label_remap_sorted(self):
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
            fh.write("0.0,9\n1.0,5\n2.0,9\n")
            name = fh.name
        try:
            ds = load_csv(name, 1)
            np.testing.assert_array_equal(ds.y, [1, 0, 1])  # 5 -> 0, 9 -> 1
        finally:
            os.unlink(name)

    def test_header_and_named_column(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("a,b,target\n1,2,0\n3,4,1\n")
        ds = load_csv(str(p), "target")
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/file.csv", 0)

    def test_ragged_row_diagnostic(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,0\n3,4\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(p), 2)

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,0\n3,oops,1\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(str(p), 2)

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "frac.csv"
        p.write_text("1,2,0.5\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_csv(str(p), 2)

    def test_unknown_named_column(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("a,b\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(str(p), "c")

    @pytest.mark.parametrize("text,column,message", [
        ("", 0, "empty file"),
        ("\n\n", 0, "empty file"),
        ("a,b,target\n", "target", "header but no data rows"),
        ("1,2,0\n3,4,1\n", "target", "label column 'target' needs a header row"),
    ])
    def test_shape_diagnostics(self, tmp_path, text, column, message):
        p = tmp_path / "shape.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(str(p), column)

    def test_negative_column_index(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("1,2,0\n3,4,1\n")
        ds = load_csv(str(p), -1)
        np.testing.assert_array_equal(ds.y, [0, 1])


class TestSplit:
    def _toy(self, n=10):
        return Dataset(np.arange(2 * n, dtype=float).reshape(n, 2),
                       np.arange(n) % 2, 2)

    def test_sizes(self):
        for n, f in [(10, 0.3), (10, 0.25), (7, 0.5), (100, 0.2)]:
            tr, te = split(self._toy(n), f, seed=0)
            assert len(tr) == math.ceil(n * (1 - f))
            assert len(te) == n - len(tr)

    def test_disjoint_union_is_original(self):
        ds = self._toy(12)
        tr, te = split(ds, 0.25, seed=1)
        rows = np.vstack([tr.X, te.X])
        # every original row appears exactly once across the two sides
        original = sorted(map(tuple, ds.X))
        assert sorted(map(tuple, rows)) == original

    def test_deterministic(self):
        ds = self._toy(20)
        a_tr, a_te = split(ds, 0.3, seed=5)
        b_tr, b_te = split(ds, 0.3, seed=5)
        np.testing.assert_array_equal(a_tr.X, b_tr.X)
        np.testing.assert_array_equal(a_te.X, b_te.X)
        c_tr, _ = split(ds, 0.3, seed=6)
        assert not np.array_equal(a_tr.X, c_tr.X)

    def test_sides_keep_row_order(self):
        ds = self._toy(15)
        tr, te = split(ds, 0.4, seed=2)
        assert np.all(np.diff(tr.X[:, 0]) > 0)
        assert np.all(np.diff(te.X[:, 0]) > 0)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(self._toy(), 0.0)
        with pytest.raises(ValueError):
            split(self._toy(), 1.0)

    @pytest.mark.parametrize("n,fraction,message", [
        (10, 0.01, "degenerate split: 10 train of 10 rows"),
        (1, 0.5, "degenerate split: 1 train of 1 rows"),
    ])
    def test_degenerate_split_rejected(self, n, fraction, message):
        with pytest.raises(ValueError, match=message):
            split(self._toy(n), fraction)
