"""Tests for repro.utils: grids, tables, csvio, ascii_plot, timing."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.grids import log_grid, periodic_grid, uniform_grid
from repro.utils import (
    WallTimer,
    ascii_plot,
    format_table,
    read_csv,
    write_csv,
)


class TestGrids:
    def test_uniform_grid_endpoints(self):
        grid = uniform_grid(1.0, 2.0, 5)
        assert grid[0] == 1.0 and grid[-1] == 2.0 and grid.size == 5

    def test_uniform_grid_rejects_single_point(self):
        with pytest.raises(ValidationError):
            uniform_grid(0.0, 1.0, 1)

    def test_uniform_grid_rejects_reversed(self):
        with pytest.raises(ValidationError):
            uniform_grid(2.0, 1.0, 5)

    def test_periodic_grid_excludes_endpoint(self):
        grid = periodic_grid(1.0, 4)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75])

    def test_periodic_grid_spacing(self):
        grid = periodic_grid(2.0, 5)
        np.testing.assert_allclose(np.diff(grid), 0.4)

    def test_log_grid_positive_only(self):
        with pytest.raises(ValidationError):
            log_grid(0.0, 1.0, 3)

    def test_log_grid_geometric(self):
        grid = log_grid(1.0, 100.0, 3)
        np.testing.assert_allclose(grid, [1.0, 10.0, 100.0])


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[1.23456789]], float_format="{:.2f}")
        assert "1.23" in text


class TestCsvIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        t = np.linspace(0, 1, 5)
        y = t**2
        write_csv(path, ["t", "y"], [t, y])
        headers, cols = read_csv(path)
        assert headers == ["t", "y"]
        np.testing.assert_allclose(cols[0], t)
        np.testing.assert_allclose(cols[1], y)

    def test_rejects_mismatched_headers(self, tmp_path):
        with pytest.raises(ValueError, match="headers"):
            write_csv(tmp_path / "x.csv", ["a"], [np.arange(3), np.arange(3)])

    def test_rejects_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError, match="unequal"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.arange(4)])

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "sub" / "dir" / "out.csv"
        write_csv(path, ["t"], [np.arange(2)])
        assert path.exists()


class TestAsciiPlot:
    def test_contains_data_markers(self):
        t = np.linspace(0, 1, 50)
        text = ascii_plot(t, np.sin(2 * np.pi * t), width=40, height=10)
        assert "*" in text

    def test_title_and_labels(self):
        text = ascii_plot([0, 1], [0, 1], title="T", xlabel="x", ylabel="y")
        assert "T" in text and "x" in text and "y" in text

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_plot([0, 1], [0, 1, 2])

    def test_constant_signal_does_not_crash(self):
        text = ascii_plot([0, 1, 2], [1.0, 1.0, 1.0])
        assert "*" in text


class TestWallTimer:
    def test_measures_nonnegative(self):
        with WallTimer() as timer:
            sum(range(100))
        assert timer.elapsed >= 0.0

    def test_restart_resets(self):
        with WallTimer() as timer:
            pass
        timer.restart()
        assert timer.elapsed == 0.0
