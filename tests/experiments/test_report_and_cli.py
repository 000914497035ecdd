"""Tests for report formatting (text tables and ASCII plots).

The experiments CLI is the registry's; its tests are in
``test_experiment_registry.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ExperimentError
from repro.experiments.report import ascii_plot, format_table


@dataclass
class Row:
    name: str
    value: float
    count: int


ROWS = [Row("alpha", 1.2345678, 3), Row("beta", 1e-7, 42)]


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(ROWS, title="T")
        assert "T" in text
        assert "alpha" in text and "beta" in text
        assert "name" in text

    def test_scientific_for_small_values(self):
        assert "1.000e-07" in format_table(ROWS)

    def test_column_subset(self):
        text = format_table(ROWS, columns=["name"])
        assert "value" not in text

    def test_empty(self):
        assert "empty" in format_table([])


class TestAsciiPlot:
    def test_markers_and_legend(self):
        out = ascii_plot({"a": [(1, 1), (2, 2)], "b": [(1, 2)]}, width=20, height=5)
        assert "*" in out and "o" in out
        assert "a" in out and "b" in out

    def test_log_axes(self):
        out = ascii_plot({"s": [(1, 1e-6), (10, 1e-2)]}, logy=True, logx=True)
        assert "1e" in out

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ExperimentError):
            ascii_plot({"s": [(1, 0.0)]}, logy=True)

    def test_empty(self):
        assert "no data" in ascii_plot({})
