"""Unit tests for table rendering."""

import pytest

from repro.analysis.tables import format_sweep, format_table
from repro.errors import ConfigurationError
from repro.workloads.sweep import SweepConfig, run_sweep


class TestFormatTable:
    def test_basic(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        lines = text.strip().split("\n")
        assert lines[0].split() == ["a", "b"]
        assert "2.500" in text
        assert "0.125" in lines[-1]

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_title(self):
        assert format_table([{"a": 1}], title="T").startswith("T\n")

    def test_column_selection_and_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        assert text.strip().split("\n")[0].split() == ["b", "a"]

    def test_missing_cells(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "-" in text

    def test_precision(self):
        text = format_table([{"x": 1 / 3}], precision=1)
        assert "0.3" in text and "0.33" not in text

    def test_no_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([{"a": 1}], columns=[])

    def test_alignment(self):
        text = format_table([{"metric": 1}, {"metric": 100}])
        lines = text.strip().split("\n")
        assert len(lines[2]) == len(lines[3])


@pytest.fixture(scope="module")
def sweep():
    return run_sweep("interval", [20.0, 50.0], SweepConfig(n_jobs=50, seed=5))


class TestFormatSweep:
    def test_renders_systems_as_columns(self):
        sweep = run_sweep(
            "interval", [25.0, 50.0], SweepConfig(n_jobs=40, seed=1)
        )
        text = format_sweep(sweep, "throughput")
        header = text.strip().split("\n")[1]
        assert "tunable" in header
        assert "shape1" in header
        assert "interval" in header

    def test_one_row_per_value(self, sweep):
        lines = format_sweep(sweep, "throughput").strip().split("\n")
        assert lines[0] == "throughput vs interval"
        assert lines[1].split() == ["interval", *sweep.systems]
        assert set(lines[2]) == {"-"}
        assert len(lines) == 3 + len(sweep.values)

    def test_axis_values_render_with_g(self, sweep):
        rows = format_sweep(sweep).strip().split("\n")[3:]
        assert [row.split()[0] for row in rows] == ["20", "50"]

    def test_float_metric_precision(self, sweep):
        row = format_sweep(sweep, "utilization", precision=2).split("\n")[3]
        cells = row.split()[1:]
        assert len(cells) == len(sweep.systems)
        assert all(len(c.split(".")[1]) == 2 for c in cells)
