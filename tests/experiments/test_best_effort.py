"""Tests for the reservation-vs-best-effort comparison (extension)."""

import pytest

from repro.experiments.best_effort import (
    render_best_effort,
    run_best_effort_comparison,
)


@pytest.fixture(scope="module")
def rows():
    return run_best_effort_comparison(intervals=(12.0, 40.0, 85.0), n_jobs=200)


class TestBestEffortComparison:
    def test_structure(self, rows):
        assert [r.interval for r in rows] == [12.0, 40.0, 85.0]
        for r in rows:
            assert r.offered == 200
            assert 0 <= r.edf_goodput_utilization <= r.edf_utilization <= 1 + 1e-9

    def test_reservations_win_under_overload(self, rows):
        overloaded = rows[0]
        assert overloaded.reservation_on_time > overloaded.edf_on_time

    def test_edf_wastes_work_under_overload(self, rows):
        assert rows[0].edf_wasted_area > 0

    def test_convergence_under_light_load(self, rows):
        light = rows[-1]
        ratio = light.edf_on_time / max(light.reservation_on_time, 1)
        assert ratio > 0.85

    def test_render(self, rows):
        text = render_best_effort(rows)
        assert "resv_on_time" in text
        assert "edf_wasted" in text


def test_best_effort_fields_are_pinned_exactly():
    # Any change to the executor's event order or dispatch rule moves these.
    rows = run_best_effort_comparison(intervals=(12.0, 40.0), n_jobs=200)
    assert [
        (
            r.interval,
            r.offered,
            r.edf_on_time,
            r.edf_utilization,
            r.edf_goodput_utilization,
            r.edf_wasted_area,
        )
        for r in rows
    ] == [
        (12.0, 200, 18, 0.8905957650878741, 0.3271576279914639, 24800.0),
        (40.0, 200, 106, 0.7832548848990321, 0.6016305637630246, 25600.0),
    ]
