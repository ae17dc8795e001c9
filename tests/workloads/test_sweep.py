"""Unit tests for the sweep harness."""

import pytest

from repro.errors import ScheduleConsistencyError, WorkloadError
from repro.workloads import presets
from repro.workloads.sweep import SYSTEMS, SweepConfig, run_point, run_sweep


@pytest.fixture
def tiny_config():
    return SweepConfig(n_jobs=60, seed=11)


class TestConfig:
    def test_axis_interval(self, tiny_config):
        assert tiny_config.with_axis("interval", 42.0).interval == 42.0

    def test_axis_laxity(self, tiny_config):
        assert tiny_config.with_axis("laxity", 0.8).params.laxity == 0.8

    def test_axis_processors(self, tiny_config):
        assert tiny_config.with_axis("processors", 64).processors == 64

    def test_axis_alpha(self, tiny_config):
        assert tiny_config.with_axis("alpha", 0.25).params.alpha == 0.25

    def test_unknown_axis(self, tiny_config):
        with pytest.raises(WorkloadError):
            tiny_config.with_axis("nope", 1.0)


class TestRunPoint:
    def test_each_system(self, tiny_config):
        for system in SYSTEMS:
            m = run_point(tiny_config, system)
            assert m.offered == 60
            assert 0 <= m.utilization <= 1.0 + 1e-9

    def test_unknown_system(self, tiny_config):
        with pytest.raises(WorkloadError):
            run_point(tiny_config, "shape9")

    def test_deterministic(self, tiny_config):
        a = run_point(tiny_config, "tunable")
        b = run_point(tiny_config, "tunable")
        assert a.throughput == b.throughput
        assert a.utilization == b.utilization

    def test_seed_changes_arrivals(self, tiny_config):
        from dataclasses import replace

        a = run_point(tiny_config, "tunable")
        b = run_point(replace(tiny_config, seed=99), "tunable")
        assert a.horizon != b.horizon

    def test_malleable_flag(self, tiny_config):
        from dataclasses import replace

        m = run_point(replace(tiny_config, malleable=True), "shape1")
        assert m.offered == 60


class TestRunSweep:
    def test_structure(self, tiny_config):
        sweep = run_sweep("interval", [20.0, 40.0], tiny_config)
        assert sweep.values == (20.0, 40.0)
        assert set(sweep.systems) == set(SYSTEMS)
        assert set(sweep.rows.keys()) == {20.0, 40.0}

    def test_series_and_benefit(self, tiny_config):
        sweep = run_sweep("interval", [20.0, 40.0], tiny_config)
        tun = sweep.series("tunable", "throughput")
        b1 = sweep.benefit("throughput", "shape1")
        s1 = sweep.series("shape1", "throughput")
        assert [t - s for t, s in zip(tun, s1)] == b1

    def test_to_rows(self, tiny_config):
        sweep = run_sweep("laxity", [0.2, 0.8], tiny_config, systems=("tunable",))
        rows = sweep.to_rows()
        assert len(rows) == 2
        assert rows[0]["axis"] == "laxity"
        assert "throughput" in rows[0]

    def test_common_random_numbers(self, tiny_config):
        """All systems at one point see identical arrival sequences."""
        sweep = run_sweep("interval", [30.0], tiny_config)
        horizons = {
            system: sweep.rows[30.0][system].offered for system in SYSTEMS
        }
        assert len(set(horizons.values())) == 1


def test_every_unit_validates_its_admissions(tiny_config, monkeypatch):
    """Verification is not a knob: a sweep unit checks every admitted
    placement as it runs, so a planted inconsistency stops the run."""
    from repro.core.placement import ChainPlacement

    def planted(self):
        raise ScheduleConsistencyError("planted")

    monkeypatch.setattr(ChainPlacement, "validate", planted)
    with pytest.raises(ScheduleConsistencyError, match="planted"):
        run_point(tiny_config, "tunable")
