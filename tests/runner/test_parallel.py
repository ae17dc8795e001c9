"""Parallel/serial/remembered equivalence and failure-path behavior.

The contract under test: however a batch of work units is executed —
in-process, fanned out over worker processes, remembered by the runner,
or rescued from a dying pool — the merged results are identical; and a
runner remembers units for its own life only.
"""

from dataclasses import replace

import pytest

import repro.runner.core as runner_core
from repro.runner import ExperimentRunner, using_runner
from repro.runner.worker import _crashing_chunk, _interrupting_chunk
from repro.workloads.replicate import replicate_point
from repro.workloads.sweep import SweepConfig, run_sweep

#: Small but non-trivial: every unit admits jobs (no NaN metrics).
CFG = SweepConfig(n_jobs=120)
VALUES = (20.0, 35.0, 50.0)


def _rows(sweep):
    return [
        sweep.rows[v][s] for v in sweep.values for s in sweep.systems
    ]


def _count_run_point(monkeypatch) -> list[tuple[SweepConfig, str]]:
    """Record every unit the runner simulates in-process."""
    calls: list[tuple[SweepConfig, str]] = []
    real_run_point = runner_core.run_point

    def counting_run_point(config, system):
        calls.append((config, system))
        return real_run_point(config, system)

    monkeypatch.setattr(runner_core, "run_point", counting_run_point)
    return calls


class TestParallelSerialEquivalence:
    def test_sweep_jobs1_vs_jobs4(self):
        serial = run_sweep("interval", VALUES, CFG, runner=ExperimentRunner(jobs=1))
        parallel = run_sweep("interval", VALUES, CFG, runner=ExperimentRunner(jobs=4))
        assert serial.values == parallel.values
        assert serial.systems == parallel.systems
        assert _rows(serial) == _rows(parallel)

    def test_sweep_series_bitwise_equal(self):
        serial = run_sweep("interval", VALUES, CFG)
        parallel = run_sweep("interval", VALUES, CFG, runner=ExperimentRunner(jobs=2))
        for system in serial.systems:
            for metric in ("utilization", "throughput", "mean_response"):
                assert serial.series(system, metric) == parallel.series(
                    system, metric
                )

    def test_replicate_point_equivalence(self):
        seeds = (1, 2, 3)
        serial = replicate_point(CFG, seeds)
        parallel = replicate_point(CFG, seeds, runner=ExperimentRunner(jobs=4))
        assert serial.seeds == parallel.seeds
        for metric, systems in serial.metrics.items():
            for system, stat in systems.items():
                assert stat == parallel.metrics[metric][system]

    def test_default_runner_context(self):
        runner = ExperimentRunner(jobs=2)
        with using_runner(runner):
            sweep = run_sweep("interval", VALUES[:2], CFG)
        assert runner.perf_snapshot()["units_total"] == 2 * len(sweep.systems)

    def test_default_runner_remembers_one_call_only(self, monkeypatch):
        """With no runner installed, each library call starts afresh: a
        process-wide memo would answer a later call made under another
        decider (``kernels.use("python")``) with this one's results."""
        calls = _count_run_point(monkeypatch)
        first = run_sweep("interval", VALUES[:2], CFG, runner=None)
        second = run_sweep("interval", VALUES[:2], CFG, runner=None)
        assert _rows(first) == _rows(second)
        assert len(calls) == 2 * 2 * len(first.systems)


class TestCacheBehavior:
    """The runner's in-memory memo, keyed by ``(SweepConfig, system)``."""

    def test_second_run_all_hits_and_identical(self):
        runner = ExperimentRunner(jobs=1)
        cold = run_sweep("interval", VALUES, CFG, runner=runner)
        warm = run_sweep("interval", VALUES, CFG, runner=runner)
        assert _rows(cold) == _rows(warm)
        snap = runner.perf_snapshot()
        n_units = len(VALUES) * len(cold.systems)
        assert snap["units_reused"] == n_units
        assert snap["units_executed_inline"] == n_units

    @pytest.mark.parametrize(
        "change",
        [
            {"n_jobs": 121},
            {"seed": 9},
            {"processors": 17},
            {"malleable": True},
        ],
    )
    def test_any_config_change_invalidates(self, change):
        runner = ExperimentRunner()
        run_sweep("interval", VALUES[:1], CFG, runner=runner)
        run_sweep("interval", VALUES[:1], replace(CFG, **change), runner=runner)
        snap = runner.perf_snapshot()
        assert snap["units_reused"] == 0
        assert snap["units_executed_inline"] == 2 * len(VALUES[:1]) * 3

    def test_cross_experiment_overlap_hits(self, monkeypatch):
        # A coarser grid over the same axis is a subset of a finer one —
        # the fig6a/fig5a relationship: one invocation's runner runs each
        # shared point once.
        calls = _count_run_point(monkeypatch)
        runner = ExperimentRunner()
        run_sweep("interval", (20.0, 30.0, 40.0), CFG, runner=runner)
        coarse = run_sweep("interval", (20.0, 40.0), CFG, runner=runner)
        assert runner.perf_snapshot()["units_reused"] == 2 * 3
        assert len(calls) == len(set(calls)) == 3 * 3
        assert _rows(coarse) == _rows(run_sweep("interval", (20.0, 40.0), CFG))

    def test_dedup_within_one_batch(self):
        runner = ExperimentRunner()
        metrics = runner.run_units(
            [(CFG, "tunable"), (CFG, "shape1"), (CFG, "tunable")]
        )
        assert metrics[0] == metrics[2]
        snap = runner.perf_snapshot()
        assert snap["units_reused"] == 1
        assert snap["units_executed_inline"] == 2


class TestFailurePaths:
    def test_worker_crash_falls_back_in_process(self, monkeypatch):
        serial = run_sweep("interval", VALUES[:2], CFG)
        monkeypatch.setattr(runner_core, "run_unit_chunk", _crashing_chunk)
        broken = ExperimentRunner(jobs=2)
        rescued = run_sweep("interval", VALUES[:2], CFG, runner=broken)
        assert _rows(serial) == _rows(rescued)
        snap = broken.perf_snapshot()
        assert snap["pool_chunk_failures"] >= 1
        assert snap["pool_fallback_units"] == 2 * len(serial.systems)
        assert snap["units_executed_inline"] == 2 * len(serial.systems)

    def test_genuine_unit_error_reraises_after_fallback(self, monkeypatch):
        """The fallback re-runs a dead pool's units; a real error surfaces."""
        real_run_point = runner_core.run_point
        calls = {"n": 0}

        def failing_run_point(config, system):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("unit failed")
            return real_run_point(config, system)

        monkeypatch.setattr(runner_core, "run_point", failing_run_point)
        monkeypatch.setattr(runner_core, "run_unit_chunk", _crashing_chunk)
        units = [(CFG.with_axis("interval", v), "tunable") for v in VALUES]
        broken = ExperimentRunner(jobs=2)
        with pytest.raises(ValueError, match="unit failed"):
            broken.run_units(units)
        # The unit finished before the error is remembered; the rest run.
        monkeypatch.setattr(runner_core, "run_point", real_run_point)
        broken.run_units(units)
        snap = broken.perf_snapshot()
        assert snap["units_reused"] == 1
        assert snap["units_executed_inline"] == len(units)

    def test_pool_workers_are_spawned_not_forked(self, monkeypatch):
        contexts = []

        class RecordingPool(runner_core.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                contexts.append(kwargs.get("mp_context"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_core, "ProcessPoolExecutor", RecordingPool)
        runner = ExperimentRunner(jobs=2)
        runner.run_units([(CFG, "tunable"), (CFG, "shape1")])
        assert runner.perf_snapshot()["units_executed_pool"] == 2
        assert len(contexts) == 1 and contexts[0] is not None
        assert contexts[0].get_start_method() == "spawn"

    def test_inline_interrupt_flushes_completed_units(self, monkeypatch):
        """Ctrl-C between inline units loses only the unit in flight."""
        real_run_point = runner_core.run_point
        calls = {"n": 0}

        def interrupting_run_point(config, system):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real_run_point(config, system)

        monkeypatch.setattr(runner_core, "run_point", interrupting_run_point)
        units = [(CFG.with_axis("interval", v), "tunable") for v in VALUES]
        runner = ExperimentRunner(jobs=1)
        with pytest.raises(KeyboardInterrupt):
            runner.run_units(units)
        assert runner.perf_snapshot()["units_executed_inline"] == 2

        monkeypatch.setattr(runner_core, "run_point", real_run_point)
        metrics = runner.run_units(units)
        assert len(metrics) == len(units)
        snap = runner.perf_snapshot()
        assert snap["units_reused"] == 2
        assert snap["units_executed_inline"] == 3

    def test_pool_interrupt_cancels_and_flushes(self, monkeypatch):
        """A worker-relayed Ctrl-C re-raises after earlier chunks landed.

        The interrupting unit is submitted last (4 units over 2 workers
        chunk by 1, and results are consumed in submission order), so
        every earlier unit's result is remembered before the interrupt
        propagates.
        """
        units = [(CFG.with_axis("interval", v), "tunable") for v in VALUES]
        units.append((CFG, "shape2"))  # the marked interrupter, last
        monkeypatch.setattr(runner_core, "run_unit_chunk", _interrupting_chunk)
        runner = ExperimentRunner(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            runner.run_units(units)
        assert runner.perf_snapshot()["units_executed_pool"] == len(VALUES)

        metrics = runner.run_units(units[:-1])
        assert len(metrics) == len(VALUES)
        snap = runner.perf_snapshot()
        assert snap["units_reused"] == len(VALUES)
        assert snap["units_executed_pool"] == len(VALUES)
        assert "units_executed_inline" not in snap

    def test_perf_snapshot_shape(self):
        runner = ExperimentRunner(jobs=2)
        run_sweep("interval", VALUES[:2], CFG, runner=runner)
        snap = runner.perf_snapshot()
        assert snap["units_total"] == 2 * 3
        assert snap["unit_count"] == 2 * 3
        assert snap["unit_p50_us"] > 0
        assert snap["unit_p95_us"] >= snap["unit_p50_us"]
        assert snap["units_executed_pool"] == 2 * 3
