"""Parallel/serial/cached equivalence and failure-path behavior.

The contract under test: however a batch of work units is executed —
in-process, fanned out over worker processes, deduplicated, memoized,
or rescued from a dying pool — the merged results are identical.
"""

from dataclasses import replace

import pytest

import repro.runner.core as runner_core
from repro.runner import ExperimentRunner, RunnerConfig, using_runner
from repro.runner.key import unit_key
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


class TestParallelSerialEquivalence:
    def test_sweep_jobs1_vs_jobs4(self, tmp_path):
        serial = run_sweep(
            "interval", VALUES, CFG, runner=ExperimentRunner(RunnerConfig(jobs=1))
        )
        parallel = run_sweep(
            "interval",
            VALUES,
            CFG,
            runner=ExperimentRunner(RunnerConfig(jobs=4, cache_dir=tmp_path)),
        )
        assert serial.values == parallel.values
        assert serial.systems == parallel.systems
        assert _rows(serial) == _rows(parallel)

    def test_sweep_series_bitwise_equal(self, tmp_path):
        serial = run_sweep("interval", VALUES, CFG)
        parallel = run_sweep(
            "interval",
            VALUES,
            CFG,
            runner=ExperimentRunner(RunnerConfig(jobs=2, cache_dir=tmp_path)),
        )
        for system in serial.systems:
            for metric in ("utilization", "throughput", "mean_response"):
                assert serial.series(system, metric) == parallel.series(
                    system, metric
                )

    def test_replicate_point_equivalence(self, tmp_path):
        seeds = (1, 2, 3)
        serial = replicate_point(CFG, seeds)
        parallel = replicate_point(
            CFG,
            seeds,
            runner=ExperimentRunner(RunnerConfig(jobs=4, cache_dir=tmp_path)),
        )
        assert serial.seeds == parallel.seeds
        for metric, systems in serial.metrics.items():
            for system, stat in systems.items():
                assert stat == parallel.metrics[metric][system]

    def test_default_runner_context(self, tmp_path):
        runner = ExperimentRunner(RunnerConfig(jobs=2, cache_dir=tmp_path))
        with using_runner(runner):
            sweep = run_sweep("interval", VALUES[:2], CFG)
        assert runner.perf_snapshot()["units_total"] == 2 * len(sweep.systems)


class TestCacheBehavior:
    def test_second_run_all_hits_and_identical(self, tmp_path):
        cold_runner = ExperimentRunner(RunnerConfig(jobs=1, cache_dir=tmp_path))
        cold = run_sweep("interval", VALUES, CFG, runner=cold_runner)
        warm_runner = ExperimentRunner(RunnerConfig(jobs=1, cache_dir=tmp_path))
        warm = run_sweep("interval", VALUES, CFG, runner=warm_runner)
        assert _rows(cold) == _rows(warm)
        snap = warm_runner.perf_snapshot()
        n_units = len(VALUES) * len(cold.systems)
        assert snap["cache_hits"] == n_units
        assert snap["cache_misses"] == 0
        assert snap.get("units_executed_inline", 0) == 0

    @pytest.mark.parametrize(
        "change",
        [
            {"n_jobs": 121},
            {"seed": 9},
            {"processors": 17},
            {"malleable": True},
        ],
    )
    def test_any_config_change_invalidates(self, tmp_path, change):
        first = ExperimentRunner(RunnerConfig(cache_dir=tmp_path))
        run_sweep("interval", VALUES[:1], CFG, runner=first)
        second = ExperimentRunner(RunnerConfig(cache_dir=tmp_path))
        run_sweep(
            "interval", VALUES[:1], replace(CFG, **change), runner=second
        )
        snap = second.perf_snapshot()
        assert snap["cache_hits"] == 0
        assert snap["cache_misses"] == len(VALUES[:1]) * 3

    def test_cross_experiment_overlap_hits(self, tmp_path):
        # A coarser grid over the same axis is a subset of a finer one —
        # the fig6a/fig5a relationship that motivates the shared cache.
        fine = ExperimentRunner(RunnerConfig(cache_dir=tmp_path))
        run_sweep("interval", (20.0, 30.0, 40.0), CFG, runner=fine)
        coarse = ExperimentRunner(RunnerConfig(cache_dir=tmp_path))
        run_sweep("interval", (20.0, 40.0), CFG, runner=coarse)
        snap = coarse.perf_snapshot()
        assert snap["cache_hits"] == 2 * 3
        assert snap["cache_misses"] == 0

    def test_dedup_within_one_batch(self):
        runner = ExperimentRunner(RunnerConfig())
        metrics = runner.run_units(
            [(CFG, "tunable"), (CFG, "shape1"), (CFG, "tunable")]
        )
        assert metrics[0] == metrics[2]
        snap = runner.perf_snapshot()
        assert snap["dedup_hits"] == 1
        assert snap["units_executed_inline"] == 2


class TestFailurePaths:
    def test_worker_crash_falls_back_in_process(self, tmp_path):
        serial = run_sweep("interval", VALUES[:2], CFG)
        broken = ExperimentRunner(
            RunnerConfig(jobs=2, cache_dir=tmp_path),
            _chunk_fn=_crashing_chunk,
        )
        rescued = run_sweep("interval", VALUES[:2], CFG, runner=broken)
        assert _rows(serial) == _rows(rescued)
        snap = broken.perf_snapshot()
        assert snap["pool_chunk_failures"] >= 1
        assert snap["pool_fallback_units"] == 2 * len(serial.systems)
        assert snap["units_executed_inline"] == 2 * len(serial.systems)

    def test_genuine_unit_error_reraises_after_fallback(
        self, tmp_path, monkeypatch
    ):
        """The fallback re-runs a dead pool's units; a real error surfaces."""
        real_run_point = runner_core.run_point
        calls = {"n": 0}

        def failing_run_point(config, system):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("unit failed")
            return real_run_point(config, system)

        monkeypatch.setattr(runner_core, "run_point", failing_run_point)
        units = [(CFG.with_axis("interval", v), "tunable") for v in VALUES]
        broken = ExperimentRunner(
            RunnerConfig(jobs=2, cache_dir=tmp_path), _chunk_fn=_crashing_chunk
        )
        with pytest.raises(ValueError, match="unit failed"):
            broken.run_units(units)
        assert broken.cache.get(unit_key(*units[0])) is not None
        assert broken.cache.get(unit_key(*units[1])) is None

    def test_pool_workers_are_spawned_not_forked(self, monkeypatch):
        contexts = []

        class RecordingPool(runner_core.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                contexts.append(kwargs.get("mp_context"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_core, "ProcessPoolExecutor", RecordingPool)
        runner = ExperimentRunner(RunnerConfig(jobs=2))
        runner.run_units([(CFG, "tunable"), (CFG, "shape1")])
        assert runner.perf_snapshot()["units_executed_pool"] == 2
        assert len(contexts) == 1 and contexts[0] is not None
        assert contexts[0].get_start_method() == "spawn"

    def test_inline_interrupt_flushes_completed_units(
        self, tmp_path, monkeypatch
    ):
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
        interrupted = ExperimentRunner(RunnerConfig(jobs=1, cache_dir=tmp_path))
        with pytest.raises(KeyboardInterrupt):
            interrupted.run_units(units)
        snap = interrupted.perf_snapshot()
        assert snap["interrupted_batches"] == 1
        assert snap["cache_stores"] == 2  # the two completed units

        monkeypatch.setattr(runner_core, "run_point", real_run_point)
        resumed = ExperimentRunner(RunnerConfig(jobs=1, cache_dir=tmp_path))
        metrics = resumed.run_units(units)
        assert len(metrics) == len(units)
        snap = resumed.perf_snapshot()
        assert snap["cache_hits"] == 2
        assert snap["cache_misses"] == 1

    def test_pool_interrupt_cancels_and_flushes(self, tmp_path):
        """A worker-relayed Ctrl-C re-raises after flushing earlier chunks.

        The interrupting unit is submitted last (4 units over 2 workers
        chunk by 1, and results are consumed in submission order), so
        every earlier unit's result is flushed before the interrupt
        propagates.
        """
        units = [(CFG.with_axis("interval", v), "tunable") for v in VALUES]
        units.append((CFG, "shape2"))  # the marked interrupter, last
        interrupted = ExperimentRunner(
            RunnerConfig(jobs=2, cache_dir=tmp_path),
            _chunk_fn=_interrupting_chunk,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run_units(units)
        snap = interrupted.perf_snapshot()
        assert snap["pool_interrupts"] == 1
        assert snap["interrupted_batches"] == 1
        assert snap["cache_stores"] == len(VALUES)

        resumed = ExperimentRunner(RunnerConfig(jobs=1, cache_dir=tmp_path))
        metrics = resumed.run_units(units[:-1])
        assert len(metrics) == len(VALUES)
        snap = resumed.perf_snapshot()
        assert snap["cache_hits"] == len(VALUES)
        assert snap["cache_misses"] == 0

    def test_perf_snapshot_shape(self, tmp_path):
        runner = ExperimentRunner(RunnerConfig(jobs=2, cache_dir=tmp_path))
        run_sweep("interval", VALUES[:2], CFG, runner=runner)
        snap = runner.perf_snapshot()
        assert snap["units_total"] == 2 * 3
        assert snap["unit_count"] == 2 * 3
        assert snap["unit_p50_us"] > 0
        assert snap["unit_p95_us"] >= snap["unit_p50_us"]
        assert snap["cache_stores"] == 2 * 3
