"""Subprocess entry points for the parallel experiment runner.

Everything here must be importable by name in a worker process (top-level
functions only — ``ProcessPoolExecutor`` pickles the function reference,
not its code).  A chunk is a list of ``(key, SweepConfig, system)`` units;
the worker returns one ``(key, RunMetrics, seconds)`` tuple per unit, the
seconds being the unit's own wall-clock execution time, so the parent can
record true per-unit latency percentiles regardless of chunking.  Both
cross the process boundary pickled, which round-trips them exactly.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.sim.metrics import RunMetrics
from repro.workloads.sweep import SweepConfig, run_point

__all__ = ["Unit", "UnitResult", "run_unit_chunk"]

Unit = tuple[str, SweepConfig, str]
UnitResult = tuple[str, RunMetrics, float]


def run_unit_chunk(units: Sequence[Unit]) -> list[UnitResult]:
    """Execute one chunk of work units in the current process."""
    out: list[UnitResult] = []
    for key, config, system in units:
        t0 = time.perf_counter()
        metrics = run_point(config, system)
        out.append((key, metrics, time.perf_counter() - t0))
    return out


def _crashing_chunk(units: Sequence[Unit]) -> list[UnitResult]:
    """Test hook: die like a segfaulting worker (breaks the pool)."""
    os._exit(17)


def _interrupting_chunk(units: Sequence[Unit]) -> list[UnitResult]:
    """Test hook: Ctrl-C arrives while a marked chunk is executing.

    Chunks containing a ``shape2`` unit raise ``KeyboardInterrupt`` (the
    executor pickles it back to the parent exactly like a real interrupt
    delivered to a worker); every other chunk runs normally.
    """
    if any(system == "shape2" for _, _, system in units):
        raise KeyboardInterrupt
    return run_unit_chunk(units)
