"""The parallel experiment runner: memo → fan-out → merge.

:class:`ExperimentRunner` executes batches of work units (one
:class:`~repro.workloads.sweep.SweepConfig` × system each) and remembers
every unit's metrics for its own life, keyed by the ``(SweepConfig,
system)`` pair itself.  A unit requested twice — inside one batch, or by
two experiments of one CLI invocation (the Figure-6a interval grid is a
subset of Figure 5(a)'s) — is simulated once.  Nothing is kept on disk:
a new runner runs every unit again, so no result outlives the code that
computed it.

Fan-out: units not yet remembered are dispatched, in one pass, to one
spawned :class:`~concurrent.futures.ProcessPoolExecutor` in contiguous
chunks (~4 chunks per worker for load balancing).  A chunk whose future
raises — its worker died, or its body failed — is re-run in-process, so
a dying pool degrades to the serial path instead of failing the
experiment.

Determinism: results are returned in submission order, never completion
order, and common-random-numbers pairing is carried by the seed inside
each unit's config — so parallel, serial and remembered executions of
the same batch produce identical metrics.  Units cross to a worker as
pickled ``(SweepConfig, system)`` pairs and come back as ``(RunMetrics,
seconds)``; pickle round-trips both exactly.  Genuine simulation errors
are *not* swallowed by the fallback: the in-process re-run re-raises
them synchronously.

The runner does not re-check results.  A wrong pooled result shows as a
difference between CI's runs of the committed tables (pooled, inline,
reference decider); an audited re-run of one unit is
:func:`repro.verify.checks.audited_point`.

Interruption: a ``KeyboardInterrupt`` mid-batch cancels the outstanding
pool futures and propagates; the units finished before it stay
remembered by the runner.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.perf import PerfRecorder
from repro.runner.worker import Unit, run_unit_chunk
from repro.sim.metrics import RunMetrics
from repro.workloads.sweep import run_point

__all__ = ["ExperimentRunner"]

#: Target chunks per worker: small enough to amortize dispatch, large
#: enough that an unlucky long chunk cannot serialize the whole batch.
_CHUNKS_PER_WORKER = 4


class ExperimentRunner:
    """Executes work-unit batches; remembers each unit's metrics.

    ``jobs <= 1`` means pure in-process execution (no pool is ever
    created).  The CLI's ``--jobs`` sets it (CI regenerates the committed
    tables pooled).
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        self.perf = PerfRecorder()
        self._memo: dict[Unit, RunMetrics] = {}

    def run_units(self, units: Sequence[Unit]) -> list[RunMetrics]:
        """Execute every unit; results align 1:1 with ``units`` order."""
        units = list(units)
        self.perf.count("units_total", len(units))
        pending = [unit for unit in dict.fromkeys(units) if unit not in self._memo]
        self.perf.count("units_reused", len(units) - len(pending))
        self._execute(pending)
        return [self._memo[unit] for unit in units]

    def perf_snapshot(self) -> dict[str, float | int]:
        """Runner counters + per-unit latency percentiles."""
        return self.perf.snapshot()

    def _execute(self, work: list[Unit]) -> None:
        """Run and remember every unit, pooled when configured."""
        leftover = work
        if self.jobs > 1 and len(work) > 1:
            leftover = self._run_pooled(work)
            if leftover:
                self.perf.count("pool_fallback_units", len(leftover))
        for unit in leftover:
            t0 = time.perf_counter()
            self._memo[unit] = run_point(*unit)
            self.perf.observe("unit", time.perf_counter() - t0)
            self.perf.count("units_executed_inline")

    def _run_pooled(self, work: list[Unit]) -> list[Unit]:
        """One pass over one pool; returns the units of failed chunks.

        Every chunk is submitted at once and the futures are read in
        submission order, each chunk's results remembered before the next
        future is awaited.  A future that raises — its chunk body failed,
        or its worker died, after which every later future raises too —
        hands its units back for the in-process fallback.
        """
        size = max(1, math.ceil(len(work) / (self.jobs * _CHUNKS_PER_WORKER)))
        chunks = [work[i : i + size] for i in range(0, len(work), size)]
        failed: list[Unit] = []
        # Spawn, not fork: a fork taken while another thread holds a lock
        # leaves that lock held forever in the child, which can deadlock.
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            mp_context=multiprocessing.get_context("spawn"),
        )
        try:
            futures = [(pool.submit(run_unit_chunk, chunk), chunk) for chunk in chunks]
            self.perf.count("pool_chunks_dispatched", len(futures))
            for future, chunk in futures:
                try:
                    results = future.result()
                except Exception:
                    self.perf.count("pool_chunk_failures")
                    failed.extend(chunk)
                    continue
                for unit, (metrics, seconds) in zip(chunk, results):
                    self._memo[unit] = metrics
                    self.perf.observe("unit", seconds)
                    self.perf.count("units_executed_pool")
        finally:
            # Also on Ctrl-C (possibly relayed from a worker process).
            pool.shutdown(wait=False, cancel_futures=True)
        return failed
