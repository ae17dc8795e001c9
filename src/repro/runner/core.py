"""The parallel experiment runner: dedup → cache → fan-out → merge.

:class:`ExperimentRunner` executes batches of work units (one
:class:`~repro.workloads.sweep.SweepConfig` × system each) with three
layers of savings, all of them invisible in the results:

1. **Dedup** — units with equal content hashes inside one batch are
   simulated once (overlapping sweeps cross at their default point, and
   e.g. the Figure-6a interval grid is a subset of Figure 5(a)'s).
2. **Cache** — an optional on-disk :class:`~repro.runner.cache.ResultCache`
   memoizes every unit across runs and across experiments.
3. **Fan-out** — cache misses are dispatched, in one pass, to one
   spawned :class:`~concurrent.futures.ProcessPoolExecutor` in contiguous
   chunks (~4 chunks per worker for load balancing).  A chunk whose
   future raises — its worker died, or its body failed — is re-run
   in-process, so a dying pool degrades to the serial path instead of
   failing the experiment.

Determinism: results are merged **by unit key in submission order**,
never completion order, and common-random-numbers pairing is carried by
the seed inside each unit's config — so parallel, serial, deduped and
cached executions of the same batch produce identical metrics.  Units
cross to a worker as pickled ``(key, SweepConfig, system)`` tuples and
come back as ``(key, RunMetrics, seconds)``; pickle round-trips both
exactly.  Genuine simulation errors are *not* swallowed by the fallback:
the in-process re-run re-raises them synchronously.

Interruption: every unit's result is written to the cache the moment it
is retrieved — not batched at the end — so a ``KeyboardInterrupt``
mid-batch (Ctrl-C, or a dying CI job) loses only in-flight work.  The
interrupt cancels outstanding pool futures, is counted in the perf
snapshot and re-raised cleanly; a re-run resumes from the flushed
entries as cache hits.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.perf import PerfRecorder
from repro.runner.cache import ResultCache
from repro.runner.key import sweep_config_to_dict, unit_key
from repro.runner.worker import Unit, UnitResult, run_unit_chunk
from repro.sim.metrics import RunMetrics
from repro.workloads.sweep import SweepConfig, run_point

__all__ = ["RunnerConfig", "ExperimentRunner"]

#: Target chunks per worker: small enough to amortize dispatch, large
#: enough that an unlucky long chunk cannot serialize the whole batch.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True, slots=True)
class RunnerConfig:
    """Execution policy for one :class:`ExperimentRunner`.

    ``jobs <= 1`` means pure in-process execution (no pool is ever
    created); ``cache_dir=None`` disables memoization.

    ``audit=True`` adds an independent post-check: after a batch merges,
    every unique unit is re-run in-process with placements retained, its
    final schedule is audited by :class:`repro.verify.ScheduleAuditor`,
    and the re-run's metrics are compared against what the batch reported
    (catching a lying cache entry, a diverging worker, or a scheduler bug
    the fast path missed).  Any discrepancy raises
    :class:`~repro.errors.VerificationError`.  Roughly doubles batch
    cost — meant for CI gates and result-publication runs, not sweeps'
    inner loops.

    Who sets each field off its default (a knob with no such user goes):

    * ``jobs``: ``--jobs`` (CI regenerates the committed tables pooled).
    * ``cache_dir``: ``--cache-dir`` (the CLI caches by default; CI diffs
      a warm-cache run).
    * ``audit``: no committed run yet, only the runner's own tests
      (ROADMAP item 17 keeps it open).
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    audit: bool = False


class ExperimentRunner:
    """Executes work-unit batches; owns the cache and perf counters."""

    def __init__(
        self,
        config: RunnerConfig | None = None,
        *,
        _chunk_fn: Callable[..., list[UnitResult]] = run_unit_chunk,
    ) -> None:
        self.config = config or RunnerConfig()
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.perf = PerfRecorder()
        # Pool dispatch target; in-process fallback always runs the real
        # simulation so fault-injecting stubs (tests) still yield results.
        self._chunk_fn = _chunk_fn

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_units(
        self, units: Sequence[tuple[SweepConfig, str]]
    ) -> list[RunMetrics]:
        """Execute every unit; results align 1:1 with ``units`` order."""
        units = list(units)
        self.perf.count("units_total", len(units))
        keys = [unit_key(config, system) for config, system in units]

        # Dedup: first occurrence wins; duplicates reuse its result.
        first_of: dict[str, int] = {}
        for i, key in enumerate(keys):
            first_of.setdefault(key, i)
        unique = list(first_of)
        self.perf.count("dedup_hits", len(units) - len(unique))

        results: dict[str, RunMetrics] = {}
        pending: list[str] = []
        if self.cache is not None:
            for key in unique:
                cached = self.cache.get(key)
                if cached is not None:
                    results[key] = cached
                else:
                    pending.append(key)
            self.perf.count("cache_hits", len(unique) - len(pending))
            self.perf.count("cache_misses", len(pending))
        else:
            pending = unique

        def store(key: str, metrics: RunMetrics) -> None:
            # Flush each result the moment it exists, so an interrupt
            # mid-batch preserves everything already computed.
            results[key] = metrics
            if self.cache is not None:
                config, system = units[first_of[key]]
                self.cache.put(
                    key,
                    metrics,
                    meta={
                        "system": system,
                        "config": sweep_config_to_dict(config),
                    },
                )

        try:
            self._execute(
                [(key, *units[first_of[key]]) for key in pending], store
            )
        except KeyboardInterrupt:
            self.perf.count("interrupted_batches")
            raise

        if self.config.audit:
            # Lazy: repro.verify is opt-in tooling, not a runner dependency.
            from repro.verify.checks import verify_unit

            for key in unique:
                config, system = units[first_of[key]]
                verify_unit(config, system, results[key])
                self.perf.count("units_audited")

        return [results[key] for key in keys]

    def run_unit(self, config: SweepConfig, system: str) -> RunMetrics:
        """Single-unit convenience wrapper around :meth:`run_units`."""
        return self.run_units([(config, system)])[0]

    def perf_snapshot(self) -> dict[str, float | int]:
        """Runner counters + per-unit latency percentiles + cache stats."""
        out = self.perf.snapshot()
        if self.cache is not None:
            out.update(self.cache.stats())
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(
        self,
        work: list[Unit],
        store: Callable[[str, RunMetrics], None],
    ) -> None:
        """Run every (key, config, system) unit, pooled when configured.

        ``store`` is invoked once per completed unit, as soon as its
        metrics are in hand — pooled results as their chunk's future
        resolves, inline results after each simulation — so the caller's
        cache reflects all completed work even if a later unit raises.
        """
        leftover = work
        if self.config.jobs > 1 and len(work) > 1:
            leftover = self._run_pooled(work, store)
            if leftover:
                self.perf.count("pool_fallback_units", len(leftover))
        for key, config, system in leftover:
            t0 = time.perf_counter()
            metrics = run_point(config, system)
            self.perf.observe("unit", time.perf_counter() - t0)
            self.perf.count("units_executed_inline")
            store(key, metrics)

    def _run_pooled(
        self,
        work: list[Unit],
        store: Callable[[str, RunMetrics], None],
    ) -> list[Unit]:
        """One pass over one pool; returns the units of failed chunks.

        Every chunk is submitted at once and the futures are read in
        submission order, each chunk's results stored before the next
        future is awaited.  A future that raises — its chunk body failed,
        or its worker died, after which every later future raises too —
        hands its units back for the in-process fallback.
        """
        size = max(
            1, math.ceil(len(work) / (self.config.jobs * _CHUNKS_PER_WORKER))
        )
        chunks = [work[i : i + size] for i in range(0, len(work), size)]
        failed: list[Unit] = []
        # Spawn, not fork: a fork taken while another thread holds a lock
        # leaves that lock held forever in the child, which can deadlock.
        pool = ProcessPoolExecutor(
            max_workers=min(self.config.jobs, len(chunks)),
            mp_context=multiprocessing.get_context("spawn"),
        )
        try:
            futures = [
                (pool.submit(self._chunk_fn, chunk), chunk) for chunk in chunks
            ]
            self.perf.count("pool_chunks_dispatched", len(futures))
            for future, chunk in futures:
                try:
                    results = future.result()
                except Exception:
                    self.perf.count("pool_chunk_failures")
                    failed.extend(chunk)
                    continue
                for key, metrics, seconds in results:
                    store(key, metrics)
                    self.perf.observe("unit", seconds)
                    self.perf.count("units_executed_pool")
        except KeyboardInterrupt:
            # Ctrl-C (possibly relayed from a worker process): count it
            # and propagate; results already stored stay flushed.
            self.perf.count("pool_interrupts")
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return failed
