"""Hot-path instrumentation: one counter store per profile.

The arbitrator's decision loop is the system's throughput ceiling (Section
5.2's heuristic probes and mutates the availability profile once or more per
arrival at 10,000-arrival scale), so its cost is a first-class metric here,
as it is for DMR and ReSHAPE.

:class:`PerfRecorder` is the one store: slotted counters, wall-clock
timers and latency samples.  Each profile owns one (``profile.stats``),
its schedule uses the same object as ``schedule.perf``, and every hot
site bumps a slot with a bare ``+=``.  The C loop's tallies wait in its
kernel context until the recorder is read, then :meth:`PerfRecorder.fold`
adds them (``docs/perf.md``, "counters", has the read contract).
Snapshots surface in :attr:`repro.sim.metrics.RunMetrics.perf` and in
the per-layer metrics of ``benchmarks/e2e``.  Everything here measures
*wall* time (``time.perf_counter``), never virtual time.
"""

from __future__ import annotations

import math

__all__ = ["PerfRecorder", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    The smallest sample with at least ``q`` percent of the samples at or
    below it: index ``ceil(q·n/100) − 1``.  ``q * n`` is formed first
    because ``q / 100`` is inexact (``0.07 * 100`` is ``7.000000000000001``).
    Returns ``nan`` for an empty sample list.  Kept dependency-free so the
    perf layer never imports numpy on the hot path.
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


#: Counter names bumped on the admission hot path.  Each is a dedicated
#: slot on :class:`PerfRecorder`, so the hot sites (schedulers, schedule,
#: arbitrator) increment them with a bare ``recorder.name += 1`` — no
#: dict hashing, no string lookup per decision.  ``count()`` routes these
#: names to their slots, so call sites that prefer the generic API stay
#: correct.
HOT_COUNTERS = (
    "commits",
    "commit_failures",
    "rollbacks",
    "tail_rollbacks",
    "tail_restores",
    "carries",
    "reshape_probes",
    "chains_probed",
    "chains_quick_rejected",
    "chains_area_rejected",
    "batch_jobs",
    "batch_fallbacks",
)

_HOT_SET = frozenset(HOT_COUNTERS)

#: The profile's operation counters, which ``Schedule.perf_snapshot``
#: reports as ``profile_<name>`` (:attr:`PerfRecorder.counters` leaves
#: them out).  ``last_touched`` is a level, not a sum: the segment window
#: of the latest mutation, which must track the *local* window, not the
#: total segment count (the complexity tests assert on it).
PROFILE_COUNTERS = (
    "shift_ops",
    "segments_touched",
    "last_touched",
    "probes",
    "probe_segments",
    "prefix_rebuilds",
    "compactions",
)

#: The slot each running cell of the C loop folds into, in cell order
#: (``Prof.totals``; ``K_SHIFT_OPS`` .. ``K_COMMITS`` of ``_kernels.c``).
KERNEL_TALLIES = PROFILE_COUNTERS + (
    "chains_probed",
    "chains_quick_rejected",
    "chains_area_rejected",
    "commits",
)


class PerfRecorder:
    """Slotted hot-path counters, wall-time totals, latency sample streams.

    The per-decision cost is a handful of slotted attribute adds plus one
    list append for the ``decision`` latency sample (see
    :meth:`note_decision`); everything else — the fold, merging,
    percentiles, the flat report — happens when the recorder is read
    (``docs/perf.md``, "Benchmarking", measures that per-decision cost).
    ``cells`` views the running tallies of the kernel context serving the
    profile (``None`` before its first C call).
    """

    __slots__ = HOT_COUNTERS + PROFILE_COUNTERS + (
        "decision_total_s",
        "_decision_samples",
        "_extra",
        "timings",
        "latencies",
        "cells",
    )

    def __init__(self) -> None:
        self.cells = None
        self.reset()

    def reset(self) -> None:
        """Drop all recorded data."""
        for name in HOT_COUNTERS + PROFILE_COUNTERS:
            setattr(self, name, 0)
        #: Accumulated ``decision`` latency (seconds) and its samples.
        self.decision_total_s = 0.0
        self._decision_samples: list[float] = []
        #: Cold-path counters by name (anything not in :data:`HOT_COUNTERS`).
        self._extra: dict[str, int | float] = {}
        self.timings: dict[str, float] = {}
        self.latencies: dict[str, list[float]] = {}

    def fold(self) -> None:
        """Add the C loop's running tallies (``cells``) to the slots of
        :data:`KERNEL_TALLIES` and zero them.  ``last_touched`` is nonzero
        exactly when the cells hold a shift (each touches a segment at
        least), and then replaces the slot's."""
        cells = self.cells
        if cells is None:
            return
        counts = cells.tolist()
        if not any(counts):
            return
        cells[:] = 0
        for name, n in zip(KERNEL_TALLIES, counts):
            if n:
                setattr(
                    self, name,
                    n if name == "last_touched" else getattr(self, name) + n,
                )

    # ------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int | float]:
        """Merged view of the hot and cold counters, folded first (lazy;
        zero hot counters omitted)."""
        self.fold()
        out: dict[str, int | float] = {}
        for name in HOT_COUNTERS:
            value = getattr(self, name)
            if value:
                out[name] = value
        out.update(self._extra)
        return out

    def count(self, name: str, n: "int | float" = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        if name in _HOT_SET:
            setattr(self, name, getattr(self, name) + n)
        else:
            extra = self._extra
            extra[name] = extra.get(name, 0) + n

    def note_decision(self, seconds: float) -> None:
        """Record one admission-decision latency sample (the hot stream).

        Equivalent to ``observe("decision", seconds)`` but touches only
        slotted state: one float add and one list append per decision.
        """
        self.decision_total_s += seconds
        self._decision_samples.append(seconds)

    def observe(self, name: str, seconds: float) -> None:
        """Record one wall-time latency sample under ``name``."""
        if name == "decision":
            self.note_decision(seconds)
            return
        self.timings[name] = self.timings.get(name, 0.0) + seconds
        self.latencies.setdefault(name, []).append(seconds)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float | int]:
        """Flat summary: counters, total seconds, and latency percentiles.

        Assembled lazily from the slotted state, folded first (hot
        counters appear only once nonzero; the profile's are left to
        ``Schedule.perf_snapshot``).  Latency streams contribute
        ``<name>_s`` (total), ``<name>_count``, ``<name>_p50_us`` and
        ``<name>_p95_us`` (microseconds — decision latencies are far below
        a millisecond).
        """
        out: dict[str, float | int] = self.counters
        for name, total in self.timings.items():
            out[f"{name}_s"] = total
        for name, samples in self.latencies.items():
            out[f"{name}_count"] = len(samples)
            out[f"{name}_p50_us"] = percentile(samples, 50) * 1e6
            out[f"{name}_p95_us"] = percentile(samples, 95) * 1e6
        samples = self._decision_samples
        if samples:
            out["decision_s"] = self.decision_total_s
            out["decision_count"] = len(samples)
            out["decision_p50_us"] = percentile(samples, 50) * 1e6
            out["decision_p95_us"] = percentile(samples, 95) * 1e6
        return out
