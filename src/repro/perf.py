"""Lightweight hot-path instrumentation: counters and wall-time timers.

The arbitrator's decision loop is the system's throughput ceiling (Section
5.2's heuristic probes and mutates the availability profile once or more per
arrival at 10,000-arrival scale), so reconfiguration-decision cost is a
first-class metric here — as it is for the related malleable-scheduling
systems (DMR, ReSHAPE).  This module provides the two primitives that make
that cost observable without slowing the hot path down:

* :class:`ProfileStats` — always-on plain-integer counters owned by each
  :class:`~repro.core.profile.AvailabilityProfile`.  Increments are bare
  ``int`` attribute additions; the profile never branches on whether anyone
  is listening.
* :class:`PerfRecorder` — counters plus wall-clock timers/latency samples,
  owned by each :class:`~repro.core.schedule.Schedule` and fed by the greedy
  and malleable schedulers, the arbitrator (per-submit decision latency) and
  the simulator.  Snapshots surface in
  :attr:`repro.sim.metrics.RunMetrics.perf` and in the per-layer metrics
  of ``benchmarks/e2e``.

Everything here measures *wall* time (``time.perf_counter``); virtual
(simulated) time is never involved.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["ProfileStats", "PerfRecorder", "percentile"]


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


class ProfileStats:
    """Always-on operation counters for one availability profile.

    Every field is a plain ``int`` bumped with ``+=`` on the hot path —
    cheap enough to leave permanently enabled.  ``last_touched`` records the
    segment-window size of the most recent mutation, which is what the
    complexity regression tests assert on (touched segments must track the
    *local* window, not the total segment count).
    """

    __slots__ = (
        "shift_ops",
        "segments_touched",
        "last_touched",
        "probes",
        "probe_segments",
        "prefix_rebuilds",
        "compactions",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.shift_ops = 0
        self.segments_touched = 0
        self.last_touched = 0
        self.probes = 0
        self.probe_segments = 0
        self.prefix_rebuilds = 0
        self.compactions = 0

    def as_dict(self) -> dict[str, int]:
        """Flat mapping of all counters (for snapshots and JSON reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ProfileStats({body})"


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


class PerfRecorder:
    """Slotted hot-path counters, wall-time totals, latency sample streams.

    One recorder lives on each :class:`~repro.core.schedule.Schedule`; the
    schedulers and the arbitrator share it.  The per-decision cost is a
    handful of slotted attribute adds plus one list append for the
    ``decision`` latency sample (see :meth:`note_decision`); everything
    dict-shaped — merging, percentiles, the flat report — happens lazily
    in :meth:`snapshot`, off the hot path (``docs/perf.md``, "Benchmarking",
    measures that per-decision cost).  Latency streams store one float per
    observation (one per job submission in the simulator), negligible at
    the paper's 10,000-arrival scale.
    """

    __slots__ = HOT_COUNTERS + (
        "decision_total_s",
        "_decision_samples",
        "_extra",
        "timings",
        "latencies",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop all recorded data."""
        for name in HOT_COUNTERS:
            setattr(self, name, 0)
        #: Accumulated ``decision`` latency (seconds) and its samples.
        self.decision_total_s = 0.0
        self._decision_samples: list[float] = []
        #: Cold-path counters by name (anything not in :data:`HOT_COUNTERS`).
        self._extra: dict[str, int | float] = {}
        self.timings: dict[str, float] = {}
        self.latencies: dict[str, list[float]] = {}

    # ------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int | float]:
        """Merged view of all counters (lazy; zero hot counters omitted)."""
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
            self.decision_total_s += seconds
            self._decision_samples.append(seconds)
            return
        self.timings[name] = self.timings.get(name, 0.0) + seconds
        self.latencies.setdefault(name, []).append(seconds)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager recording the block's wall time under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float | int]:
        """Flat summary: counters, total seconds, and latency percentiles.

        Assembled lazily from the slotted state (hot counters appear only
        once nonzero).  Latency streams contribute ``<name>_s`` (total),
        ``<name>_count``, ``<name>_p50_us`` and ``<name>_p95_us``
        (microseconds — decision latencies are far below a millisecond).
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
