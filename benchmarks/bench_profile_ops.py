"""Micro-benchmarks for the availability-profile hot path.

The Section 5.2 heuristic's per-reservation cost is the whole system's
throughput ceiling at 10,000-arrival scale, so this module pins it down:

* :class:`LegacyAvailabilityProfile` re-implements the pre-optimization
  mutation path (per-breakpoint ``list.insert``/``del`` splices via
  ``_split_at`` + ``_canonicalize``, separate min/max validation scans, and
  a from-scratch ``free_area`` segment walk).  It is kept *permanently* as
  the "before" baseline so ``BENCH_sched.json`` always carries a
  before/after pair and future regressions are visible as a shrinking
  speedup ratio.
* :func:`run_reserve_fit_bench` drives either implementation through an
  identical deterministic ``earliest_fit`` + ``reserve`` workload (the
  greedy scheduler's inner loop) on a profile whose segment count grows
  with every placement — no compaction, which is the worst case the
  arbitrator faces between arrivals.
* :func:`run_area_query_bench` times ``free_area`` (the §5.2 tie-break's
  window-utilization probe) on a heavily fragmented profile.

Usable three ways: imported by ``benchmarks/run_bench.py`` (which writes
``BENCH_sched.json``), run standalone (``python benchmarks/bench_profile_ops.py``),
or exercised at tiny scale by the test suite.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro.core.first_fit import earliest_fit
from repro.core.profile import AvailabilityProfile
from repro.core.resources import TIME_EPS
from repro.errors import CapacityExceededError, SchedulingError

__all__ = [
    "LegacyAvailabilityProfile",
    "run_reserve_fit_bench",
    "run_area_query_bench",
]


class LegacyAvailabilityProfile(AvailabilityProfile):
    """The seed implementation of the mutation path, kept as a baseline.

    Reproduces the original behaviour exactly: ``_shift`` validates with
    separate min/max scans, forces breakpoints in with two ``list.insert``
    splices, adds the delta segment-by-segment, then runs a canonicalize
    pass that deletes merged breakpoints one ``del`` at a time;
    ``free_area`` walks segments from scratch on every call; and
    ``earliest_fit`` probes take the per-segment scalar walk
    (constructed with ``backend="scalar"``).
    """

    __slots__ = ()

    def __init__(self, capacity: int, origin: float = 0.0) -> None:
        super().__init__(capacity, origin, backend="scalar")

    def _split_at(self, t: float) -> int:
        i = self._index_at(t)
        if abs(self._times[i] - t) <= TIME_EPS:
            return i
        if i + 1 < len(self._times) and abs(self._times[i + 1] - t) <= TIME_EPS:
            return i + 1
        self._times.insert(i + 1, t)
        self._avail.insert(i + 1, self._avail[i])
        return i + 1

    def _canonicalize(self, lo: int, hi: int) -> None:
        start = max(lo - 1, 0)
        end = min(hi + 1, len(self._avail) - 1)
        i = max(start, 1)
        while i <= end and i < len(self._avail):
            if self._avail[i] == self._avail[i - 1]:
                del self._avail[i]
                del self._times[i]
                end -= 1
            else:
                i += 1

    def _max_available(self, t0: float, t1: float) -> int:
        i = self._index_at(t0)
        hi = self._avail[i]
        n = len(self._times)
        i += 1
        while i < n and self._times[i] < t1 - TIME_EPS:
            if self._avail[i] > hi:
                hi = self._avail[i]
            i += 1
        return hi

    def _shift(self, t0: float, t1: float, delta: int) -> None:
        if math.isnan(t0) or math.isnan(t1):
            raise SchedulingError("reservation times must not be NaN")
        if t1 <= t0 + TIME_EPS:
            raise SchedulingError(
                f"reservation interval [{t0}, {t1}) is empty or inverted"
            )
        if math.isinf(t1):
            raise SchedulingError("reservations must have a finite end time")
        if delta < 0 and self.min_available(t0, t1) < -delta:
            raise CapacityExceededError(
                f"reserving {-delta} processors over [{t0}, {t1}) would "
                f"exceed capacity"
            )
        if delta > 0 and self._max_available(t0, t1) + delta > self._capacity:
            raise CapacityExceededError(
                f"releasing {delta} processors over [{t0}, {t1}) would "
                f"exceed capacity {self._capacity}"
            )
        i0 = self._split_at(t0)
        i1 = self._split_at(t1)
        for i in range(i0, i1):
            self._avail[i] += delta
        self._canonicalize(i0, i1)
        self._prefix = None
        stats = self.stats
        stats.shift_ops += 1
        touched = max(i1 - i0, 1)
        stats.segments_touched += touched
        stats.last_touched = touched

    def free_area(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        if math.isinf(t1):
            raise SchedulingError("free_area requires a finite upper bound")
        total = 0.0
        i = self._index_at(t0)
        n = len(self._times)
        cur = t0
        while cur < t1 - TIME_EPS:
            seg_end = self._times[i + 1] if i + 1 < n else math.inf
            upper = min(seg_end, t1)
            total += self._avail[i] * (upper - cur)
            cur = upper
            i += 1
        return total


def _placement_stream(n: int, capacity: int, horizon: float, seed: int):
    """Deterministic (release, duration, processors) request stream.

    Releases are uniform over ``[0, horizon]`` so reservations land all
    over the profile (mid-list splices, heavy fragmentation), not just at
    the frontier.
    """
    rng = random.Random(seed)
    for _ in range(n):
        yield (
            rng.uniform(0.0, horizon),
            rng.uniform(0.5, 20.0),
            rng.randint(1, max(1, capacity // 4)),
        )


def run_reserve_fit_bench(
    profile_cls: type[AvailabilityProfile] = AvailabilityProfile,
    n_placements: int = 10_000,
    capacity: int = 64,
    seed: int = 7,
) -> dict[str, float | int]:
    """Time the greedy inner loop: ``earliest_fit`` + ``reserve`` per job.

    Runs ``n_placements`` placements on one ever-growing profile (no
    compaction) and reports wall time, ops/sec and the final segment count.
    The request stream, and therefore the resulting profile, is identical
    for every ``profile_cls`` — the assertion at the end guards that the
    baseline and the optimized implementation computed the same schedule.
    """
    profile = profile_cls(capacity)
    horizon = n_placements * 0.4  # keeps ~linear segment growth and contention
    requests = list(_placement_stream(n_placements, capacity, horizon, seed))
    placed = 0
    t_start = time.perf_counter()
    for release, duration, processors in requests:
        start = earliest_fit(profile, processors, duration, release)
        if start is None:
            continue
        profile.reserve(start, start + duration, processors)
        placed += 1
    elapsed = time.perf_counter() - t_start
    profile.check_invariants()
    return {
        "implementation": profile_cls.__name__,
        "placements": placed,
        "seconds": elapsed,
        "ops_per_sec": placed / elapsed if elapsed > 0 else float("inf"),
        "final_segments": len(profile),
        "checksum": round(sum(profile._avail), 6),  # noqa: SLF001 - identity guard
    }


def run_area_query_bench(
    profile_cls: type[AvailabilityProfile] = AvailabilityProfile,
    n_queries: int = 10_000,
    n_reservations: int = 2_000,
    capacity: int = 64,
    seed: int = 11,
) -> dict[str, float | int]:
    """Time ``free_area`` window probes on a fragmented, *static* profile.

    This is the tie-break rule's access pattern: many area queries between
    mutations.  The optimized profile answers from cached prefix sums
    (O(log S)); the legacy baseline re-walks segments every call.
    """
    profile = profile_cls(capacity)
    horizon = n_reservations * 0.4
    for release, duration, processors in _placement_stream(
        n_reservations, capacity, horizon, seed
    ):
        start = earliest_fit(profile, processors, duration, release)
        if start is not None:
            profile.reserve(start, start + duration, processors)
    rng = random.Random(seed + 1)
    windows = [
        (t0, t0 + rng.uniform(1.0, horizon / 4))
        for t0 in (rng.uniform(0.0, horizon) for _ in range(n_queries))
    ]
    acc = 0.0
    t_start = time.perf_counter()
    for t0, t1 in windows:
        acc += profile.free_area(t0, t1)
    elapsed = time.perf_counter() - t_start
    return {
        "implementation": profile_cls.__name__,
        "queries": n_queries,
        "seconds": elapsed,
        "ops_per_sec": n_queries / elapsed if elapsed > 0 else float("inf"),
        "segments": len(profile),
        "checksum": round(acc, 3),
    }


def main() -> None:
    """Standalone entry: print both micro-benchmarks for both implementations."""
    out = {
        "reserve_fit": {
            "before": run_reserve_fit_bench(LegacyAvailabilityProfile),
            "after": run_reserve_fit_bench(AvailabilityProfile),
        },
        "area_query": {
            "before": run_area_query_bench(LegacyAvailabilityProfile),
            "after": run_area_query_bench(AvailabilityProfile),
        },
    }
    for name, pair in out.items():
        speedup = pair["after"]["ops_per_sec"] / pair["before"]["ops_per_sec"]
        pair["speedup"] = round(speedup, 3)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
