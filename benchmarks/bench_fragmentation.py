"""Fragmentation-scaling benchmark: decision latency vs segment count.

The admission hot path is the per-task ``earliest_fit`` scan, and its cost
grows with schedule *fragmentation* (live profile segments), not with job
count.  This benchmark makes that axis explicit: it builds a congested
profile with a controlled segment count — a backlog region of unit-width
segments whose availability cycles through small values, followed by a
fully-free frontier — and times complete admission decisions
(:meth:`GreedyScheduler.choose`) for both scans — the ``"scalar"`` walk
and the ``"kernel"`` back-end of :mod:`repro.core.kernels`, compiled or
pure-Python depending on ``REPRO_KERNEL`` — and for the ``"auto"`` rule
that chooses between them, at each fragmentation level.

The workload is deliberately *query-dominated*: probes need far more
processors than any backlog segment offers, so every probe crosses the
whole backlog (O(S)) and decisions probe, they do not commit.  It is the
committed data the ``"auto"`` crossovers are pinned against
(``tests/core/test_auto_backend.py``).

Two guards make the report trustworthy:

* every decision (admit/reject, chosen chain, every placement start/width)
  is checksummed and must be identical across the back-ends *and* across
  ``prune=True``/``prune=False``;
* a commit pass re-runs the job stream with commits applied and checksums
  the admit sequence, chosen chains, utilization and the final profile
  breakpoints across back-ends, then audits each profile's invariants.

The job mix also exercises the candidate prunes (duplicate configurations,
pointwise-dominated doomed configurations), so the report carries probed
vs pruned counters alongside the latency percentiles.
"""

from __future__ import annotations

import hashlib
import math
import time

from repro.core import kernels
from repro.core.greedy import GreedyScheduler
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec

__all__ = ["build_fragmented_schedule", "fragmentation_jobs", "run_fragmentation_bench"]

CAPACITY = 64
#: The two scans and the rule that chooses between them.
_BACKENDS = ("scalar", "kernel", "auto")
#: Availability cycle of the backlog region: every value is far below the
#: probe widths, so no probe can place before the frontier.
_BACKLOG_AVAIL = (1, 3, 6, 2, 5, 4)


def build_fragmented_schedule(n_segments: int, backend: str) -> Schedule:
    """A schedule whose profile has ``n_segments`` unit-width backlog segments.

    Segment ``i`` covers ``[i, i+1)`` with availability cycling through
    ``_BACKLOG_AVAIL``; everything from ``t = n_segments`` on (the
    *frontier*) is fully free.  Adjacent availabilities always differ, so
    canonicalization keeps every breakpoint and ``len(profile)`` lands on
    ``n_segments + 1`` exactly.
    """
    schedule = Schedule(CAPACITY, keep_placements=False, backend=backend)
    profile = schedule.profile
    for i in range(n_segments):
        profile.reserve(float(i), float(i + 1), CAPACITY - _BACKLOG_AVAIL[i % 6])
    return schedule


def _task(name: str, procs: int, dur: float, deadline: float, q: float = 1.0) -> TaskSpec:
    return TaskSpec(name, ProcessorTimeRequest(procs, dur), deadline=deadline, quality=q)


def fragmentation_jobs(n_jobs: int, n_segments: int) -> list[Job]:
    """Deterministic probe jobs against a ``n_segments``-deep backlog.

    All release at 0 with deadlines generous enough to place at the
    frontier, cycling through three types:

    * plain two-path tunable jobs (both paths feasible, distinct shapes);
    * duplicate-path jobs (both paths identical — duplicate collapse);
    * doomed-then-fallback jobs: two configurations whose deadlines end
      inside the backlog (unplaceable, the second pointwise harder than
      the first — failure propagation) plus a feasible fallback.
    """
    horizon = float(n_segments)
    jobs: list[Job] = []
    for i in range(n_jobs):
        kind = i % 4
        w1 = 16 + 8 * (i % 3)  # 16, 24, 32 — all above every backlog segment
        d1 = 3.0 + (i % 4)
        c1 = TaskChain(
            (
                _task("a", w1, d1, horizon + 100.0),
                _task("b", w1 // 2, d1 / 2, horizon + 200.0),
            ),
            label="c1",
        )
        if kind <= 1:
            c2 = TaskChain(
                (
                    _task("a", 48, 2.0, horizon + 100.0, q=0.8),
                    _task("b", 12, d1, horizon + 200.0, q=0.8),
                ),
                label="c2",
            )
            jobs.append(Job((c1, c2), job_id=i))
        elif kind == 2:
            dup = TaskChain(tuple(c1.tasks), label="dup")
            jobs.append(Job((c1, dup), job_id=i))
        else:
            # Deadlines end mid-backlog: no sufficient run exists before
            # them, so both configurations force a full backlog scan when
            # probed — the second is pointwise harder and prunable.
            doomed1 = TaskChain((_task("a", w1, d1, horizon * 0.5),), label="doomed1")
            doomed2 = TaskChain(
                (_task("a", w1 + 8, d1 + 1.0, horizon * 0.4),), label="doomed2"
            )
            jobs.append(Job((doomed1, doomed2, c1), job_id=i))
    return jobs


def _decision_key(cp) -> tuple | None:
    if cp is None:
        return None
    return (
        cp.chain_index,
        tuple((pl.start, pl.end, pl.processors) for pl in cp.placements),
    )


def _checksum(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _timed_decisions(
    n_segments: int, jobs: list[Job], backend: str, prune: bool
) -> tuple[dict, str]:
    """Per-decision latency percentiles + decision checksum for one config."""
    schedule = build_fragmented_schedule(n_segments, backend)
    scheduler = GreedyScheduler(schedule, prune=prune)
    for job in jobs:  # warmup: builds mirrors / prefix once
        scheduler.choose(job)
    samples: list[float] = []
    decisions: list[tuple | None] = []
    for job in jobs:
        t0 = time.perf_counter()
        cp = scheduler.choose(job)
        samples.append(time.perf_counter() - t0)
        decisions.append(_decision_key(cp))
    samples.sort()
    perf = schedule.perf.snapshot()
    report = {
        "p50_us": round(samples[len(samples) // 2] * 1e6, 3),
        "p95_us": round(samples[int(len(samples) * 0.95)] * 1e6, 3),
        "seconds": round(sum(samples), 6),
        "chains_probed": perf.get("chains_probed", 0),
        "chains_pruned_dominated": perf.get("chains_pruned_dominated", 0),
        "probe_segments": schedule.profile.stats.probe_segments,
    }
    return report, _checksum(decisions)


def _commit_pass(n_segments: int, jobs: list[Job], backend: str) -> str:
    """Commit the whole stream; checksum decisions + utilization + profile."""
    schedule = build_fragmented_schedule(n_segments, backend)
    scheduler = GreedyScheduler(schedule, prune=True)
    outcome: list[tuple | None] = []
    for job in jobs:
        outcome.append(_decision_key(scheduler.schedule_job(job)))
    schedule.profile.check_invariants()
    profile = schedule.profile
    payload = (
        outcome,
        schedule.committed_area,
        schedule.utilization(),
        tuple(profile._times),  # noqa: SLF001 - equivalence guard
        tuple(profile._avail),  # noqa: SLF001
    )
    return _checksum(payload)


def run_fragmentation_bench(
    n_probes: int,
    segment_counts: tuple[int, ...] = (100, 1_000, 10_000),
) -> dict:
    """Latency-vs-fragmentation comparison across the scan back-ends.

    Raises if any back-end or prune mode disagrees on any decision.
    """
    points = []
    for n_segments in segment_counts:
        jobs = fragmentation_jobs(n_probes, n_segments)
        backends: dict[str, dict] = {}
        checksums: dict[str, str] = {}
        for backend in _BACKENDS:
            report, checksum = _timed_decisions(n_segments, jobs, backend, prune=True)
            backends[backend] = report
            checksums[backend] = checksum
        full_report, full_checksum = _timed_decisions(
            n_segments, jobs, "scalar", prune=False
        )
        checksums["scalar_unpruned"] = full_checksum
        commit_checksums = {
            b: _commit_pass(n_segments, jobs, b) for b in _BACKENDS
        }
        if len(set(checksums.values())) != 1:
            raise AssertionError(
                f"decision divergence at {n_segments} segments: {checksums}"
            )
        if len(set(commit_checksums.values())) != 1:
            raise AssertionError(
                f"commit divergence at {n_segments} segments: {commit_checksums}"
            )
        points.append(
            {
                "segments": n_segments,
                "decisions": n_probes,
                "backends": backends,
                "pruning": {
                    "chains_probed_full": full_report["chains_probed"],
                    "chains_probed_pruned": backends["scalar"]["chains_probed"],
                    "chains_pruned_dominated": backends["scalar"][
                        "chains_pruned_dominated"
                    ],
                    "probe_segments_full": full_report["probe_segments"],
                    "probe_segments_pruned": backends["scalar"]["probe_segments"],
                },
                "checksum": checksums["scalar"],
                "checksums_match": True,
            }
        )
    return {
        "capacity": CAPACITY,
        "workload": "unit-segment backlog + free frontier (see module docs)",
        "kernel_backend": kernels.kernel_backend(),
        "points": points,
    }


if __name__ == "__main__":
    import json

    print(json.dumps(run_fragmentation_bench(100, (100, 1_000)), indent=2))
