"""Concrete processor assignment for committed schedules.

Section 3.1: the QoS arbitrator's algorithms "make an assignment of which
processors will execute which application tasks and for what time."  The
scheduling core tracks only processor *counts* (sufficient for feasibility
on homogeneous machines); this module derives the concrete mapping — each
placement gets specific processor indices for its interval — which the
paper's architecture hands back to the QoS agent and which the SVG Gantt
renderer draws.

The assignment is a sweep over placements in start order, holding a pool of
free processor indices: right-open intervals mean a task ending at ``t``
frees its processors for a task starting at ``t``.  Feasibility is
guaranteed by the profile's capacity invariant, so a pool underflow here
indicates schedule corruption and raises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.schedule import Schedule
from repro.errors import ScheduleConsistencyError

__all__ = ["AssignedSlice", "assign_processors"]


@dataclass(frozen=True, slots=True)
class AssignedSlice:
    """One task occurrence pinned to one concrete processor."""

    job_id: int
    task: str
    processor: int
    start: float
    end: float


def assign_processors(schedule: Schedule) -> list[AssignedSlice]:
    """Assign concrete processor indices to every committed placement.

    Returns one :class:`AssignedSlice` per (task, processor) pair, sorted by
    ``(start, processor)``.  Lowest-numbered free processors are taken
    first, so assignments are deterministic and visually compact.

    Requires the schedule to have been built with ``keep_placements=True``.
    """
    occurrences = sorted(
        (
            (pl.start, pl.end, pl.processors, cp.job_id, pl.task.name)
            for cp in schedule.placements
            for pl in cp.placements
        ),
        key=lambda row: (row[0], row[3], row[4]),
    )
    free = list(range(schedule.capacity))
    heapq.heapify(free)
    running: list[tuple[float, list[int]]] = []  # (end, processor indices)
    slices: list[AssignedSlice] = []

    for start, end, procs, job_id, task_name in occurrences:
        while running and running[0][0] <= start:
            _end, indices = heapq.heappop(running)
            for idx in indices:
                heapq.heappush(free, idx)
        if len(free) < procs:
            raise ScheduleConsistencyError(
                f"processor pool underflow at t={start}: task {task_name!r} of "
                f"job {job_id} needs {procs}, only {len(free)} free — the "
                "schedule's placements exceed capacity"
            )
        taken = [heapq.heappop(free) for _ in range(procs)]
        heapq.heappush(running, (end, taken))
        for idx in taken:
            slices.append(
                AssignedSlice(
                    job_id=job_id,
                    task=task_name,
                    processor=idx,
                    start=start,
                    end=end,
                )
            )
    slices.sort(key=lambda s: (s.start, s.processor))
    return slices
