"""A best-effort EDF executor (extension; paper §6 context).

The related-work section notes that classic real-time schedulers such as
EDF lose their optimality guarantees for *parallel* tasks, and the
introduction argues best-effort parallel resource management gives soft
real-time applications "arbitrary delay".  This module makes those claims
measurable: it executes the same job streams as the QoS arbitrator but with
**no reservations and no admission control** — tasks queue in
earliest-deadline-first order and start whenever enough processors are
free.

Semantics
---------
* Non-preemptive: a started task holds its processors to completion.
* A task is dispatched only if it can still meet its deadline
  (``now + duration <= deadline``); otherwise its whole job is dropped as
  *late* (its chain cannot complete on time).  Work already spent on a
  later-dropped job is counted as *wasted*.
* Tasks behind a queue head too wide for the free processors start if they
  fit; the head keeps its place in the queue.
* A tunable job runs its first chain (the application's default): there is
  no negotiation in a best-effort world.

:meth:`EDFExecutor.run` is one virtual-time loop over a plain ``heapq`` of
``(time, seq, item)``, the item an arriving :class:`~repro.model.job.Job`
or a finishing task's job state, as
:class:`~repro.sim.simulator.ArrivalSimulator` is over its own heap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError, SimulationError
from repro.model.job import Job

__all__ = ["BestEffortMetrics", "EDFExecutor"]


@dataclass(frozen=True, slots=True)
class BestEffortMetrics:
    """Outcome of one best-effort run.

    ``on_time`` jobs completed every task by its deadline; ``late`` jobs
    were dropped when some task could no longer meet its deadline.
    ``wasted_area`` is processor-time consumed by tasks of jobs that were
    later dropped — work a reservation-based admission controller would
    never have started.
    """

    offered: int
    on_time: int
    late: int
    busy_area: float
    wasted_area: float
    horizon: float
    capacity: int

    @property
    def utilization(self) -> float:
        """Busy processor-time over capacity x horizon."""
        if self.horizon <= 0:
            return 0.0
        return self.busy_area / (self.capacity * self.horizon)

    @property
    def goodput_utilization(self) -> float:
        """Utilization counting only work of on-time jobs."""
        if self.horizon <= 0:
            return 0.0
        return (self.busy_area - self.wasted_area) / (self.capacity * self.horizon)


class _JobState:
    __slots__ = ("job", "chain", "next_task", "consumed_area")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.chain = job.chains[0]
        self.next_task = 0
        self.consumed_area = 0.0


class EDFExecutor:
    """Queue-based best-effort execution of parallel real-time job chains.

    ``capacity`` is the number of processors.  An executor runs one arrival
    sequence.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._free = capacity
        self._ready: list[tuple[float, int, _JobState]] = []  # (abs deadline, seq, state)
        self._events: list[tuple[float, int, Job | _JobState]] = []  # (time, seq, item)
        # One counter numbers every push, so equal keys keep insertion order.
        self._seq = itertools.count()
        self._offered = 0
        self._on_time = 0
        self._late = 0
        self._busy_area = 0.0
        self._wasted_area = 0.0
        self._horizon = 0.0

    # ------------------------------------------------------------------

    def run(self, jobs: Iterable[Job]) -> BestEffortMetrics:
        """Execute a complete arrival sequence to quiescence.

        Every arrival is pushed, in release order, before the first event
        runs; a finish is pushed when its task is dispatched.  So at equal
        instants arrivals pop before finishes, and the arriving job is
        queued before the finishing task frees its processors.
        """
        last = -math.inf
        for job in jobs:
            if job.release < last:
                raise SimulationError("jobs must be supplied in release order")
            if job.release < 0.0:
                raise SimulationError(f"release {job.release} is before time 0.0")
            last = job.release
            heapq.heappush(self._events, (job.release, next(self._seq), job))
        while self._events:
            now, _, item = heapq.heappop(self._events)
            if isinstance(item, Job):
                self._offered += 1
                self._enqueue(_JobState(item))
            else:
                self._finish(now, item)
            self._dispatch(now)
        return BestEffortMetrics(
            offered=self._offered,
            on_time=self._on_time,
            late=self._late,
            busy_area=self._busy_area,
            wasted_area=self._wasted_area,
            horizon=self._horizon,
            capacity=self.capacity,
        )

    # ------------------------------------------------------------------

    def _enqueue(self, state: _JobState) -> None:
        task = state.chain[state.next_task]
        abs_deadline = state.job.release + task.deadline
        heapq.heappush(self._ready, (abs_deadline, next(self._seq), state))

    def _drop(self, state: _JobState) -> None:
        self._late += 1
        self._wasted_area += state.consumed_area

    def _finish(self, now: float, state: _JobState) -> None:
        task = state.chain[state.next_task]
        self._free += task.processors
        self._horizon = max(self._horizon, now)
        state.next_task += 1
        if state.next_task == len(state.chain):
            self._on_time += 1
        else:
            self._enqueue(state)

    def _dispatch(self, now: float) -> None:
        """Start every ready task allowed by EDF order and free processors."""
        deferred: list[tuple[float, int, _JobState]] = []
        while self._ready:
            abs_deadline, seq, state = self._ready[0]
            task = state.chain[state.next_task]
            if now + task.duration > abs_deadline:
                heapq.heappop(self._ready)
                self._drop(state)  # cannot finish on time any more
                continue
            if task.processors > self.capacity:
                heapq.heappop(self._ready)
                self._drop(state)  # can never run on this machine
                continue
            if task.processors > self._free:
                deferred.append(heapq.heappop(self._ready))
                continue
            heapq.heappop(self._ready)
            self._free -= task.processors
            self._busy_area += task.area
            state.consumed_area += task.area
            heapq.heappush(self._events, (now + task.duration, next(self._seq), state))
        for item in deferred:
            heapq.heappush(self._ready, item)
