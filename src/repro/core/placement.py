"""Placement records: where tasks and chains land in processor-time space.

A :class:`Placement` is the scheduler's answer for one task — its start
time, actual processor count and actual duration (which equal the rigid
request for non-malleable tasks, and a work-conserving reshape for malleable
ones).  A :class:`ChainPlacement` strings task placements together for one
chosen configuration of a job; it knows how to validate itself against the
chain's precedence and deadline constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from repro.core.resources import TIME_EPS, time_leq
from repro.errors import ScheduleConsistencyError
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec

__all__ = ["Placement", "ChainPlacement", "slot_setters"]

_INF = math.inf


def slot_setters(cls: type) -> tuple:
    """Each field's slot-descriptor ``__set__``, in field order.

    The generated ``__init__`` of a frozen dataclass stores every field by
    name through ``object.__setattr__`` — half of what such an object
    costs on the admission write-back — so the decision path's classes
    write their own (``init=False``) and store through these.  Assignment
    and ``del`` still raise ``FrozenInstanceError``.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Placement:
    """One task pinned to ``processors`` CPUs over ``[start, start+duration)``."""

    task: TaskSpec
    start: float
    processors: int
    duration: float

    def __init__(
        self, task: TaskSpec, start: float, processors: int, duration: float
    ) -> None:
        if not -_INF < start < _INF:  # NaN fails every comparison
            raise ScheduleConsistencyError(
                f"placement of {task.name!r} has non-finite start {start!r}"
            )
        if processors <= 0 or not 0 < duration < _INF:
            raise ScheduleConsistencyError(
                f"placement of {task.name!r} has non-positive extent "
                f"({processors} procs, {duration} time)"
            )
        _set_task(self, task)
        _set_start(self, start)
        _set_processors(self, processors)
        _set_duration(self, duration)

    @property
    def end(self) -> float:
        """Finish time of the task."""
        return self.start + self.duration

    @property
    def area(self) -> float:
        """Processor-time consumed."""
        return self.processors * self.duration

    @staticmethod
    def rigid(task: TaskSpec, start: float) -> "Placement":
        """Placement honouring the task's rigid request exactly."""
        request = task.request
        return Placement(task, start, request.processors, request.duration)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.task.name}@[{self.start:g},{self.end:g})"
            f"x{self.processors}p"
        )


_set_task, _set_start, _set_processors, _set_duration = slot_setters(Placement)


@dataclass(frozen=True, slots=True, init=False)
class ChainPlacement:
    """A complete schedule for one chain of one job.

    Attributes
    ----------
    job_id / chain_index / chain:
        Which job, which of its alternative chains, and the chain itself.
    placements:
        One :class:`Placement` per chain task, in chain order.
    release:
        The job's release time (placements may not start before it).
    """

    job_id: int
    chain_index: int
    chain: TaskChain
    placements: tuple[Placement, ...]
    release: float

    def __init__(
        self, job_id: int, chain_index: int, chain: TaskChain,
        placements: Iterable[Placement], release: float,
    ) -> None:
        placements = tuple(placements)
        if len(placements) != len(chain.tasks):
            raise ScheduleConsistencyError(
                f"job {job_id}: {len(placements)} placements for a "
                f"{len(chain)}-task chain"
            )
        _set_job_id(self, job_id)
        _set_chain_index(self, chain_index)
        _set_chain(self, chain)
        _set_placements(self, placements)
        _set_release(self, release)

    def __iter__(self) -> Iterator[Placement]:
        return iter(self.placements)

    @property
    def start(self) -> float:
        """Start of the first task."""
        return self.placements[0].start

    @property
    def finish(self) -> float:
        """Finish of the last task (the job's completion time)."""
        return self.placements[-1].end

    @property
    def response_time(self) -> float:
        """Completion time minus release time."""
        return self.finish - self.release

    @property
    def total_area(self) -> float:
        """Processor-time consumed by the whole chain as placed."""
        return sum(p.area for p in self.placements)

    def validate(self) -> None:
        """Check release, precedence and per-task deadline constraints.

        Raises :class:`~repro.errors.ScheduleConsistencyError` on the first
        violation.  Capacity feasibility is a *schedule-level* property and
        is checked by :meth:`repro.core.schedule.Schedule.check_consistency`.
        """
        prev_end = self.release
        for pl, task in zip(self.placements, self.chain.tasks):
            if pl.task is not task and pl.task != task:
                raise ScheduleConsistencyError(
                    f"job {self.job_id}: placement/task mismatch at {task.name!r}"
                )
            if pl.start < prev_end - TIME_EPS:
                raise ScheduleConsistencyError(
                    f"job {self.job_id}: task {task.name!r} starts at "
                    f"{pl.start} before its predecessor finishes at {prev_end}"
                )
            absolute_deadline = self.release + task.deadline
            if not time_leq(pl.end, absolute_deadline):
                raise ScheduleConsistencyError(
                    f"job {self.job_id}: task {task.name!r} finishes at "
                    f"{pl.end} past its deadline {absolute_deadline}"
                )
            prev_end = pl.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = " ".join(str(p) for p in self.placements)
        return f"job#{self.job_id}[chain {self.chain_index}] {body}"


(_set_job_id, _set_chain_index, _set_chain, _set_placements,
 _set_release) = slot_setters(ChainPlacement)
