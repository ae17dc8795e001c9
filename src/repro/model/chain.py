"""Task chains — one enumerated execution path of a (possibly tunable) job.

"We restrict our attention to jobs which can be represented as a chain of
tasks" (Section 5.1).  Tasks execute strictly in order; "a task can begin
execution as soon as its immediate predecessor completes" and each task's
deadline "denotes the time by which the task and all its predecessors must
finish" (Section 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.resources import slot_setters
from repro.errors import InvalidChainError
from repro.model.task import TaskSpec

__all__ = ["TaskChain"]


@dataclass(frozen=True, slots=True, init=False)
class TaskChain:
    """An ordered, non-empty sequence of :class:`~repro.model.task.TaskSpec`.

    Attributes
    ----------
    tasks:
        The tasks in execution order.
    label:
        Optional human-readable name for the configuration this chain
        represents (e.g. ``"shape1"`` for the synthetic system, or a
        rendering of the control-parameter assignment for DSL programs).
    params:
        The control-parameter assignment that selects this path, when the
        chain was produced by the tunability preprocessor (Section 4); the
        QoS agent uses it to configure the application after negotiation.
    """

    tasks: tuple[TaskSpec, ...]
    label: str = ""
    params: Mapping[str, object] | None = None

    def __init__(
        self, tasks: Sequence[TaskSpec], label: str = "",
        params: Mapping[str, object] | None = None,
    ) -> None:  # stores through the slots: see resources.slot_setters
        tasks = tuple(tasks)
        if not tasks:
            raise InvalidChainError("a task chain must contain at least one task")
        for t in tasks:
            if not isinstance(t, TaskSpec):
                raise InvalidChainError(f"chain element {t!r} is not a TaskSpec")
        _set_tasks(self, tasks)
        _set_label(self, label)
        _set_params(self, None if params is None else dict(params))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self.tasks)

    def __getitem__(self, i: int) -> TaskSpec:
        return self.tasks[i]

    @property
    def total_area(self) -> float:
        """Total processor-time consumed by the chain."""
        return sum(t.area for t in self.tasks)

    @property
    def total_duration(self) -> float:
        """Sum of task durations (minimum possible span with zero gaps)."""
        return sum(t.duration for t in self.tasks)

    @property
    def max_width(self) -> int:
        """Largest processor count requested by any task."""
        return max(t.processors for t in self.tasks)

    @property
    def final_deadline(self) -> float:
        """Relative deadline of the whole chain (last task's deadline)."""
        return self.tasks[-1].deadline

    def prefix_areas(self) -> tuple[float, ...]:
        """Cumulative processor-time after each task.

        Used by the tie-break rule of Section 5.2 ("require fewer total
        resources for some prefix of their tasks").
        """
        areas: list[float] = []
        acc = 0.0
        for t in self.tasks:
            acc += t.area
            areas.append(acc)
        return tuple(areas)

    def effective_deadlines(self) -> tuple[float, ...]:
        """Per-task deadlines tightened by successors.

        A task must finish by its own deadline, but since successors must
        also finish by theirs and take positive time, ``d_i`` is effectively
        ``min(d_i, d_{i+1} - dur_{i+1}, d_{i+2} - dur_{i+1} - dur_{i+2}, ...)``.
        The greedy scheduler does not *need* this tightening for correctness
        (it checks each deadline as it places), but admission tests and the
        EDF baseline use it.
        """
        n = len(self.tasks)
        eff = [t.deadline for t in self.tasks]
        for i in range(n - 2, -1, -1):
            eff[i] = min(eff[i], eff[i + 1] - self.tasks[i + 1].duration)
        return tuple(eff)

    def is_trivially_infeasible(self, capacity: int) -> bool:
        """True if no schedule on ``capacity`` processors can ever fit.

        Checks width against the machine and the zero-gap execution against
        each (effective) deadline — a cheap necessary condition used for
        fast-path rejection.  The running sum is relative to the release,
        while first fit adds each duration to an absolute start, and the
        two round differently, so the test keeps a small slack.
        """
        if self.max_width > capacity:
            return True
        elapsed = 0.0
        for t, eff in zip(self.tasks, self.effective_deadlines()):
            elapsed += t.duration
            if elapsed > eff + 1e-9:
                return True
        return False

    def describe(self) -> str:
        """One-line rendering: ``label: task1 -> task2 -> ...``."""
        body = " -> ".join(str(t) for t in self.tasks)
        return f"{self.label or 'chain'}: {body}"

    @staticmethod
    def of(tasks: Sequence[TaskSpec], label: str = "") -> "TaskChain":
        """Convenience constructor from any task sequence."""
        return TaskChain(tuple(tasks), label=label)


_set_tasks, _set_label, _set_params = slot_setters(TaskChain)
