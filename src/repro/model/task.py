"""Task specifications.

A :class:`TaskSpec` is one node of a job's task chain: a non-preemptible
unit of parallel work requesting ``processors`` CPUs for ``duration`` time,
to be completed (together with all its chain predecessors) by ``deadline``.
Deadlines here are *relative to the job's release time*; they are resolved
to absolute times when the job is released (see :class:`repro.model.job.Job`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.resources import ProcessorTimeRequest, checked_time
from repro.errors import InvalidTaskError

__all__ = ["TaskSpec"]


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One non-preemptible parallel task in a chain.

    Attributes
    ----------
    name:
        Human-readable identifier (unique within its chain by convention).
    request:
        The rigid processor-time request (Section 5.1's task "shape").
    deadline:
        Relative deadline: the task and all predecessors must finish within
        this many time units of the job's release.  ``math.inf`` means
        unconstrained; a finite one is positive and inside the range of
        :func:`~repro.core.resources.checked_time`.
    quality:
        Output-quality value of this task under this configuration
        (Section 4.2's ``quality`` field).  Composed over the chain by
        :func:`repro.model.quality.chain_quality`.
    max_concurrency:
        Degree of concurrency for the malleable model (Section 5.4) — the
        task may run on any integer processor count in ``[1, max_concurrency]``
        with work-conserving duration scaling.  Defaults to the rigid
        request's processor count.
    """

    name: str
    request: ProcessorTimeRequest
    deadline: float = math.inf
    quality: float = 1.0
    max_concurrency: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTaskError("task name must be non-empty")
        deadline = checked_time(
            self.deadline, "task deadline", InvalidTaskError, allow_inf=True
        )
        if deadline <= 0:
            raise InvalidTaskError(
                f"task {self.name!r}: deadline must be positive, got {self.deadline!r}"
            )
        if type(self.deadline) is not float:
            object.__setattr__(self, "deadline", deadline)
        if math.isnan(self.quality) or self.quality < 0:
            raise InvalidTaskError(
                f"task {self.name!r}: quality must be >= 0, got {self.quality!r}"
            )
        if self.max_concurrency == 0:
            object.__setattr__(self, "max_concurrency", self.request.processors)
        if self.max_concurrency < self.request.processors:
            raise InvalidTaskError(
                f"task {self.name!r}: max_concurrency {self.max_concurrency} "
                f"below rigid width {self.request.processors}"
            )

    # Convenience accessors -------------------------------------------------

    @property
    def processors(self) -> int:
        """Rigid processor count of the task."""
        return self.request.processors

    @property
    def duration(self) -> float:
        """Rigid duration of the task."""
        return self.request.duration

    @property
    def area(self) -> float:
        """Processor-time area (total work) of the task."""
        return self.request.area

    def with_deadline(self, deadline: float) -> "TaskSpec":
        """Return a copy with a different relative deadline."""
        return replace(self, deadline=deadline)

    def with_quality(self, quality: float) -> "TaskSpec":
        """Return a copy with a different quality value."""
        return replace(self, quality=quality)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dl = "inf" if math.isinf(self.deadline) else format(self.deadline, "g")
        return f"{self.name}({self.request}, d<={dl})"
