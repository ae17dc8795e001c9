"""Task specifications.

A :class:`TaskSpec` is one node of a job's task chain: a non-preemptible
unit of parallel work requesting ``processors`` CPUs for ``duration`` time,
to be completed (together with all its chain predecessors) by ``deadline``.
Deadlines here are *relative to the job's release time*; they are resolved
to absolute times when the job is released (see :class:`repro.model.job.Job`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.resources import (
    TIME_LIMIT, ProcessorTimeRequest, checked_time, slot_setters,
)
from repro.errors import InvalidTaskError

__all__ = ["TaskSpec"]


@dataclass(frozen=True, slots=True, init=False)
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
        with work-conserving duration scaling.  An ``int`` (not a ``bool``),
        like the request's width; ``0``, the default, means the rigid
        request's processor count.
    """

    name: str
    request: ProcessorTimeRequest
    deadline: float = math.inf
    quality: float = 1.0
    max_concurrency: int = 0

    def __init__(
        self, name: str, request: ProcessorTimeRequest,
        deadline: float = math.inf, quality: float = 1.0,
        max_concurrency: int = 0,
    ) -> None:  # stores through the slots: see resources.slot_setters
        if not name:
            raise InvalidTaskError("task name must be non-empty")
        if not (type(deadline) is float and 0.0 < deadline < TIME_LIMIT):
            checked = checked_time(
                deadline, "task deadline", InvalidTaskError, allow_inf=True
            )
            if checked <= 0:
                raise InvalidTaskError(
                    f"task {name!r}: deadline must be positive, got {deadline!r}"
                )
            deadline = checked
        if math.isnan(quality) or quality < 0:
            raise InvalidTaskError(
                f"task {name!r}: quality must be >= 0, got {quality!r}"
            )
        if not isinstance(max_concurrency, int) or isinstance(max_concurrency, bool):
            raise InvalidTaskError(
                f"task {name!r}: max_concurrency must be an int, "
                f"got {max_concurrency!r}"
            )
        width = request.processors
        if max_concurrency == 0:
            max_concurrency = width
        elif max_concurrency < width:
            raise InvalidTaskError(
                f"task {name!r}: max_concurrency {max_concurrency} "
                f"below rigid width {width}"
            )
        _set_name(self, name)
        _set_request(self, request)
        _set_deadline(self, deadline)
        _set_quality(self, quality)
        _set_max_concurrency(self, max_concurrency)

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


(_set_name, _set_request, _set_deadline, _set_quality,
 _set_max_concurrency) = slot_setters(TaskSpec)
