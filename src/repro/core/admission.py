"""Admission control (Section 3.1).

"Upon job arrival, the QoS arbitrator first performs admission control to
check whether or not application resource requirements can be satisfied.
Application tunability increases the likelihood that an application can be
admitted into the system."

Admission here is all-or-nothing at arrival under the static negotiation
model: a job whose configurations all fail first fit is rejected and never
retried.  An admitted job's chosen placement is committed immediately and is
never revoked (the paper assumes a fault-free, fixed-resource system for the
Section 5 experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.greedy import GreedyScheduler
from repro.core.placement import ChainPlacement, slot_setters
from repro.model.job import Job

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True, slots=True, init=False)
class AdmissionDecision:
    """Outcome of offering one job to admission control."""

    job_id: int
    admitted: bool
    placement: ChainPlacement | None
    reason: str = ""

    def __init__(
        self, job_id: int, admitted: bool, placement: ChainPlacement | None,
        reason: str = "",
    ) -> None:  # stores through the slots: see placement.slot_setters
        _set_job_id(self, job_id)
        _set_admitted(self, admitted)
        _set_placement(self, placement)
        _set_reason(self, reason)

    @property
    def chain_index(self) -> int | None:
        """Index of the configuration granted, or ``None`` if rejected."""
        return self.placement.chain_index if self.placement else None

    @property
    def finish(self) -> float | None:
        """Scheduled completion time, or ``None`` if rejected."""
        return self.placement.finish if self.placement else None


_set_job_id, _set_admitted, _set_placement, _set_reason = slot_setters(
    AdmissionDecision
)


class AdmissionController:
    """Offers jobs to a scheduler and keeps acceptance accounting.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.core.greedy.GreedyScheduler` (rigid or malleable).
    compact:
        When True (default), the schedule's profile is compacted to each
        job's release time before scheduling — sound because no task may
        start before the newest arrival, and essential for long simulations
        (keeps the profile size proportional to *live* allocations).
        Requires non-decreasing release times across :meth:`offer` calls;
        violating that raises from the profile layer.
    """

    def __init__(self, scheduler: GreedyScheduler, compact: bool = True) -> None:
        self.scheduler = scheduler
        self.compact = compact
        self.admitted = 0
        self.rejected = 0
        self.decisions_by_chain: dict[int, int] = {}

    @property
    def offered(self) -> int:
        """Total number of jobs offered so far."""
        return self.admitted + self.rejected

    def offer(self, job: Job) -> AdmissionDecision:
        """Run admission control and (on success) commit the chosen chain."""
        if self.compact:
            self.scheduler.schedule.compact(job.release)
        placement = self.scheduler.schedule_job(job)
        if placement is None:
            self.rejected += 1
            return AdmissionDecision(
                job.job_id, False, None, reason="no schedulable configuration"
            )
        self.admitted += 1
        self.decisions_by_chain[placement.chain_index] = (
            self.decisions_by_chain.get(placement.chain_index, 0) + 1
        )
        return AdmissionDecision(job.job_id, True, placement)
