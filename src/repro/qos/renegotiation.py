"""Renegotiation on resource-level change (Section 3.1 extension).

"In general, the QoS arbitrator also monitors system resources, and
triggers renegotiation on detecting a significant change in resource levels
(e.g., on a fault, or when new resources become available ...)."  The
Section 5 experiments assume a fault-free fixed-capacity system; this
module implements the renegotiation path the architecture calls for, so the
claim is exercised rather than assumed.

Model: at virtual time ``change.time`` the machine's capacity changes to
``change.new_capacity``.  Placements that finished by then are history;
placements *running* across the change keep their reservation if they still
fit the new capacity, else their jobs are dropped; placements that had not
started are re-negotiated in release order on the new machine — and being
tunable, a job may well be re-admitted **on a different path** than before,
which is exactly the flexibility the paper argues for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.greedy import GreedyScheduler
from repro.core.placement import ChainPlacement
from repro.core.policies import TieBreakPolicy
from repro.core.resources import time_leq
from repro.core.schedule import Schedule
from repro.errors import CapacityExceededError, ConfigurationError, NegotiationError
from repro.model.job import Job

__all__ = ["CapacityChange", "RenegotiationResult", "renegotiate"]


@dataclass(frozen=True, slots=True)
class CapacityChange:
    """The machine has ``new_capacity`` processors from ``time`` onward."""

    time: float
    new_capacity: int

    def __post_init__(self) -> None:
        if self.new_capacity <= 0:
            raise ConfigurationError(
                f"new_capacity must be positive, got {self.new_capacity}"
            )
        if math.isnan(self.time) or math.isinf(self.time):
            raise ConfigurationError(f"change time must be finite, got {self.time}")


@dataclass(frozen=True, slots=True)
class RenegotiationResult:
    """Outcome of re-planning a schedule across a capacity change.

    Attributes
    ----------
    schedule:
        The new post-change schedule (origin at the change time).  It holds
        the carried placements as well as the re-admitted ones, and its
        ``committed_area`` counts a carried placement's post-change
        (clipped) area only — the same booking as the online driver's.
    finished:
        Placements that completed by the change, within ``TIME_EPS``
        (untouched).
    carried:
        Running placements whose reservations survived the change.
    reallocated:
        ``(old, new)`` placement pairs for jobs re-admitted after the
        change; ``new.chain_index`` may differ from ``old.chain_index``.
    dropped:
        Job ids that lost their reservation (running-too-wide or
        re-admission failed).
    """

    schedule: Schedule
    finished: tuple[ChainPlacement, ...]
    carried: tuple[ChainPlacement, ...]
    reallocated: tuple[tuple[ChainPlacement, ChainPlacement], ...]
    dropped: tuple[int, ...]

    @property
    def path_switches(self) -> int:
        """How many re-admitted jobs changed execution path."""
        return sum(
            1 for old, new in self.reallocated if old.chain_index != new.chain_index
        )


def renegotiate(
    old_schedule: Schedule,
    change: CapacityChange,
    jobs_by_id: Mapping[int, Job],
    policy: TieBreakPolicy = TieBreakPolicy.PAPER,
) -> RenegotiationResult:
    """Re-plan every affected reservation across a capacity change.

    ``old_schedule`` must have been built with ``keep_placements=True``
    (the placements are the renegotiation input).  ``jobs_by_id`` must
    cover every job whose placement had not started by ``change.time`` —
    renegotiation needs their full path sets.

    A running placement is carried with :meth:`Schedule.adopt_carried
    <repro.core.schedule.Schedule.adopt_carried>`, the primitive
    :class:`~repro.resilience.driver.RenegotiationDriver` uses, so it is
    booked in the new schedule's placements and ``committed_area``.
    """
    tau = change.time
    finished: list[ChainPlacement] = []
    running: list[ChainPlacement] = []
    future: list[ChainPlacement] = []
    for cp in old_schedule.placements:
        if time_leq(cp.finish, tau):
            finished.append(cp)
        elif cp.start < tau:
            running.append(cp)
        else:
            future.append(cp)

    new_schedule = Schedule(
        change.new_capacity, origin=tau, backend=old_schedule.profile.backend
    )
    carried: list[ChainPlacement] = []
    dropped: list[int] = []

    # Carry running placements that still fit, greedily in (start, id)
    # order: reservations that individually fit may *collectively* exceed
    # the shrunken machine, in which case later jobs are dropped.
    for cp in sorted(running, key=lambda c: (c.start, c.job_id)):
        try:
            new_schedule.adopt_carried(cp, tau)
        except CapacityExceededError:
            dropped.append(cp.job_id)
            continue
        carried.append(cp)

    # Re-admit not-yet-started jobs in release order on the new machine.
    scheduler = GreedyScheduler(new_schedule, policy=policy)
    reallocated: list[tuple[ChainPlacement, ChainPlacement]] = []
    for cp in sorted(future, key=lambda c: (c.release, c.job_id)):
        job = jobs_by_id.get(cp.job_id)
        if job is None:
            raise NegotiationError(
                f"renegotiation needs job {cp.job_id} but it was not supplied"
            )
        new_cp = scheduler.schedule_job(job)
        if new_cp is None:
            dropped.append(cp.job_id)
        else:
            reallocated.append((cp, new_cp))

    return RenegotiationResult(
        schedule=new_schedule,
        finished=tuple(finished),
        carried=tuple(carried),
        reallocated=tuple(reallocated),
        dropped=tuple(dropped),
    )
