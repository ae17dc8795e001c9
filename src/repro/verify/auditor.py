"""The independent schedule auditor.

Every throughput/utilization claim in this repo rests on the admitted
schedules being *valid*: non-preemptive tasks inside their reservations,
chain precedence respected, machine capacity never exceeded, every admitted
job finishing by its deadline (paper §5.1–5.2).  The scheduler stack
(:mod:`repro.core.profile`, :mod:`repro.core.schedule`) checks itself, but a
self-check shares failure modes with the code it checks.  This module is the
second opinion: :class:`ScheduleAuditor` re-derives every invariant **from
the committed placement records and the job definitions alone**, using its
own sweep-line arithmetic — it deliberately shares *no validation logic*
with the profile or the schedule (no ``earliest_fit``, no
``AvailabilityProfile`` queries inside the capacity check, no
``ChainPlacement.validate``).  The only thing it reads from the audited
objects is their data: placements, ledger counters, profile segments.

Invariant catalogue (violation ``code`` values)
-----------------------------------------------

================== =========================================================
``shape.count``     placement count differs from chain length
``shape.task``      placement's task is not the chain's task at that index
``shape.width``     rigid placement width differs from the task request
``shape.duration``  rigid placement duration differs from the task request
``shape.malleable`` malleable placement violates work conservation or
                    exceeds the task's degree of concurrency
``config``          the placed chain is not one of the job's offered chains
``release``         a task starts before its job's release
``precedence``      a task starts before its predecessor finishes
``deadline``        a task finishes after ``release + task.deadline``
``capacity``        summed widths exceed machine capacity in some time slice
``profile``         the availability profile disagrees with the busy-time
                    implied by the committed placements
``ledger.jobs``     ``committed_jobs`` differs from the placement count
``ledger.area``     ``committed_area`` differs from the summed placement area
``ledger.window``   ``first_release``/``last_finish`` are stale
``ledger.util``     ``utilization()`` differs from the recomputed quotient
``resize.area``     a resized task's restarted placement is not
                    work-conserving for the task's full declared area
``resize.overlap``  a resized task restarts before the resize instant plus
                    the charged reconfiguration delay (it would overlap the
                    completed/consumed prefix it is replacing)
``resize.width``    a resize leaves the declared width band, or its
                    direction contradicts its kind (a "grow" that narrows,
                    a "shrink" that widens, or a no-op width)
================== =========================================================

Tolerances: the auditor uses its own epsilon (:data:`AUDIT_EPS`), while
the scheduler compares every time exactly; the audit may only ever get
stricter than it is, so a looser audit cannot mask a scheduler bug.
Capacity violations are reported
only for slices wider than the epsilon, so exact-boundary handoffs
(``end == next start``) never false-positive while any real overlap —
including the classic off-by-one-epsilon reservation — is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from repro.core.placement import ChainPlacement
    from repro.core.schedule import Schedule
    from repro.model.job import Job

__all__ = [
    "AUDIT_EPS",
    "Violation",
    "AuditReport",
    "ScheduleAuditor",
    "audit_run",
]

#: The auditor's own time tolerance.  The scheduler's decisive comparisons
#: have none (it compares times exactly); this one is defined independently of anything the
#: scheduler imports, and may be tightened, never loosened.
AUDIT_EPS: float = 1e-9

#: Relative tolerance for area/utilization ledger arithmetic (sums of many
#: float products accumulate more error than single comparisons).
_AREA_RTOL: float = 1e-9


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant, locatable and machine-checkable.

    Attributes
    ----------
    code:
        Invariant identifier from the module-level catalogue.
    job_id:
        Offending job, or ``-1`` for schedule-level violations.
    task:
        Offending task name, or ``""``.
    time:
        The relevant virtual-time instant (``nan`` for non-temporal checks).
    detail:
        Human-readable explanation with the observed and expected values.
    """

    code: str
    job_id: int = -1
    task: str = ""
    time: float = math.nan
    detail: str = ""

    def __str__(self) -> str:
        where = f"job {self.job_id}" if self.job_id >= 0 else "schedule"
        if self.task:
            where += f"/{self.task}"
        at = "" if math.isnan(self.time) else f" @t={self.time:g}"
        return f"[{self.code}] {where}{at}: {self.detail}"


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Outcome of one audit: the violations found (empty = clean)."""

    violations: tuple[Violation, ...] = ()
    checked_placements: int = 0
    checked_slices: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    @property
    def codes(self) -> set[str]:
        """The distinct violation codes present."""
        return {v.code for v in self.violations}

    def summary(self) -> str:
        """Multi-line rendering for CLI / error messages."""
        if self.ok:
            return (
                f"audit clean: {self.checked_placements} placements, "
                f"{self.checked_slices} capacity slices"
            )
        lines = [f"audit found {len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass
class _Interval:
    """One audited allocation: job, task index, extent.  Internal."""

    job_id: int
    task_name: str
    start: float
    end: float
    processors: int


@dataclass
class ScheduleAuditor:
    """Re-validates committed schedules from first principles.

    Parameters
    ----------
    eps:
        Time tolerance (default :data:`AUDIT_EPS`).
    malleable:
        Placement/shape rule: ``False`` demands the rigid request exactly;
        ``True`` demands work conservation within the task's degree of
        concurrency (§5.4).
    match_config:
        Check that each placed chain is one of its job's offered chains
        (needs ``jobs``).  Turn off when auditing renegotiated schedules,
        whose chains are legitimately rebased remainders.
    ledger:
        Check the schedule's aggregate accounting (area, job count,
        utilization window).  Only exact for schedules built by plain
        commit/rollback; tail-rollbacks and carried placements intentionally
        diverge (consumed stubs stay accounted), so the resilience hooks
        disable this.
    profile_mode:
        ``"strict"``: profile availability must *equal* capacity minus the
        placement-implied busy time at every breakpoint at/after the profile
        origin.  ``"bound"``: availability must not *exceed* it (valid even
        after tail-rollbacks, which leave consumed stubs reserved with no
        retained placement).  ``"off"``: skip the cross-check.
    since:
        When set, the capacity sweep ignores allocation before this time.
        Needed for schedules rebuilt at a capacity change: placements
        carried across it retain their full interval list, but the
        pre-change portion ran on the *previous* machine size and must not
        be judged against the current one.  Per-chain checks (release,
        precedence, deadline, shape) still cover the whole placement.
    """

    eps: float = AUDIT_EPS
    malleable: bool = False
    match_config: bool = True
    ledger: bool = True
    profile_mode: str = "strict"
    since: float | None = None
    _violations: list[Violation] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def audit(
        self,
        schedule: "Schedule",
        jobs: "Sequence[Job] | Mapping[int, Job] | None" = None,
    ) -> AuditReport:
        """Audit a live :class:`~repro.core.schedule.Schedule`.

        ``jobs`` (optional) enables the configuration-match check: a
        sequence or ``job_id``-keyed mapping of the jobs that were offered.
        When the schedule does not retain placements
        (``keep_placements=False``) only the profile's internal range check
        is possible and the report says so via ``checked_placements == 0``.
        """
        self._violations = []
        placements = schedule.placements
        by_id = self._job_index(jobs)
        for cp in placements:
            self._audit_chain(cp, by_id)
        slices = self._audit_capacity(
            self._intervals(placements), schedule.capacity
        )
        self._audit_profile(schedule, placements)
        if self.ledger and schedule.keeps_placements:
            self._audit_ledger(schedule, placements)
        return AuditReport(
            violations=tuple(self._violations),
            checked_placements=len(placements),
            checked_slices=slices,
        )

    def audit_placements(
        self,
        placements: "Iterable[ChainPlacement]",
        capacity: int,
        jobs: "Sequence[Job] | Mapping[int, Job] | None" = None,
    ) -> AuditReport:
        """Audit bare chain placements against ``capacity`` (no ledger/profile).

        The entry point for oracle output and for fabricated mutant
        scenarios that never touch a real :class:`Schedule`.
        """
        self._violations = []
        placements = list(placements)
        by_id = self._job_index(jobs)
        for cp in placements:
            self._audit_chain(cp, by_id)
        slices = self._audit_capacity(self._intervals(placements), capacity)
        return AuditReport(
            violations=tuple(self._violations),
            checked_placements=len(placements),
            checked_slices=slices,
        )

    def audit_resizes(self, records: "Iterable[object]") -> AuditReport:
        """Audit a mid-execution resize stream (``ResizeRecord`` objects).

        Re-derives the grow/shrink invariants from each record's data alone
        (see :class:`repro.resilience.reconfig.ResizeRecord`; any object
        with the same attributes audits identically):

        * **area conservation under the cost charge** (``resize.area``):
          the restarted placement must carry the task's *full* declared
          work — restart-from-scratch means no credit for the consumed
          partial run, and the reconfiguration delay must never be paid
          for by shrinking the restarted area;
        * **no overlap with the consumed prefix** (``resize.overlap``):
          the restart may begin no earlier than the resize instant plus
          the charged delay (and the delay itself must be non-negative);
        * **width discipline** (``resize.width``): the new width stays in
          the ``[1, max_width]`` band and moves in the direction the
          record claims (a grow widens, a shrink narrows).
        """
        self._violations = []
        checked = 0
        for rec in records:
            checked += 1
            job_id = rec.job_id
            task = rec.task
            new_area = rec.new_width * rec.new_duration
            if abs(new_area - rec.task_area) > _AREA_RTOL * max(
                1.0, rec.task_area
            ):
                self._flag(
                    "resize.area",
                    f"restarted placement carries {new_area:g} "
                    f"processor-time, task declares {rec.task_area:g}",
                    job_id,
                    task,
                    rec.time,
                )
            if rec.delay < 0:
                self._flag(
                    "resize.overlap",
                    f"negative reconfiguration delay {rec.delay:g}",
                    job_id,
                    task,
                    rec.time,
                )
            if rec.new_start < rec.time + rec.delay - self.eps:
                self._flag(
                    "resize.overlap",
                    f"restart at {rec.new_start:g} precedes resize time "
                    f"{rec.time:g} + delay {rec.delay:g}",
                    job_id,
                    task,
                    rec.new_start,
                )
            if not 1 <= rec.new_width <= rec.max_width:
                self._flag(
                    "resize.width",
                    f"new width {rec.new_width}p outside [1, {rec.max_width}]",
                    job_id,
                    task,
                    rec.time,
                )
            if rec.kind == "grow" and rec.new_width <= rec.old_width:
                self._flag(
                    "resize.width",
                    f"grow from {rec.old_width}p to {rec.new_width}p "
                    "does not widen",
                    job_id,
                    task,
                    rec.time,
                )
            elif rec.kind == "shrink" and rec.new_width >= rec.old_width:
                self._flag(
                    "resize.width",
                    f"shrink from {rec.old_width}p to {rec.new_width}p "
                    "does not narrow",
                    job_id,
                    task,
                    rec.time,
                )
        return AuditReport(
            violations=tuple(self._violations),
            checked_placements=checked,
        )

    # ------------------------------------------------------------------
    # Per-chain checks: shape, config, release, precedence, deadline
    # ------------------------------------------------------------------

    @staticmethod
    def _job_index(
        jobs: "Sequence[Job] | Mapping[int, Job] | None",
    ) -> "Mapping[int, Job] | None":
        if jobs is None:
            return None
        if isinstance(jobs, Mapping):
            return jobs
        return {j.job_id: j for j in jobs}

    def _flag(
        self,
        code: str,
        detail: str,
        job_id: int = -1,
        task: str = "",
        time: float = math.nan,
    ) -> None:
        self._violations.append(Violation(code, job_id, task, time, detail))

    def _audit_chain(
        self, cp: "ChainPlacement", jobs: "Mapping[int, Job] | None"
    ) -> None:
        chain = cp.chain
        if len(cp.placements) != len(chain.tasks):
            self._flag(
                "shape.count",
                f"{len(cp.placements)} placements for a "
                f"{len(chain.tasks)}-task chain",
                cp.job_id,
            )
            return
        if self.match_config and jobs is not None:
            job = jobs.get(cp.job_id)
            if job is not None and not any(chain == c for c in job.chains):
                self._flag(
                    "config",
                    f"placed chain {chain.label or cp.chain_index!r} is not "
                    f"among the job's {len(job.chains)} offered chain(s)",
                    cp.job_id,
                )
        prev_end = cp.release
        for index, (pl, task) in enumerate(zip(cp.placements, chain.tasks)):
            if pl.task != task:
                self._flag(
                    "shape.task",
                    f"placement {index} carries task {pl.task.name!r}, "
                    f"chain has {task.name!r}",
                    cp.job_id,
                    task.name,
                )
            self._audit_shape(cp.job_id, pl, task)
            if pl.start < cp.release - self.eps:
                self._flag(
                    "release",
                    f"starts at {pl.start} before release {cp.release}",
                    cp.job_id,
                    task.name,
                    pl.start,
                )
            if index > 0 and pl.start < prev_end - self.eps:
                self._flag(
                    "precedence",
                    f"starts at {pl.start} before predecessor finish "
                    f"{prev_end} (overlap {prev_end - pl.start:g})",
                    cp.job_id,
                    task.name,
                    pl.start,
                )
            if math.isfinite(task.deadline):
                due = cp.release + task.deadline
                if pl.end > due + self.eps:
                    self._flag(
                        "deadline",
                        f"finishes at {pl.end} past deadline {due} "
                        f"(late by {pl.end - due:g})",
                        cp.job_id,
                        task.name,
                        pl.end,
                    )
            prev_end = pl.end

    def _audit_shape(self, job_id: int, pl, task) -> None:
        if not self.malleable:
            if pl.processors != task.processors:
                self._flag(
                    "shape.width",
                    f"placed on {pl.processors}p, rigid request is "
                    f"{task.processors}p",
                    job_id,
                    task.name,
                )
            if abs(pl.duration - task.duration) > self.eps:
                self._flag(
                    "shape.duration",
                    f"placed for {pl.duration}t, rigid request is "
                    f"{task.duration}t",
                    job_id,
                    task.name,
                )
            return
        if pl.processors < 1 or pl.processors > task.max_concurrency:
            self._flag(
                "shape.malleable",
                f"placed on {pl.processors}p outside [1, "
                f"{task.max_concurrency}] degree of concurrency",
                job_id,
                task.name,
            )
        placed_area = pl.processors * pl.duration
        if abs(placed_area - task.area) > _AREA_RTOL * max(1.0, task.area):
            self._flag(
                "shape.malleable",
                f"placed area {placed_area:g} is not work-conserving "
                f"(task area {task.area:g})",
                job_id,
                task.name,
            )

    # ------------------------------------------------------------------
    # Capacity: an independent sweep-line over placement intervals
    # ------------------------------------------------------------------

    def _intervals(self, placements: "Iterable[ChainPlacement]") -> list[_Interval]:
        out: list[_Interval] = []
        for cp in placements:
            for pl in cp.placements:
                start, end = pl.start, pl.end
                if self.since is not None:
                    if end <= self.since + self.eps:
                        continue  # entirely pre-clip history
                    start = max(start, self.since)
                out.append(
                    _Interval(cp.job_id, pl.task.name, start, end, pl.processors)
                )
        return out

    def _audit_capacity(self, intervals: list[_Interval], capacity: int) -> int:
        """Sweep the interval endpoints; flag every over-capacity slice.

        Events release before they acquire at equal times (allocations are
        half-open ``[start, end)``), so exact handoffs are free.  A slice no
        wider than ``eps`` is ignored: it cannot hold real work and only
        arises from float noise in otherwise-exact arithmetic.
        """
        events: list[tuple[float, int]] = []
        for iv in intervals:
            events.append((iv.start, iv.processors))
            events.append((iv.end, -iv.processors))
        # Sort by time; at equal times apply releases (negative) first.
        events.sort(key=lambda e: (e[0], e[1]))
        in_use = 0
        slices = 0
        i = 0
        n = len(events)
        while i < n:
            t = events[i][0]
            while i < n and events[i][0] == t:
                in_use += events[i][1]
                i += 1
            slice_end = events[i][0] if i < n else t
            slices += 1
            if in_use > capacity and slice_end - t > self.eps:
                over = [
                    iv
                    for iv in intervals
                    if iv.start <= t + self.eps and iv.end > t + self.eps
                ]
                self._flag(
                    "capacity",
                    f"{in_use}p in use on a {capacity}p machine over "
                    f"[{t:g}, {slice_end:g}) — "
                    + ", ".join(
                        f"job {iv.job_id}/{iv.task_name} x{iv.processors}p"
                        for iv in over[:6]
                    )
                    + ("…" if len(over) > 6 else ""),
                    time=t,
                )
        return slices

    # ------------------------------------------------------------------
    # Profile cross-check
    # ------------------------------------------------------------------

    def _audit_profile(self, schedule: "Schedule", placements) -> None:
        """Compare profile availability against placement-implied busy time.

        Works purely on the profile's *data* (its segment list), never its
        query code.  Segments before the profile origin are compacted
        history and are skipped; a placement interval overlapping the
        origin contributes only its surviving ``[origin, end)`` part,
        matching commit/adopt-carried semantics.
        """
        profile = schedule.profile
        capacity = schedule.capacity
        origin = profile.origin
        segments = list(profile.segments())
        # Internal sanity on the profile data itself.
        for seg_start, seg_end, avail in segments:
            if not 0 <= avail <= capacity:
                self._flag(
                    "profile",
                    f"profile availability {avail} outside [0, {capacity}] "
                    f"over [{seg_start:g}, {seg_end:g})",
                    time=seg_start,
                )
        if self.profile_mode == "off" or not schedule.keeps_placements:
            return
        intervals = self._intervals(placements)
        strict = self.profile_mode == "strict"
        # Probe between every boundary of either description: profile
        # segment edges alone are not enough, because a corrupted profile
        # can be constant across a slice where the placement-implied busy
        # time changes (e.g. a dropped reservation) — the discrepancy then
        # lives strictly inside one segment.
        boundaries = {origin}
        for seg_start, _seg_end, _avail in segments:
            if seg_start >= origin:
                boundaries.add(seg_start)
        for iv in intervals:
            for t in (iv.start, iv.end):
                if t >= origin:
                    boundaries.add(t)
        cuts = sorted(boundaries)
        # One sweep: probes ascend, so a cursor into the (start-ordered)
        # segments and a running busy count over sorted interval endpoints
        # answer every probe without rescanning either description.
        live = [iv for iv in intervals if iv.end > iv.start]
        acquires = sorted((iv.start, iv.processors) for iv in live)
        releases = sorted((iv.end, iv.processors) for iv in live)
        seg = acquired = released = busy = 0
        for i, t0 in enumerate(cuts):
            t1 = cuts[i + 1] if i + 1 < len(cuts) else math.inf
            if t1 - t0 <= self.eps:
                continue
            probe = t0 + min((t1 - t0) / 2, 0.5)
            while seg < len(segments) and segments[seg][1] <= probe:
                seg += 1
            if seg == len(segments) or segments[seg][0] > probe:
                continue  # probe precedes the first retained segment
            avail = segments[seg][2]
            while acquired < len(live) and acquires[acquired][0] <= probe:
                busy += acquires[acquired][1]
                acquired += 1
            while released < len(live) and releases[released][0] <= probe:
                busy -= releases[released][1]
                released += 1
            expected = capacity - busy
            if strict and avail != expected:
                self._flag(
                    "profile",
                    f"profile says {avail}p free at t={probe:g}, placements "
                    f"imply {expected}p",
                    time=probe,
                )
            elif not strict and avail > expected:
                self._flag(
                    "profile",
                    f"profile says {avail}p free at t={probe:g} but "
                    f"placements still hold {busy}p (at most {expected}p "
                    "can be free)",
                    time=probe,
                )

    # ------------------------------------------------------------------
    # Ledger arithmetic
    # ------------------------------------------------------------------

    def _audit_ledger(self, schedule: "Schedule", placements) -> None:
        n = len(placements)
        if schedule.committed_jobs != n:
            self._flag(
                "ledger.jobs",
                f"committed_jobs={schedule.committed_jobs}, "
                f"{n} placements retained",
            )
        area = 0.0
        for cp in placements:
            for pl in cp.placements:
                area += pl.processors * pl.duration
        tol = _AREA_RTOL * max(1.0, area)
        if abs(schedule.committed_area - area) > tol:
            self._flag(
                "ledger.area",
                f"committed_area={schedule.committed_area!r}, placements "
                f"sum to {area!r}",
            )
        first = min((cp.release for cp in placements), default=math.inf)
        last = max((cp.finish for cp in placements), default=-math.inf)
        if schedule.first_release != first:
            self._flag(
                "ledger.window",
                f"first_release={schedule.first_release!r}, placements "
                f"start from {first!r}",
            )
        if schedule.last_finish != last:
            self._flag(
                "ledger.window",
                f"last_finish={schedule.last_finish!r}, placements run "
                f"to {last!r}",
            )
        span = last - first
        if n and span > 0:
            expected_util = area / (schedule.capacity * span)
            got = schedule.utilization()
            if abs(got - expected_util) > _AREA_RTOL * max(1.0, expected_util):
                self._flag(
                    "ledger.util",
                    f"utilization()={got!r}, recomputed "
                    f"{expected_util!r} from area/window",
                )


def audit_run(
    schedule: "Schedule",
    jobs: "Sequence[Job] | Mapping[int, Job] | None" = None,
    *,
    malleable: bool = False,
    perturbed: bool = False,
    resizes: "Iterable[object]" = (),
) -> AuditReport:
    """Audit a simulated run's schedule under the one rule every hook uses.

    A run nothing perturbed (static negotiation, the Section 5 model) is
    audited strictly.  A perturbed run — trace events or an active resize
    engine — legitimately diverges from the plain commit/rollback ledger:
    consumed tail-rollback stubs stay reserved (the profile need only be
    conservative), re-planned chains are rebased remainders of offered
    ones (no configuration match), and carried placements keep pre-change
    intervals from the previous machine size (capacity is judged from the
    schedule's profile origin onward).  ``resizes`` — a
    :class:`~repro.resilience.reconfig.ResizeRecord` stream — is audited
    too, its violations appended to the schedule's.
    """
    if perturbed:
        auditor = ScheduleAuditor(
            malleable=malleable,
            match_config=False,
            ledger=False,
            profile_mode="bound",
            since=schedule.profile.origin,
        )
    else:
        auditor = ScheduleAuditor(malleable=malleable)
    report = auditor.audit(schedule, jobs)
    records = list(resizes)
    if not records:
        return report
    resized = auditor.audit_resizes(records)
    return AuditReport(
        violations=report.violations + resized.violations,
        checked_placements=report.checked_placements + resized.checked_placements,
        checked_slices=report.checked_slices,
    )
