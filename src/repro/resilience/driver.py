"""Stateful multi-event renegotiation (the online Section 3.1 arbitrator).

The :class:`RenegotiationDriver` is the one renegotiation rule, the
monitoring loop the paper describes: it rides along with a live
arbitrator, tracks every admitted job from admission to completion, and
re-plans the affected subset at each event of a
:class:`~repro.resilience.events.PerturbationTrace` — a sequence of
capacity changes and detected execution-time overruns, in arrival order
with ordinary admissions interleaved.  A single offline capacity drop over
a pre-admitted batch is the same call on a one-event trace.

The re-planning policy is **degrade, don't drop**: an affected tunable job
is first offered the remainder of its current path (rebased against its
*original* absolute deadlines), and — while no task has completed yet —
every alternate path of its OR graph, so a job that no longer fits wide can
survive narrow at (possibly) lower quality.  Only when no path fits the
remaining deadline slack is the job honestly recorded as lost: ``dropped``
when capacity took its reservation, a ``deadline miss`` when its own
overrun did.

Accounting is work-based and honest: ``spent`` is processor-time a job
actually consumed, ``wasted`` the consumed share that produced no result
(restarted in-progress tasks, discarded runs of overrunning tasks, all
work of a job that is eventually lost).  Task restarts are justified by
the Calypso-style idempotent two-phase execution model reproduced in
:mod:`repro.calypso` — re-executing an interrupted task is always safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.arbitrator import QoSArbitrator
from repro.core.placement import ChainPlacement
from repro.core.resources import ProcessorTimeRequest, time_leq
from repro.core.schedule import Schedule
from repro.errors import CapacityExceededError, SimulationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import chain_quality
from repro.model.task import TaskSpec
from repro.resilience.events import CapacityEvent, OverrunEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.events import PerturbationTrace
    from repro.resilience.reconfig import ReconfigEngine

__all__ = ["RenegotiationDriver", "ResilienceOutcome", "ResizeTxn"]


@dataclass(slots=True)
class _LiveJob:
    """Driver-side record of one admitted, not-yet-finished job."""

    job_id: int
    job: Job
    original_release: float
    granted_quality: float
    current_quality: float
    current_original_index: int
    placement: ChainPlacement
    #: Tasks of the current path completed before the placement's release
    #: (grows on same-path re-plans; the placement covers the remainder).
    completed_before: int = 0
    #: Processor-time consumed so far (completed placements are added when
    #: they finish; interrupted portions are added at re-plan time).
    spent: float = 0.0
    #: Consumed processor-time that produced no retained result.
    wasted: float = 0.0
    replans: int = 0
    resizes: int = 0
    affected: bool = False
    #: Latent overrun: (absolute task position on the current path, factor).
    latent: tuple[int, float] | None = None


@dataclass(slots=True)
class ResizeTxn:
    """One tentative mid-execution resize, applied to the schedule only.

    Returned by :meth:`RenegotiationDriver.resize_remainder` with the old
    tail already rolled back and the reshaped remainder committed; the
    driver's own bookkeeping is untouched until the caller decides.
    Exactly one of :meth:`finalize` (keep the resize, charge the ledger)
    or :meth:`undo` (restore the original reservation bit for bit) must be
    called.
    """

    driver: "RenegotiationDriver"
    rec: _LiveJob
    old_cp: ChainPlacement
    new_cp: ChainPlacement
    cut: float
    completed: int
    executed: float
    kept: float
    old_width: int
    delay: float
    closed: bool = False

    @property
    def old_finish(self) -> float:
        """Reserved finish before the resize."""
        return self.old_cp.finish

    @property
    def new_finish(self) -> float:
        """Reserved finish of the reshaped remainder."""
        return self.new_cp.finish

    @property
    def new_width(self) -> int:
        """Width the in-flight task restarts at."""
        return self.new_cp.placements[0].processors

    def finalize(self) -> None:
        """Keep the resize: charge spent/wasted and swap the live placement.

        The in-flight task restarts from scratch (Calypso idempotent
        re-execution), so its consumed share — everything executed beyond
        the completed prefix — is both ``spent`` (the processors were
        busy) and ``wasted`` (the partial run is discarded).
        """
        assert not self.closed, "resize transaction already closed"
        self.closed = True
        rec = self.rec
        discarded = self.executed - self.kept
        rec.spent += self.executed
        rec.wasted += discarded
        rec.completed_before += self.completed
        rec.placement = self.new_cp
        rec.resizes += 1
        driver = self.driver
        driver._resizes += 1
        driver._resize_cost += self.delay
        driver._resize_wasted += discarded

    def undo(self) -> None:
        """Abandon the resize: restore the pre-resize reservation exactly."""
        assert not self.closed, "resize transaction already closed"
        self.closed = True
        schedule = self.driver.arbitrator.schedule
        schedule.rollback(self.new_cp)
        schedule.restore_tail(self.old_cp, self.cut)


@dataclass(frozen=True, slots=True)
class ResilienceOutcome:
    """Run-level aggregates the driver contributes to :class:`RunMetrics`.

    ``utilization`` and ``horizon`` replace the schedule-derived values
    whenever a perturbation was applied (capacity events replace the
    schedule object wholesale, so only the driver sees the whole run);
    ``achieved_quality`` corrects the arbitrator's admission-time sum for
    path downgrades and lost jobs.
    """

    resilience: dict[str, float | int]
    achieved_quality: float
    utilization: float
    horizon: float


class RenegotiationDriver:
    """Carries live reservations across a sequence of perturbation events.

    Parameters
    ----------
    arbitrator:
        The live system; the driver re-plans through the arbitrator's own
        scheduler (so the malleable model and tie-break policy carry over)
        and swaps its schedule on capacity changes.
    """

    def __init__(self, arbitrator: QoSArbitrator) -> None:
        self.arbitrator = arbitrator
        #: Optional mid-execution resize engine (see
        #: :mod:`repro.resilience.reconfig`); bound by the engine itself.
        self.reconfig: "ReconfigEngine | None" = None
        self._live: dict[int, _LiveJob] = {}
        self._base_capacity = arbitrator.capacity
        self._capacity_steps: list[tuple[float, int]] = []
        self._first_release = math.inf
        self._horizon = 0.0
        # Outcome counters.
        self._affected = 0
        self._survived = 0
        self._degraded = 0
        self._dropped = 0
        self._deadline_misses = 0
        self._path_switches = 0
        self._replans = 0
        self._carried = 0
        self._capacity_events = 0
        self._overrun_events = 0
        # Mid-execution resize ledger (grow/shrink detail lives in the
        # reconfig engine; the driver keeps the work-accounting totals).
        self._resizes = 0
        self._resize_cost = 0.0
        self._resize_wasted = 0.0
        # Work/quality accounting.
        self._spent_total = 0.0
        self._wasted_total = 0.0
        self._quality_delta = 0.0
        self._quality_adjust = 0.0

    # ------------------------------------------------------------------
    # Admission-side bookkeeping
    # ------------------------------------------------------------------

    def register(
        self,
        job: Job,
        placement: ChainPlacement,
        overrun: OverrunEvent | None = None,
    ) -> None:
        """Start tracking an admitted job (optionally with a latent overrun)."""
        quality = chain_quality(
            placement.chain, self.arbitrator.quality_composition
        )
        rec = _LiveJob(
            job_id=job.job_id,
            job=job,
            original_release=job.release,
            granted_quality=quality,
            current_quality=quality,
            current_original_index=placement.chain_index,
            placement=placement,
        )
        if overrun is not None:
            pos = min(overrun.task_index, len(placement.placements) - 1)
            rec.latent = (pos, overrun.factor)
        self._live[job.job_id] = rec
        if job.release < self._first_release:
            self._first_release = job.release

    @property
    def live_jobs(self) -> int:
        """Number of admitted jobs not yet finished or lost."""
        return len(self._live)

    def live_placements(self) -> tuple[ChainPlacement, ...]:
        """Current placements of all live jobs (for verification)."""
        return tuple(rec.placement for rec in self._live.values())

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def sweep_finished(self, now: float) -> None:
        """Retire every live job whose placement finishes by ``now``."""
        for job_id in [
            jid
            for jid, rec in self._live.items()
            if time_leq(rec.placement.finish, now)
        ]:
            rec = self._live.pop(job_id)
            rec.spent += rec.placement.total_area
            self._spent_total += rec.spent
            self._wasted_total += rec.wasted
            delta = rec.current_quality - rec.granted_quality
            self._quality_delta += delta
            self._quality_adjust += delta
            if rec.affected:
                self._survived += 1
                if rec.current_quality < rec.granted_quality - 1e-12:
                    self._degraded += 1
            if rec.placement.finish > self._horizon:
                self._horizon = rec.placement.finish

    def on_capacity_change(self, event: CapacityEvent) -> None:
        """Rebuild the committed schedule on the post-event machine size.

        Finished placements are history, running placements are carried
        (clipped at the event time) in ``(start, job_id)`` order, pending
        placements are re-admitted in ``(release, job_id)`` order.  A
        running job whose reservation no longer fits is re-planned across
        its remaining paths before it is dropped.
        """
        tau = event.time
        self.sweep_finished(tau)
        self._capacity_events += 1
        self._capacity_steps.append((tau, event.new_capacity))
        new_schedule = Schedule(
            event.new_capacity,
            origin=tau,
            keep_placements=self.arbitrator.schedule.keeps_placements,
            backend=self.arbitrator.schedule.profile.backend,
        )
        self.arbitrator.adopt_schedule(new_schedule)
        running = [
            rec for rec in self._live.values() if rec.placement.start < tau
        ]
        future = [
            rec for rec in self._live.values() if rec.placement.start >= tau
        ]
        for rec in self._live.values():
            self._mark_affected(rec)
        # Jobs re-established on the *new* schedule so far: the only legal
        # shrink donors for the capacity-pressure rescue below (a job not
        # yet processed still holds its reservation on the old schedule).
        donors: list[int] = []
        for rec in sorted(running, key=lambda r: (r.placement.start, r.job_id)):
            try:
                new_schedule.adopt_carried(rec.placement, tau)
                self._carried += 1
                donors.append(rec.job_id)
                continue
            except CapacityExceededError:
                pass
            if self._replan(rec, tau) is not None:
                donors.append(rec.job_id)
            elif self.reconfig is not None and self.reconfig.rescue_replan(
                rec, tau, donors
            ):
                donors.append(rec.job_id)
            else:
                self._lose(rec, tau, overrun=False)
        for rec in sorted(future, key=lambda r: (r.placement.release, r.job_id)):
            if self._replan(rec, tau) is not None:
                donors.append(rec.job_id)
            elif self.reconfig is not None and self.reconfig.rescue_replan(
                rec, tau, donors
            ):
                donors.append(rec.job_id)
            else:
                self._lose(rec, tau, overrun=False)

    def overrun_due(self, job_id: int) -> float | None:
        """Detection time of ``job_id``'s latent overrun, if still armed.

        The overrun becomes observable when the afflicted task's *reserved*
        finish passes without completion — which is the reserved end of that
        task on the job's **current** placement (re-plans move it).

        An armed position outside the current placement's range means the
        afflicted task is no longer part of the plan (both known causes —
        the completed-prefix count swallowing an armed task, and a path
        switch keeping the old path's latent — are fixed upstream); rather
        than clamp onto an unrelated placement and re-offer finished work,
        the overrun is disarmed.
        """
        rec = self._live.get(job_id)
        if rec is None or rec.latent is None:
            return None
        pos, _ = rec.latent
        idx = pos - rec.completed_before
        if idx < 0 or idx >= len(rec.placement.placements):
            # pragma: no cover - defensive; upstream bookkeeping keeps armed
            # positions in range
            rec.latent = None
            return None
        return rec.placement.placements[idx].end

    def pending_overruns(self) -> tuple[tuple[int, float], ...]:
        """(job_id, detection time) for every still-armed latent overrun.

        Re-plans move reserved finish times, so the simulator refreshes its
        detection events from this after every capacity change; stale queue
        entries are recognized (their time no longer matches
        :meth:`overrun_due`) and skipped.
        """
        out: list[tuple[int, float]] = []
        for job_id in self._live:
            due = self.overrun_due(job_id)
            if due is not None:
                out.append((job_id, due))
        return tuple(out)

    def handle_overrun(self, job_id: int) -> bool:
        """React to a detected overrun; True when the job keeps a reservation.

        Rolls back the chain's downstream reservations from the detection
        instant (:meth:`Schedule.rollback_tail
        <repro.core.schedule.Schedule.rollback_tail>`), then re-plans the
        remaining tasks — the interrupted task re-offered with its revealed
        (dilated) duration, alternate paths with declared durations, since
        switching configurations sidesteps the slow computation — against
        the job's remaining deadline slack.  Records an honest deadline
        miss when nothing fits.
        """
        rec = self._live[job_id]
        assert rec.latent is not None
        pos, factor = rec.latent
        rec.latent = None
        self._overrun_events += 1
        self._mark_affected(rec)
        idx = pos - rec.completed_before
        if not 0 <= idx < len(rec.placement.placements):
            # An out-of-range armed position would mis-attribute the overrun
            # to an unrelated task and re-offer finished work; detection
            # (overrun_due) disarms those before they get here.
            raise SimulationError(
                f"overrun of job {job_id} armed at position {pos} outside "
                f"its current placement"
            )
        cut = rec.placement.placements[idx].end
        self.arbitrator.schedule.rollback_tail(rec.placement, cut)
        if self._replan(rec, cut, failed_index=idx, factor=factor) is None:
            self._lose(rec, cut, overrun=True)
            return False
        return True

    # ------------------------------------------------------------------
    # Mid-execution resizing (the reconfig engine's mechanics)
    # ------------------------------------------------------------------

    def live_finishes(self) -> tuple[tuple[int, float], ...]:
        """(job_id, reserved finish) for every live job.

        The simulator refreshes its completion-triggered resize events from
        this after any event that moves reservations; stale queue entries
        (finish no longer matching) are skipped when popped.
        """
        return tuple(
            (job_id, rec.placement.finish)
            for job_id, rec in self._live.items()
        )

    def inflight(self, job_id: int, now: float) -> tuple[int, TaskSpec] | None:
        """``(width, task)`` of ``job_id``'s in-flight task at ``now``.

        A task is in flight when it has started strictly before ``now``
        and its reserved finish has not passed.  Jobs between tasks, not
        yet started, or already finished yield ``None`` — the resize
        engine only restarts work that is actually running.
        """
        rec = self._live.get(job_id)
        if rec is None:
            return None
        cp = rec.placement
        k = self._completed_count(rec, now)
        if k >= len(cp.placements):
            return None
        lead = cp.placements[k]
        if time_leq(now, lead.start) or time_leq(lead.end, now):
            return None
        return lead.processors, cp.chain.tasks[k]

    def resize_remainder(
        self,
        job_id: int,
        now: float,
        *,
        delay: float,
        first_min_width: int | None = None,
        first_max_width: int | None = None,
    ) -> ResizeTxn | None:
        """Tentatively restart a live job's in-flight task at a new width.

        The grow/shrink primitive: the placement's tail is rolled back at
        ``now``, and the remainder — the in-flight task restarted from
        scratch with its full declared work (idempotent re-execution),
        downstream tasks reshaped freely — is re-placed no earlier than
        ``now + delay`` (the reconfiguration-cost charge) with the leading
        width bounded by ``first_min_width``/``first_max_width``, against
        the job's original absolute deadlines.  On success the reshaped
        remainder is committed and a :class:`ResizeTxn` returned for the
        caller to finalize or undo; on failure the original reservation is
        restored and ``None`` returned (the schedule is untouched either
        way until ``finalize()``).
        """
        from repro.core.malleable import MalleableScheduler

        rec = self._live.get(job_id)
        scheduler = self.arbitrator.scheduler
        if rec is None or not isinstance(scheduler, MalleableScheduler):
            return None
        cp = rec.placement
        k = self._completed_count(rec, now)
        if k >= len(cp.placements):
            return None
        lead = cp.placements[k]
        if time_leq(now, lead.start) or time_leq(lead.end, now):
            return None  # between tasks or not started: nothing in flight
        rebased = self._rebase(
            cp.chain, tuple(cp.chain.tasks[k:]), cp.release, now
        )
        if rebased is None:
            return None
        executed = sum(
            max(0.0, min(pl.end, now) - pl.start) * pl.processors
            for pl in cp.placements
        )
        kept = sum(pl.area for pl in cp.placements[:k])
        schedule = self.arbitrator.schedule
        schedule.rollback_tail(cp, now)
        new_cp = scheduler.resize_placement(
            rebased,
            now,
            earliest=now + delay,
            first_min_width=first_min_width,
            first_max_width=first_max_width,
            job_id=rec.job_id,
            chain_index=cp.chain_index,
        )
        if new_cp is None:
            schedule.restore_tail(cp, now)
            return None
        schedule.commit(new_cp)
        return ResizeTxn(
            driver=self,
            rec=rec,
            old_cp=cp,
            new_cp=new_cp,
            cut=now,
            completed=k,
            executed=executed,
            kept=kept,
            old_width=lead.processors,
            delay=delay,
        )

    # ------------------------------------------------------------------
    # Re-planning
    # ------------------------------------------------------------------

    def _mark_affected(self, rec: _LiveJob) -> None:
        if not rec.affected:
            rec.affected = True
            self._affected += 1

    def _completed_count(self, rec: _LiveJob, now: float) -> int:
        """Tasks of ``rec.placement`` genuinely completed by ``now``.

        An armed latent overrun caps the count at the afflicted task: the
        overrun means that task is still running when its reservation
        expires, so an event landing within ``TIME_EPS`` of (or after) the
        reserved finish — before detection has fired — must not count it
        as done.  Without the cap, ``completed_before`` advances past the
        armed position, the overrun silently vanishes, and the job
        spuriously survives with its slow task marked complete.
        """
        cp = rec.placement
        k = sum(1 for pl in cp.placements if time_leq(pl.end, now))
        if rec.latent is not None:
            armed = rec.latent[0] - rec.completed_before
            if 0 <= armed < k:
                k = armed
        return k

    def _rebase(
        self,
        chain: TaskChain,
        tasks: tuple[TaskSpec, ...],
        base_release: float,
        now: float,
    ) -> TaskChain | None:
        """Shift ``tasks``' relative deadlines from ``base_release`` to ``now``.

        Absolute deadlines are preserved exactly: a task due at
        ``base_release + d`` becomes due at ``now + (base_release + d - now)``.
        Returns ``None`` when any deadline has already passed.
        """
        rebased: list[TaskSpec] = []
        for task in tasks:
            if math.isinf(task.deadline):
                rebased.append(task)
                continue
            remaining = base_release + task.deadline - now
            if remaining <= 0:
                return None
            rebased.append(task.with_deadline(remaining))
        return TaskChain(tuple(rebased), label=chain.label, params=chain.params)

    def _replan(
        self,
        rec: _LiveJob,
        now: float,
        failed_index: int | None = None,
        factor: float = 1.0,
    ) -> ChainPlacement | None:
        """Re-admit ``rec``'s remaining work at ``now``; None when nothing fits.

        Candidate paths:

        * the **remainder of the current path** — tasks after the completed
          prefix, deadlines rebased so absolute deadlines are unchanged;
          on an overrun the interrupted task leads with its dilated
          (revealed) duration;
        * while **no task has completed on any path**, every alternate
          chain of the original job (rebased likewise) — the OR-graph
          flexibility the paper argues for.

        The arbitrator's own scheduler picks among candidates (earliest
        finish under its tie-break policy), so carried-over semantics match
        admission.  On success the record's placement, quality and
        completed-prefix bookkeeping are updated; the interrupted portion
        of the old placement is charged to ``spent`` (and the discarded
        share to ``wasted``).
        """
        # A pre-admitted job may be re-planned before its release; the
        # offer must not start it earlier than the job itself allows.
        now = max(now, rec.original_release)
        cp = rec.placement
        if failed_index is not None:
            k = failed_index
        else:
            k = self._completed_count(rec, now)
        executed = sum(
            max(0.0, min(pl.end, now) - pl.start) * pl.processors
            for pl in cp.placements
        )
        rec.spent += executed
        kept = sum(pl.area for pl in cp.placements[:k])

        chains: list[TaskChain] = []
        #: chains[i] -> (original chain index, same-path?)
        path_map: list[tuple[int, bool]] = []

        remaining = list(cp.chain.tasks[k:])
        if remaining:
            if failed_index is not None:
                slow = remaining[0]
                remaining[0] = replace(
                    slow,
                    request=ProcessorTimeRequest(
                        slow.processors, slow.duration * factor
                    ),
                )
            same = self._rebase(cp.chain, tuple(remaining), cp.release, now)
            if same is not None:
                chains.append(same)
                path_map.append((rec.current_original_index, True))

        if rec.completed_before + k == 0:
            for j, chain in enumerate(rec.job.chains):
                if j == rec.current_original_index:
                    continue
                alt = self._rebase(
                    chain, chain.tasks, rec.original_release, now
                )
                if alt is not None:
                    chains.append(alt)
                    path_map.append((j, False))

        if not chains:
            return None
        offer = Job(
            chains=tuple(chains),
            release=now,
            job_id=rec.job_id,
            name=rec.job.name,
        )
        new_cp = self.arbitrator.scheduler.schedule_job(offer)
        if new_cp is None:
            return None

        orig_index, same_path = path_map[new_cp.chain_index]
        if same_path:
            rec.wasted += executed - kept
            rec.completed_before += k
        else:
            rec.wasted += executed
            rec.completed_before = 0
            # Switching configurations sidesteps the slow computation (see
            # handle_overrun), so a still-armed overrun of the abandoned
            # path dies with it; keeping it would index the *new* path's
            # placements at the old path's position.
            rec.latent = None
            self._path_switches += 1
            rec.current_quality = chain_quality(
                rec.job.chains[orig_index],
                self.arbitrator.quality_composition,
            )
        rec.current_original_index = orig_index
        rec.placement = new_cp
        rec.replans += 1
        self._replans += 1
        return new_cp

    def _lose(self, rec: _LiveJob, now: float, overrun: bool) -> None:
        """Retire ``rec`` as lost; all its consumed work becomes waste."""
        del self._live[rec.job_id]
        rec.wasted = rec.spent
        self._spent_total += rec.spent
        self._wasted_total += rec.wasted
        self._quality_adjust -= rec.granted_quality
        if overrun:
            self._deadline_misses += 1
        else:
            self._dropped += 1
        if now > self._horizon:
            self._horizon = now

    # ------------------------------------------------------------------
    # Verification / finalization
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Audit the live schedule and every live placement.

        Every live job must still satisfy release/precedence/deadline on
        its (possibly re-planned) placement, and the committed schedule's
        profile invariants and capacity feasibility must hold.
        """
        self.arbitrator.schedule.check_consistency()
        for rec in self._live.values():
            rec.placement.validate()

    def _capacity_integral(self, start: float, end: float) -> float:
        """∫ capacity(t) dt over ``[start, end]`` under the applied steps."""
        if end <= start:
            return 0.0
        cap = self._base_capacity
        prev = start
        total = 0.0
        for t, new_cap in self._capacity_steps:
            if t <= start:
                cap = new_cap
                continue
            if t >= end:
                break
            total += cap * (t - prev)
            prev, cap = t, new_cap
        total += cap * (end - prev)
        return total

    def finalize(
        self, trace: "PerturbationTrace", burst_arrivals: int = 0
    ) -> ResilienceOutcome:
        """Close the books after the last event; all live jobs must be swept."""
        if self._live:  # pragma: no cover - simulator sweeps at +inf first
            raise SimulationError(
                f"finalize with {len(self._live)} jobs still live"
            )
        if self._capacity_events:
            # Capacity events replace the Schedule object wholesale, so
            # schedule-side accounting only covers the last epoch; compute
            # utilization from the driver's work ledger against the actual
            # (perturbed) capacity trace.
            available = self._capacity_integral(
                self._first_release, self._horizon
            )
            utilization = self._spent_total / available if available > 0 else 0.0
        else:
            # Overrun/burst-only runs keep one coherent schedule
            # (rollback_tail maintains its accounting).
            utilization = self.arbitrator.utilization()
        resilience: dict[str, float | int] = {
            "events": self._capacity_events + self._overrun_events,
            "capacity_events": self._capacity_events,
            "overrun_events": self._overrun_events,
            "burst_arrivals": burst_arrivals,
            "affected": self._affected,
            "survived": self._survived,
            "degraded": self._degraded,
            "dropped": self._dropped,
            "deadline_misses": self._deadline_misses,
            "carried": self._carried,
            "replans": self._replans,
            "path_switches": self._path_switches,
            "survival_rate": (
                self._survived / self._affected if self._affected else 1.0
            ),
            "quality_delta": self._quality_delta,
            "capacity_lost": trace.capacity_lost(
                self._base_capacity, self._horizon
            ),
            "wasted_work": self._wasted_total,
            # Mid-execution resize totals (grow/shrink split is the
            # reconfig engine's ledger, merged in by the simulator).
            "resizes": self._resizes,
            "resize_cost": self._resize_cost,
            "resize_wasted": self._resize_wasted,
        }
        return ResilienceOutcome(
            resilience=resilience,
            achieved_quality=(
                self.arbitrator.achieved_quality + self._quality_adjust
            ),
            utilization=utilization,
            horizon=self._horizon,
        )
