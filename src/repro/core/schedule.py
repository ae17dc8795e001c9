"""The committed schedule: profile + accepted placements + accounting.

The :class:`Schedule` is the QoS arbitrator's single source of truth about
what has been promised to admitted jobs.  It owns the
:class:`~repro.core.profile.AvailabilityProfile`, applies/rolls back chain
placements atomically, keeps the utilization accounting that survives
profile compaction, and can audit itself end-to-end
(:meth:`check_consistency`) by replaying every stored placement.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from repro.core.placement import ChainPlacement
from repro.core.profile import AvailabilityProfile
from repro.errors import ScheduleConsistencyError
from repro.perf import PerfRecorder

__all__ = ["Schedule"]


def _clipped(cp: ChainPlacement, cut: float) -> list[tuple[float, float, int]]:
    """``cp``'s reserved intervals clipped to ``[cut, inf)``, in task order.

    The one slicing rule of the tail primitives (:meth:`Schedule.rollback_tail`,
    :meth:`Schedule.restore_tail`, :meth:`Schedule.adopt_carried`).  An
    interval ending at or before ``cut`` is history; one ending after it
    keeps its remainder, however short.
    """
    return [
        (max(pl.start, cut), pl.end, pl.processors)
        for pl in cp.placements
        if pl.end > cut
    ]


class Schedule:
    """Mutable record of all committed allocations on ``capacity`` processors.

    Parameters
    ----------
    capacity:
        Number of processors in the system.
    origin:
        Virtual time at which the system becomes available.
    keep_placements:
        When True (default) every committed :class:`ChainPlacement` is
        retained for auditing, tracing and Gantt rendering.  Long-running
        simulations that only need aggregate metrics may disable this to
        keep memory flat; consistency auditing then only covers the profile
        invariants.
    """

    def __init__(
        self,
        capacity: int,
        origin: float = 0.0,
        keep_placements: bool = True,
    ) -> None:
        self.profile = AvailabilityProfile(capacity, origin=origin)
        self.perf = PerfRecorder()
        self._keep = keep_placements
        self._placements: list[ChainPlacement] = []
        self._committed_area = 0.0
        self._committed_jobs = 0
        # Multisets of committed release/finish times: rollback must be able
        # to *shrink* the utilization window, so the extremes cannot be
        # tracked as bare running min/max (a rolled-back extreme would leave
        # them stale and deflate utilization()).
        self._releases: Counter[float] = Counter()
        self._finishes: Counter[float] = Counter()
        self._first_release = math.inf
        self._last_finish = -math.inf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of processors managed by this schedule."""
        return self.profile.capacity

    @property
    def keeps_placements(self) -> bool:
        """Whether committed placements are retained (see constructor)."""
        return self._keep

    @property
    def placements(self) -> tuple[ChainPlacement, ...]:
        """All committed chain placements (empty if ``keep_placements=False``)."""
        return tuple(self._placements)

    def _index_of(self, cp: ChainPlacement, what: str) -> int:
        """Where ``cp`` is held; raises before anything has been undone."""
        try:
            return self._placements.index(cp)
        except ValueError as exc:
            raise ScheduleConsistencyError(
                f"{what} of unknown placement for job {cp.job_id}"
            ) from exc

    @property
    def committed_area(self) -> float:
        """Total processor-time promised to admitted jobs so far."""
        return self._committed_area

    @property
    def committed_jobs(self) -> int:
        """Number of chain placements committed so far."""
        return self._committed_jobs

    @property
    def first_release(self) -> float:
        """Earliest release among committed jobs (``inf`` when empty)."""
        return self._first_release

    @property
    def last_finish(self) -> float:
        """Latest finish among committed jobs (``-inf`` when empty)."""
        return self._last_finish

    def utilization(self, horizon: float | None = None) -> float:
        """Committed processor-time divided by machine capacity over time.

        The window runs from the earliest committed release to ``horizon``
        (default: the latest committed finish).  Returns 0.0 for an empty
        schedule.
        """
        if self._committed_jobs == 0:
            return 0.0
        end = self._last_finish if horizon is None else horizon
        span = end - self._first_release
        if span <= 0:
            return 0.0
        return self._committed_area / (self.capacity * span)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def commit(self, cp: ChainPlacement) -> None:
        """Atomically reserve every task placement of ``cp``.

        Validates the chain placement first; if any reservation fails
        mid-way (which indicates a scheduler bug — placements are computed
        against this very profile), the profile is left as it was (see
        :meth:`_reserve_all`) before the error propagates.
        """
        cp.validate()
        try:
            self._reserve_all(
                (pl.start, pl.end, pl.processors) for pl in cp.placements
            )
        except Exception:
            self.perf.commit_failures += 1
            raise
        self.record_commit(cp, cp.finish, cp.total_area)
        self.perf.commits += 1

    def record_commit(self, cp: ChainPlacement, finish: float, area: float) -> None:
        """Book-keep one committed chain placement (no profile mutation).

        ``finish`` is ``cp.finish`` and ``area`` the processor-time ``cp``
        adds here, as for one row of :meth:`record_commits`: its
        ``total_area``, or less for a carried placement.  Split out of
        :meth:`commit` so the batched admission kernel — which applies the
        profile reservations inside C and returns both numbers — can book
        its one-job calls without re-reserving or re-deriving them.
        """
        # The one-row case of record_commits, unrolled: this is the serial
        # hot path.  ``get`` rather than ``+= 1``: a release or finish seen
        # for the first time (nearly every one) would call
        # ``Counter.__missing__``, a Python method.
        # tests/core/test_admit_batch.py pins the two forms equal.
        if self._keep:
            self._placements.append(cp)
        self._committed_area += area
        self._committed_jobs += 1
        release = cp.release
        releases, finishes = self._releases, self._finishes
        releases[release] = releases.get(release, 0) + 1
        finishes[finish] = finishes.get(finish, 0) + 1
        if release < self._first_release:
            self._first_release = release
        if finish > self._last_finish:
            self._last_finish = finish

    def record_commits(
        self,
        cps: Sequence[ChainPlacement],
        finishes: Sequence[float],
        areas: Sequence[float],
    ) -> None:
        """Book-keep a non-empty run of committed placements, in order.

        ``finishes[i]`` is ``cps[i].finish`` and ``areas[i]`` the
        processor-time ``cps[i]`` adds here (see :meth:`record_commit`).
        The batched kernel passes both as columns it already has; the area
        is summed left to right, so every accumulator ends exactly where one
        :meth:`record_commit` per placement would leave it.
        """
        if self._keep:
            self._placements.extend(cps)
        area = self._committed_area
        for a in areas:
            area += a
        self._committed_area = area
        self._committed_jobs += len(cps)
        releases = [cp.release for cp in cps]
        self._releases.update(releases)
        self._finishes.update(finishes)
        self._first_release = min(self._first_release, min(releases))
        self._last_finish = max(self._last_finish, max(finishes))

    def rollback(self, cp: ChainPlacement) -> None:
        """Undo a previously committed chain placement.

        The utilization window is recomputed from the surviving committed
        placements: rolling back the earliest-released or latest-finishing
        job shrinks ``first_release``/``last_finish`` accordingly instead of
        leaving them stale.  With ``keep_placements=True`` a placement
        this schedule does not hold (never committed, or already rolled
        back) raises :class:`ScheduleConsistencyError` and changes nothing.
        """
        at = self._index_of(cp, "rollback") if self._keep else None
        for pl in reversed(cp.placements):
            self.profile.release(pl.start, pl.end, pl.processors)
        if at is not None:
            del self._placements[at]
        self._committed_area -= cp.total_area
        self._committed_jobs -= 1
        self._releases[cp.release] -= 1
        if not self._releases[cp.release]:
            del self._releases[cp.release]
            if cp.release == self._first_release:
                self._first_release = (
                    min(self._releases) if self._releases else math.inf
                )
        self._finishes[cp.finish] -= 1
        if not self._finishes[cp.finish]:
            del self._finishes[cp.finish]
            if cp.finish == self._last_finish:
                self._last_finish = (
                    max(self._finishes) if self._finishes else -math.inf
                )
        self.perf.rollbacks += 1

    def rollback_tail(self, cp: ChainPlacement, cut: float) -> None:
        """Release the portion of ``cp``'s reservations at or after ``cut``.

        The overrun primitive of the resilience driver: when a running
        task is discovered (at ``cut``) to exceed its reserved duration,
        the chain's downstream reservations are returned to the profile so
        the remaining work can be re-negotiated, while the already-consumed
        prefix (before ``cut``) stays accounted — those processors really
        were busy.  Concretely:

        * every reserved interval ``[start, end)`` ending after ``cut`` is
          released over ``[max(start, cut), end)`` — the same clip
          :meth:`restore_tail` and :meth:`adopt_carried` reserve;
        * committed area shrinks by exactly the released processor-time;
        * the job's committed finish moves from ``cp.finish`` to ``cut``
          (the consumed stub still bounds the utilization window);
        * ``cp`` leaves the placement list — the re-admitted remainder, if
          any, is committed as its own placement.

        ``cut`` must lie strictly after ``cp.start``; a placement that has
        not started yet is a plain :meth:`rollback`.  A placement carried
        across a capacity change (see :meth:`adopt_carried`) may be passed
        here even though its pre-change intervals were never reserved on
        this profile: only post-``cut`` intervals are touched, and those
        are always within the carried reservation.
        """
        if cut <= cp.start:
            self.rollback(cp)
            return
        at = self._index_of(cp, "rollback_tail") if self._keep else None
        released = 0.0
        for start, end, procs in reversed(_clipped(cp, cut)):
            self.profile.release(start, end, procs)
            released += (end - start) * procs
        if at is not None:
            del self._placements[at]
        self._committed_area -= released
        self._finishes[cp.finish] -= 1
        if not self._finishes[cp.finish]:
            del self._finishes[cp.finish]
        self._finishes[cut] += 1
        if cp.finish == self._last_finish:
            self._last_finish = max(self._finishes)
        self.perf.tail_rollbacks += 1

    def restore_tail(self, cp: ChainPlacement, cut: float) -> None:
        """Exact inverse of :meth:`rollback_tail` at the same ``cut``.

        Re-reserves the post-``cut`` portion of ``cp``'s intervals, returns
        ``cp`` to the placement list, and moves the job's committed finish
        back from ``cut`` to ``cp.finish``.  The mid-execution resize engine
        uses this to abandon a *tentative* resize: it tail-rolls a running
        placement back, probes a reshaped remainder, and — when the reshape
        is rejected — restores the original reservation: the profile bit
        for bit (re-reserving what was released gives back the same
        breakpoint lists), and the accounting.

        Must be called with the same ``cut`` that was passed to
        :meth:`rollback_tail`, while the freed region is still free (the
        caller rolls back whatever it committed in between first); a
        ``cut`` at or before ``cp.start`` undoes a plain rollback.
        """
        if cut <= cp.start:
            self.commit(cp)
            return
        restored = self._reserve_all(_clipped(cp, cut))
        if self._keep:
            self._placements.append(cp)
        self._committed_area += restored
        self._finishes[cut] -= 1
        if not self._finishes[cut]:
            del self._finishes[cut]
        self._finishes[cp.finish] += 1
        if self._finishes:
            self._last_finish = max(self._finishes)
        self.perf.tail_restores += 1

    def adopt_carried(self, cp: ChainPlacement, cut: float) -> None:
        """Re-reserve the remaining (post-``cut``) portion of ``cp`` here.

        Used when a placement committed on a *predecessor* schedule is
        carried across a capacity change onto this schedule (whose origin
        is the change time ``cut``): each reserved interval is clipped to
        ``[max(start, cut), end)`` and re-reserved.  Raises
        :class:`~repro.errors.CapacityExceededError` — after rolling back
        the partial reservation — when the remaining shape no longer fits,
        in which case the caller renegotiates or drops the job.

        Accounting counts only the clipped (re-reserved) area; the
        pre-change portion burned on the predecessor machine and is that
        schedule's history.
        """
        self.record_commit(cp, cp.finish, self._reserve_all(_clipped(cp, cut)))
        self.perf.carries += 1

    def _reserve_all(self, intervals: Iterable[tuple[float, float, int]]) -> float:
        """Reserve every ``(start, end, processors)``, all or none; their area.

        On a failure the intervals already reserved are released, last
        first, before the error propagates.  Reserve and release are exact
        inverses, so the profile is left bit for bit as it was.
        """
        applied: list[tuple[float, float, int]] = []
        area = 0.0
        try:
            for start, end, procs in intervals:
                self.profile.reserve(start, end, procs)
                applied.append((start, end, procs))
                area += (end - start) * procs
        except Exception:
            for start, end, procs in reversed(applied):
                self.profile.release(start, end, procs)
            raise
        return area

    def compact(self, before: float) -> None:
        """Forget profile structure before ``before`` (see profile docs).

        Utilization accounting is unaffected: committed areas were summed at
        commit time.
        """
        self.profile.compact(before)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def perf_snapshot(self) -> dict[str, float | int]:
        """Flat performance summary: recorder counters/timers + profile stats.

        Profile counters come through prefixed with ``profile_``; the
        current segment count rides along as ``profile_segments`` (a proxy
        for live-allocation fragmentation).  See :mod:`repro.perf`.
        """
        out = self.perf.snapshot()
        for name, value in self.profile.stats.as_dict().items():
            out[f"profile_{name}"] = value
        out["profile_segments"] = len(self.profile)
        return out

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Audit the whole schedule.

        * profile invariants hold;
        * every stored chain placement satisfies release/precedence/deadline;
        * replaying all stored placements onto a fresh profile never exceeds
          capacity and reproduces the live profile's availability at every
          stored breakpoint (only meaningful when ``keep_placements=True``
          and :meth:`compact` has not been used).

        Raises :class:`~repro.errors.ScheduleConsistencyError` on failure.
        """
        self.profile.check_invariants()
        if not self._keep:
            return
        replay = AvailabilityProfile(self.capacity, origin=self.profile.origin)
        for cp in self._placements:
            cp.validate()
            for pl in cp.placements:
                if pl.start < self.profile.origin:
                    continue  # compacted history; cannot replay
                replay.reserve(pl.start, pl.end, pl.processors)
