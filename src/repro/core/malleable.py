"""Malleable-task scheduling (Section 5.4).

A malleable task "can use any number of processors up to its degree of
concurrency" with work-conserving duration scaling (systems like Calypso
"support malleable tasks: the programmer specifies only the logical
concurrency of the application, which is flexibly mapped to available
processors at runtime").

"When allocating resources to a malleable task, our heuristic tries various
configurations of the task, starting from the highest number of processors
the task can use."  The sentence leaves the stopping rule open; we implement
both defensible readings as :class:`MalleableStrategy`:

* ``WIDEST_FIRST_FEASIBLE`` (default, the literal reading): scan processor
  counts from the degree of concurrency downward and take the *first* count
  whose first-fit placement meets the task deadline.
* ``EARLIEST_FINISH``: scan all counts, take the placement finishing
  earliest; ties favour the wider configuration.

The ``ablation-malleable`` experiment compares the two.
"""

from __future__ import annotations

import random
from enum import Enum

from repro.core.first_fit import earliest_fit
from repro.core.greedy import GreedyScheduler
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.core.resources import TIME_EPS
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec

__all__ = ["MalleableStrategy", "MalleableScheduler"]


class MalleableStrategy(Enum):
    """How a malleable task picks its processor count (see module docs)."""

    WIDEST_FIRST_FEASIBLE = "widest-first-feasible"
    EARLIEST_FINISH = "earliest-finish"


class MalleableScheduler(GreedyScheduler):
    """Greedy scheduler that reshapes tasks to available processors.

    Inherits the tunable-configuration choice machinery from
    :class:`~repro.core.greedy.GreedyScheduler`; only per-task placement
    changes.

    Parameters
    ----------
    min_processors:
        Lower bound on the processor counts tried (default 1).  Raising it
        models applications whose per-processor efficiency collapses below a
        minimum width.
    """

    # Widest-first reshaping is not monotone in task hardness (a nominally
    # harder task may reshape into a *different* width that happens to fit),
    # and the chosen width depends on the deadline passed in — so neither
    # failure propagation nor incumbent finish capping is exact here.  Only
    # duplicate collapse (keyed on the malleable shape below) applies.
    SUPPORTS_DOMINANCE = False
    SUPPORTS_FINISH_CAP = False

    def __init__(
        self,
        schedule: Schedule,
        policy: TieBreakPolicy = TieBreakPolicy.PAPER,
        strategy: MalleableStrategy = MalleableStrategy.WIDEST_FIRST_FEASIBLE,
        min_processors: int = 1,
        rng: random.Random | None = None,
        prune: bool = True,
    ) -> None:
        super().__init__(schedule, policy, rng, prune=prune)
        if min_processors < 1:
            raise ConfigurationError(
                f"min_processors must be >= 1, got {min_processors}"
            )
        self.strategy = strategy
        self.min_processors = min_processors

    # ------------------------------------------------------------------

    def _quick_reject(self, chain: TaskChain) -> bool:
        """Necessary-condition check using the *fastest* reshape of each task.

        The rigid check of the base class is wrong here: a task wider than
        the machine can shrink, and a task can beat its rigid duration by
        widening.  This uses each task's minimum achievable duration and the
        plain per-task deadlines (no successor tightening, which would also
        assume rigid durations).
        """
        cap = self.schedule.capacity
        elapsed = 0.0
        for task in chain.tasks:
            width_cap = min(task.max_concurrency, cap)
            if width_cap < self.min_processors:
                return True
            elapsed += task.area / width_cap
            if elapsed > task.deadline + TIME_EPS:
                return True
        return False

    def _shape_key(self, chain: TaskChain) -> tuple:
        """Malleable placement identity: area + width bound, not rigid shape.

        Reshaping makes two tasks interchangeable exactly when they have the
        same work area, the same concurrency ceiling and the same deadline
        (quality rides along for the same reason as in the rigid key).
        """
        return tuple(
            (t.area, t.max_concurrency, t.deadline, t.quality) for t in chain.tasks
        )

    def _place_task(
        self,
        task: TaskSpec,
        earliest: float,
        deadline: float,
        min_width: int | None = None,
        max_width: int | None = None,
    ) -> Placement | None:
        """Place one malleable task per the configured strategy.

        ``min_width``/``max_width`` optionally narrow the probed band within
        ``[min_processors, min(max_concurrency, capacity)]`` — the
        mid-execution resize path uses them to force a strictly wider
        (grow) or strictly narrower (shrink) restart of an in-flight task.

        Under ``EARLIEST_FINISH``, "ties favour the wider configuration" is
        honoured against the *true minimum* finish: every feasible width is
        collected first, then the widest placement finishing within
        ``TIME_EPS`` of the earliest finish wins.  (Comparing each candidate
        only against the running best lets near-ties drift: with ends
        ``E``, ``E-0.6eps``, ``E-1.2eps`` from wide to narrow, the middle
        width is discarded against ``E`` yet ties the narrow winner.)
        """
        profile = self.schedule.profile
        width_cap = min(task.max_concurrency, profile.capacity)
        if max_width is not None:
            width_cap = min(width_cap, max_width)
        width_floor = self.min_processors
        if min_width is not None:
            width_floor = max(width_floor, min_width)
        if width_cap < width_floor:
            return None
        area = task.area
        feasible: list[Placement] = []
        perf = self.schedule.perf
        for procs in range(width_cap, width_floor - 1, -1):
            duration = area / procs
            perf.reshape_probes += 1
            start = earliest_fit(profile, procs, duration, earliest, deadline)
            if start is None:
                continue
            placement = Placement(task, start, procs, duration)
            if self.strategy is MalleableStrategy.WIDEST_FIRST_FEASIBLE:
                return placement
            feasible.append(placement)
        if not feasible:
            return None
        min_end = min(pl.end for pl in feasible)
        # Scan order is widest-first, so the first within-eps hit is the
        # widest member of the tie set.
        for placement in feasible:
            if placement.end <= min_end + TIME_EPS:
                return placement
        return None  # pragma: no cover - min_end is attained above

    def resize_placement(
        self,
        chain: TaskChain,
        release: float,
        earliest: float,
        first_min_width: int | None = None,
        first_max_width: int | None = None,
        job_id: int = -1,
        chain_index: int = 0,
    ) -> ChainPlacement | None:
        """Re-place a running job's remainder with a reshaped leading task.

        The mid-execution malleability primitive: ``chain`` is the rebased
        remainder of a running chain whose leading task is in flight and is
        being restarted (Calypso-style idempotent re-execution) at a new
        width.  ``earliest`` is the restart instant — the resize time plus
        the charged reconfiguration cost — and ``first_min_width`` /
        ``first_max_width`` bound the leading task's new width (strictly
        wider than before for a grow, strictly narrower for a shrink).
        Downstream tasks reshape freely per the configured strategy.
        Deadlines are checked against ``release`` exactly as in
        :meth:`place_chain`; returns ``None`` when no feasible reshape
        meets them.
        """
        profile = self.schedule.profile
        cursor = max(earliest, release, profile.origin)
        placements: list[Placement] = []
        for index, task in enumerate(chain.tasks):
            pl = self._place_task(
                task,
                cursor,
                release + task.deadline,
                min_width=first_min_width if index == 0 else None,
                max_width=first_max_width if index == 0 else None,
            )
            if pl is None:
                return None
            placements.append(pl)
            cursor = pl.end
        return ChainPlacement(
            job_id=job_id,
            chain_index=chain_index,
            chain=chain,
            placements=tuple(placements),
            release=release,
        )

    def place_chain(
        self,
        chain: TaskChain,
        release: float,
        job_id: int = -1,
        chain_index: int = 0,
    ) -> ChainPlacement | None:
        """Tentatively place ``chain``, reshaping each task as allowed."""
        profile = self.schedule.profile
        earliest = max(release, profile.origin)
        placements: list[Placement] = []
        for task in chain.tasks:
            pl = self._place_task(task, earliest, release + task.deadline)
            if pl is None:
                return None
            placements.append(pl)
            earliest = pl.end
        return ChainPlacement(
            job_id=job_id,
            chain_index=chain_index,
            chain=chain,
            placements=tuple(placements),
            release=release,
        )
