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
from repro.core.policies import ArbitrationObjective, TieBreakPolicy
from repro.core.schedule import Schedule
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
    changes.  Every width from the task's cap down to one processor may
    be tried (§5.4: "any number of processors up to its degree of
    concurrency").
    """

    def __init__(
        self,
        schedule: Schedule,
        policy: TieBreakPolicy = TieBreakPolicy.PAPER,
        strategy: MalleableStrategy = MalleableStrategy.WIDEST_FIRST_FEASIBLE,
        rng: random.Random | None = None,
        objective: ArbitrationObjective = ArbitrationObjective.EARLIEST_FINISH,
    ) -> None:
        super().__init__(schedule, policy, rng, objective)
        self.strategy = strategy

    # ------------------------------------------------------------------

    def _quick_reject(self, chain: TaskChain) -> bool:
        """Necessary-condition check using the *fastest* reshape of each task.

        The rigid check of the base class is wrong here: a task wider than
        the machine can shrink, and a task can beat its rigid duration by
        widening.  This uses each task's minimum achievable duration and the
        plain per-task deadlines (no successor tightening, which would also
        assume rigid durations).  Like the rigid check it sums relative
        times and keeps the same small slack.
        """
        cap = self.schedule.capacity
        elapsed = 0.0
        for task in chain.tasks:
            width_cap = min(task.max_concurrency, cap)
            elapsed += task.area / width_cap
            if elapsed > task.deadline + 1e-9:
                return True
        return False

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
        ``[1, min(max_concurrency, capacity)]`` — the mid-execution resize
        path uses them to force a strictly wider (grow) or strictly
        narrower (shrink) restart of an in-flight task.

        Under ``EARLIEST_FINISH``, "ties favour the wider configuration":
        every feasible width is collected, widest first, and the first one
        ending at the earliest end wins.
        """
        profile = self.schedule.profile
        width_cap = min(task.max_concurrency, profile.capacity)
        if max_width is not None:
            width_cap = min(width_cap, max_width)
        width_floor = 1 if min_width is None else max(1, min_width)
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
        # min keeps the first of equal ends: the widest, as scanned.
        return min(feasible, key=lambda pl: pl.end)

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
        Deadlines are relative to ``release``, not to ``earliest``;
        returns ``None`` when no feasible reshape meets them.
        :meth:`place_chain` is this with ``earliest=release`` and no band.
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
        return self.resize_placement(
            chain, release, release, job_id=job_id, chain_index=chain_index
        )
