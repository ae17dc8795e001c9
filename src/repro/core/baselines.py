"""Baseline schedulers.

:class:`BestFitScheduler` is *not* in the paper's evaluation but
contextualizes the greedy heuristic, as called for by the related-work
discussion (Section 6): it replaces the first-fit (earliest start) rule
with best-fit over maximal holes (tightest height surplus, then earliest
start).  The ``ablation-fit`` experiment measures what first fit
costs/buys.  The conservative admission baseline is an objective,
:attr:`~repro.core.policies.ArbitrationObjective.CONSERVATIVE`.
"""

from __future__ import annotations

from repro.core.first_fit import earliest_fit
from repro.core.greedy import GreedyScheduler
from repro.core.holes import maximal_holes
from repro.core.placement import ChainPlacement, Placement
from repro.model.chain import TaskChain

__all__ = ["BestFitScheduler"]


class BestFitScheduler(GreedyScheduler):
    """Greedy scheduler using best-fit hole selection per task.

    For each task, enumerate the maximal holes that admit it by its
    deadline and choose the hole with the smallest height surplus
    ``m - processors`` (ties: earliest feasible start).  The task starts as
    early as possible inside the chosen hole.

    This runs the hole enumeration per task and is therefore noticeably
    slower than first fit; it exists for the ablation experiments and as a
    second implementation against which the property tests cross-check
    feasibility.
    """

    def place_chain(
        self,
        chain: TaskChain,
        release: float,
        job_id: int = -1,
        chain_index: int = 0,
    ) -> ChainPlacement | None:
        profile = self.schedule.profile
        earliest = max(release, profile.origin)
        placements: list[Placement] = []
        for task in chain.tasks:
            deadline = release + task.deadline
            best_start: float | None = None
            best_surplus: int | None = None
            for hole in maximal_holes(profile):
                if hole.m < task.processors:
                    continue
                start = max(hole.t_b, earliest)
                finish = start + task.duration
                if finish > hole.t_e or finish > deadline:
                    continue
                surplus = hole.m - task.processors
                if (
                    best_surplus is None
                    or surplus < best_surplus
                    or (surplus == best_surplus and start < best_start)
                ):
                    best_surplus = surplus
                    best_start = start
            if best_start is None:
                return None
            placements.append(Placement.rigid(task, best_start))
            earliest = best_start + task.duration
        return ChainPlacement(
            job_id=job_id,
            chain_index=chain_index,
            chain=chain,
            placements=tuple(placements),
            release=release,
        )
