"""Configuration-choice policies (the tie-break rules of Section 5.2).

Among the schedulable configurations of a tunable job, the paper's greedy
heuristic picks the one with the **earliest finish time**; "ties between
schedulable configurations are broken in favor of chains which maximize
system utilization (over a time window defined by the job's release time and
scheduled finish time) and require fewer total resources for some prefix of
their tasks."

:class:`TieBreakPolicy` selects the tie-break chain; the primary
earliest-finish criterion always applies.  ``PAPER`` is the rule quoted
above; the other values exist for the ablation experiments.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence, TYPE_CHECKING

from repro.core.resources import TIME_EPS

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.core.placement import ChainPlacement
    from repro.core.schedule import Schedule

__all__ = ["TieBreakPolicy", "window_utilization", "select_candidate"]


class TieBreakPolicy(Enum):
    """How to break ties among equally-early-finishing configurations."""

    #: Utilization over [release, finish], then lexicographically smaller
    #: prefix resource consumption (the paper's rule).
    PAPER = "paper"
    #: Keep the first minimum-finish candidate in chain order.
    FIRST = "first"
    #: Only the prefix-resource rule.
    PREFIX = "prefix"
    #: Uniform random choice among tied candidates (seeded; ablation only).
    RANDOM = "random"


def window_utilization(schedule: "Schedule", cp: "ChainPlacement") -> float:
    """System utilization over ``[release, finish]`` if ``cp`` were committed.

    Counts processor-time already committed in the window plus the
    candidate's own placements, over machine capacity times window length.
    """
    start = max(cp.release, schedule.profile.origin)
    span = cp.finish - start
    if span <= 0:
        return 1.0
    busy = schedule.profile.busy_area(start, cp.finish) + cp.total_area
    return busy / (schedule.capacity * span)


def _prefix_key(cp: "ChainPlacement") -> tuple[float, ...]:
    return cp.chain.prefix_areas()


def select_candidate(
    schedule: "Schedule",
    candidates: Sequence["ChainPlacement"],
    policy: TieBreakPolicy = TieBreakPolicy.PAPER,
    rng: random.Random | None = None,
) -> "ChainPlacement":
    """Pick the winning configuration among schedulable candidates.

    ``candidates`` must be non-empty.  The earliest finish time wins
    outright; candidates finishing within :data:`~repro.core.resources.TIME_EPS`
    of the minimum are tied and resolved by ``policy``; ``RANDOM`` draws
    from ``rng``, which it requires.
    """
    if not candidates:
        raise ValueError("select_candidate requires at least one candidate")
    best_finish = min(c.finish for c in candidates)
    tied = [c for c in candidates if c.finish <= best_finish + TIME_EPS]
    if len(tied) == 1 or policy is TieBreakPolicy.FIRST:
        return tied[0]
    if policy is TieBreakPolicy.RANDOM:
        if rng is None:
            raise ValueError("TieBreakPolicy.RANDOM requires an rng")
        return rng.choice(tied)
    if policy is TieBreakPolicy.PREFIX:
        return min(tied, key=_prefix_key)
    # PAPER: maximize window utilization, then minimize prefix consumption.
    best_util = max(window_utilization(schedule, c) for c in tied)
    tied = [
        c for c in tied if window_utilization(schedule, c) >= best_util - 1e-12
    ]
    return min(tied, key=_prefix_key)
