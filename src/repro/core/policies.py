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

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.core.placement import ChainPlacement

__all__ = ["TieBreakPolicy", "select_candidate"]


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


def _prefix_key(cp: "ChainPlacement") -> tuple[float, ...]:
    return cp.chain.prefix_areas()


def select_candidate(
    candidates: Sequence["ChainPlacement"],
    policy: TieBreakPolicy = TieBreakPolicy.PAPER,
    rng: random.Random | None = None,
) -> "ChainPlacement":
    """Pick the winning configuration among schedulable candidates.

    ``candidates`` must be non-empty.  The earliest finish time wins
    outright; candidates finishing at exactly that time are tied and
    resolved by ``policy``; ``RANDOM`` draws from ``rng``, which it
    requires.

    ``PAPER`` maximizes system utilization over ``[release, finish]``.
    Tied candidates belong to one job and finish at the same instant, so
    they share that window and the work already committed in it: the
    utilization of committing ``c`` is ``(busy + area(c)) / (capacity *
    span)`` with everything but ``area(c)`` common to all of them.
    Comparing utilizations exactly is therefore comparing the candidates'
    own areas, which is what this does; no quotient is ever rounded.
    """
    if not candidates:
        raise ValueError("select_candidate requires at least one candidate")
    best_finish = min(c.finish for c in candidates)
    tied = [c for c in candidates if c.finish == best_finish]
    if len(tied) == 1 or policy is TieBreakPolicy.FIRST:
        return tied[0]
    if policy is TieBreakPolicy.RANDOM:
        if rng is None:
            raise ValueError("TieBreakPolicy.RANDOM requires an rng")
        return rng.choice(tied)
    if policy is TieBreakPolicy.PAPER:
        # Maximize window utilization: the largest area, then the prefix rule.
        best_area = max(c.total_area for c in tied)
        tied = [c for c in tied if c.total_area == best_area]
    return min(tied, key=_prefix_key)
