"""Maximal holes in the processor-time plane.

Section 5.2: "the heuristic keeps track of available maximal holes in the
processor-time 2D space: each hole is represented by a triple
``(t_b, t_e, m)`` (denoting that ``m`` processors are available from
beginning time ``t_b`` until the end time ``t_e``), and is maximal if it is
not contained within any other hole."

A hole is exactly an axis-aligned rectangle lying under the availability
step function; it is *maximal* when it can neither be widened in time at
height ``m`` nor raised in height over ``[t_b, t_e)``.  This module derives
the full maximal-hole set from an :class:`~repro.core.profile.AvailabilityProfile`
(the equivalence is exercised heavily by the property-based tests), and
provides containment/fitting predicates used by the expository API and by
the test oracle for the first-fit search.

Boundaries are exact, as everywhere in the scheduler: a hole is the
half-open ``[t_b, t_e)``, a task fits when ``start + duration <= t_e`` (the
hole-level mirror of ``earliest_fit``'s run-coverage test) and finishes by
its deadline when ``start + duration <= deadline``.
``tests/core/test_holes.py::TestEpsilonBoundaries`` pins the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.profile import AvailabilityProfile

__all__ = ["MaximalHole", "maximal_holes", "holes_containing", "first_fit_via_holes"]


@dataclass(frozen=True, slots=True, order=True)
class MaximalHole:
    """A maximal free rectangle ``(t_b, t_e, m)`` in processor-time space.

    ``t_e`` may be ``math.inf`` — the machine's trailing idle capacity forms
    holes open toward the future.
    """

    t_b: float
    t_e: float
    m: int

    @property
    def duration(self) -> float:
        """Length of the hole in time (possibly ``inf``)."""
        return self.t_e - self.t_b

    @property
    def area(self) -> float:
        """Processor-time area of the hole (possibly ``inf``)."""
        return self.m * self.duration

    def contains(self, other: "MaximalHole") -> bool:
        """True if ``other`` lies entirely within this hole."""
        return self.t_b <= other.t_b and other.t_e <= self.t_e and other.m <= self.m

    def fits(self, processors: int, duration: float, release: float = -math.inf,
             deadline: float = math.inf) -> bool:
        """True if a ``processors x duration`` task fits inside this hole,
        starting no earlier than ``release`` and finishing by ``deadline``."""
        if processors > self.m:
            return False
        start = max(self.t_b, release)
        finish = start + duration
        return finish <= min(self.t_e, deadline)


def maximal_holes(
    profile: AvailabilityProfile, horizon: float = math.inf
) -> list[MaximalHole]:
    """Enumerate every maximal hole of ``profile`` up to ``horizon``.

    The result is sorted by ``(t_b, t_e, m)`` and contains no duplicate and
    no hole nested inside another (the defining property).  Holes of height
    zero are not holes.

    Complexity is ``O(S^2)`` over ``S`` profile segments in the worst case;
    the scheduler itself never calls this on its hot path (it uses the step
    function directly), so clarity wins over cleverness here.
    """
    segs = [(s, min(e, horizon), a) for s, e, a in profile.segments() if s < horizon]
    holes: set[MaximalHole] = set()
    n = len(segs)
    for i, (_, _, height) in enumerate(segs):
        if height <= 0:
            continue
        # Extend maximally left and right at this height.
        lo = i
        while lo > 0 and segs[lo - 1][2] >= height:
            lo -= 1
        hi = i
        while hi + 1 < n and segs[hi + 1][2] >= height:
            hi += 1
        t_b = segs[lo][0]
        t_e = segs[hi][1]
        # The hole's true height is the min availability over [lo, hi]; by
        # construction that minimum equals `height` only when segment i is a
        # minimum of the extent, which it is: every included segment has
        # availability >= height.
        holes.add(MaximalHole(t_b, t_e, height))
    # Remove non-maximal heights: two seeds can give nested rectangles when
    # the horizon clipped the wider one.
    result = [
        h
        for h in holes
        if not any(o != h and o.contains(h) for o in holes)
    ]
    result.sort()
    return result


def holes_containing(
    holes: Iterable[MaximalHole], t: float, processors: int = 1
) -> list[MaximalHole]:
    """Return the holes covering instant ``t`` with height >= ``processors``."""
    return [h for h in holes if h.t_b <= t < h.t_e and h.m >= processors]


def first_fit_via_holes(
    holes: Iterable[MaximalHole],
    processors: int,
    duration: float,
    release: float,
    deadline: float = math.inf,
) -> float | None:
    """Earliest start time for a task using the maximal-hole representation.

    This is the specification-level (test oracle) counterpart of
    :func:`repro.core.first_fit.earliest_fit`: scan holes in order of their
    earliest feasible start and return the minimum.  ``None`` if no hole
    admits the task by its deadline.
    """
    best: float | None = None
    for hole in holes:
        if hole.m < processors:
            continue
        start = max(hole.t_b, release)
        finish = start + duration
        if finish > hole.t_e or finish > deadline:
            continue
        if best is None or start < best:
            best = start
    return best
