"""Earliest-feasible-start search (the "first fit" of Section 5.2).

Given the availability profile, a task needing ``processors`` CPUs for
``duration`` time, a release time and an absolute deadline, find the
*smallest* start ``s >= release`` such that at least ``processors``
processors are free throughout ``[s, s + duration)`` and
``s + duration <= deadline``.

The search starts at the segment containing the release time — found by
bisection, never by scanning from the profile origin — then looks for the
first *run* of segments with sufficient availability that covers
``duration``; the run's (release-clamped) start is the answer.  The walk
goes segment by segment over the profile's lists — O(segments scanned
past the release).  It is the reference the verify layer's oracle runs
and the walk ``scan_walk`` in ``_kernels.c`` ports line for line for the
C admission loop (``tests/core/test_kernels.py`` pins the two together);
the maximal-holes formulation in :mod:`repro.core.holes` provides an
independent oracle.

Each call bumps the profile's :class:`~repro.perf.ProfileStats` probe
counters (``probes``, ``probe_segments``) so decision cost stays observable
at simulation scale.  (The compiled batch loop adds the segments it walked
*after* skipping the starts an earlier probe of the same call ruled out —
``docs/perf.md``, "The no-fit frontier" — so its count is work done, not
the serial scan's length.)
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.core.profile import AvailabilityProfile
from repro.core.resources import TIME_EPS

__all__ = ["earliest_fit"]


def earliest_fit(
    profile: AvailabilityProfile,
    processors: int,
    duration: float,
    release: float,
    deadline: float = math.inf,
) -> float | None:
    """Earliest start for a ``processors x duration`` task, or ``None``.

    Parameters
    ----------
    profile:
        Current committed availability.
    processors, duration:
        The task's rigid shape.
    release:
        Earliest permissible start (job release or predecessor finish).
    deadline:
        Absolute time by which the task must *finish*.

    Returns
    -------
    The earliest feasible start time, or ``None`` when no placement
    completes by ``deadline`` (including the case ``processors`` exceeds the
    machine capacity, which can never fit).
    """
    stats = profile.stats
    stats.probes += 1
    if processors > profile.capacity:
        return None
    if release + duration > deadline + TIME_EPS:
        return None
    release = max(release, profile.origin)

    times = profile._times  # noqa: SLF001 - hot path, same package
    avail = profile._avail  # noqa: SLF001
    n = len(times)

    # Segment containing the release instant (bisected, never scanned).
    i = first = max(bisect_right(times, release) - 1, 0)

    run_start: float | None = release if avail[i] >= processors else None
    while True:
        if run_start is not None:
            # Extend the run from segment i forward until it covers duration.
            j = i
            while True:
                seg_end = times[j + 1] if j + 1 < n else math.inf
                if seg_end - run_start >= duration - TIME_EPS:
                    stats.probe_segments += j - first + 1
                    if run_start + duration > deadline + TIME_EPS:
                        return None
                    return run_start
                j += 1
                if avail[j] < processors:
                    i = j
                    run_start = None
                    break
        # Advance to the next segment with sufficient availability.
        if run_start is None:
            j = i + 1
            while j < n and avail[j] < processors:
                j += 1
            if j == n:
                stats.probe_segments += n - first
                return None  # trailing segment deficient: never fits
            i = j
            run_start = max(times[i], release)
            if run_start + duration > deadline + TIME_EPS:
                stats.probe_segments += i - first + 1
                return None
