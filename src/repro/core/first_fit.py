"""Earliest-feasible-start search (the "first fit" of Section 5.2).

Given the availability profile, a task needing ``processors`` CPUs for
``duration`` time, a release time and an absolute deadline, find the
*smallest* start ``s >= release`` such that at least ``processors``
processors are free throughout ``[s, s + duration)`` and
``s + duration <= deadline``.

The search starts at the segment containing the release time — found by
bisection, never by scanning from the profile origin — then looks for the
first *run* of segments with sufficient availability that covers
``duration``; the run's (release-clamped) start is the answer.  Three
interchangeable scan back-ends implement that search, selected by
:meth:`AvailabilityProfile.scan_backend`:

* :func:`_scalar_scan` walks segments one by one in Python — O(segments
  scanned past the release), cheapest on small profiles;
* :func:`_vector_scan` finds the runs — and feasibility-tests all of them
  at once — with vectorized comparisons over the profile's NumPy mirrors
  (:meth:`AvailabilityProfile._mirrors`).  On a 10k-segment profile this is
  an order of magnitude faster than the walk, which is what makes
  10k-arrival benchmarks tractable — but still O(S) per probe;
* :func:`_tree_scan` alternates :meth:`SegmentTreeIndex.first_at_least` /
  :meth:`~repro.core.segtree.SegmentTreeIndex.first_below` descents over
  the profile's segment-tree index — O(log S) per run examined, *sublinear
  in fragmentation*, because subtrees whose max availability cannot fit
  the request are skipped wholesale.

Under the default ``"auto"`` back-end, profiles below
:data:`VECTOR_MIN_SEGMENTS` use the scalar walk (the numpy fixed overhead
loses at that scale), as do profile classes that set ``VECTORIZED_SCAN =
False`` (the legacy baseline in ``benchmarks/``); larger profiles use the
vectorized scan.  The tree is an explicit opt-in for query-dominated
fragmented regimes (see the :mod:`repro.core.profile` module docs).  All
back-ends return bit-identical results — property tests drive them with
the same random profiles, and the maximal-holes formulation in
:mod:`repro.core.holes` provides an independent oracle.

Each call bumps the profile's :class:`~repro.perf.ProfileStats` probe
counters (``probes``, ``probe_segments``) so decision cost stays observable
at simulation scale.  (For the tree back-end ``probe_segments`` counts
*tree nodes visited*, the cost driver of that search; the compiled batch
loop adds the segments it walked *after* skipping the starts an earlier
probe of the same call ruled out — ``docs/perf.md``, "The no-fit
frontier" — so its count is work done, not the serial scan's length.)
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.core import kernels
from repro.core.profile import (
    TREE_MIN_SEGMENTS,
    VECTOR_MIN_SEGMENTS,
    AvailabilityProfile,
)
from repro.core.resources import TIME_EPS

__all__ = ["earliest_fit", "TREE_MIN_SEGMENTS", "VECTOR_MIN_SEGMENTS"]


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
    n = len(times)

    # Segment containing the release instant (bisected, never scanned).
    i = max(bisect_right(times, release) - 1, 0)

    backend = profile.scan_backend()
    if backend == "tree":
        return _tree_scan(profile, times, n, i, processors, duration, release, deadline)
    if backend == "vector":
        return _vector_scan(profile, times, n, i, processors, duration, release, deadline)
    if backend == "kernel":
        return _kernel_scan(profile, n, i, processors, duration, release, deadline)
    return _scalar_scan(profile, times, n, i, processors, duration, release, deadline)


def _kernel_scan(
    profile: AvailabilityProfile,
    n: int,
    i: int,
    processors: int,
    duration: float,
    release: float,
    deadline: float,
) -> float | None:
    """Flat-array search via the decision-kernel layer.

    Dispatches to the compiled C port of the scalar walk when available
    (``REPRO_KERNEL``), or to its bit-identical numpy fallback; see
    :mod:`repro.core.kernels`.  Decisions always match the other scan
    back-ends; the ``probe_segments`` accounting follows whichever
    implementation serves the call.
    """
    times_m, avail_m = profile._mirrors()  # noqa: SLF001
    start, scanned = kernels.active().earliest_fit_arrays(
        times_m, avail_m, n, i, processors, duration, release, deadline
    )
    profile.stats.probe_segments += scanned
    return start


def _scalar_scan(
    profile: AvailabilityProfile,
    times: list[float],
    n: int,
    i: int,
    processors: int,
    duration: float,
    release: float,
    deadline: float,
) -> float | None:
    """Per-segment Python walk (the seed implementation's search loop)."""
    stats = profile.stats
    avail = profile._avail  # noqa: SLF001
    first = i

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


def _vector_scan(
    profile: AvailabilityProfile,
    times: list[float],
    n: int,
    i: int,
    processors: int,
    duration: float,
    release: float,
    deadline: float,
) -> float | None:
    """Vectorized run search over the NumPy profile mirrors.

    One ``>=`` comparison over the availability mirror tail yields the
    sufficiency mask; its 0→1 / 1→0 transitions delimit the candidate runs;
    run starts/ends gathered from the breakpoint mirror give every run's
    duration coverage at once, and the first run that covers ``duration``
    wins.  All comparisons replicate :func:`_scalar_scan`'s float math (same
    IEEE-754 subtractions, same TIME_EPS slack), so both back-ends return
    bit-identical results.
    """
    stats = profile.stats
    np_times, np_avail = profile._mirrors()
    mask = np_avail[i:] >= processors
    m8 = mask.view(np.int8)
    d = np.diff(m8)
    length = m8.shape[0]
    # Candidate runs [a, b) of sufficient availability, in time order
    # (indices relative to segment i).
    starts = np.flatnonzero(d == 1) + 1
    if mask[0]:
        starts = np.concatenate(((0,), starts))
    if starts.size == 0:
        stats.probe_segments += length
        return None  # no sufficient segment at all: never fits
    ends = np.flatnonzero(d == -1) + 1
    if ends.size < starts.size:
        ends = np.concatenate((ends, (length,)))  # last run extends to +inf
    start_t = np_times[i + starts]
    if starts[0] == 0:
        # The first run contains the release instant itself; clamp its
        # start (times[i] <= release by choice of i).
        start_t[0] = release
    end_idx = i + ends
    end_t = np.where(end_idx < n, np_times[np.minimum(end_idx, n - 1)], math.inf)
    feasible = end_t - start_t >= duration - TIME_EPS
    k = int(np.argmax(feasible))
    if not feasible[k]:
        stats.probe_segments += length
        return None  # trailing segment deficient or covered: never fits
    stats.probe_segments += int(ends[k])  # segments through the deciding run
    start = float(start_t[k])
    # Any earlier (infeasible) run starts no later than this one, so a
    # single deadline check on the winner matches the scalar walk's
    # run-by-run early exit.
    if start + duration > deadline + TIME_EPS:
        return None
    return start


def _tree_scan(
    profile: AvailabilityProfile,
    times: list[float],
    n: int,
    i: int,
    processors: int,
    duration: float,
    release: float,
    deadline: float,
) -> float | None:
    """Segment-tree descent search — O(log S) per candidate run.

    Run starts are located with ``first_at_least`` (first segment at or
    after an index with enough free processors) and run ends with
    ``first_below`` (first segment that breaks the run); each is one
    root-to-leaf descent that skips subtrees whose max/min availability
    disqualifies them.  The float comparisons are exactly the scalar
    walk's (same subtractions, same TIME_EPS slack), so the result is
    bit-identical to both other back-ends.
    """
    stats = profile.stats
    tree = profile._tree()  # noqa: SLF001 - hot path, same package
    avail = profile._avail  # noqa: SLF001
    before = tree.visited

    if avail[i] >= processors:
        # The release segment itself opens a run.
        j = i
        run_start = release
    else:
        j = tree.first_at_least(i + 1, processors)
        if j < 0:
            stats.probe_segments += tree.visited - before
            return None  # trailing segment deficient: never fits
        run_start = times[j]  # > release since j > i by choice of i
        if run_start + duration > deadline + TIME_EPS:
            stats.probe_segments += tree.visited - before
            return None
    while True:
        k = tree.first_below(j + 1, processors)
        end_t = times[k] if 0 <= k < n else math.inf
        if end_t - run_start >= duration - TIME_EPS:
            stats.probe_segments += tree.visited - before
            if run_start + duration > deadline + TIME_EPS:
                return None
            return run_start
        j = tree.first_at_least(k + 1, processors)
        if j < 0:
            stats.probe_segments += tree.visited - before
            return None
        run_start = times[j]
        if run_start + duration > deadline + TIME_EPS:
            stats.probe_segments += tree.visited - before
            return None
