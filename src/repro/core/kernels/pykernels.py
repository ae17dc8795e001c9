"""Pure-Python/NumPy fallback implementation of the decision kernels.

Selected when ``REPRO_KERNEL=python`` or when no C compiler is available
(see :mod:`repro.core.kernels`).  Every function returns bit-identical
results to its compiled counterpart in ``_kernels.c``:

* :func:`earliest_fit_arrays` is a vectorized run search whose float
  comparisons replicate the scalar walk the C kernel ports
  (:func:`repro.core.first_fit._scalar_scan`: same IEEE-754
  subtractions, same ``TIME_EPS`` slack);
* :func:`range_min` / :func:`free_area_prefix` are single NumPy
  reductions whose accumulation order matches the scalar loops (NumPy's
  ``cumsum``/``min`` over a 1-D float64/int64 array accumulate
  sequentially, the same order as the Python reference — asserted by
  ``tests/core/test_kernels.py`` and the differential fuzzer).

The *scanned-segment* counts attached to probe results are an
instrumentation side-channel, not part of the decision contract: this
implementation reports segments through the deciding run, the compiled
one the scalar walk's count — the
decisions themselves are always bit-identical.

There is no batched admission here (``supports_batch = False``): the
batch API's generic path drives the ordinary Python admission loop with
a vectorized pre-screen instead (:mod:`repro.core.kernels.batch`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.resources import TIME_EPS

__all__ = ["compiled", "supports_batch", "earliest_fit_arrays", "range_min"]

#: Discriminators read by the kernel selector / perf snapshot.
compiled = False
supports_batch = False


def earliest_fit_arrays(
    times: np.ndarray,
    avail: np.ndarray,
    n: int,
    i: int,
    processors: int,
    duration: float,
    release: float,
    deadline: float,
) -> tuple[float | None, int]:
    """Earliest-fit run search over the mirror arrays.

    Arguments mirror the scan back-end protocol of
    :mod:`repro.core.first_fit`: pre-checks already passed, ``release``
    already clamped to the origin, ``i`` the bisected start segment.
    Returns ``(start | None, scanned_segments)``.

    One ``>=`` comparison over the availability tail yields the
    sufficiency mask; its 0→1 / 1→0 transitions delimit the candidate
    runs; run starts/ends gathered from the breakpoints give every run's
    duration coverage at once, and the first run that covers ``duration``
    wins.
    """
    mask = avail[i:] >= processors
    m8 = mask.view(np.int8)
    d = np.diff(m8)
    length = m8.shape[0]
    # Candidate runs [a, b) of sufficient availability, in time order
    # (indices relative to segment i).
    starts = np.flatnonzero(d == 1) + 1
    if mask[0]:
        starts = np.concatenate(((0,), starts))
    if starts.size == 0:
        return None, int(length)  # no sufficient segment at all: never fits
    ends = np.flatnonzero(d == -1) + 1
    if ends.size < starts.size:
        ends = np.concatenate((ends, (length,)))  # last run extends to +inf
    start_t = times[i + starts]
    if starts[0] == 0:
        # The first run contains the release instant itself; clamp its
        # start (times[i] <= release by choice of i).
        start_t[0] = release
    end_idx = i + ends
    end_t = np.where(end_idx < n, times[np.minimum(end_idx, n - 1)], math.inf)
    feasible = end_t - start_t >= duration - TIME_EPS
    k = int(np.argmax(feasible))
    if not feasible[k]:
        return None, int(length)
    scanned = int(ends[k])
    start = float(start_t[k])
    # Any earlier (infeasible) run starts no later than this one, so a
    # single deadline check on the winner matches the scalar walk's
    # run-by-run early exit.
    if start + duration > deadline + TIME_EPS:
        return None, scanned
    return start, scanned


def range_min(avail: np.ndarray, lo: int, hi: int) -> int:
    """Minimum of ``avail[lo:hi]`` (``hi > lo`` guaranteed by callers)."""
    return int(avail[lo:hi].min())
