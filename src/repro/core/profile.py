"""The free-processor availability profile.

The greedy heuristic of Section 5.2 "keeps track of available maximal holes
in the processor-time 2D space".  The equivalent primitive implemented here
is the *availability profile*: a right-open step function ``a(t)`` giving the
number of free processors at each instant.  Maximal holes are exactly the
maximal axis-aligned rectangles under this step function and are derived in
:mod:`repro.core.holes`; all hot-path scheduling operations (reservation,
earliest-fit search, free-area integrals) run directly on the step function,
which is both simpler and asymptotically cheaper.

Representation
--------------
Two parallel lists ``_times`` and ``_avail``: ``_avail[i]`` processors are
free throughout ``[_times[i], _times[i+1])``; the last segment extends to
``+inf``.  ``_times[0]`` is the profile *origin* — the earliest instant the
profile describes (it advances under :meth:`compact`).

Invariants (checked by :meth:`check_invariants` and the test suite):

* ``_times`` strictly increasing, ``len(_times) == len(_avail) >= 1``;
* ``0 <= _avail[i] <= capacity`` for all ``i``;
* adjacent segments have distinct availability (canonical form).

Performance
-----------
All mutations go through a single *windowed rewrite* (:meth:`_shift`): the
affected index window is located by bisection, validated in one scan, and
replaced with one slice assignment per array — no per-breakpoint
``list.insert``/``del`` splices, no post-hoc canonicalization pass.  The
work per operation is O(log S + W) Python steps plus one O(S) C-level
memmove, where W is the number of segments overlapping the interval.

Area queries (:meth:`free_area`, :meth:`busy_area`) run off a cached
prefix-sum over the segment areas, rebuilt lazily after a mutation, making
each query O(log S).  A :class:`~repro.perf.PerfRecorder` (``stats``,
its schedule's ``perf``) counts ops, per-op segments touched, probe scans
and prefix rebuilds, always on, a few integer adds per operation.

Which side is current
---------------------
The C admission loop (:mod:`repro.core.kernels.batch`) mutates its own
arrays, held in a per-profile kernel context (``_ctx``).  A successful
call drops the lists; the first Python-side read of ``_times`` /
``_avail`` rebuilds them from the context's live window, so every scalar
walk, ``holes``, the auditor, ``copy`` and ``==`` see the lists they
always saw, while ``len()`` and ``origin`` answer from whichever side is
current without converting.  A Python-side mutation (``_shift``,
``compact``, an assignment to ``_times`` / ``_avail``) sets ``_dirty``:
the arrays are stale and the next kernel call re-uploads the lists.  The
rebuild folds the C loop's counts first: Python's never land before them.

Who decides
-----------
Whole decisions go through the C loop whenever it takes them (see "What
the C loop does not take" in :mod:`repro.core.kernels.batch`), and that
loop has its own walk over the context's arrays.  Everything else — the
reference path (``QoSArbitrator(backend="scalar")``, RANDOM tie-breaks,
malleable chains, MAX_QUALITY and CONSERVATIVE, ``REPRO_KERNEL=python``)
and point queries from outside the decision loop (``min_available``,
``free_area``, ``holes``) — reads the two lists with the per-segment
Python walks in this module and
:func:`~repro.core.first_fit.earliest_fit`.  Who decides is the
arbitrator's choice, never the profile's; both deciders make
bit-identical decisions, and ``docs/perf.md`` ("Who decides, who scans")
has what the reference path costs on a deep profile.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Sequence

from repro.errors import CapacityExceededError, ConfigurationError, SchedulingError
from repro.perf import PerfRecorder

__all__ = [
    "AvailabilityProfile",
    "PROFILE_BACKENDS",
]

#: Valid values for :class:`~repro.core.arbitrator.QoSArbitrator`'s
#: ``backend`` argument.  A tuple (and in this order) because
#: ``benchmarks/e2e/layers.py`` reports
#: ``PROFILE_BACKENDS.index(profile.scan_backend())``; ROADMAP item 14
#: removes that reader.
PROFILE_BACKENDS = ("auto", "scalar")


class AvailabilityProfile:
    """Number of free processors as a right-open step function of time.

    Parameters
    ----------
    capacity:
        Total number of (homogeneous) processors in the system.
    origin:
        The earliest instant described by the profile; all processors are
        free from ``origin`` onward in a fresh profile.
    """

    __slots__ = (
        "_capacity",
        "_list_times",
        "_list_avail",
        "_ctx",
        "_dirty",
        "_prefix",
        "_perf",
    )

    def __init__(self, capacity: int, origin: float = 0.0) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity <= 0:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity!r}")
        if math.isnan(origin) or math.isinf(origin):
            raise ConfigurationError(f"origin must be finite, got {origin!r}")
        self._capacity = capacity
        #: Kernel context of the C admission loop (None until its first
        #: call; owned by :mod:`repro.core.kernels.batch`) and whether its
        #: arrays are stale — see "Which side is current".
        self._ctx = None
        self._times = [origin]
        self._avail = [capacity]
        #: Cached free-area prefix sums; None whenever the profile mutated
        #: since the last area query (rebuilt lazily by :meth:`_ensure_prefix`).
        self._prefix: list[float] | None = None
        #: The counter store (see :attr:`stats`); hot sites bump it bare.
        self._perf = PerfRecorder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of processors in the system."""
        return self._capacity

    @property
    def stats(self) -> PerfRecorder:
        """The counter store, with the C loop's counts folded in."""
        self._perf.fold()
        return self._perf

    @property
    def _times(self) -> list[float]:
        lst = self._list_times
        return lst if lst is not None else self._pull()[0]

    @_times.setter
    def _times(self, value: list[float]) -> None:
        self._list_times = value
        self._dirty = True

    @property
    def _avail(self) -> list[int]:
        lst = self._list_avail
        return lst if lst is not None else self._pull()[1]

    @_avail.setter
    def _avail(self, value: list[int]) -> None:
        self._list_avail = value
        self._dirty = True

    def _pull(self) -> tuple[list[float], list[int]]:
        """Fold the kernel context's counts, then rebuild the dropped lists
        from its live window."""
        self._perf.fold()
        times, avail = self._ctx.window()
        if self._list_times is None:
            self._list_times = times.tolist()
        if self._list_avail is None:
            self._list_avail = avail.tolist()
        return self._list_times, self._list_avail

    def _detach(self) -> None:
        """Make the lists the one current side (rebuilt first if dropped):
        whatever the kernel context holds is stale from here on."""
        if self._list_times is None or self._list_avail is None:
            self._pull()
        self._dirty = True

    @property
    def origin(self) -> float:
        """Earliest instant described by the profile."""
        lst = self._list_times
        return lst[0] if lst is not None else float(self._ctx.window()[0][0])

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The step-change instants, including the origin."""
        return tuple(self._times)

    def segments(self) -> Iterator[tuple[float, float, int]]:
        """Yield ``(start, end, available)`` triples; the last end is ``inf``."""
        for i, avail in enumerate(self._avail):
            start = self._times[i]
            end = self._times[i + 1] if i + 1 < len(self._times) else math.inf
            yield (start, end, avail)

    def __len__(self) -> int:
        lst = self._list_times
        return len(lst) if lst is not None else self._ctx.c.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityProfile):
            return NotImplemented
        return (
            self._capacity == other._capacity
            and self._times == other._times
            and self._avail == other._avail
        )

    def __hash__(self) -> int:  # pragma: no cover - profiles are mutable
        raise TypeError("AvailabilityProfile is mutable and unhashable")

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{s:g},{'inf' if math.isinf(e) else format(e, 'g')}):{a}"
            for s, e, a in self.segments()
        )
        return f"AvailabilityProfile(capacity={self._capacity}, {parts})"

    def copy(self) -> "AvailabilityProfile":
        """Return an independent deep copy (with a fresh counter store)."""
        new = AvailabilityProfile.__new__(AvailabilityProfile)
        new._capacity = self._capacity
        new._ctx = None  # a context serves one profile
        new._times = list(self._times)
        new._avail = list(self._avail)
        new._prefix = None
        new._perf = PerfRecorder()
        return new

    @classmethod
    def from_segments(
        cls,
        capacity: int,
        segments: Sequence[tuple[float, int]],
    ) -> "AvailabilityProfile":
        """Build a profile from ``(start_time, available)`` pairs.

        The times must be finite and strictly increasing; each pair opens
        a segment lasting until the next pair (the last to ``+inf``).
        """
        if not segments:
            raise ConfigurationError("from_segments requires at least one segment")
        prof = cls(capacity, origin=segments[0][0])
        times: list[float] = []
        avail: list[int] = []
        prev_t = -math.inf
        for t, a in segments:
            if not math.isfinite(t):
                raise ConfigurationError(f"segment times must be finite, got {t!r}")
            if t <= prev_t:
                raise ConfigurationError("segment times must be strictly increasing")
            if not 0 <= a <= capacity:
                raise ConfigurationError(
                    f"availability {a} outside [0, {capacity}]"
                )
            if avail and avail[-1] == a:  # canonicalize
                prev_t = t
                continue
            times.append(float(t))
            avail.append(int(a))
            prev_t = t
        prof._times = times
        prof._avail = avail
        return prof

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _index_at(self, t: float) -> int:
        """Index of the segment containing time ``t`` (``t >= origin``)."""
        if t < self._times[0]:
            raise SchedulingError(
                f"time {t} precedes profile origin {self._times[0]}"
            )
        # bisect_right-1 gives the segment whose start <= t.
        return bisect_right(self._times, t) - 1

    def available_at(self, t: float) -> int:
        """Free processors at instant ``t`` (right-open convention)."""
        return self._avail[self._index_at(t)]

    def scan_backend(self) -> str:
        """Always ``"scalar"``: queries on the profile walk its lists.
        Kept only for ``benchmarks/e2e/layers.py``, which reports it as
        ``autotune.backend_final``; ROADMAP item 14 removes that reader."""
        return "scalar"

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum free processors over the interval ``[t0, t1)``.

        Degenerate intervals (``t1 <= t0``) report availability at ``t0``.
        O(window).
        """
        if t1 <= t0:
            return self.available_at(t0)
        i = self._index_at(t0)
        lo = self._avail[i]
        n = len(self._times)
        i += 1
        while i < n and self._times[i] < t1:
            if self._avail[i] < lo:
                lo = self._avail[i]
            i += 1
        return lo

    def _ensure_prefix(self) -> list[float]:
        """Return the cached free-area prefix sums, rebuilding if stale.

        ``prefix[k]`` is the free processor-time integral from the origin to
        ``_times[k]``.  The cache is dropped on every mutation and rebuilt
        in one O(S) pass on the next area query, so a burst of queries
        between mutations (the tie-break rule probes several windows per
        arrival) costs O(log S) each.
        """
        prefix = self._prefix
        if prefix is None:
            times = self._times
            avail = self._avail
            prefix = [0.0] * len(times)
            acc = 0.0
            for k in range(1, len(times)):
                acc += avail[k - 1] * (times[k] - times[k - 1])
                prefix[k] = acc
            self._prefix = prefix
            self._perf.prefix_rebuilds += 1
        return prefix

    def _cumulative_free(self, t: float, prefix: list[float]) -> float:
        """Free area integrated over ``[origin, t)`` (``t >= origin``)."""
        times = self._times
        i = bisect_right(times, t) - 1
        return prefix[i] + self._avail[i] * (t - times[i])

    def free_area(self, t0: float, t1: float) -> float:
        """Integral of free processors over ``[t0, t1)`` (processor-time).

        O(log S) via the cached prefix sums (plus an O(S) rebuild on the
        first query after a mutation).
        """
        if t1 <= t0:
            return 0.0
        if math.isinf(t1):
            raise SchedulingError("free_area requires a finite upper bound")
        if t0 < self._times[0]:
            raise SchedulingError(
                f"time {t0} precedes profile origin {self._times[0]}"
            )
        prefix = self._ensure_prefix()
        return self._cumulative_free(t1, prefix) - self._cumulative_free(t0, prefix)

    def busy_area(self, t0: float, t1: float) -> float:
        """Integral of *busy* processors over ``[t0, t1)``."""
        if t1 <= t0:
            return 0.0
        return self._capacity * (t1 - t0) - self.free_area(t0, t1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _shift(self, t0: float, t1: float, delta: int) -> None:
        """Add ``delta`` free processors over ``[t0, t1)``, validating bounds.

        Validation happens *before* any mutation, so a rejected operation
        leaves the profile bit-identical (no stray breakpoints).

        Implementation: a single *windowed rewrite*.  The affected segment
        window is located by bisection, validated in one scan, rebuilt
        canonically (equal neighbours merged as it is built, including
        against both untouched border segments), and spliced in with one
        slice assignment per array.  Per-op Python work is proportional to
        the *window* size, not the total segment count.  The edges are
        compared exactly and no breakpoint is ever computed, only copied
        or inserted, so shifting by ``delta`` and then by ``-delta`` over
        the same interval gives back the same lists.
        """
        if math.isnan(t0) or math.isnan(t1):
            raise SchedulingError("reservation times must not be NaN")
        if t1 <= t0:
            raise SchedulingError(
                f"reservation interval [{t0}, {t1}) is empty or inverted"
            )
        if math.isinf(t1):
            raise SchedulingError("reservations must have a finite end time")
        times = self._times
        avail = self._avail
        n = len(times)
        # The segment holding the left edge; `last` is the final shifted
        # segment and `trailing` marks whether t1 falls strictly inside it.
        i = self._index_at(t0)
        j = bisect_right(times, t1) - 1
        trailing = times[j] != t1
        last = j if trailing else j - 1
        # Validate the whole window before touching anything.
        window = avail[i : last + 1]
        if delta < 0:
            tightest = min(window)
            if tightest < -delta:
                raise CapacityExceededError(
                    f"reserving {-delta} processors over [{t0}, {t1}) would "
                    f"exceed capacity: only {tightest} free at the tightest "
                    "instant"
                )
        else:
            widest = max(window)
            if widest + delta > self._capacity:
                raise CapacityExceededError(
                    f"releasing {delta} processors over [{t0}, {t1}) would "
                    f"exceed capacity {self._capacity}"
                )
        # Build the replacement window, merging equal neighbours on the fly.
        new_times: list[float] = []
        new_avail: list[int] = []
        if t0 > times[i]:
            # Left part of segment i survives unshifted.
            new_times.append(times[i])
            new_avail.append(avail[i])
            prev = avail[i]
        else:
            # Window starts at a breakpoint: merge candidate is segment i-1.
            prev = avail[i - 1] if i > 0 else -1
        start = t0
        for k in range(i, last + 1):
            value = avail[k] + delta
            if value != prev:
                new_times.append(start if k == i else times[k])
                new_avail.append(value)
                prev = value
            # else: equal to the previous value — the breakpoint vanishes.
        if trailing:
            # Right part of segment `last` survives unshifted; it cannot
            # merge (its value differs from avail[last] + delta by delta).
            new_times.append(t1)
            new_avail.append(avail[last])
        hi = last + 1
        if not trailing and hi < n and avail[hi] == prev:
            hi += 1  # absorb the right border segment's breakpoint
        times[i:hi] = new_times
        avail[i:hi] = new_avail
        self._dirty = True
        self._prefix = None
        stats = self._perf
        stats.shift_ops += 1
        touched = last - i + 1
        stats.segments_touched += touched
        stats.last_touched = touched

    def reserve(self, t0: float, t1: float, processors: int) -> None:
        """Commit ``processors`` CPUs over ``[t0, t1)``.

        Raises :class:`~repro.errors.CapacityExceededError` if any instant in
        the interval has fewer than ``processors`` free; the profile is left
        unmodified in that case.
        """
        if processors <= 0:
            raise SchedulingError(f"processors must be positive, got {processors}")
        self._shift(t0, t1, -processors)

    def release(self, t0: float, t1: float, processors: int) -> None:
        """Undo a reservation of ``processors`` CPUs over ``[t0, t1)``."""
        if processors <= 0:
            raise SchedulingError(f"processors must be positive, got {processors}")
        self._shift(t0, t1, processors)

    def compact(self, before: float) -> None:
        """Forget structure earlier than ``before``.

        Scheduling decisions never place work before the current arrival
        time, so segments wholly before ``before`` can be merged into a
        single leading segment.  This bounds profile growth to O(live
        allocations) over arbitrarily long simulations.  The availability
        *at* ``before`` is preserved; history before it is not (callers that
        need utilization integrals account for areas at commit time).
        """
        if before <= self._times[0]:
            return
        i = self._index_at(before)
        if i == 0:
            return
        # Keep segment i onward; re-anchor its start at `before` only if the
        # origin moves past the old breakpoint.  The kept suffix is already
        # canonical (adjacent values were distinct before the trim).
        self._times = self._times[i:]
        self._avail = self._avail[i:]
        if self._times[0] < before:
            self._times[0] = before
        self._prefix = None
        self._perf.compactions += 1

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.SchedulingError` on any broken invariant."""
        if len(self._times) != len(self._avail) or not self._times:
            raise SchedulingError("profile arrays out of sync or empty")
        for a, b in zip(self._times, self._times[1:]):
            if not a < b:
                raise SchedulingError(f"breakpoints not increasing: {a} !< {b}")
        for a in self._avail:
            if not 0 <= a <= self._capacity:
                raise SchedulingError(f"availability {a} out of range")
        for a, b in zip(self._avail, self._avail[1:]):
            if a == b:
                raise SchedulingError("profile not canonical: equal neighbours")
