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
each query O(log S).  :class:`~repro.perf.ProfileStats` counters
(``stats``) record ops, per-op segments touched, probe scans and prefix
rebuilds; they are always on and cost a few integer adds per operation.

The profile also keeps NumPy mirrors of ``_times`` and ``_avail``
(:meth:`_mirrors`): built lazily on the first flat-array probe, then kept
in sync by the same windowed splice ``_shift`` applies to the lists (one
C-level concatenate each per mutation).  The flat-array scan reads them.

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
the arrays are stale and the next kernel call re-uploads the lists.

Two scans and who still consults the resolver
---------------------------------------------
Whole decisions go through the C loop whenever it takes them (see "What
the C loop does not take" in :mod:`repro.core.kernels.batch`), and that
loop has its own walk.  What is left for the Python-side scans is the
reference path — ``backend="scalar"``, RANDOM tie-breaks, malleable
chains, MAX_QUALITY, ``REPRO_KERNEL=python`` — and point queries from
outside the decision loop (``min_available``, ``free_area``, ``holes``).
Two back-ends answer those, named by the ``backend`` constructor
argument and resolved per query by :meth:`scan_backend`:

* ``"scalar"`` — the per-segment Python walks in this module and
  :func:`~repro.core.first_fit._scalar_scan` (the seed semantics and the
  verify layer's oracle; cheapest on small profiles);
* ``"kernel"`` — the same walk over the flat mirrors in
  :mod:`repro.core.kernels`: compiled C, or a NumPy fallback with
  bit-identical answers when no compiled kernel is loaded;
* ``"auto"`` (default) — chooses between the two from what the code can
  observe, the live segment count and whether the compiled kernel loaded
  (:func:`resolve_auto_backend`).

Both return bit-identical answers, so the choice never changes a
scheduling decision; forcing a side is for tests and oracles.  See
``docs/perf.md`` for the measured crossovers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

import numpy as np

from repro.errors import CapacityExceededError, ConfigurationError, SchedulingError
from repro.core import kernels
from repro.core.resources import TIME_EPS
from repro.perf import ProfileStats

__all__ = [
    "AvailabilityProfile",
    "PROFILE_BACKENDS",
    "KERNEL_MIN_SEGMENTS",
    "VECTOR_MIN_SEGMENTS",
    "check_backend",
    "resolve_auto_backend",
]

#: Valid values for the ``backend`` constructor argument.
PROFILE_BACKENDS = ("auto", "scalar", "kernel")


def check_backend(backend: object) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``backend``
    is one of :data:`PROFILE_BACKENDS` (the one check every config object
    and constructor that accepts a back-end name shares)."""
    if backend not in PROFILE_BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {PROFILE_BACKENDS}, got {backend!r}"
        )


#: Segment count from which the ``"kernel"`` back-end's *NumPy fallback*
#: (the vectorized run search in :mod:`repro.core.kernels.pykernels`)
#: beats the scalar walk.  The fragmentation benchmark, when it still
#: timed that scan on its own (``BENCH_sched.json`` before PR 15),
#: measured it *behind* the walk at both 100 segments (212µs vs 64µs p50)
#: and 1000 segments (129µs vs 99µs) and only ahead at 10000 (145µs vs
#: 641µs): the run search allocates several temporaries per probe, so its
#: fixed cost is far higher than a single comparison's.  The crossover
#: therefore sits between 10^3 and 10^4 live segments; 2048 keeps
#: ``"auto"`` on the cheap walk through the entire range where the walk
#: wins.
VECTOR_MIN_SEGMENTS = 2048

#: Segment count from which the *compiled* ``"kernel"`` back-end beats the
#: scalar walk when Python probes chain by chain — since ``submit`` became
#: a batch of one through the C loop this governs only the reference path
#: (RANDOM, malleable, MAX_QUALITY on a deep profile) and point queries.
#: The committed decision-throughput
#: data (``BENCH_sched.json``) puts serial-kernel *behind* serial-python
#: at 100 segments (25.4k vs 31.0k decisions/s — the ctypes call overhead
#: loses on a short walk) and ahead at 1000 (23.3k vs 12.7k/s), and the
#: fragmentation points agree (kernel p50 53.9µs vs scalar 32.7µs at 100
#: segments; 56.0µs vs 81.2µs at 1000).  The crossover therefore sits in
#: (100, 1000]; 512 splits the bracket
#: (``tests/core/test_auto_backend.py`` pins it against the committed
#: data).
KERNEL_MIN_SEGMENTS = 512


def resolve_auto_backend(n_segments: int, kernel_compiled: bool | None = None) -> str:
    """The back-end ``"auto"`` picks for a profile of ``n_segments``.

    ``"kernel"`` from :data:`KERNEL_MIN_SEGMENTS` up when the compiled
    decision kernel is loaded, from :data:`VECTOR_MIN_SEGMENTS` up when
    only its NumPy fallback is; ``"scalar"`` below.
    ``kernel_compiled=None`` (the default) asks the kernel layer; tests
    pass an explicit value to pin both regimes.  The contract tested
    against the committed benchmark data is that auto is never the
    *worst* scan at any committed fragmentation point.
    """
    if kernel_compiled is None:
        kernel_compiled = kernels.kernel_backend() == "compiled"
    crossover = KERNEL_MIN_SEGMENTS if kernel_compiled else VECTOR_MIN_SEGMENTS
    return "kernel" if n_segments >= crossover else "scalar"


class AvailabilityProfile:
    """Number of free processors as a right-open step function of time.

    Parameters
    ----------
    capacity:
        Total number of (homogeneous) processors in the system.
    origin:
        The earliest instant described by the profile; all processors are
        free from ``origin`` onward in a fresh profile.
    backend:
        Scan back-end for fit/min/area queries — one of
        :data:`PROFILE_BACKENDS`.  ``"auto"`` (default) picks by segment
        count; ``"scalar"`` / ``"kernel"`` force one side (used by
        oracles, equivalence tests and benchmarks).  Both return
        bit-identical results.
    """

    __slots__ = (
        "_capacity",
        "_list_times",
        "_list_avail",
        "_ctx",
        "_dirty",
        "_prefix",
        "_np_times",
        "_np_avail",
        "_backend",
        "stats",
    )

    def __init__(
        self, capacity: int, origin: float = 0.0, backend: str = "auto"
    ) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity <= 0:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity!r}")
        if math.isnan(origin) or math.isinf(origin):
            raise ConfigurationError(f"origin must be finite, got {origin!r}")
        check_backend(backend)
        self._capacity = capacity
        #: Kernel context of the C admission loop (None until its first
        #: call; owned by :mod:`repro.core.kernels.batch`) and whether its
        #: arrays are stale — see "Which side is current".
        self._ctx = None
        self._times = [origin]
        self._avail = [capacity]
        #: Cached free-area prefix sums; None whenever the profile mutated
        #: since the last area query (rebuilt lazily by :meth:`_ensure_prefix`).
        self._prefix: "list[float] | np.ndarray | None" = None
        #: NumPy mirrors of ``_times`` / ``_avail`` for flat-array fit
        #: probes; built lazily by :meth:`_mirrors` and kept in sync
        #: incrementally by :meth:`_shift` / :meth:`compact` (never rebuilt
        #: from scratch on the mutation path).
        self._np_times: np.ndarray | None = None
        self._np_avail: np.ndarray | None = None
        #: Configured scan back-end (see class docs).
        self._backend = backend
        #: Always-on operation counters (see :class:`repro.perf.ProfileStats`).
        self.stats = ProfileStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of processors in the system."""
        return self._capacity

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
        """Rebuild the dropped lists from the kernel context's live window."""
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
    def backend(self) -> str:
        """Configured scan back-end (``"auto"`` resolves per query)."""
        return self._backend

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
        """Return an independent deep copy (with fresh stats counters)."""
        new = AvailabilityProfile.__new__(AvailabilityProfile)
        new._capacity = self._capacity
        new._ctx = None  # a context serves one profile
        new._times = list(self._times)
        new._avail = list(self._avail)
        new._prefix = None
        new._np_times = None
        new._np_avail = None
        new._backend = self._backend
        new.stats = ProfileStats()
        return new

    @classmethod
    def from_segments(
        cls,
        capacity: int,
        segments: Sequence[tuple[float, int]],
        backend: str = "auto",
    ) -> "AvailabilityProfile":
        """Build a profile from ``(start_time, available)`` pairs.

        The pairs must be in strictly increasing time order; each pair opens
        a segment lasting until the next pair (the last to ``+inf``).
        """
        if not segments:
            raise ConfigurationError("from_segments requires at least one segment")
        prof = cls(capacity, origin=segments[0][0], backend=backend)
        times: list[float] = []
        avail: list[int] = []
        prev_t = -math.inf
        for t, a in segments:
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
        if t < self._times[0] - TIME_EPS:
            raise SchedulingError(
                f"time {t} precedes profile origin {self._times[0]}"
            )
        # bisect_right-1 gives the segment whose start <= t.
        i = bisect_right(self._times, t) - 1
        return max(i, 0)

    def available_at(self, t: float) -> int:
        """Free processors at instant ``t`` (right-open convention)."""
        return self._avail[self._index_at(t)]

    def _mirrors(self) -> tuple[np.ndarray, np.ndarray]:
        """NumPy views of ``(_times, _avail)`` for flat-array probes.

        Built from the lists on first use (O(S)); thereafter every windowed
        rewrite splices the same change into the mirrors at C speed, so they
        are never rebuilt from scratch while probes and mutations alternate
        — the access pattern of the scheduling hot path.
        """
        avail_m = self._np_avail
        if avail_m is None:
            avail_m = np.asarray(self._avail, dtype=np.int64)
            self._np_avail = avail_m
        times_m = self._np_times
        if times_m is None:
            times_m = np.asarray(self._times, dtype=np.float64)
            self._np_times = times_m
        return times_m, avail_m

    def scan_backend(self) -> str:
        """Resolve the scan answering the next query: ``"scalar"`` or
        ``"kernel"``, never ``"auto"``.

        An explicit constructor choice wins; ``"auto"`` picks by live
        segment count (:func:`resolve_auto_backend`).
        """
        backend = self._backend
        if backend != "auto":
            return backend
        return resolve_auto_backend(len(self._times))

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum free processors over the interval ``[t0, t1)``.

        Degenerate intervals (``t1 <= t0``) report availability at ``t0``.
        O(window).
        """
        if t1 <= t0:
            return self.available_at(t0)
        i = self._index_at(t0)
        if self.scan_backend() == "kernel":
            # Same window as the scalar walk below (segment i plus every
            # later segment starting strictly before t1 - TIME_EPS),
            # reduced flat over the int64 mirror by the kernel layer
            # (compiled loop or numpy min — bit-identical).
            hi = max(bisect_left(self._times, t1 - TIME_EPS), i + 1)
            _, avail_m = self._mirrors()
            return kernels.active().range_min(avail_m, i, hi)
        lo = self._avail[i]
        n = len(self._times)
        i += 1
        while i < n and self._times[i] < t1 - TIME_EPS:
            if self._avail[i] < lo:
                lo = self._avail[i]
            i += 1
        return lo

    def _ensure_prefix(self) -> "list[float] | np.ndarray":
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
            self.stats.prefix_rebuilds += 1
        return prefix

    def _cumulative_free(self, t: float, prefix: "Sequence[float] | np.ndarray") -> float:
        """Free area integrated over ``[origin, t)`` (``t >= origin``)."""
        times = self._times
        i = bisect_right(times, t) - 1
        if i < 0:  # t within TIME_EPS below the origin
            return 0.0
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
        if t0 < self._times[0] - TIME_EPS:
            raise SchedulingError(
                f"time {t0} precedes profile origin {self._times[0]}"
            )
        if self.scan_backend() == "kernel":
            # np.cumsum over the mirror segment areas accumulates in the
            # same sequential order as the Python loop, so the cached
            # array is bit-identical to the list prefix (the rebuild just
            # runs at C speed).  Shares the ``_prefix`` cache slot and its
            # invalidation-on-mutation lifecycle.
            prefix = self._prefix
            if prefix is None:
                times_m, avail_m = self._mirrors()
                prefix = kernels.free_area_prefix(times_m, avail_m)
                self._prefix = prefix
                self.stats.prefix_rebuilds += 1
            return float(
                self._cumulative_free(t1, prefix) - self._cumulative_free(t0, prefix)
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
        window is located by bisection, its bounds snapped to existing
        breakpoints within :data:`TIME_EPS` (never creating sliver
        segments), validated in one scan, rebuilt canonically (equal
        neighbours merged as it is built, including against both
        untouched border segments), and spliced in with one slice
        assignment per array.  Per-op Python work is proportional to the
        *window* size, not the total segment count.
        """
        if math.isnan(t0) or math.isnan(t1):
            raise SchedulingError("reservation times must not be NaN")
        if t1 <= t0 + TIME_EPS:
            raise SchedulingError(
                f"reservation interval [{t0}, {t1}) is empty or inverted"
            )
        if math.isinf(t1):
            raise SchedulingError("reservations must have a finite end time")
        times = self._times
        avail = self._avail
        n = len(times)
        # Locate the left edge and snap it to a breakpoint within TIME_EPS.
        i = self._index_at(t0)
        if abs(times[i] - t0) <= TIME_EPS:
            t0 = times[i]
        elif i + 1 < n and abs(times[i + 1] - t0) <= TIME_EPS:
            i += 1
            t0 = times[i]
        # Locate the right edge; `last` is the final shifted segment and
        # `trailing` marks whether t1 falls strictly inside it.
        j = bisect_right(times, t1) - 1
        trailing = False
        if abs(times[j] - t1) <= TIME_EPS:
            t1 = times[j]
            last = j - 1
        elif j + 1 < n and abs(times[j + 1] - t1) <= TIME_EPS:
            t1 = times[j + 1]
            last = j
        else:
            last = j
            trailing = True
        if t1 <= t0:
            return  # both edges snapped to the same breakpoint: no-op
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
        # Same splice, applied to any live mirror in one C-level concatenate
        # each.  (Explicit dtypes: an empty replacement window must not
        # promote the availability mirror to float64.)
        mirror = self._np_avail
        if mirror is not None:
            self._np_avail = np.concatenate(
                (mirror[:i], np.asarray(new_avail, dtype=np.int64), mirror[hi:])
            )
        mirror = self._np_times
        if mirror is not None:
            self._np_times = np.concatenate(
                (mirror[:i], np.asarray(new_times, dtype=np.float64), mirror[hi:])
            )
        self._prefix = None
        stats = self.stats
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
        mirror = self._np_avail
        if mirror is not None:
            self._np_avail = mirror[i:]
        mirror = self._np_times
        if mirror is not None:
            # Copy before the re-anchor write: the slice is a view.
            mirror = mirror[i:].copy()
            mirror[0] = self._times[0]
            self._np_times = mirror
        self._prefix = None
        self.stats.compactions += 1

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
        mirror = self._np_avail
        if mirror is not None and list(mirror) != self._avail:
            raise SchedulingError("NumPy availability mirror out of sync")
        mirror = self._np_times
        if mirror is not None and list(mirror) != self._times:
            raise SchedulingError("NumPy breakpoint mirror out of sync")
