"""Batched admission: the packed record, the kernel context, the write-back.

:meth:`repro.core.arbitrator.QoSArbitrator.admit_batch` delegates here,
under the equivalence contract *a batch replays bit-identical to the
serial submit loop in arrival order*.

:func:`try_admit_batch_compiled` packs the whole batch into one record
(:func:`flatten_jobs`), copies it into the profile's kernel context and
runs ``repro_admit_batch`` — the entire serial admission loop, float
accounting included — in ONE C call, and builds the decision objects
from the two columns it answers with (``out_chain``: each job's chosen
chain, by its index in the job; ``out_rows``: per admitted job
``[finish, area, start of each task]``); the profile and the call's
counts stay in the context until Python reads them.  Any error status
puts the live state back as it was and the caller falls back to the
reference: the plain serial loop over ``_offer``.  ``submit(job)`` is
the same path with a batch of one, entered through
:func:`try_admit_one_compiled`, which takes the job and returns its
decision; only the write-back differs.  When the job offers the very
chains tuple the staged record was packed from, only the record's
release cell is rewritten (see "Context lifetime").

Overlapped write-back
---------------------
A batch of at least ``_OVERLAP_WORK`` jobs × live segments, in a process
that may run on two CPUs, runs its C call on one daemon worker thread
(ctypes releases the GIL for it).  After each job the loop publishes how
many it has finished (``Prof.progress``, read through ``impl.progress``),
and the calling thread builds each published job's decision from its
``out_chain`` cell and its row's task starts, waiting ``_POLL_S`` on the
worker whenever it has caught up.  Each row's finish and area, the
counters and the accumulators are read after the call has returned, and
nothing reaches the arbitrator before it returned ``BATCH_OK``: an error
status discards what was built.  Having seen the call return, the caller
reads the count again, so only an error status ends the loop short.  A
shorter batch, or one whose caller finds the worker busy (another
thread's arbitrator), runs the call inline and the same loop finds every
job published.  A fork child starts its own worker, and the caller never
returns or raises (a ``KeyboardInterrupt`` included) while C runs; an
interrupt that finds the call returned ``BATCH_OK`` first books the whole
batch (its decisions rebuilt from the columns), so no later call decides
on commits the schedule never saw.

What the C loop does not take
-----------------------------
The complete list.  A batch with any of these is decided by the
reference loop and counted in ``batch_fallbacks``:

* ``TieBreakPolicy.RANDOM`` — consumes a Python RNG stream;
* ``MalleableScheduler`` — reshaping is not implemented in C;
* an objective other than ``ArbitrationObjective.EARLIEST_FINISH`` —
  neither quality-first choice (``MAX_QUALITY``) nor the
  every-configuration filter (``CONSERVATIVE``) is implemented in C;
* a job with more than ``_MAX_CHAINS`` chains or a chain with more than
  ``_MAX_TASKS`` tasks — the per-job C scratch is sized by their product;
* a task wider than ``_MAX_WIDTH`` processors — every cell of the record
  is a double, and the reference rejects such a job anyway;
* no compiled kernel (``REPRO_KERNEL=python``, or no C compiler);
* a nonzero C status (a buffer overflow; cannot occur with the room
  :meth:`_Context.sync` guarantees);
* ``submit`` (not ``admit_batch``) on a ``QoSArbitrator(backend="scalar")``
  — the seed semantics and the verify layer's oracle stay Python-decided,
  so every differential test compares the C loop with something that is
  not it.

Context lifetime
----------------
One :class:`_Context` per :class:`AvailabilityProfile` (``profile._ctx``),
built on the profile's first C call: every buffer pointer is cast once
and re-cast only when that buffer grows.  Who owns what, and when the
context's view of the profile is thrown away:

* ``adopt_schedule`` swaps in a new ``Schedule`` and with it a new
  profile, whose context is built on its own first call; the old one
  goes with the old profile.
* ``AvailabilityProfile.copy()`` copies the lists and leaves ``_ctx``
  unset: a context serves exactly one profile.
* ``kernels.use("python")`` / ``set_kernel`` while a context exists: the
  reference reads the lists (rebuilt from the context if they were
  dropped) and its mutations mark the arrays stale; back on the compiled
  kernel the next call re-uploads and starts with no facts.
* ``REPRO_KERNEL_LIB`` pointing at another ``.so``: a context remembers
  the kernel object that built it and is rebuilt when another one is
  active.
* Growth and re-base: the live window is ``[lo, lo + n)`` of the
  context's buffers, and ``lo`` only grows (compaction advances it).
  :meth:`_Context.sync` guarantees room *above the window* for two new
  segments per task of the batch, re-basing the window to index 0 when
  that room runs out or the window has drifted further than its own
  length (its docstring has the sizes); the no-fit facts survive a
  re-base, the prefix and its budget an in-place one, and the loop never
  returns ``BATCH_ERR_OVERFLOW``.  :meth:`_Context.stage` does the same
  for the job side: a record longer than any before it (or more jobs, or
  a larger fan-out) re-binds the record buffer, the two output columns
  and the scratch at twice the size.
* The no-fit facts, the prefix and the area filter's budget
  (``area_spent``) live in the context and survive from one call to the
  next only while no Python-side mutation intervened (``profile._dirty``);
  then two calls are one longer batch.
* An overlapped call: until it returns the context is C's.  The caller
  reads only the published cells of the two output columns, and stages
  nothing (it is inside :func:`try_admit_batch_compiled` until then).
* The staged record: ``ctx.chains`` is the ``job.chains`` tuple a one-job
  record was packed from — the one strong reference to model objects a
  context holds, so that the identity check stays sound (a tuple kept
  alive cannot be freed and its id reused).  A later one-job call
  offering that very tuple (``is``, not ``==``: ``0.0 == -0.0``, and
  their cells differ) rewrites the release cell in place and skips
  :func:`flatten_jobs` and :meth:`_Context.stage`, unless a Python-side
  mutation is pending (``profile._dirty``).  Every
  :meth:`_Context.stage` replaces the reference (a one-job record) or
  drops it; it goes with the context.  The C loop only reads the record.
* The counters: ``ctx.counters`` is one call's tallies (``c``),
  ``ctx.totals`` the running tallies C adds each ``BATCH_OK`` call's to.
  They are the profile recorder's ``cells`` from the context's birth and
  folded when it is read or Python takes the profile back
  (``profile._pull``, which ``_detach`` goes through), so a context is
  replaced only after its counts went in.
* The scheduler and config flags: ``ctx.flags`` is the
  ``(policy, compact)`` pair whose codes the struct holds.  A call whose
  pair differs (compared by identity first, so no enum hash runs) looks
  the policy's code up — and refuses a policy C does not implement —
  and stores both; two arbitrators may take turns on one profile through
  ``adopt_schedule``.
* The quality accumulators belong to the arbitrator, but the struct
  keeps the values it was last handed or answered with, and
  ``ctx.q_possible``/``ctx.q_sum`` hold those very float objects.  A
  call writes the arbitrator's two only when either is not the object
  the context holds (a float is immutable and the context's reference
  keeps its id from being reused); ``resubmit``'s restore, another
  arbitrator's turn and a Python decision's ``+=`` all leave another
  object.  On ``BATCH_OK`` the write-back reads both back (``q_sum``
  only after an admission); an error status, a stale profile and a new
  context forget them, so the error fallback depends on nothing C-side.
"""

from __future__ import annotations

import os
import struct
import threading
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import kernels
from repro.core.admission import NO_FIT, AdmissionDecision
from repro.core.kernels.compiled import Context
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.model.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arbitrator import QoSArbitrator

__all__ = ["flatten_jobs", "try_admit_batch_compiled", "try_admit_one_compiled"]

#: Tie-break policy codes of ``_kernels.c`` (RANDOM intentionally absent).
_POLICY_CODES = {
    TieBreakPolicy.PAPER: 0,
    TieBreakPolicy.FIRST: 1,
    TieBreakPolicy.PREFIX: 2,
}

#: Per-job scratch in the C kernel is sized max_chains × max_tasks; bail
#: out to the serial loop for pathological fan-outs instead of letting
#: the scratch arrays balloon.
_MAX_CHAINS = 512
_MAX_TASKS = 512


#: Every cell of the record is an IEEE double, counts and widths included;
#: a width above this is not exactly one, so the record cannot hold it.
_MAX_WIDTH = 2**53


@lru_cache(maxsize=256)
def _cell_packer(n_cells: int):
    """``struct`` packer for a record of ``n_cells`` doubles (~20 ns a cell;
    ``ndarray[:n] = list`` and ``array('d', list)`` both cost ~35)."""
    return struct.Struct(f"={n_cells}d").pack


#: Rewrites a staged one-job record's release cell (its first) in place.
_pack_release = struct.Struct("=d").pack_into


def flatten_jobs(jobs: Sequence[Job]) -> tuple[bytes, int, int] | None:
    """Pack a job vector into the one record the C loop reads, or None.

    The record is a run of 8-byte cells (doubles): per job ``[release]
    [n_chains]``, per chain ``[n_tasks]``, per task ``[processors]
    [duration][deadline][quality]``.  Returned with it are the batch's
    largest chain and task counts — the strides of the C loop's per-job
    scratch.  Chain areas and prefix sums are *not* packed: the C kernel
    recomputes them with the exact float operations of
    :attr:`TaskChain.total_area` / :meth:`TaskChain.prefix_areas`.

    ``None`` means the C loop does not take the batch — a job with more
    than ``_MAX_CHAINS`` chains, a chain with more than ``_MAX_TASKS``
    tasks, or a width past ``_MAX_WIDTH`` (refused, not clamped: C never
    decides on a width the job does not have) — and the sweep stops at
    that job.

    Written for throughput: one attribute sweep into one list, direct
    ``request`` field access instead of the (property-indirected)
    ``TaskSpec`` accessors, one ``struct`` call for the lot.  A job
    offering the very tuple of chains the job before it offered (every
    ``SyntheticParams`` stream does) repeats that job's cells instead of
    sweeping again; nothing outlives the call.
    """
    cells: list[float] = []
    append = cells.append
    max_chains = max_tasks = 0
    swept = None  # the chains tuple whose cells are cells[at:end]
    at = end = 0
    for job in jobs:
        append(job.release)
        job_chains = job.chains
        if job_chains is swept:
            cells += cells[at:end]
            continue
        swept, at = job_chains, len(cells)
        n = len(job_chains)
        append(n)
        if n > max_chains:
            max_chains = n
            if n > _MAX_CHAINS:
                return None
        for chain in job_chains:
            tasks = chain.tasks
            n = len(tasks)
            append(n)
            if n > max_tasks:
                max_tasks = n
                if n > _MAX_TASKS:
                    return None
            for task in tasks:
                request = task.request
                width = request.processors
                if width > _MAX_WIDTH:
                    return None
                append(width)
                append(request.duration)
                append(task.deadline)
                append(task.quality)
        end = len(cells)
    return _cell_packer(len(cells))(*cells), max_chains, max_tasks


_F8, _I8 = np.float64, np.int64

#: The shortest profile buffer, and the least drift of the window before
#: a re-base, in cells: a few-segment profile that compacts on every call
#: re-bases about once in a hundred calls, not once in ten.
_MIN_CELLS = 128


class _Context:
    """One profile's side of the kernel crossing (see "Context lifetime").

    Owns the ``Context`` struct ``repro_admit_batch`` takes and, in
    ``cols`` under the struct's field names, every buffer it points at:
    the profile's (``times``/``avail``, whose ``[lo, lo + n)`` is the live
    window; ``times_alt``/``avail_alt``, where the C loop saves the entry
    cells it overwrites), prefix and shift scratch, the
    staged record (``inbuf`` is its byte view), the two output columns
    (``chosen`` / ``rows``: their memoryviews, read item by item by a
    one-job write-back) and the per-job scratch; ``counters``/``totals``
    view the counter cells.  ``chains`` is the tuple the staged record
    was packed from when it is one job's, ``tasks`` the task count
    :meth:`sync` makes room for, ``flags`` the ``(policy, compact)`` pair
    whose codes the struct holds, and ``q_possible``/``q_sum`` the float
    objects whose values the struct's quality accumulators hold
    (``None``: unknown).
    """

    __slots__ = (
        "impl", "c", "cols", "room", "counters", "totals", "inbuf",
        "chosen", "rows", "chains", "tasks", "flags", "q_possible", "q_sum",
    )

    def __init__(self, impl, capacity: int) -> None:
        self.impl = impl
        self.c = c = Context()
        c.capacity = capacity
        self.counters = np.frombuffer(c, _I8, len(c.c), Context.c.offset)
        self.totals = np.frombuffer(
            c, _I8, len(c.totals), Context.totals.offset
        )
        self.cols: dict[str, np.ndarray] = {}
        self.room = (0, 0, 0, 0)  # jobs, record bytes, max_chains, max_tasks
        self.chains = self.flags = self.q_possible = self.q_sum = None
        self.tasks = 0

    def _bind(self, name: str, size: int, dtype=_F8) -> None:
        arr = self.cols[name] = np.empty(size, dtype)
        setattr(self.c, name, arr.ctypes.data)

    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live window (valid until the next kernel call)."""
        c, cols = self.c, self.cols
        lo, hi = c.lo, c.lo + c.n
        return cols["times"][lo:hi], cols["avail"][lo:hi]

    def sync(self, profile, n_tasks: int) -> None:
        """Make the live window the profile, with room above it for
        ``n_tasks`` more tasks.

        :func:`_stage` calls this only when its test fails: a Python-side
        mutation made the arrays stale (then the lists are uploaded and
        everything learnt about the old arrays is forgotten), fewer than
        ``need`` cells are left from ``lo`` (each committed task splits
        at most two segments, and compaction moves the window up, so the
        room runs out even when the profile does not grow), or the window
        has drifted more than its own length (and ``_MIN_CELLS``) up the
        buffers.  The window is then written at index 0 of buffers more
        than 4/3 ``need`` long — re-bound at twice ``need`` if the present
        ones are not — so the next re-base is more than ``need / 3`` and
        ``n`` cells of compaction away, and ``need`` has to grow by half
        before the next re-bind.
        """
        c = self.c
        stale = profile._dirty  # noqa: SLF001 - same package
        n = len(profile)
        need = n + 2 * n_tasks + 8
        source = (profile._times, profile._avail) if stale else self.window()  # noqa: SLF001
        if 4 * need > 3 * c.cap_buf:
            c.cap_buf = cap = max(2 * need, _MIN_CELLS)
            for name in ("times", "times_alt", "prefix"):
                self._bind(name, cap)
            for name in ("avail", "avail_alt"):
                self._bind(name, cap, _I8)
            self._bind("scr_t", cap + 4)
            self._bind("scr_a", cap + 4, _I8)
            c.prefix_valid = c.prefix_from = c.area_spent = 0
        # The prefix is indexed from lo, so an in-place re-base keeps it;
        # the slice assignment copies through a temporary when the two
        # ranges overlap.
        cols = self.cols
        cols["times"][:n], cols["avail"][:n] = source
        c.lo, c.n = 0, n
        if stale:
            c.nfacts = c.prefix_valid = c.prefix_from = c.area_spent = 0
            self.q_possible = self.q_sum = None
            profile._dirty = False  # noqa: SLF001

    def stage(
        self, record: bytes, n_jobs: int, mc: int, mt: int, chains=None
    ) -> None:
        """Copy the batch's record into the staging buffer.

        ``chains`` is the one job's ``chains`` tuple when the record was
        packed from exactly one job (``None`` otherwise): the next one-job
        call offering that very tuple rewrites the release cell and reuses
        the rest (see "Context lifetime").
        """
        size = len(record)
        room = self.room
        if n_jobs > room[0] or size > room[1] or mc > room[2] or mt > room[3]:
            # Re-bind with twice the room this batch needs.  max_chains /
            # max_tasks are the per-job scratch strides: any value at least
            # the batch's own will do.
            self.room = jobs, nbytes, mc, mt = (
                max(2 * n_jobs, room[0]), max(2 * size, room[1]),
                max(min(2 * mc, _MAX_CHAINS), room[2]),
                max(min(2 * mt, _MAX_TASKS), room[3]),
            )
            self._bind("record", nbytes // 8)
            self.inbuf = memoryview(self.cols["record"]).cast("B")
            self._bind("out_chain", jobs, _I8)
            # A row is two cells and one per task of the chosen chain; in
            # the record a job is three cells at least and a task four.
            self._bind("out_rows", 2 * jobs + nbytes // 32)
            self.chosen = memoryview(self.cols["out_chain"])
            self.rows = memoryview(self.cols["out_rows"])
            self._bind("dscratch", mc * mt + 2 * mc + mt)
            self._bind("iscratch", 4 * mc, _I8)
            self.c.max_chains, self.c.max_tasks = mc, mt
        self.inbuf[:size] = record
        self.chains = chains
        # A task is four cells of a record that spends three more on a job
        # of one chain: exact for those, a few tasks over otherwise.
        self.tasks = (size - 24 * n_jobs) // 32


def _stage(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job], one
) -> _Context | None:
    """Stage ``jobs`` for the C loop; the context, or ``None`` when the C
    loop does not take the batch (the live state is then untouched).

    ``one`` is the one job's ``chains`` tuple when ``jobs`` is one job,
    ``None`` otherwise.  ``flatten_jobs`` is looked up here at every
    call, and the caller looks up ``ctx.impl.admit_batch``, so a wrapper
    of either (the e2e benchmark's tracer, a test) sees every crossing.
    """
    impl = kernels.active()
    if not impl.supports_batch:
        return None
    profile = arbitrator.schedule.profile
    ctx = profile._ctx  # noqa: SLF001 - same package
    if (
        one is not None and ctx is not None and one is ctx.chains
        and ctx.impl is impl and not profile._dirty  # noqa: SLF001
    ):  # the staged record is this job's but for its release
        _pack_release(ctx.inbuf, 0, jobs[0].release)
    else:
        flat = flatten_jobs(jobs)
        if flat is None:
            return None
        if ctx is None or ctx.impl is not impl:
            profile._detach()  # noqa: SLF001 - the old context's last service
            ctx = profile._ctx = _Context(impl, profile.capacity)  # noqa: SLF001
            profile._perf.cells = ctx.totals  # noqa: SLF001
        record, max_chains, max_tasks = flat
        ctx.stage(record, len(jobs), max_chains, max_tasks, one)
    c = ctx.c
    flags = (arbitrator.scheduler.policy, arbitrator.compact)
    if flags != ctx.flags:  # a profile may change arbitrators (adopt_schedule)
        code = _POLICY_CODES.get(flags[0])
        if code is None:
            return None
        ctx.flags = flags
        c.policy, c.do_compact = code, flags[1]
    lo, n, tasks = c.lo, c.n, ctx.tasks
    if (
        profile._dirty  # noqa: SLF001
        or lo + n + 2 * tasks + 8 > c.cap_buf
        or (lo > n and lo > _MIN_CELLS)
    ):
        ctx.sync(profile, tasks)
    possible = arbitrator._quality_possible  # noqa: SLF001
    total = arbitrator._quality_sum  # noqa: SLF001
    if possible is not ctx.q_possible or total is not ctx.q_sum:
        ctx.q_possible = c.q_possible = possible
        ctx.q_sum = c.q_sum = total
    return ctx


def _fall_back(profile, ctx: _Context, status: int) -> None:
    """After an error status: count the fallback and make the lists the
    current side again (the C loop put the live window back as it was)."""
    kernels.note_fallback(f"admit_batch kernel status {status}")
    profile._detach()  # noqa: SLF001 - trust the live window, nothing else
    ctx.q_possible = ctx.q_sum = None


def try_admit_one_compiled(
    arbitrator: "QoSArbitrator", job: Job
) -> AdmissionDecision | None:
    """:func:`try_admit_batch_compiled` for the one job of a ``submit``:
    the job in, its decision out, or ``None`` as there.

    The C call runs on the calling thread, and the write-back reads the
    two columns item by item and books the one row with the kernel's
    finish and area through :meth:`Schedule.record_commit`.  ``q_sum``
    moves only on an admission, so a rejection reads back ``q_possible``
    alone.
    """
    ctx = _stage(arbitrator, (job,), job.chains)
    if ctx is None:
        return None
    profile = arbitrator.schedule.profile
    status = ctx.impl.admit_batch(ctx.c, 1)
    if status != 0:
        return _fall_back(profile, ctx, status)
    # The profile and the counts stay in the context; the lists are
    # dropped until somebody reads them.
    profile._list_times = profile._list_avail = profile._prefix = None  # noqa: SLF001
    c = ctx.chosen[0]
    if c < 0:
        arbitrator._quality_possible = ctx.q_possible = ctx.c.q_possible  # noqa: SLF001
        arbitrator.rejected += 1
        return AdmissionDecision(job.job_id, False, None, NO_FIT)
    rows = ctx.rows
    chain = job.chains[c]
    tasks = chain.tasks
    placements = []
    for task, start in zip(tasks, rows[2 : 2 + len(tasks)].tolist()):
        request = task.request
        placements.append(
            Placement(task, start, request.processors, request.duration)
        )
    cp = ChainPlacement(  # positional: keywords cost 0.4 us a call
        job.job_id, c, chain, placements, job.release
    )
    arbitrator.admitted += 1
    by_chain = arbitrator.decisions_by_chain
    by_chain[c] = by_chain.get(c, 0) + 1
    state = ctx.c
    arbitrator._quality_possible = ctx.q_possible = state.q_possible  # noqa: SLF001
    arbitrator._quality_sum = ctx.q_sum = state.q_sum  # noqa: SLF001
    arbitrator.schedule.record_commit(cp, rows[0], rows[1])
    return AdmissionDecision(job.job_id, True, cp)


#: A batch of at least this many jobs x live segments (at entry) runs its
#: C call on the worker thread, if the process may use two CPUs.  The
#: handoff costs 40-130 us, which a short C call does not hide.  Median
#: per batch_backlog batch, inline -> overlapped, 2-core x86_64 host:
#: 100 jobs on ~6,400 segments (640k) 565 -> 532 us; 64 on ~6,500 (416k)
#: 640 -> 599 and 379 -> 470 us in two runs; 32 on ~6,400 (205k) 208 ->
#: 301 us; 128 on ~600 (77k) 1.20 -> 1.33 ms.  Whole batch_backlog
#: chunks (1,024 on ~6,800) overlap; svc_flood's (~1,000 fig4 jobs on a
#: few dozen) do not.
_OVERLAP_WORK = 400_000

#: How long a caller that has caught up with the C loop waits for the call
#: to return before it reads the published count again (the timer slack,
#: 50 us by default on Linux, comes on top); 1e-4 decides as fast, 5e-4
#: 10% slower on batch_backlog chunks.
_POLL_S = 2e-5


class _Worker:
    """The daemon thread an overlapped batch runs its C call on (see
    "Overlapped write-back"): one per process, started by the first batch
    that overlaps and forgotten in a fork child.

    ``busy`` is held by the caller whose call it runs; a caller that
    finds it held decides inline.  ``done`` is clear while a call runs.
    """

    __slots__ = ("busy", "_go", "done", "_call", "_status", "_error")

    def __init__(self) -> None:
        self.busy = threading.Lock()
        self._go = threading.Lock()
        self._go.acquire()
        self.done = threading.Event()
        self.done.set()
        self._call = self._status = self._error = None
        threading.Thread(
            target=self._serve, name="repro-admit-batch", daemon=True
        ).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            try:
                self._status = self._call()
            except BaseException as exc:  # noqa: BLE001 - wait() re-raises it
                self._error = exc
            self._call = None
            self.done.set()

    def start(self, call) -> None:
        """Run ``call()`` on the worker thread."""
        self._status = self._error = None
        self._call = call
        self.done.clear()
        self._go.release()

    def wait(self, timeout: float | None = None) -> int | None:
        """The call's status once it has returned (what it raised is
        raised here); ``None`` if ``timeout`` passed first."""
        if not self.done.wait(timeout):
            return None
        error, self._error = self._error, None
        if error is not None:
            raise error
        return self._status

    def free(self) -> int | None:
        """Wait for the call to return, through any interrupt, and free
        the worker: until then C may read the context's buffers, which the
        next call would re-stage.  Returns the call's status (``None`` if
        it raised); an interrupt is re-raised instead."""
        interrupted = None
        while not self.done.is_set():
            try:
                self.done.wait()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                interrupted = exc
        self.busy.release()
        if interrupted is not None:
            raise interrupted
        return self._status


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_worker(n_jobs: int, segments: int) -> _Worker | None:
    """The worker, claimed for one call, when a batch this long over this
    many live segments overlaps; ``None``: decide inline."""
    global _worker
    if n_jobs * segments < _OVERLAP_WORK or _cpus() < 2:
        return None
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    return worker if worker.busy.acquire(False) else None


def try_admit_batch_compiled(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[AdmissionDecision] | None:
    """Run the whole batch through the C admission loop, or return None.

    ``None`` means "not handled" (kernel unavailable, unsupported shape,
    or a C error status) — the caller falls back to the serial path with
    the live state untouched.

    The write-back: the C loop has already done the float accounting, job
    by job with the serial loop's own operations — each admitted job's
    finish and area head its row of ``out_rows`` (its chain's task starts
    are the rest of it), and the quality accumulators come back in the
    struct.  What is left here is objects, counters and one booking,
    :meth:`Schedule.record_commits`, fed the kernel's finishes and areas.
    The objects are built job by job as the C loop publishes them (all at
    once after an inline call; see "Overlapped write-back"), and nothing
    reaches the arbitrator before the call has returned ``BATCH_OK``.
    """
    ctx = _stage(arbitrator, jobs, jobs[0].chains if len(jobs) == 1 else None)
    if ctx is None:
        return None
    state = ctx.c  # not ``struct``: that is the module the packer uses
    n_jobs = len(jobs)
    impl = ctx.impl
    call, progress = impl.admit_batch, impl.progress
    chosen = ctx.chosen
    decisions: list[AdmissionDecision] = []
    committed: list[ChainPlacement] = []
    heads: list[int] = []  # where each admitted job's row starts
    counts: dict[int, int] = {}

    def build(lo: int, hi: int, rows, at: int) -> int:
        """The decisions of ``jobs[lo:hi]``, from their published cells;
        returns where the next admitted job's row starts."""
        refused = NO_FIT  # the C loop decides only EARLIEST_FINISH
        append, admit = decisions.append, committed.append
        for job, c in zip(jobs[lo:hi], chosen[lo:hi].tolist()):
            if c < 0:
                append(AdmissionDecision(job.job_id, False, None, refused))
                continue
            chain = job.chains[c]
            tasks = chain.tasks
            heads.append(at)
            starts = at + 2
            at = starts + len(tasks)
            placements = []
            for task, start in zip(tasks, rows[starts:at]):
                request = task.request
                placements.append(
                    Placement(task, start, request.processors, request.duration)
                )
            cp = ChainPlacement(job.job_id, c, chain, placements, job.release)
            admit(cp)
            counts[c] = counts.get(c, 0) + 1
            append(AdmissionDecision(job.job_id, True, cp))
        return at

    built = at = 0
    status = interrupt = None
    worker = _claim_worker(n_jobs, state.n)
    try:
        if worker is None:
            status = call(state, n_jobs)
            # It has returned: the rows are one list (an item of it costs
            # ~0.01 us, of the memoryview ~0.05).
            rows = ctx.rows[: ctx.counters[11]].tolist()  # K_ROW_CELLS
        else:
            rows = ctx.rows
            state.progress = 0  # C's own reset may come after the first read
            worker.start(lambda: call(state, n_jobs))
        while built < n_jobs and not status:
            published = progress(state)
            if published <= built:  # caught up, or the read was stale
                if status is None:
                    status = worker.wait(_POLL_S)
                continue
            at = build(built, published, rows, at)
            built = published
        if status is None:
            status = worker.wait()
    except BaseException as exc:  # noqa: BLE001 - re-raised below, booked
        interrupt = exc
    finally:
        if worker is not None:
            status = worker.free()
    if status is None:  # the call raised: C committed nothing
        raise interrupt  # type: ignore[misc]
    profile = arbitrator.schedule.profile
    if status != 0:
        _fall_back(profile, ctx, status)
        if interrupt is not None:
            raise interrupt
        return None
    if interrupt is not None:
        # C committed the whole batch: book all of it before the interrupt
        # goes on, so no later call decides on commits the schedule never saw.
        decisions.clear()
        committed.clear()
        heads.clear()
        counts.clear()
        rows = ctx.rows[: ctx.counters[11]].tolist()
        at = build(0, n_jobs, rows, 0)
    elif worker is not None:
        rows = rows[:at].tolist()
    profile._list_times = profile._list_avail = profile._prefix = None  # noqa: SLF001
    arbitrator._quality_possible = ctx.q_possible = state.q_possible  # noqa: SLF001
    if committed:
        arbitrator.schedule.record_commits(
            committed, [rows[h] for h in heads], [rows[h + 1] for h in heads]
        )
        arbitrator._quality_sum = ctx.q_sum = state.q_sum  # noqa: SLF001
        by_chain = arbitrator.decisions_by_chain
        for c, k in counts.items():
            by_chain[c] = by_chain.get(c, 0) + k
    arbitrator.admitted += len(committed)
    arbitrator.rejected += n_jobs - len(committed)
    if interrupt is not None:
        raise interrupt
    return decisions
