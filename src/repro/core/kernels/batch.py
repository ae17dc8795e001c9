"""Batched admission: the packed record, the kernel context, the write-back.

:meth:`repro.core.arbitrator.QoSArbitrator.admit_batch` delegates here,
under the equivalence contract *a batch replays bit-identical to the
serial submit loop in arrival order*.

:func:`try_admit_batch_compiled` packs the whole batch into one record
(:func:`flatten_jobs`), copies it into the profile's kernel context with
one slice assignment and runs ``repro_admit_batch`` (the entire
serial admission loop — compaction, prunes, probes, tie-breaks, commits,
and the float accounting: finish, area, the quality accumulators) in ONE
C call, then builds the decision objects from the two columns it answers
with (``out_chain``: each job's chosen chain, by its index in the job;
``out_rows``: per admitted job ``[finish, area, start of each task]``)
and folds the counters into the live ones; the profile itself stays in
the context's arrays until Python reads it.  The C loop mutates a copy of
the live window, so any error status leaves the live state as it was and
the caller falls back to the reference: the plain serial loop over
``_offer``.  ``submit(job)`` is this same path with a batch of one; when
the job offers the very chains tuple the staged record was packed from,
only the record's release cell is rewritten (see "Context lifetime").

What the C loop does not take
-----------------------------
The complete list.  A batch with any of these is decided by the
reference loop and counted in ``batch_fallbacks``:

* ``TieBreakPolicy.RANDOM`` — consumes a Python RNG stream;
* ``MalleableScheduler`` — reshaping is not implemented in C;
* ``ArbitrationObjective.MAX_QUALITY`` — neither is quality-first choice;
* a job with more than ``_MAX_CHAINS`` chains or a chain with more than
  ``_MAX_TASKS`` tasks — the per-job C scratch is sized by their product;
* a task wider than ``_MAX_WIDTH`` processors — every cell of the record
  is a double, and the reference rejects such a job anyway;
* no compiled kernel (``REPRO_KERNEL=python``, or no C compiler);
* a nonzero C status (a buffer overflow; cannot occur with the room
  :meth:`_Context.sync` guarantees);
* ``submit`` (not ``admit_batch``) on ``backend="scalar"`` — the seed
  semantics and the verify layer's oracle stay Python-decided, so every
  differential test compares the C loop with something that is not it.

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
* Growth: :meth:`_Context.sync` guarantees room for two new segments per
  task of the batch *before* the call and re-binds doubled buffers when
  the headroom is used up, carrying the live window (and the no-fit
  facts) across — the loop never returns ``BATCH_ERR_OVERFLOW`` and
  ``kernels.stats.fallbacks`` stays 0.  :meth:`_Context.stage` does the
  same for the job side: a record longer than any before it (or more
  jobs, or a larger fan-out) re-binds the record buffer, the two output
  columns and the scratch at twice the size, and touches nothing of the
  profile half.
* The no-fit facts and the prefix resume point live in the context and
  survive from one call to the next only while no Python-side mutation
  intervened (``profile._dirty``); then two calls are one longer batch.
* The staged record: ``ctx.chains`` is the ``job.chains`` tuple a one-job
  record was packed from — the one strong reference to model objects a
  context holds, kept so that the identity check stays sound (a tuple
  kept alive cannot be freed and its id reused).  A later one-job call
  offering that very tuple (``is``, not ``==``: ``0.0 == -0.0``, and
  their cells differ) rewrites the release cell in place and skips
  :func:`flatten_jobs` and :meth:`_Context.stage`, unless a Python-side
  mutation is pending (``profile._dirty``: a ``kernels.use("python")``
  decision, ``reserve``, ``rollback``, the ``_detach`` of an error-status
  fallback) — then it packs and stages as any call does.  Every
  :meth:`_Context.stage` replaces the reference (a one-job record) or
  drops it (a batch of several jobs); it goes with the context
  (``adopt_schedule``, ``copy()``, another kernel object).  The C loop
  only reads the record.
* The scheduler and config flags (``policy``, ``use_dup``, ``use_dom``,
  ``use_cap``, ``do_compact``, ``qmode``) are stored only when they
  differ from the ones the context last stored (``ctx.flags``): two
  arbitrators may take turns on one profile through ``adopt_schedule``.
* The quality accumulators do NOT live in the context: a context belongs
  to a profile, ``_quality_possible``/``_quality_sum`` to an arbitrator.
  :func:`try_admit_batch_compiled` writes both into the struct before
  every call and reads them back only on ``BATCH_OK``, so
  ``adopt_schedule`` (new profile, new context), ``resubmit``'s restore
  of ``_quality_possible`` and the error fallback depend on nothing
  C-side between calls.
"""

from __future__ import annotations

import ctypes
import struct
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import kernels
from repro.core.admission import AdmissionDecision
from repro.core.kernels.compiled import Context
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.model.job import Job
from repro.model.quality import QualityComposition, chain_quality

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arbitrator import QoSArbitrator

__all__ = ["flatten_jobs", "try_admit_batch_compiled"]

#: Tie-break policy codes of ``_kernels.c`` (RANDOM intentionally absent).
_POLICY_CODES = {
    TieBreakPolicy.PAPER: 0,
    TieBreakPolicy.FIRST: 1,
    TieBreakPolicy.PREFIX: 2,
}

#: Quality composition codes of ``_kernels.c``; MEAN (``math.fsum``) is
#: absent and stays Python's.
_QMODE_CODES = {QualityComposition.PRODUCT: 1, QualityComposition.MIN: 2}

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
    tasks, or a width past ``_MAX_WIDTH`` (refused, not clamped: two
    distinct oversize widths must not collapse into duplicates) — and the
    sweep stops at that job.

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


class _Context:
    """One profile's side of the kernel crossing (see "Context lifetime").

    Owns the ``Context`` struct ``repro_admit_batch`` takes and, in
    ``cols`` under the struct's field names, every buffer it points at:
    two profile buffer sets (the C loop copies the live window into the
    other set, mutates that and swaps the two pointer pairs, so
    ``c.cur`` says whether the arrays bound as ``times``/``avail`` or as
    ``times_alt``/``avail_alt`` are live), prefix and shift scratch, the
    staged record (``inbuf`` is its byte view), the two output columns
    (``chosen`` / ``rows``: their memoryviews, read item by item by a
    one-job write-back) and the per-job scratch.  ``chains`` is the tuple
    the staged record was packed from when it is one job's, and ``tasks``
    the task count :meth:`sync` makes room for; ``flags`` the scheduler
    and config flags last stored in the struct.
    """

    __slots__ = (
        "impl", "c", "ref", "cols", "room", "counters", "inbuf", "chosen",
        "rows", "chains", "tasks", "flags",
    )

    def __init__(self, impl, capacity: int) -> None:
        self.impl = impl
        self.c = c = Context()
        self.ref = ctypes.byref(c)
        c.capacity = capacity
        self.counters = np.frombuffer(c, _I8, len(c.c), Context.c.offset)
        self.cols: dict[str, np.ndarray] = {}
        self.room = (0, 0, 0, 0)  # jobs, record bytes, max_chains, max_tasks
        self.chains = self.flags = None
        self.tasks = 0

    def _bind(self, name: str, size: int, dtype=_F8) -> None:
        arr = self.cols[name] = np.empty(size, dtype)
        setattr(self.c, name, arr.ctypes.data)

    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live window (valid until the next kernel call)."""
        c, cols = self.c, self.cols
        lo, hi = c.lo, c.lo + c.n
        if c.cur:
            return cols["times_alt"][lo:hi], cols["avail_alt"][lo:hi]
        return cols["times"][lo:hi], cols["avail"][lo:hi]

    def sync(self, profile, n_tasks: int) -> None:
        """Make the live window the profile, with room for this batch.

        Each committed task splits at most two segments.  The lists are
        uploaded only when a Python-side mutation made the arrays stale,
        and with them goes everything learnt about the old arrays.
        """
        c = self.c
        stale = profile._dirty  # noqa: SLF001 - same package
        n = len(profile)
        need = n + 2 * n_tasks + 8
        if not stale and need <= c.cap_buf:
            return
        source = (profile._times, profile._avail) if stale else self.window()  # noqa: SLF001
        if need > c.cap_buf:
            c.cap_buf = cap = 2 * need
            for name in ("times", "times_alt", "prefix"):
                self._bind(name, cap)
            for name in ("avail", "avail_alt"):
                self._bind(name, cap, _I8)
            self._bind("scr_t", cap + 4)
            self._bind("scr_a", cap + 4, _I8)
            c.cur = c.prefix_valid = c.prefix_from = 0
        c.lo, c.n = 0, n
        times, avail = self.window()
        times[:], avail[:] = source
        if stale:
            c.nfacts = c.prefix_valid = c.prefix_from = 0
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
            self._bind("dscratch", mc * mt + 3 * mc + mt)
            self._bind("iscratch", 6 * mc, _I8)
            self.c.max_chains, self.c.max_tasks = mc, mt
        self.inbuf[:size] = record
        self.chains = chains
        # A task is four cells of a record that spends three more on a job
        # of one chain: exact for those, a few tasks over otherwise.
        self.tasks = (size - 24 * n_jobs) // 32


def try_admit_batch_compiled(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[AdmissionDecision] | None:
    """Run the whole batch through the C admission loop, or return None.

    ``None`` means "not handled" (kernel unavailable, unsupported shape,
    or a C error status) — the caller falls back to the serial path with
    the live state untouched.
    """
    impl = kernels.active()
    if not impl.supports_batch:
        return None
    scheduler = arbitrator.scheduler
    policy_code = _POLICY_CODES.get(scheduler.policy)
    if policy_code is None:
        return None
    profile = arbitrator.schedule.profile
    ctx = profile._ctx  # noqa: SLF001 - same package
    if (
        ctx is not None and ctx.impl is impl and len(jobs) == 1
        and jobs[0].chains is ctx.chains and not profile._dirty  # noqa: SLF001
    ):  # the staged record is this job's but for its release
        _pack_release(ctx.inbuf, 0, jobs[0].release)
    else:
        flat = flatten_jobs(jobs)
        if flat is None:
            return None
        if ctx is None or ctx.impl is not impl:
            profile._detach()  # noqa: SLF001 - the old context's last service
            ctx = profile._ctx = _Context(impl, profile.capacity)  # noqa: SLF001
        record, max_chains, max_tasks = flat
        one = jobs[0].chains if len(jobs) == 1 else None
        ctx.stage(record, len(jobs), max_chains, max_tasks, one)
    c = ctx.c
    prune = scheduler.prune
    flags = (
        policy_code, prune, scheduler.SUPPORTS_DOMINANCE,
        scheduler.SUPPORTS_FINISH_CAP, arbitrator.admission.compact,
        arbitrator.quality_composition,
    )
    if flags != ctx.flags:  # a profile may change arbitrators (adopt_schedule)
        ctx.flags = flags
        c.policy = policy_code
        c.use_dup = prune  # policy is deterministic here
        c.use_dom = prune and scheduler.SUPPORTS_DOMINANCE
        c.use_cap = prune and scheduler.SUPPORTS_FINISH_CAP
        c.do_compact = arbitrator.admission.compact
        c.qmode = _QMODE_CODES.get(arbitrator.quality_composition, 0)
    c.q_possible = arbitrator._quality_possible  # noqa: SLF001
    c.q_sum = arbitrator._quality_sum  # noqa: SLF001
    ctx.sync(profile, ctx.tasks)
    status = impl.admit_batch(ctx.ref, len(jobs))
    if status != 0:
        kernels.note_fallback(f"admit_batch kernel status {status}")
        profile._detach()  # noqa: SLF001 - trust the live window, nothing else
        return None
    return _apply_batch_results(arbitrator, jobs, ctx)


def _apply_batch_results(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job], ctx: _Context
) -> list[AdmissionDecision]:
    """Write the C results back into schedule and accounting.

    The C loop has already done the float accounting, job by job with the
    serial loop's own operations: each admitted job's finish and area head
    its row of ``out_rows`` (its chain's task starts are the rest of it),
    and the quality accumulators (PRODUCT / MIN) come back in the struct
    it was handed them in.  What is left here is counters, objects
    and one booking per batch: :meth:`Schedule.record_commit` for the
    one row of a one-job call, :meth:`Schedule.record_commits` for the
    rows of a larger batch, both fed the kernel's finish and area.  The
    profile is not written back at all: it stays in the context's arrays,
    and the lists are dropped until somebody reads them.
    """
    schedule = arbitrator.schedule
    profile = schedule.profile
    profile._list_times = profile._list_avail = profile._prefix = None  # noqa: SLF001

    counts = ctx.counters.tolist()
    stats = profile.stats
    stats.shift_ops += counts[0]
    stats.segments_touched += counts[1]
    if counts[0]:
        stats.last_touched = counts[2]
    stats.probes += counts[3]
    stats.probe_segments += counts[4]
    stats.prefix_rebuilds += counts[5]
    stats.compactions += counts[6]
    perf = schedule.perf
    perf.chains_probed += counts[7]
    perf.chains_quick_rejected += counts[8]
    perf.chains_area_rejected += counts[9]
    perf.chains_pruned_dominated += counts[10]
    perf.commits += counts[11]

    n_jobs = len(jobs)
    n_admitted = counts[11]
    admission = arbitrator.admission
    by_chain = admission.decisions_by_chain
    rigid = Placement.rigid
    refused = "no schedulable configuration"
    if n_jobs == 1:
        # The serial path: item reads of the two columns, and the one row
        # booked with the kernel's finish and area as it is read.
        job = jobs[0]
        c = ctx.chosen[0]
        if c < 0:
            decisions = [AdmissionDecision(job.job_id, False, None, refused)]
            committed: Sequence[ChainPlacement] = ()
        else:
            rows = ctx.rows
            chain = job.chains[c]
            tasks = chain.tasks
            cp = ChainPlacement(  # positional: keywords cost 0.4 us a call
                job.job_id, c, chain,
                tuple(map(rigid, tasks, rows[2 : 2 + len(tasks)].tolist())),
                job.release,
            )
            committed = (cp,)
            by_chain[c] = by_chain.get(c, 0) + 1
            decisions = [AdmissionDecision(job.job_id, True, cp)]
            schedule.record_commit(cp, rows[0], rows[1])
    else:
        # One pass over the decided jobs, both columns read as lists:
        # an item read costs ~0.05 us, a list item ~0.01.
        chosen = ctx.chosen[:n_jobs].tolist()
        rows = ctx.rows[: counts[12]].tolist()  # admitted jobs only
        decisions = []
        append = decisions.append
        committed = []
        finishes: list[float] = []
        areas: list[float] = []
        at = 0  # the next admitted job's row: finish, area, one start per task
        for job, c in zip(jobs, chosen):
            if c < 0:
                append(AdmissionDecision(job.job_id, False, None, refused))
                continue
            chain = job.chains[c]
            tasks = chain.tasks
            starts = at + 2
            finishes.append(rows[at])
            areas.append(rows[at + 1])
            at = starts + len(tasks)
            cp = ChainPlacement(
                job.job_id, c, chain, tuple(map(rigid, tasks, rows[starts:at])),
                job.release,
            )
            committed.append(cp)
            by_chain[c] = by_chain.get(c, 0) + 1
            append(AdmissionDecision(job.job_id, True, cp))
        if n_admitted:
            schedule.record_commits(committed, finishes, areas)
    admission.admitted += n_admitted
    admission.rejected += n_jobs - n_admitted
    state = ctx.c  # not ``struct``: that is the module the packer uses
    if state.qmode:
        arbitrator._quality_possible = state.q_possible  # noqa: SLF001
        arbitrator._quality_sum = state.q_sum  # noqa: SLF001
    else:  # MEAN composes with math.fsum, which stays Python's
        comp = arbitrator.quality_composition
        for job in jobs:
            arbitrator._quality_possible += job.best_quality(comp)  # noqa: SLF001
        for cp in committed:
            arbitrator._quality_sum += chain_quality(cp.chain, comp)  # noqa: SLF001
    return decisions
