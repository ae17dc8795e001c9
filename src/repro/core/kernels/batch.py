"""Batched admission: flattening, the kernel context, the write-back.

:meth:`repro.core.arbitrator.QoSArbitrator.admit_batch` delegates here,
under the equivalence contract *a batch replays bit-identical to the
serial submit loop in arrival order*.

:func:`try_admit_batch_compiled` flattens the whole batch, stages it in
the profile's kernel context and runs ``repro_admit_batch`` (the entire
serial admission loop — compaction, prunes, probes, tie-breaks, commits,
and the float accounting: finish, area, the quality accumulators) in ONE
C call, then builds the decision objects and folds the counters into the
live ones; the profile itself stays in the context's arrays until Python
reads it.  The C loop mutates a copy of the live window, so any error
status leaves the live state as it was and the caller falls back to the
reference: the plain serial loop over ``_offer``.  ``submit(job)`` is
this same path with a batch of one.

What the C loop does not take
-----------------------------
The complete list.  A batch with any of these is decided by the
reference loop and counted in ``batch_fallbacks``:

* ``TieBreakPolicy.RANDOM`` — consumes a Python RNG stream;
* ``MalleableScheduler`` — reshaping is not implemented in C;
* ``ArbitrationObjective.MAX_QUALITY`` — neither is quality-first choice;
* a job with more than ``_MAX_CHAINS`` chains or a chain with more than
  ``_MAX_TASKS`` tasks — the per-job C scratch is sized by their product;
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
  ``kernels.stats.fallbacks`` stays 0.
* The no-fit facts and the prefix resume point live in the context and
  survive from one call to the next only while no Python-side mutation
  intervened (``profile._dirty``); then two calls are one longer batch.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import kernels
from repro.core.admission import AdmissionDecision
from repro.core.kernels.compiled import Context
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import QualityComposition, chain_quality

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arbitrator import QoSArbitrator

__all__ = ["FlatBatch", "flatten_jobs", "try_admit_batch_compiled"]

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


@dataclass(slots=True)
class FlatBatch:
    """A job vector flattened into columns (plain lists, C layout).

    Chain areas and prefix sums are *not* flattened — the C kernel
    recomputes them from ``task_procs``/``task_dur`` with the exact
    float operations of :attr:`TaskChain.total_area` /
    :meth:`TaskChain.prefix_areas`, which keeps flattening (the
    dominant Python-side cost of a batch) to one attribute sweep.
    """

    jobs: Sequence[Job]
    chains: list[TaskChain]  # global chain index -> chain object
    releases: list[float]          # [n_jobs]
    job_chain_off: list[int]       # [n_jobs+1]
    chain_task_off: list[int]      # [n_chains+1]
    task_procs: list[int]          # [n_tasks]
    task_dur: list[float]          # [n_tasks]
    task_deadline: list[float]     # [n_tasks]
    task_quality: list[float]      # [n_tasks]
    max_chains: int
    max_tasks: int


def flatten_jobs(jobs: Sequence[Job]) -> FlatBatch | None:
    """Flatten a job vector for the C kernel, or return None.

    ``None`` means a job has more than ``_MAX_CHAINS`` chains or a chain
    more than ``_MAX_TASKS`` tasks; the sweep stops at that job.

    Written for throughput: this runs once per batch but touches every
    task, and at the 100k-decisions/sec operating point it is the
    largest Python-side cost — hence the bound methods and direct
    ``request`` field access instead of the (property-indirected)
    ``TaskSpec`` accessors.
    """
    releases: list[float] = []
    job_chain_off = [0]
    chain_task_off = [0]
    task_procs: list[int] = []
    task_dur: list[float] = []
    task_deadline: list[float] = []
    task_quality: list[float] = []
    chains: list[TaskChain] = []
    max_chains = 0
    max_tasks = 0
    rel_append = releases.append
    jco_append = job_chain_off.append
    cto_append = chain_task_off.append
    procs_append = task_procs.append
    dur_append = task_dur.append
    dl_append = task_deadline.append
    q_append = task_quality.append
    chains_append = chains.append
    for job in jobs:
        rel_append(job.release)
        job_chains = job.chains
        if len(job_chains) > max_chains:
            max_chains = len(job_chains)
            if max_chains > _MAX_CHAINS:
                return None
        for chain in job_chains:
            chains_append(chain)
            tasks = chain.tasks
            if len(tasks) > max_tasks:
                max_tasks = len(tasks)
                if max_tasks > _MAX_TASKS:
                    return None
            for task in tasks:
                request = task.request
                procs_append(request.processors)
                dur_append(request.duration)
                dl_append(task.deadline)
                q_append(task.quality)
            cto_append(len(task_procs))
        jco_append(len(chains))
    return FlatBatch(
        jobs, chains, releases, job_chain_off, chain_task_off, task_procs,
        task_dur, task_deadline, task_quality, max_chains, max_tasks,
    )


_F8, _I8 = np.float64, np.int64

#: Staged job columns (``FlatBatch`` fields) in the order they are written.
_INPUTS = (
    ("releases", _F8), ("job_chain_off", _I8), ("chain_task_off", _I8),
    ("task_procs", _I8), ("task_dur", _F8), ("task_deadline", _F8),
    ("task_quality", _F8),
)


class _Context:
    """One profile's side of the kernel crossing (see "Context lifetime").

    Owns the ``Context`` struct ``repro_admit_batch`` takes and, in
    ``cols`` under the struct's field names, every buffer it points at:
    two profile buffer sets (the C loop copies the live window into the
    other set, mutates that and swaps the two pointer pairs, so
    ``c.cur`` says whether the arrays bound as ``times``/``avail`` or as
    ``times_alt``/``avail_alt`` are live), prefix and shift scratch, the
    staged job columns, the output columns and the per-job scratch.
    """

    __slots__ = ("impl", "c", "ref", "cols", "room", "counters")

    def __init__(self, impl, capacity: int) -> None:
        self.impl = impl
        self.c = c = Context()
        self.ref = ctypes.byref(c)
        c.capacity = capacity
        self.counters = np.frombuffer(c, _I8, len(c.c), Context.c.offset)
        self.cols: dict[str, np.ndarray] = {}
        self.room = (0, 0, 0, 0, 0)  # jobs, chains, tasks, max_chains, max_tasks

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

    def stage(self, flat: FlatBatch) -> None:
        """Copy the batch's columns into the staging arrays."""
        nj, nc, nt = len(flat.jobs), len(flat.chains), len(flat.task_procs)
        mc, mt = flat.max_chains, flat.max_tasks
        room = self.room
        if nj > room[0] or nc > room[1] or nt > room[2] or mc > room[3] or mt > room[4]:
            # Re-bind every column with twice the room this batch needs.
            # max_chains/max_tasks are the per-job scratch strides: any
            # value at least the batch's own will do.
            self.room = nj, nc, nt, mc, mt = (
                max(2 * nj, room[0]), max(2 * nc, room[1]), max(2 * nt, room[2]),
                max(min(2 * mc, _MAX_CHAINS), room[3]),
                max(min(2 * mt, _MAX_TASKS), room[4]),
            )
            sizes = (nj, nj + 1, nc + 1, nt, nt, nt, nt)
            for (name, dtype), size in zip(_INPUTS, sizes):
                self._bind(name, size, dtype)
            self._bind("out_chain", nj, _I8)
            self._bind("out_starts", max(nt, 1))
            self._bind("out_finish", nj)
            self._bind("out_area", nj)
            self._bind("dscratch", mc * mt + 3 * mc + mt)
            self._bind("iscratch", 4 * mc, _I8)
            self.c.max_chains, self.c.max_tasks = mc, mt
        cols = self.cols
        for name, _ in _INPUTS:
            values = getattr(flat, name)
            cols[name][: len(values)] = values


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
    flat = flatten_jobs(jobs)
    if flat is None:
        return None
    profile = arbitrator.schedule.profile
    ctx = profile._ctx  # noqa: SLF001 - same package
    if ctx is None or ctx.impl is not impl:
        profile._detach()  # noqa: SLF001 - the old context's last service
        ctx = profile._ctx = _Context(impl, profile.capacity)  # noqa: SLF001
    c = ctx.c
    prune = scheduler.prune
    c.policy = policy_code
    c.use_dup = prune  # policy is deterministic here
    c.use_dom = prune and scheduler.SUPPORTS_DOMINANCE
    c.use_cap = prune and scheduler.SUPPORTS_FINISH_CAP
    c.do_compact = arbitrator.admission.compact
    c.qmode = _QMODE_CODES.get(arbitrator.quality_composition, 0)
    c.q_possible = arbitrator._quality_possible  # noqa: SLF001
    c.q_sum = arbitrator._quality_sum  # noqa: SLF001
    ctx.stage(flat)
    ctx.sync(profile, len(flat.task_procs))
    status = impl.admit_batch(ctx.ref, len(jobs))
    if status != 0:
        kernels.note_fallback(f"admit_batch kernel status {status}")
        profile._detach()  # noqa: SLF001 - trust the live window, nothing else
        return None
    return _apply_batch_results(arbitrator, flat, ctx)


def _apply_batch_results(
    arbitrator: "QoSArbitrator", flat: FlatBatch, ctx: _Context
) -> list[AdmissionDecision]:
    """Write the C results back into schedule and accounting.

    The C loop has already done the float accounting, job by job with the
    serial loop's own operations: each admitted job's finish and area are
    columns, and the quality accumulators (PRODUCT / MIN) come back in the
    struct it was handed them in.  What is left here is counters, objects
    and one booking per batch (:meth:`Schedule.record_commits`).  The
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

    # One pass over the decided rows, every NumPy column read as a list:
    # ``int(out_chain[jb])`` costs ~0.17 us a read, a list item ~0.01.
    n_jobs = len(flat.jobs)
    cols = ctx.cols
    chosen = cols["out_chain"][:n_jobs].tolist()
    starts = cols["out_starts"][: len(flat.task_procs)].tolist()
    n_admitted = counts[11]  # out_finish / out_area hold admitted rows only
    finishes = cols["out_finish"][:n_admitted].tolist()
    areas = cols["out_area"][:n_admitted].tolist()
    task_off = flat.chain_task_off
    chains = flat.chains
    admission = arbitrator.admission
    by_chain = admission.decisions_by_chain
    rigid = Placement.rigid
    refused = "no schedulable configuration"
    decisions: list[AdmissionDecision] = []
    append = decisions.append
    committed: list[ChainPlacement] = []
    for job, c, off in zip(flat.jobs, chosen, flat.job_chain_off):
        if c < 0:
            append(AdmissionDecision(job.job_id, False, None, refused))
            continue
        chain = chains[c]
        chain_index = c - off
        cp = ChainPlacement(  # positional: keywords cost 0.4 us a call
            job.job_id, chain_index, chain,
            tuple(map(rigid, chain.tasks, starts[task_off[c] : task_off[c + 1]])),
            job.release,
        )
        committed.append(cp)
        by_chain[chain_index] = by_chain.get(chain_index, 0) + 1
        append(AdmissionDecision(job.job_id, True, cp))
    admission.admitted += n_admitted
    admission.rejected += n_jobs - n_admitted
    struct = ctx.c
    if struct.qmode:
        arbitrator._quality_possible = struct.q_possible  # noqa: SLF001
        arbitrator._quality_sum = struct.q_sum  # noqa: SLF001
    else:  # MEAN composes with math.fsum, which stays Python's
        comp = arbitrator.quality_composition
        for job in flat.jobs:
            arbitrator._quality_possible += job.best_quality(comp)  # noqa: SLF001
        for cp in committed:
            arbitrator._quality_sum += chain_quality(cp.chain, comp)  # noqa: SLF001
    if n_admitted:
        schedule.record_commits(committed, finishes, areas)
    return decisions
