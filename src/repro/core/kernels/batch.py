"""Batched admission: flattening, the compiled fast path, the pre-screen.

:meth:`repro.core.arbitrator.QoSArbitrator.admit_batch` delegates here.
Two strategies, both honouring the equivalence contract (*a batch
replays bit-identical to the serial submit loop in arrival order*):

1. :func:`try_admit_batch_compiled` — flatten the whole batch into
   contiguous arrays and run ``repro_admit_batch`` (the entire serial
   admission loop — compaction, prunes, probes, tie-breaks, commits) in
   ONE C call, then write the resulting profile window, decisions and
   accounting back into the live objects.  The C kernel works on
   scratch copies, so any error status (unsupported policy, buffer
   overflow) simply discards them and falls through to strategy 2.

2. :func:`prescreen_skips` + the ordinary serial loop — one vectorized
   area pre-screen over the batch-entry profile computes, for every
   chain in the batch, a *conservative* version of the serial
   :meth:`~repro.core.greedy.GreedyScheduler._area_reject`; chains it
   condemns are skipped without probing.  Soundness: commits during the
   batch only shrink free area and compaction preserves it, so the
   snapshot free area upper-bounds the live value each job sees — and a
   float-error margin makes the comparison a strict subset of the
   serial reject even across differently-accumulated prefix sums.
   Skipped chains would have returned ``None`` from the prober anyway
   (their pointwise-harder dominators are area-rejected too, see the
   dominance proof in :mod:`repro.core.greedy`), so decisions are
   unchanged for every policy including RANDOM and for the malleable
   scheduler (area is conserved under reshaping).

What the C loop does not take
-----------------------------
The complete list.  A batch with any of these is decided by strategy 2
and counted in ``batch_fallbacks``:

* ``TieBreakPolicy.RANDOM`` — consumes a Python RNG stream;
* ``MalleableScheduler`` — reshaping is not implemented in C;
* ``ArbitrationObjective.MAX_QUALITY`` — neither is quality-first choice;
* a job with more than ``_MAX_CHAINS`` chains or a chain with more than
  ``_MAX_TASKS`` tasks — the per-job C scratch is sized by their product;
* no compiled kernel (``REPRO_KERNEL=python``, or no C compiler);
* a nonzero C status (a buffer overflow; cannot occur with the sizes
  :func:`try_admit_batch_compiled` allocates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import kernels
from repro.core.admission import AdmissionDecision
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import QualityComposition, chain_quality

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arbitrator import QoSArbitrator

__all__ = ["FlatBatch", "flatten_jobs", "prescreen_skips", "try_admit_batch_compiled"]

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


@dataclass(slots=True)
class FlatBatch:
    """A job vector flattened into contiguous arrays (C layout).

    Chain areas and prefix sums are *not* flattened — the C kernel
    recomputes them from ``task_procs``/``task_dur`` with the exact
    float operations of :attr:`TaskChain.total_area` /
    :meth:`TaskChain.prefix_areas`, which keeps flattening (the
    dominant Python-side cost of a batch) to one attribute sweep.
    """

    jobs: Sequence[Job]
    chains: list[TaskChain]  # global chain index -> chain object
    releases: np.ndarray           # [n_jobs] float64
    job_chain_off: np.ndarray      # [n_jobs+1] int64
    chain_task_off: np.ndarray     # [n_chains+1] int64
    task_procs: np.ndarray         # [n_tasks] int64
    task_dur: np.ndarray           # [n_tasks] float64
    task_deadline: np.ndarray      # [n_tasks] float64
    task_quality: np.ndarray       # [n_tasks] float64
    max_chains: int
    max_tasks: int

    @property
    def n_tasks(self) -> int:
        return len(self.task_procs)


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
        jobs=jobs,
        chains=chains,
        releases=np.asarray(releases, dtype=np.float64),
        job_chain_off=np.asarray(job_chain_off, dtype=np.int64),
        chain_task_off=np.asarray(chain_task_off, dtype=np.int64),
        task_procs=np.asarray(task_procs, dtype=np.int64),
        task_dur=np.asarray(task_dur, dtype=np.float64),
        task_deadline=np.asarray(task_deadline, dtype=np.float64),
        task_quality=np.asarray(task_quality, dtype=np.float64),
        max_chains=max_chains,
        max_tasks=max_tasks,
    )


def try_admit_batch_compiled(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[AdmissionDecision] | None:
    """Run the whole batch through the C admission loop, or return None.

    ``None`` means "not handled" (kernel unavailable, unsupported shape,
    or a C error status) — the caller falls back to the serial path with
    the live state untouched.
    """
    impl = kernels.active()
    if not getattr(impl, "supports_batch", False):
        return None
    scheduler = arbitrator.scheduler
    policy_code = _POLICY_CODES.get(scheduler.policy)
    if policy_code is None:
        return None
    flat = flatten_jobs(jobs)
    if flat is None:
        return None
    schedule = arbitrator.schedule
    profile = schedule.profile

    n0 = len(profile)
    # Each committed task splits at most two segments; headroom on top.
    buf_cap = n0 + 2 * flat.n_tasks + 8
    times_buf = np.empty(buf_cap, dtype=np.float64)
    avail_buf = np.empty(buf_cap, dtype=np.int64)
    # A memcpy when the previous call's write-back left the mirrors live.
    times_m, avail_m = profile._mirrors()  # noqa: SLF001 - same package
    times_buf[:n0] = times_m
    avail_buf[:n0] = avail_m
    prof_state = np.array([0, n0], dtype=np.int64)
    out_chain = np.empty(len(jobs), dtype=np.int64)
    out_starts = np.empty(max(flat.n_tasks, 1), dtype=np.float64)
    counters = np.zeros(12, dtype=np.int64)
    mc, mt = flat.max_chains, flat.max_tasks
    status = impl.admit_batch(
        times_buf=times_buf,
        avail_buf=avail_buf,
        prefix_buf=np.empty(buf_cap, dtype=np.float64),
        scratch_times=np.empty(buf_cap + 4, dtype=np.float64),
        scratch_avail=np.empty(buf_cap + 4, dtype=np.int64),
        buf_cap=buf_cap,
        prof_state=prof_state,
        capacity=profile.capacity,
        n_jobs=len(jobs),
        releases=flat.releases,
        job_chain_off=flat.job_chain_off,
        chain_task_off=flat.chain_task_off,
        task_procs=flat.task_procs,
        task_dur=flat.task_dur,
        task_deadline=flat.task_deadline,
        task_quality=flat.task_quality,
        policy=policy_code,
        use_dup=int(scheduler.prune),  # policy is deterministic here
        use_dom=int(scheduler.prune and scheduler.SUPPORTS_DOMINANCE),
        use_cap=int(scheduler.prune and scheduler.SUPPORTS_FINISH_CAP),
        do_compact=int(arbitrator.admission.compact),
        max_chains=mc,
        max_tasks=mt,
        dscratch=np.empty(mc * mt + 3 * mc + mt, dtype=np.float64),
        iscratch=np.empty(4 * mc, dtype=np.int64),
        out_chain=out_chain,
        out_starts=out_starts,
        counters=counters,
    )
    if status != 0:
        kernels.note_fallback(f"admit_batch kernel status {status}")
        return None
    return _apply_batch_results(
        arbitrator, flat, times_buf, avail_buf, prof_state, out_chain,
        out_starts, counters,
    )


def _apply_batch_results(
    arbitrator: "QoSArbitrator",
    flat: FlatBatch,
    times_buf: np.ndarray,
    avail_buf: np.ndarray,
    prof_state: np.ndarray,
    out_chain: np.ndarray,
    out_starts: np.ndarray,
    counters: np.ndarray,
) -> list[AdmissionDecision]:
    """Write the C results back into profile, schedule and accounting.

    Every accumulator the serial loop updates per job is updated here
    with the same float operations in the same order, so each matches
    bit-for-bit; the schedule's share is folded in once per batch
    (:meth:`Schedule.record_commits`), not once per commit.
    """
    schedule = arbitrator.schedule
    profile = schedule.profile
    lo, n = prof_state.tolist()
    new_times = times_buf[lo : lo + n].copy()
    new_avail = avail_buf[lo : lo + n].copy()
    profile._times = new_times.tolist()  # noqa: SLF001
    profile._avail = new_avail.tolist()  # noqa: SLF001
    profile._np_times = new_times  # noqa: SLF001
    profile._np_avail = new_avail  # noqa: SLF001
    profile._prefix = None  # noqa: SLF001

    counts = counters.tolist()
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
    for name, slot in (
        ("chains_probed", 7),
        ("chains_quick_rejected", 8),
        ("chains_area_rejected", 9),
        ("chains_pruned_dominated", 10),
        ("commits", 11),
    ):
        if counts[slot]:
            perf.count(name, counts[slot])

    comp = arbitrator.quality_composition

    # Quality accounting.  PRODUCT / MIN compose with order-exact numpy
    # reductions (sequential multiply / exact min over each chain's task
    # slice, then an exact max across each job's chains), and the running
    # accumulators are replayed with a cumsum seeded by the current value
    # — the identical left-to-right float additions the serial loop
    # performs.  MEAN uses math.fsum, which has no cheap vector
    # equivalent, so it keeps the per-job Python calls.
    chain_q = None
    if len(flat.chains) and flat.n_tasks:
        starts_idx = flat.chain_task_off[:-1]
        if comp is QualityComposition.PRODUCT:
            chain_q = np.multiply.reduceat(flat.task_quality, starts_idx)
        elif comp is QualityComposition.MIN:
            chain_q = np.minimum.reduceat(flat.task_quality, starts_idx)
    if chain_q is not None:
        best_q = np.maximum.reduceat(chain_q, flat.job_chain_off[:-1])
        arbitrator._quality_possible = float(  # noqa: SLF001
            np.cumsum(
                np.concatenate(
                    ((arbitrator._quality_possible,), best_q)  # noqa: SLF001
                )
            )[-1]
        )
        admitted_q = chain_q[out_chain[out_chain >= 0]]
        if admitted_q.size:
            arbitrator._quality_sum = float(  # noqa: SLF001
                np.cumsum(
                    np.concatenate(
                        ((arbitrator._quality_sum,), admitted_q)  # noqa: SLF001
                    )
                )[-1]
            )
    else:
        for job in flat.jobs:
            arbitrator._quality_possible += job.best_quality(comp)  # noqa: SLF001

    # One pass over the decided rows, every NumPy column read as a list:
    # ``int(out_chain[jb])`` costs ~0.17 us a read, a list item ~0.01.
    chosen = out_chain.tolist()
    job_off = flat.job_chain_off.tolist()
    task_off = flat.chain_task_off.tolist()
    starts = out_starts.tolist()
    task_area = (flat.task_procs * flat.task_dur).tolist()
    chains = flat.chains
    admission = arbitrator.admission
    by_chain = admission.decisions_by_chain
    rigid = Placement.rigid
    refused = "no schedulable configuration"
    decisions: list[AdmissionDecision] = []
    append = decisions.append
    committed: list[ChainPlacement] = []
    finishes: list[float] = []
    areas: list[float] = []
    for job, c, off in zip(flat.jobs, chosen, job_off):
        if c < 0:
            append(AdmissionDecision(job.job_id, False, None, refused))
            continue
        chain = chains[c]
        tasks = chain.tasks
        t0 = task_off[c]
        t1 = t0 + len(tasks)
        chain_index = c - off
        cp = ChainPlacement(  # positional: keywords cost 0.4 us a call
            job.job_id, chain_index, chain,
            tuple(map(rigid, tasks, starts[t0:t1])), job.release,
        )
        committed.append(cp)
        # What cp.finish and cp.total_area compute for rigid placements,
        # from the same floats in the same order, without the properties.
        finishes.append(starts[t1 - 1] + tasks[-1].duration)
        areas.append(sum(task_area[t0:t1]))
        by_chain[chain_index] = by_chain.get(chain_index, 0) + 1
        if chain_q is None:
            arbitrator._quality_sum += chain_quality(chain, comp)  # noqa: SLF001
        append(AdmissionDecision(job.job_id, True, cp))
    admission.admitted += len(committed)
    admission.rejected += len(chosen) - len(committed)
    if committed:
        schedule.record_commits(committed, finishes, areas)
    return decisions


def prescreen_skips(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[frozenset[int]] | None:
    """Conservative per-job chain-skip sets from one vectorized pass.

    For every chain in the batch, evaluate the area-reject inequality
    against the *batch-entry* profile snapshot with a float-error margin
    (see the module docs for the soundness argument); chains condemned
    here are guaranteed to be rejected by the serial prober too, so the
    probe can skip them wholesale.  Returns ``None`` when the pre-screen
    cannot help (empty profile windows are cheap anyway).
    """
    profile = arbitrator.schedule.profile
    times_m, avail_m = profile._mirrors()  # noqa: SLF001
    prefix = kernels.free_area_prefix(times_m, avail_m)
    origin = float(times_m[0])
    capacity = profile.capacity

    releases: list[float] = []
    final_deadlines: list[float] = []
    areas: list[float] = []
    owner_end = [0]
    for job in jobs:
        for chain in job.chains:
            releases.append(job.release)
            final_deadlines.append(chain.final_deadline)
            areas.append(chain.total_area)
        owner_end.append(len(releases))
    if not releases:
        return None

    rel = np.asarray(releases, dtype=np.float64)
    t1 = rel + np.asarray(final_deadlines, dtype=np.float64)
    area = np.asarray(areas, dtype=np.float64)
    t0 = np.maximum(rel, origin)
    finite = np.isfinite(t1)
    degenerate = finite & (t1 <= t0)

    # Cumulative free area at t (vectorized _cumulative_free).
    def cum_free(t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(times_m, t, side="right") - 1
        clipped = np.maximum(idx, 0)
        val = prefix[clipped] + avail_m[clipped] * (t - times_m[clipped])
        return np.where(idx < 0, 0.0, val)

    safe_t1 = np.where(finite, t1, origin)
    free = cum_free(np.maximum(safe_t1, t0)) - cum_free(t0)
    # Margin covering float divergence between this snapshot evaluation
    # and the serial one (differently-originated prefix sums, live
    # commits): absolute floor plus a relative term in the window area.
    span = np.maximum(safe_t1 - t0, 0.0)
    margin = 1e-7 + 1e-12 * capacity * span
    rejected = degenerate | (finite & (free < area - 1e-6 - margin))

    skips: list[frozenset[int]] = []
    for jb in range(len(jobs)):
        begin, end = owner_end[jb], owner_end[jb + 1]
        doomed = np.flatnonzero(rejected[begin:end])
        skips.append(frozenset(int(k) for k in doomed))
    return skips
