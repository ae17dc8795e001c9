"""The kernel crossing's one record in and one record out.

``flatten_jobs`` packs a job vector into one run of 8-byte cells and the C
loop answers with ``out_chain`` and one ``out_rows`` column
(:mod:`repro.core.kernels.batch`).  The record is checked here by a reader
that is not its writer: a decoder that knows only the documented layout —
per job ``[release][n_chains]``, per chain ``[n_tasks]``, per task
``[processors][duration][deadline][quality]``, every cell a double — must
give back the attribute sweep bit for bit.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.kernels import batch as kernel_batch
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.verify.fuzz import random_flood
from tests.core.test_admit_batch import KERNEL_MODES, _state, needs_compiled

_COUNTERS = (
    "commits", "chains_probed", "chains_quick_rejected", "chains_area_rejected",
    "profile_shift_ops", "profile_compactions",
    "batch_jobs", "batch_fallbacks",
)


def _decode(record: bytes, n_jobs: int) -> list:
    """Read ``n_jobs`` back out of a record; every cell must be used."""
    cells = memoryview(record).cast("d")
    at = 0

    def count() -> int:
        nonlocal at
        value = cells[at]
        at += 1
        assert value == int(value) and value >= 1
        return int(value)

    jobs = []
    for _ in range(n_jobs):
        release = cells[at]
        at += 1
        chains = []
        for _ in range(count()):
            tasks = []
            for _ in range(count()):
                width, duration, deadline, quality = cells[at : at + 4]
                at += 4
                assert width == int(width)
                tasks.append((int(width), duration.hex(), deadline.hex(), quality.hex()))
            chains.append(tasks)
        jobs.append((release.hex(), chains))
    assert at == len(cells)
    return jobs


def _sweep(jobs) -> list:
    """What the decoder must return: the attributes themselves, floats by
    their bits (``-0.0`` is not ``0.0``, ``2`` is ``2.0``)."""
    return [
        (
            float(job.release).hex(),
            [
                [
                    (
                        task.request.processors,
                        float(task.request.duration).hex(),
                        float(task.deadline).hex(),
                        float(task.quality).hex(),
                    )
                    for task in chain.tasks
                ]
                for chain in job.chains
            ],
        )
        for job in jobs
    ]


def _typed(value: float, how: int):
    """The same number as a float, an ``int`` (when it is one) or a NumPy
    scalar: what a model object may hold."""
    if how == 1 and math.isfinite(value) and value == int(value):
        return int(value)
    if how == 2:
        return np.float64(value)
    if how == 3 and math.isfinite(value) and float(np.float32(value)) > 0:
        return np.float32(value)
    return value


_HOW = st.integers(0, 3)
_DURATIONS = st.one_of(
    st.integers(1, 50).map(float), st.floats(1e-3, 1e3, allow_nan=False)
)
_DEADLINES = st.one_of(st.just(math.inf), st.floats(1e-3, 1e6, allow_nan=False))
_QUALITIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(0.0, 1.0))
_RELEASES = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.integers(-5, 500).map(float),
    st.floats(-1e3, 1e6, allow_nan=False),
)

_TASKS = st.builds(
    lambda width, duration, deadline, quality, how: TaskSpec(
        "t",
        ProcessorTimeRequest(width, _typed(duration, how[0])),
        deadline=_typed(deadline, how[1]),
        quality=_typed(quality, how[2]),
    ),
    st.one_of(st.integers(1, 64), st.sampled_from((2**31, 2**53))),
    _DURATIONS, _DEADLINES, _QUALITIES, st.tuples(_HOW, _HOW, _HOW),
)
_CHAIN_TUPLES = st.lists(
    st.lists(_TASKS, min_size=1, max_size=9).map(lambda tasks: TaskChain(tuple(tasks))),
    min_size=1, max_size=6,
).map(tuple)


@st.composite
def _job_vectors(draw):
    """1-12 jobs over 1-4 chains tuples: several jobs offer the *same*
    tuple, and now and then an equal but distinct copy of one."""
    tuples = draw(st.lists(_CHAIN_TUPLES, min_size=1, max_size=4))
    jobs = []
    for job_id in range(draw(st.integers(1, 12))):
        chains = draw(st.sampled_from(tuples))
        if draw(st.integers(0, 3)) == 0:
            chains = tuple(TaskChain(chain.tasks) for chain in chains)
        release = _typed(draw(_RELEASES), draw(_HOW))
        jobs.append(Job(chains=chains, release=release, job_id=job_id))
    return jobs


@given(jobs=_job_vectors())
@settings(max_examples=150, deadline=None)
def test_the_record_gives_back_the_attribute_sweep(jobs):
    record, max_chains, max_tasks = kernel_batch.flatten_jobs(jobs)
    assert _decode(record, len(jobs)) == _sweep(jobs)
    assert max_chains == max(len(job.chains) for job in jobs)
    assert max_tasks == max(len(c.tasks) for job in jobs for c in job.chains)
    # A tuple and a list of the same jobs are the same record.
    assert kernel_batch.flatten_jobs(tuple(jobs))[0] == record


def _chains(quality: float) -> tuple[TaskChain, ...]:
    task = TaskSpec("t", ProcessorTimeRequest(2, 1.0), deadline=9.0, quality=quality)
    return (TaskChain((task,)), TaskChain((task, task)))


def test_a_shared_tuple_is_reused_by_identity_and_nothing_is_kept():
    """Jobs that offer the very same chains tuple repeat its cells; a tuple
    that merely compares equal is swept itself (``0.0 == -0.0``, and their
    cells differ); and once ``flatten_jobs`` has returned nothing holds a
    tuple, a chain or a job of the call."""
    shared, twin = _chains(0.0), _chains(-0.0)
    assert shared == twin and shared is not twin
    order = (shared, shared, twin, shared, twin, twin, shared)
    jobs = [Job(chains=c, release=float(k), job_id=k) for k, c in enumerate(order)]
    assert all(job.chains is c for job, c in zip(jobs, order))
    held = [sys.getrefcount(x) for x in (shared, twin, shared[0], jobs[0])]
    flat = kernel_batch.flatten_jobs(jobs)
    assert [sys.getrefcount(x) for x in (shared, twin, shared[0], jobs[0])] == held
    assert _decode(flat[0], len(jobs)) == _sweep(jobs)
    qualities = [job[1][0][0][3] for job in _decode(flat[0], len(jobs))]
    assert qualities == [(0.0 if c is shared else -0.0).hex() for c in order]


# ---------------------------------------------------------------------------
# A width the record cannot hold: the reference's batch, not an exception
# ---------------------------------------------------------------------------


def _wide(width: int, release: float, job_id: int) -> Job:
    task = TaskSpec("t", ProcessorTimeRequest(width, 1.0), deadline=50.0)
    return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)


def test_the_widest_exact_width_is_packed_and_the_next_is_refused():
    exact = _wide(kernel_batch._MAX_WIDTH, 0.0, 0)  # noqa: SLF001
    assert _decode(kernel_batch.flatten_jobs([exact])[0], 1) == _sweep([exact])
    for width in (kernel_batch._MAX_WIDTH + 1, 2**63, 2**70, 10**400):  # noqa: SLF001
        assert kernel_batch.flatten_jobs([exact, _wide(width, 1.0, 1)]) is None


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("batched", (False, True))
def test_an_oversize_width_is_rejected_as_the_reference_rejects_it(kmode, batched):
    """``ProcessorTimeRequest(2**70, 1.0)`` is a valid model object and an
    unschedulable one.  Two distinct oversize widths stay two chains, and
    each is quick-rejected as the reference rejects it."""
    two_wide = Job(
        chains=_wide(2**70, 0.0, 0).chains + _wide(2**70 + 1, 0.0, 0).chains,
        release=1.0, job_id=1,
    )
    jobs = [_wide(2, 0.0, 0), two_wide, _wide(2**64, 2.0, 2), _wide(2, 3.0, 3)]
    with kernels.use(kmode):
        auto = QoSArbitrator(8)
        ref = QoSArbitrator(8, backend="scalar")
        want = [ref.submit(job) for job in jobs]
        got = auto.admit_batch(jobs) if batched else [auto.submit(job) for job in jobs]
        assert got == want
        assert [d.admitted for d in got] == [True, False, False, True]
        assert (auto.admitted, auto.rejected) == (ref.admitted, ref.rejected) == (2, 2)
        snap, ref_snap = auto.perf_snapshot(), ref.perf_snapshot()
        ref_snap["batch_jobs"] = len(jobs) * batched
        ref_snap["batch_fallbacks"] = int(batched)  # as for a fan-out past the limits
        assert [snap[name] for name in _COUNTERS] == [ref_snap[name] for name in _COUNTERS]
        assert snap["chains_quick_rejected"] == 3
        assert _state(auto) == _state(ref)


# ---------------------------------------------------------------------------
# One record out: job-local chain indexes, one row per admitted job
# ---------------------------------------------------------------------------


@needs_compiled
def test_rows_are_admitted_jobs_only_and_chain_indexes_are_job_local():
    """Three jobs on an empty 4-wide machine: the first can only run its
    second chain, the second nothing, the third its first chain (two
    tasks).  ``out_chain`` indexes each job's own ``chains``; ``out_rows``
    holds ``[finish, area, starts...]`` for the two admitted jobs, back to
    back, and nothing for the rejected one."""
    def chain(*shapes):
        return TaskChain(tuple(
            TaskSpec("t", ProcessorTimeRequest(w, d), deadline=dl) for w, d, dl in shapes
        ))

    jobs = [
        Job(chains=(chain((8, 1.0, 50.0)), chain((2, 3.0, 50.0))), release=0.0, job_id=0),
        Job(chains=(chain((8, 1.0, 50.0)), chain((3, 1.0, 0.5))), release=0.0, job_id=1),
        Job(chains=(chain((2, 1.5, 50.0), (4, 2.0, 50.0)), chain((1, 9.0, 50.0))),
            release=1.0, job_id=2),
    ]
    with kernels.use("compiled"):
        auto = QoSArbitrator(4)
        ref = QoSArbitrator(4, backend="scalar")
        assert auto.admit_batch(jobs) == [ref.submit(job) for job in jobs]
        ctx = auto.schedule.profile._ctx  # noqa: SLF001
        assert ctx.cols["out_chain"][:3].tolist() == [1, -1, 0]
        n_cells = int(ctx.counters[11])
        assert n_cells == (2 + 1) + (2 + 2)
        assert ctx.cols["out_rows"][:n_cells].tolist() == [
            3.0, 6.0, 0.0,  # job 0: finish, area, start
            5.0, 11.0, 1.0, 3.0,  # job 2: 2x1.5 from 1.0, then 4x2.0 once job 0 is done
        ]
        assert _state(auto) == _state(ref)


@needs_compiled
@pytest.mark.parametrize("batched", (False, True))
def test_the_write_back_books_the_kernels_finish_and_area(monkeypatch, batched):
    """The schedule is booked with the finish and area the kernel answered,
    not with what the placement would re-derive: nudge both cells of every
    admitted row after a real call, and the accounting holds the nudged
    numbers while each placement keeps its own (one-job calls book a row
    through ``record_commit``, larger batches through ``record_commits``)."""
    case = random_flood(random.Random(4), min_jobs=120, max_jobs=120)
    jobs = list(case.jobs)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        impl = kernels.active()
        real = impl.admit_batch
        offered = iter(jobs)  # the calls take the jobs in order

        def nudging(ctx_ref, n_jobs):
            status = real(ctx_ref, n_jobs)
            ctx = auto.schedule.profile._ctx  # noqa: SLF001
            rows, at = ctx.cols["out_rows"], 0
            for c in ctx.cols["out_chain"][:n_jobs].tolist():
                job = next(offered)
                if c >= 0:
                    rows[at : at + 2] = np.nextafter(rows[at : at + 2], np.inf)
                    at += 2 + len(job.chains[c].tasks)
            return status

        monkeypatch.setattr(impl, "admit_batch", nudging)
        if batched:
            decisions = auto.admit_batch(jobs[:50]) + auto.admit_batch(jobs[50:])
        else:
            decisions = [auto.submit(job) for job in jobs]
    placed = [d.placement for d in decisions if d.admitted]
    assert 0 < len(placed) < len(jobs)
    area = 0.0
    for cp in placed:
        area += math.nextafter(float(cp.total_area), math.inf)
    finishes = [math.nextafter(cp.finish, math.inf) for cp in placed]
    schedule = auto.schedule
    assert schedule.committed_area == area
    assert schedule.last_finish == max(finishes)
    assert sorted(schedule._finishes.elements()) == sorted(finishes)  # noqa: SLF001


# ---------------------------------------------------------------------------
# Growth of the record buffer
# ---------------------------------------------------------------------------


_STAGED = ["record", "out_chain", "out_rows", "dscratch", "iscratch"]


@needs_compiled
def test_a_larger_batch_rebinds_the_record_once_and_keeps_what_was_learnt(monkeypatch):
    """Batches of 1, 3, 9, 27, 81 jobs and the rest: each outgrows the room
    the one before left (twice its size), so each re-binds the record, the
    output columns and the scratch exactly once and nothing else — the
    profile buffers, the live window, the prefix and the no-fit facts are
    those of an arbitrator that had the room from its first call
    (``probe_segments`` would be higher had a re-bind dropped the facts)."""
    case = random_flood(random.Random(21), min_jobs=280, max_jobs=300)
    jobs = list(case.jobs)
    cuts = [0, 1, 4, 13, 40, 121, len(jobs)]
    bound: list[str] = []
    bind = kernel_batch._Context._bind  # noqa: SLF001
    monkeypatch.setattr(
        kernel_batch._Context, "_bind",  # noqa: SLF001
        lambda self, name, *args: bound.append(name) or bind(self, name, *args),
    )

    def binds(arbitrator, batch):
        del bound[:]
        return arbitrator.admit_batch(batch), sorted(bound)

    with kernels.use("compiled"):
        fallbacks = kernels.stats.fallbacks
        grown, roomy = QoSArbitrator(case.capacity), QoSArbitrator(case.capacity)
        for lo, hi in zip(cuts, cuts[1:]):
            want, roomy_binds = binds(roomy, jobs[lo:hi])
            got, grown_binds = binds(grown, jobs[lo:hi])
            assert got == want
            if lo == 0:  # the first call binds everything, on both sides
                assert grown_binds == roomy_binds
                roomy.schedule.profile._ctx.stage(  # noqa: SLF001
                    bytes(8 * 64 * len(jobs)), len(jobs),
                    kernel_batch._MAX_CHAINS, kernel_batch._MAX_TASKS,  # noqa: SLF001
                )
            else:
                assert grown_binds == sorted(roomy_binds + _STAGED)
        assert kernels.stats.fallbacks == fallbacks
        assert grown.perf_snapshot()["batch_fallbacks"] == 0
        assert _state(grown) == _state(roomy)
        mine, theirs = (a.schedule.profile for a in (grown, roomy))
        assert mine.stats.probe_segments == theirs.stats.probe_segments
        assert mine._ctx.c.nfacts == theirs._ctx.c.nfacts > 0  # noqa: SLF001


# ---------------------------------------------------------------------------
# The fan-out limits (last: a loop that misreads a count here walks off the
# scratch, and the tests above fail on values first)
# ---------------------------------------------------------------------------


def _fan_out(n_chains: int, n_tasks: int) -> Job:
    task = TaskSpec("t", ProcessorTimeRequest(1, 0.5), deadline=1e6)
    chain = TaskChain((task,) * n_tasks)
    return Job(chains=(chain,) * n_chains, release=0.0, job_id=0)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_jobs_at_and_past_the_fan_out_limits(kmode):
    """Exactly ``_MAX_CHAINS`` chains / ``_MAX_TASKS`` tasks is packed (and
    decided in C, as the reference decides it); one more is not."""
    most_chains = _fan_out(kernel_batch._MAX_CHAINS, 1)  # noqa: SLF001
    most_tasks = _fan_out(1, kernel_batch._MAX_TASKS)  # noqa: SLF001
    for job in (most_chains, most_tasks):
        record, max_chains, max_tasks = kernel_batch.flatten_jobs([job])
        assert (max_chains, max_tasks) == (len(job.chains), len(job.chains[0].tasks))
        assert _decode(record, 1) == _sweep([job])
    assert kernel_batch.flatten_jobs(
        [most_chains, _fan_out(kernel_batch._MAX_CHAINS + 1, 1)]  # noqa: SLF001
    ) is None
    assert kernel_batch.flatten_jobs(
        [most_tasks, _fan_out(1, kernel_batch._MAX_TASKS + 1)]  # noqa: SLF001
    ) is None
    with kernels.use(kmode):
        auto = QoSArbitrator(8)
        ref = QoSArbitrator(8, backend="scalar")
        assert auto.admit_batch([most_chains, most_tasks]) == [
            ref.submit(most_chains), ref.submit(most_tasks)
        ]
        assert auto.perf_snapshot()["batch_fallbacks"] == 0 or kmode == "python"
        assert _state(auto) == _state(ref)
