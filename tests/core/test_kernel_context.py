"""The per-profile kernel context: one crossing for every batch size.

``submit(job)`` is a batch of one through ``repro_admit_batch`` over a
context bound once per :class:`AvailabilityProfile`
(:mod:`repro.core.kernels.batch`, "Context lifetime").  Between kernel
calls the profile lives in the context's arrays; the lists come back on
the first Python-side read, and a Python-side mutation makes the next
call re-upload them.  Every test here runs an ``auto`` arbitrator (the C
loop when compiled) beside the reference — ``backend="scalar"``, serial
``submit``, decided by ``GreedyScheduler`` — and compares full state.
"""

from __future__ import annotations

import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.kernels import batch as kernel_batch
from repro.core.policies import TieBreakPolicy
from repro.core.profile import AvailabilityProfile
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.verify.fuzz import random_flood
from tests.core.test_admit_batch import (
    KERNEL_MODES,
    _campaign,
    _one_task,
    _state,
    needs_compiled,
)

_flatten = kernel_batch.flatten_jobs  # not whatever a test spies with

_STEPS = st.one_of(
    st.just(("submit",)),
    st.tuples(st.just("batch"), st.integers(1, 40)),
    st.tuples(st.just("python"), st.integers(1, 5)),  # that many jobs, Python kernels
    st.tuples(st.just("rollback"), st.integers(0, 10**6)),
    st.tuples(st.just("reserve"), st.integers(0, 80), st.integers(1, 12), st.integers(1, 8)),
    st.just(("release",)),
    st.just(("compact",)),
    st.tuples(st.just("adopt"), st.booleans()),
    st.just(("resubmit",)),
    st.tuples(st.just("read"), st.sampled_from(
        ("segments", "breakpoints", "check_invariants", "copy", "eq", "len")
    )),
)


#: ``random_flood`` draws task qualities from {1/4, 1/2, 3/4, 1}: products
#: and sums of those are exact in any order, so they never exercise the
#: quality accumulators the C loop now carries.  These do: non-dyadic
#: values, 0.0, 1.0, and few enough of them that a job's best quality is
#: often reached by more than one chain.
_QUALITIES = (0.0, 0.1, 0.3, 0.3, 0.7, 0.9, 1.0, 1.0)


def _requalitied(rng: random.Random, job: Job) -> Job:
    """``job`` with every task quality redrawn (inside the test: the
    flood's own draws feed ``--fuzz --seed 42`` and the corpus)."""
    chains = tuple(
        TaskChain(
            tuple(t.with_quality(rng.choice(_QUALITIES)) for t in chain.tasks),
            label=chain.label,
        )
        for chain in job.chains
    )
    return Job(chains=chains, release=job.release, job_id=job.job_id)


def _twin(chains: tuple[TaskChain, ...]) -> tuple[TaskChain, ...]:
    """An equal but distinct copy of ``chains``: every zero quality takes
    the other sign (``0.0 == -0.0``, but their record cells differ)."""
    return tuple(
        TaskChain(
            tuple(t.with_quality(-t.quality) if t.quality == 0 else t for t in chain.tasks),
            label=chain.label,
        )
        for chain in chains
    )


def _sharing(rng: random.Random, jobs: list[Job]) -> list[Job]:
    """The flood with its qualities redrawn and its chains shared: a job
    usually offers the very tuple the job before it offered (as every
    ``SyntheticParams`` stream does, so a one-job call reuses the staged
    record), now and then that tuple's twin, else a tuple of its own."""
    out: list[Job] = []
    chains = None
    for job in jobs:
        draw = rng.random()
        if chains is None or draw < 0.3:
            chains = _requalitied(rng, job).chains
        elif draw < 0.4:
            chains = _twin(chains)
        out.append(Job(chains=chains, release=job.release, job_id=job.job_id))
    return out


class _Pair:
    """An ``auto`` arbitrator and the reference, driven in lockstep."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        case = random_flood(rng, min_jobs=150, max_jobs=300)
        self.jobs = _sharing(rng, list(case.jobs))
        self.at = 0
        self.auto = QoSArbitrator(case.capacity)
        self.ref = QoSArbitrator(case.capacity, backend="scalar")
        self.reserved: list[tuple[float, float, int]] = []
        self.refused: Job | None = None  # counted rejected once, by a submit

    def take(self, k: int) -> list[Job]:
        jobs = self.jobs[self.at : self.at + k]
        self.at += len(jobs)
        return jobs

    def profiles(self) -> tuple[AvailabilityProfile, AvailabilityProfile]:
        return self.auto.schedule.profile, self.ref.schedule.profile

    def step(self, op: tuple) -> None:
        kind = op[0]
        auto, ref = self.auto, self.ref
        if kind in ("submit", "batch", "python"):
            jobs = self.take(1 if kind == "submit" else op[1])
            want = [ref.submit(job) for job in jobs]
            if kind == "submit":
                got = [auto.submit(job) for job in jobs]
                _assert_staged(auto, jobs)
            elif kind == "batch":
                got = auto.admit_batch(jobs)
                _assert_staged(auto, jobs)
            else:
                with kernels.use("python"):
                    got = [auto.submit(job) for job in jobs]
            assert got == want
            for job, decision in zip(jobs, want):
                if not decision.admitted:
                    self.refused = job
        elif kind == "resubmit":
            # Re-offer the last refusal (after a rollback or release step
            # it may fit now): ``_quality_possible`` is restored around the
            # decision and the provisional rejection netted out.
            if self.refused is not None:
                job, self.refused = self.refused, None
                want = ref.resubmit(job)
                assert auto.resubmit(job) == want
                _assert_staged(auto, [job])
                if not want.admitted:
                    self.refused = job
        elif kind == "rollback":
            held = ref.schedule.placements
            origin = ref.schedule.profile.origin
            live = [cp for cp in held if cp.start >= origin]
            if live:
                cp = live[op[1] % len(live)]
                for arbitrator in (auto, ref):
                    arbitrator.schedule.rollback(cp)  # equal by value in ``auto``
        elif kind == "reserve":
            profile = ref.schedule.profile
            t0 = profile.origin + op[1] / 2
            t1 = t0 + op[2] / 2
            width = min(op[3], profile.min_available(t0, t1))
            if width >= 1:
                for profile in self.profiles():
                    profile.reserve(t0, t1, width)
                self.reserved.append((t0, t1, width))
        elif kind == "release":
            if self.reserved:
                t0, t1, width = self.reserved.pop()
                t0 = max(t0, ref.schedule.profile.origin)
                if t1 > t0 + 1e-6:
                    for profile in self.profiles():
                        profile.release(t0, t1, width)
        elif kind == "compact":
            if self.at < len(self.jobs):
                for arbitrator in (auto, ref):
                    arbitrator.schedule.compact(self.jobs[self.at].release)
        elif kind == "adopt":
            capacity = auto.capacity if op[1] else max(2, auto.capacity // 2)
            origin = ref.schedule.profile.origin
            auto.adopt_schedule(Schedule(capacity, origin=origin))
            ref.adopt_schedule(Schedule(capacity, origin=origin))
            self.reserved.clear()
        else:
            mine, theirs = self.profiles()
            if op[1] == "segments":
                assert list(mine.segments()) == list(theirs.segments())
            elif op[1] == "breakpoints":
                assert mine.breakpoints == theirs.breakpoints
            elif op[1] == "check_invariants":
                mine.check_invariants()
            elif op[1] == "copy":
                clone = mine.copy()
                assert clone == mine and clone._ctx is None  # noqa: SLF001
            elif op[1] == "eq":
                assert mine == theirs
            else:
                assert (len(mine), mine.origin) == (len(theirs), theirs.origin)


def _assert_staged(arbitrator: QoSArbitrator, jobs: list[Job]) -> None:
    """After a call the C loop decided, the staged record is the one
    ``flatten_jobs`` packs for it, byte for byte — whether it was packed
    or its release cell rewritten."""
    ctx = arbitrator.schedule.profile._ctx  # noqa: SLF001
    if jobs and kernels.active().supports_batch:
        record = _flatten(jobs)[0]
        assert bytes(ctx.inbuf[: len(record)]) == record


def _assert_facts_ordered(profile: AvailabilityProfile) -> None:
    """The context's no-fit facts are sorted by ``r`` (the one-pass
    frontier stops at the first one past its bound) and none is redundant
    beside another: no fact has ``w``, ``d`` and ``r`` no smaller and ``s``
    no larger than a different one."""
    ctx = profile._ctx  # noqa: SLF001
    if ctx is None:
        return
    facts = [(f.w, f.d, f.r, f.s) for f in ctx.c.facts[: ctx.c.nfacts]]
    assert [f[2] for f in facts] == sorted(f[2] for f in facts)
    for i, (w, d, r, s) in enumerate(facts):
        for j, g in enumerate(facts):
            assert i == j or not (g[0] <= w and g[1] <= d and g[2] <= r and g[3] >= s)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@given(seed=st.integers(0, 2**31 - 1), steps=st.lists(_STEPS, min_size=5, max_size=40))
@settings(max_examples=25, deadline=None)
def test_every_interleaving_matches_the_reference(kmode, seed, steps):
    """Kernel calls of every size interleaved with Python-side reads and
    mutations, a schedule swap and a kernel flip: same decisions, same
    state, after every step."""
    with kernels.use(kmode):
        pair = _Pair(seed)
        for op in steps:
            pair.step(op)
            assert len(pair.auto.schedule.profile) == len(pair.ref.schedule.profile)
            assert _state(pair.auto) == _state(pair.ref)
            _assert_facts_ordered(pair.auto.schedule.profile)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("how", ("rollback", "release"))
@pytest.mark.parametrize("batched", (False, True))
def test_facts_do_not_outlive_a_python_side_release(kmode, how, batched):
    """``test_no_fit_facts_do_not_cross_calls`` with the reference on the
    serial side and ``submit`` as well as ``admit_batch`` after the
    release: what the context learnt before it is gone."""
    for seed in range(6):
        case = random_flood(random.Random(seed), min_jobs=200, max_jobs=300)
        cut = len(case.jobs) // 2
        head, tail = list(case.jobs[:cut]), list(case.jobs[cut:])
        with kernels.use(kmode):
            auto = QoSArbitrator(case.capacity)
            ref = QoSArbitrator(case.capacity, backend="scalar")
            first = [ref.submit(job) for job in head]
            assert [auto.submit(job) for job in head] == first
            freed = max(
                (d.placement for d in first if d.admitted), key=lambda cp: cp.finish
            )
            for arbitrator in (auto, ref):
                if how == "rollback":
                    arbitrator.schedule.rollback(freed)
                else:
                    for pl in reversed(freed.placements):
                        arbitrator.schedule.profile.release(
                            pl.start, pl.end, pl.processors
                        )
            want = [ref.submit(job) for job in tail]
            got = auto.admit_batch(tail) if batched else [auto.submit(j) for j in tail]
            assert got == want
            assert _state(auto) == _state(ref)


def _comb_jobs(n: int, seed: int) -> list[Job]:
    """Job k must run over ``[2k, 2k + d)`` with ``d < 2``: with compaction
    off every commit leaves two breakpoints behind for good."""
    rng = random.Random(seed)
    jobs = []
    for k in range(n):
        duration = rng.uniform(0.5, 1.5)
        chains = _one_task(rng.randint(1, 8), duration, duration)
        jobs.append(Job(chains=chains, release=2.0 * k, job_id=k))
    return jobs


@needs_compiled
def test_growth_rebinds_and_never_overflows():
    """From 1 to more than 10,000 segments through alternating submits and
    1,024-job batches: the buffers are re-bound as the headroom runs out,
    no call overflows, and the state is that of one call with room for
    everything from the start (the Python reference would spend seconds
    re-summing a 10,000-entry prefix per commit; it checks a head)."""
    jobs = _comb_jobs(5_300, 3)
    with kernels.use("compiled"):
        fallbacks = kernels.stats.fallbacks
        grown, once = (QoSArbitrator(64, compact=False) for _ in range(2))
        ref = QoSArbitrator(64, compact=False, backend="scalar")
        assert once.admit_batch(jobs)[:600] == [ref.submit(job) for job in jobs[:600]]
        at, caps = 0, set()
        while at < len(jobs):
            for job in jobs[at : at + 16]:
                grown.submit(job)
            grown.admit_batch(jobs[at + 16 : at + 16 + 1024])
            at += 16 + 1024
            caps.add(grown.schedule.profile._ctx.c.cap_buf)  # noqa: SLF001
        assert len(grown.schedule.profile) > 10_000
        assert len(caps) >= 3  # re-bound more than once on the way
        assert kernels.stats.fallbacks == fallbacks
        assert grown.perf_snapshot()["batch_fallbacks"] == 0
        assert _state(grown) == _state(once)
        grown.schedule.profile.check_invariants()


@needs_compiled
def test_compaction_walks_the_window_up_and_sync_rebases_it_in_place(monkeypatch):
    """Compaction moves the live window up the buffers from one call to
    the next; once it has drifted further than its own length (or the room
    above it runs out), ``sync`` moves it back to index 0 in the same
    buffers, keeping the no-fit facts and the prefix (indexed from
    ``lo``), and every decision is the reference's."""
    rng = random.Random(3)
    jobs = [
        Job(chains=_one_task(rng.randint(1, 4), rng.uniform(0.5, 3.0), 6.0),
            release=0.5 * k, job_id=k)
        for k in range(2_000)
    ]
    rebases = []
    sync = kernel_batch._Context.sync  # noqa: SLF001

    def spied(self, profile, n_tasks):
        c = self.c
        before = (c.lo, c.cap_buf, c.nfacts, c.prefix_valid, c.prefix_from,
                  c.area_spent)
        sync(self, profile, n_tasks)
        if c.lo < before[0]:
            after = (c.lo, c.cap_buf, c.nfacts, c.prefix_valid, c.prefix_from,
                     c.area_spent)
            rebases.append((before, after))

    monkeypatch.setattr(kernel_batch._Context, "sync", spied)  # noqa: SLF001
    with kernels.use("compiled"):
        auto = QoSArbitrator(4)
        ref = QoSArbitrator(4, backend="scalar")
        for job in jobs:
            assert auto.submit(job) == ref.submit(job)
        assert auto.perf_snapshot()["batch_fallbacks"] == 0
    assert len(rebases) >= 3
    for before, after in rebases:
        assert after == (0, *before[1:])
    assert any(before[2] for before, _ in rebases)  # facts were there to keep
    assert _state(auto) == _state(ref)


@needs_compiled
@pytest.mark.parametrize("status", (-1, -2, -3))
@pytest.mark.parametrize("arrays_current", (False, True))
@pytest.mark.parametrize("batched", (False, True))
def test_error_status_leaves_the_live_state_untouched(
    monkeypatch, status, arrays_current, batched
):
    """A kernel that scribbles on everything it may write but the live
    window (the savepoint buffers, the prefix, the scratch, the outputs,
    the counters and the accumulators) and returns an error: the job is
    decided by the fallback, as the reference decides it, whether the
    lists or the arrays were current at entry."""
    case = random_flood(random.Random(11), min_jobs=60, max_jobs=60)
    jobs = list(case.jobs)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for job in jobs[:40]:
            assert auto.submit(job) == ref.submit(job)
        profile = auto.schedule.profile
        if arrays_current:
            assert profile._list_times is None  # noqa: SLF001 - dropped by the C call
        else:
            for p in (profile, ref.schedule.profile):
                p.reserve(p.origin + 500.0, p.origin + 501.0, 1)
            assert profile._dirty  # noqa: SLF001
        impl = kernels.active()
        real = impl.admit_batch

        def scribbling(ctx_ref, n_jobs):
            ctx = profile._ctx  # noqa: SLF001
            c, cols = ctx.c, ctx.cols
            for name in ("times_alt", "avail_alt", "prefix", "scr_t", "scr_a",
                         "out_chain", "out_rows", "dscratch", "iscratch"):
                cols[name][:] = -7
            ctx.counters[:] = 99
            c.q_possible, c.q_sum = -7.0, 1e9
            return status

        def accounting():
            return (
                auto._quality_sum, auto._quality_possible,  # noqa: SLF001
                dict(auto.decisions_by_chain),
                auto.schedule.committed_area, auto.schedule.last_finish,
            )

        # What the fallback finds when it takes over is what was there at
        # entry: nothing the failed call wrote has been read back.
        entry, found = accounting(), []
        offer = auto._offer  # noqa: SLF001
        monkeypatch.setattr(
            auto, "_offer", lambda job, *skip: found.append(accounting()) or offer(job, *skip)
        )
        monkeypatch.setattr(impl, "admit_batch", scribbling)
        fallbacks = kernels.stats.fallbacks
        want = ref.submit(jobs[40])
        got = auto.admit_batch([jobs[40]])[0] if batched else auto.submit(jobs[40])
        assert got == want
        assert found == [entry]
        assert kernels.stats.fallbacks == fallbacks + 1
        assert auto.perf_snapshot()["batch_fallbacks"] == int(batched)
        assert _state(auto) == _state(ref)
        monkeypatch.setattr(impl, "admit_batch", real)
        for job in jobs[41:]:
            assert auto.submit(job) == ref.submit(job)
        assert _state(auto) == _state(ref)


def _job(job_id: int, release: float, *shapes: tuple[int, float]) -> Job:
    """One chain of one task per ``(width, duration)``, deadlines lax."""
    tasks = tuple(
        TaskSpec(f"t{k}", ProcessorTimeRequest(w, d), deadline=100.0)
        for k, (w, d) in enumerate(shapes)
    )
    return Job(chains=(TaskChain(tasks),), release=release, job_id=job_id)


#: Calls the real C loop fails on with ``BATCH_ERR_OVERFLOW`` once ``room``
#: cells are left above the entry window.  The history leaves breakpoints
#: 0, 1, 4, 10 (free 2, 1, 2, 8 of 8); a release of 2.5 compacts the first
#: segment away and clamps the origin cell from 1 to 2.5.
_OVERFLOWS = {
    # one job, two tasks: [10, 11) fits, [11, 12) would split one segment
    # too many; the clamped cell is never shifted over.
    "one-job": ([_job(2, 2.5, (4, 1.0), (1, 1.0))], 1),
    # [10, 11), then [2.5, 3.5) below it, over the clamped cell; the third
    # job's [4, 5) overflows.
    "lower": ([_job(2, 2.5, (4, 1.0)), _job(3, 2.5, (1, 1.0)),
               _job(4, 2.5, (2, 1.0))], 2),
    # [10, 11); at 4.5 a second compaction passes the first clamped cell
    # (dead now, and below everything saved) and clamps 4 to 4.5; then
    # [4.5, 5.5) below the first shift and [4.5, 5) overflows.
    "recompact": ([_job(2, 2.5, (4, 1.0)), _job(3, 4.5, (1, 1.0)),
                   _job(4, 4.5, (1, 0.5))], 2),
}


@needs_compiled
@pytest.mark.parametrize("case", tuple(_OVERFLOWS))
def test_a_real_overflow_after_commits_restores_the_entry_window(monkeypatch, case):
    """The real C loop, not a stand-in, runs out of room after it has
    compacted and committed: the status is ``BATCH_ERR_OVERFLOW``, the
    window's bounds and every byte of it are those at entry (the savepoint
    and the clamp journal put back what the call overwrote), and the
    fallback decides the batch as the reference does."""
    jobs, room = _OVERFLOWS[case]
    with kernels.use("compiled"):
        auto = QoSArbitrator(8)
        ref = QoSArbitrator(8, backend="scalar")
        for job in (_job(0, 0.0, (6, 10.0)), _job(1, 1.0, (1, 3.0))):
            assert auto.submit(job) == ref.submit(job)
        profile = auto.schedule.profile
        assert profile.breakpoints == (0.0, 1.0, 4.0, 10.0)
        impl = kernels.active()
        real = impl.admit_batch
        calls = []

        def tight(ctx_ref, n_jobs):
            ctx = profile._ctx  # noqa: SLF001
            c = ctx.c
            entry = (c.lo, c.n, *(a.tobytes() for a in ctx.window()))
            cap, c.cap_buf = c.cap_buf, c.lo + c.n + room
            status = real(ctx_ref, n_jobs)
            c.cap_buf = cap
            calls.append((
                status, entry, (c.lo, c.n, *(a.tobytes() for a in ctx.window())),
                ctx.counters.tolist(),
            ))
            return status

        monkeypatch.setattr(impl, "admit_batch", tight)
        fallbacks = kernels.stats.fallbacks
        want = [ref.submit(job) for job in jobs]
        if len(jobs) == 1:
            got = [auto.submit(jobs[0])]
        else:
            got = auto.admit_batch(jobs)
        monkeypatch.setattr(impl, "admit_batch", real)
        ((status, entry, after, counts),) = calls
        assert status == -1  # BATCH_ERR_OVERFLOW
        assert after == entry
        shifts = {"one-job": 1, "lower": 2, "recompact": 2}[case]
        assert counts[0] == shifts  # K_SHIFT_OPS: the shifts that went in
        assert counts[6] == (2 if case == "recompact" else 1)  # K_COMPACTIONS
        assert got == want
        assert kernels.stats.fallbacks == fallbacks + 1
        assert _state(auto) == _state(ref)
        for k in range(5, 40):  # and the kernel takes over again
            job = _job(k, 4.5 + k / 4, (1 + k % 5, 0.5 + k % 3))
            assert auto.submit(job) == ref.submit(job)
        assert _state(auto) == _state(ref)
        assert kernels.stats.fallbacks == fallbacks + 1


@needs_compiled
def test_the_fact_table_stays_sorted_and_irredundant_under_a_backlog():
    """Chunks of a backlog-shaped flood: after each, the table is sorted
    by ``r`` and irredundant, it has filled (so slots were evicted round
    robin and inserts shifted the rest), and every decision is the
    reference's."""
    jobs = _campaign(random.Random(2024), 3_000)
    with kernels.use("compiled"):
        auto = QoSArbitrator(64)
        full = False
        decided = []
        for at in range(0, len(jobs), 256):
            decided += auto.admit_batch(jobs[at : at + 256])
            _assert_facts_ordered(auto.schedule.profile)
            full = full or auto.schedule.profile._ctx.c.nfacts == 64  # noqa: SLF001
        assert full
        assert auto.perf_snapshot()["batch_fallbacks"] == 0
    ref = QoSArbitrator(64, backend="scalar")
    assert decided == [ref.submit(job) for job in jobs]
    assert _state(auto) == _state(ref)


@needs_compiled
def test_len_and_origin_build_no_list(monkeypatch):
    pulls = []
    pull = AvailabilityProfile._pull  # noqa: SLF001
    monkeypatch.setattr(
        AvailabilityProfile, "_pull", lambda self: pulls.append(1) or pull(self)
    )
    case = random_flood(random.Random(5), min_jobs=80, max_jobs=80)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for job in case.jobs:
            auto.submit(job)
            ref.submit(job)
            mine, theirs = auto.schedule.profile, ref.schedule.profile
            assert (len(mine), mine.origin) == (len(theirs), theirs.origin)
        assert auto.perf_snapshot()["profile_segments"] == len(theirs)
        assert not pulls
        assert mine.breakpoints == theirs.breakpoints
        assert len(pulls) == 1
        assert mine.breakpoints == theirs.breakpoints  # lists are back: no second pull
        assert len(pulls) == 1


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_submit_keeps_its_own_accounting(kmode):
    """N submits: N ``decision`` samples, no ``decision_batch`` sample, no
    batch counter touched, and the snapshot has the reference's keys."""
    case = random_flood(random.Random(2), min_jobs=120, max_jobs=120)
    with kernels.use(kmode):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for job in case.jobs:
            assert auto.submit(job) == ref.submit(job)
        snap, want = auto.perf_snapshot(), ref.perf_snapshot()
    assert 0 < auto.rejected < len(case.jobs)
    assert snap["decision_count"] == len(case.jobs)
    assert "decision_batch_count" not in snap
    assert snap["batch_jobs"] == snap["batch_fallbacks"] == 0
    assert set(snap) == set(want)
    for name in ("commits", "chains_probed", "chains_quick_rejected",
                 "chains_area_rejected", "profile_shift_ops",
                 "profile_compactions"):
        assert snap[name] == want[name], name


# ---------------------------------------------------------------------------
# Context lifetime (batch.py's module docstring, one test per sentence)
# ---------------------------------------------------------------------------


@needs_compiled
def test_copy_does_not_share_the_context():
    case = random_flood(random.Random(7), min_jobs=60, max_jobs=60)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        for job in case.jobs[:30]:
            auto.submit(job)
        profile = auto.schedule.profile
        clone = profile.copy()
        assert clone._ctx is None and profile._ctx is not None  # noqa: SLF001
        before = (clone.breakpoints, tuple(clone.segments()))
        for job in case.jobs[30:]:
            auto.submit(job)
        assert (clone.breakpoints, tuple(clone.segments())) == before
        assert clone != profile


@needs_compiled
def test_adopted_schedule_gets_its_own_context():
    case = random_flood(random.Random(8), min_jobs=60, max_jobs=60)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        for job in case.jobs[:30]:
            auto.submit(job)
        old = auto.schedule.profile
        held = old.breakpoints
        auto.adopt_schedule(Schedule(case.capacity, origin=old.origin))
        for job in case.jobs[30:]:
            auto.submit(job)
        new = auto.schedule.profile
        assert new._ctx is not None and new._ctx is not old._ctx  # noqa: SLF001
        assert old.breakpoints == held


@needs_compiled
def test_kernel_flip_while_a_context_exists():
    """``kernels.use("python")`` in mid-stream (the benchmark's oracle does
    this in-process): the Python path reads the rebuilt lists, and back on
    the compiled kernel the same context re-uploads what Python left."""
    case = random_flood(random.Random(10), min_jobs=90, max_jobs=90)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for job in case.jobs[:30]:
            assert auto.submit(job) == ref.submit(job)
        profile = auto.schedule.profile
        ctx = profile._ctx  # noqa: SLF001
        with kernels.use("python"):
            for job in case.jobs[30:60]:
                assert auto.submit(job) == ref.submit(job)
        assert profile._dirty and profile._ctx is ctx  # noqa: SLF001
        for job in case.jobs[60:]:
            assert auto.submit(job) == ref.submit(job)
        assert not profile._dirty and profile._ctx is ctx  # noqa: SLF001
        assert _state(auto) == _state(ref)


@needs_compiled
def test_another_kernel_object_rebuilds_the_context(monkeypatch, tmp_path):
    """``REPRO_KERNEL_LIB`` pointing at another ``.so``: the context built
    by the first library is not handed to the second."""
    from repro.core.kernels import compiled

    case = random_flood(random.Random(9), min_jobs=60, max_jobs=60)
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for job in case.jobs[:30]:
            assert auto.submit(job) == ref.submit(job)
        first = auto.schedule.profile._ctx  # noqa: SLF001
        other = tmp_path / "other.so"
        shutil.copy(first.impl.path, other)
        monkeypatch.setenv("REPRO_KERNEL_LIB", str(other))
        monkeypatch.setattr(compiled, "_loaded", None)
        kernels.set_kernel("compiled")
        assert kernels.active() is not first.impl
        for job in case.jobs[30:]:
            assert auto.submit(job) == ref.submit(job)
        second = auto.schedule.profile._ctx  # noqa: SLF001
        assert second is not first and second.impl is kernels.active()
        assert _state(auto) == _state(ref)
        monkeypatch.setattr(compiled, "_loaded", first.impl)
    assert kernels.active() is first.impl or not kernels.active().compiled


@needs_compiled
def test_layout_drift_fails_the_load(monkeypatch):
    """The loader (and so ``--check``) compares the C context's size with
    the ctypes mirror's."""
    import ctypes

    from repro.core.kernels import compiled
    from repro.core.kernels.__main__ import main
    from repro.errors import ConfigurationError

    assert main(["--check"]) == 0
    real = compiled.Context

    class Drifted(real):
        _fields_ = [("one_more", ctypes.c_int64)]

    with kernels.use("compiled"):
        path = kernels.active().path
    monkeypatch.setattr(compiled, "Context", Drifted)
    with pytest.raises(ConfigurationError, match="layouts drifted"):
        compiled.CompiledKernels(path)

    # Same size, two 8-byte neighbours exchanged: only the per-field
    # offsets (``repro_ctx_offsets``) can tell.
    swap = {"q_possible": "q_sum", "q_sum": "q_possible"}

    class Swapped(ctypes.Structure):
        _fields_ = [
            (swap.get(name, name), ctype) for name, ctype in real._fields_
        ]

    assert ctypes.sizeof(Swapped) == ctypes.sizeof(real)
    monkeypatch.setattr(compiled, "Context", Swapped)
    with pytest.raises(ConfigurationError, match="'q_possible'.*layouts drifted"):
        compiled.CompiledKernels(path)


def test_rebuilt_lists_are_plain_lists():
    """What a Python-side read gets back is ``list[float]`` / ``list[int]``,
    not array views or NumPy scalars."""
    auto = QoSArbitrator(4)
    auto.submit(_comb_jobs(1, 0)[0])
    profile = auto.schedule.profile
    times, avail = profile._times, profile._avail  # noqa: SLF001
    assert type(times) is list and {type(t) for t in times} == {float}
    assert type(avail) is list and {type(a) for a in avail} == {int}


# ---------------------------------------------------------------------------
# The staged one-job record (batch.py, "Context lifetime")
# ---------------------------------------------------------------------------


def _bits(arbitrator: QoSArbitrator) -> tuple:
    """``_state`` and the float accumulators by their bits."""
    schedule = arbitrator.schedule
    floats = (
        arbitrator._quality_sum, arbitrator._quality_possible,  # noqa: SLF001
        schedule.committed_area, schedule.first_release, schedule.last_finish,
    )
    return _state(arbitrator), tuple(float(x).hex() for x in floats)


def _chains(zero: float) -> tuple[TaskChain, ...]:
    """Two 2-task chains, one with a task of quality ``zero`` (0.0 or -0.0)."""
    def task(width, duration, deadline, quality):
        request = ProcessorTimeRequest(width, duration)
        return TaskSpec("t", request, deadline=deadline, quality=quality)

    return (
        TaskChain((task(4, 2.0, 9.0, 0.7), task(2, 1.5, 14.0, 0.3))),
        TaskChain((task(2, 3.0, 12.0, zero), task(1, 2.5, 20.0, 0.9))),
    )


def _spy_flatten(monkeypatch) -> list[int]:
    """The job id heading every record ``flatten_jobs`` packs from here on."""
    packed: list[int] = []
    monkeypatch.setattr(
        kernel_batch, "flatten_jobs",
        lambda jobs: packed.append(jobs[0].job_id) or _flatten(jobs),
    )
    return packed


@needs_compiled
def test_a_twin_right_after_the_shared_tuple_is_packed_again(monkeypatch):
    """A one-job call offering the staged tuple rewrites the release cell
    only; one offering an equal but distinct tuple (``0.0 == -0.0``) is
    packed, and from then on that tuple is the staged one."""
    shared, twin = _chains(0.0), _chains(-0.0)
    assert shared == twin and shared is not twin
    order = (shared, shared, twin, twin, shared, twin, shared, shared, shared)
    jobs = [Job(chains=c, release=0.5 * k, job_id=k) for k, c in enumerate(order)]
    packed = _spy_flatten(monkeypatch)
    with kernels.use("compiled"):
        auto = QoSArbitrator(4)
        ref = QoSArbitrator(4, backend="scalar")
        for job in jobs:
            assert auto.submit(job) == ref.submit(job)
            _assert_staged(auto, [job])
            assert auto.schedule.profile._ctx.chains is job.chains  # noqa: SLF001
        assert packed == [0, 2, 4, 5, 6]
        assert 0 < auto.admitted < len(jobs)
        assert _bits(auto) == _bits(ref)


@needs_compiled
@pytest.mark.parametrize("event", ("batch", "python", "growth", "error"))
def test_the_next_one_job_call_restages_after(monkeypatch, event):
    """Whatever replaced the staged record, or left the context's view of
    the profile untrusted, the next one-job call offering the formerly
    staged tuple packs it again: after a batch of two jobs whose record
    starts with another tuple, a ``kernels.use("python")`` round trip that
    mutated the profile, a record that outgrew the buffer, and the
    fallback from an error status (whose kernel scribbled on the record
    too)."""
    shared = _chains(0.0)
    other = shared[::-1]
    jobs = [Job(chains=shared, release=0.6 * k, job_id=k) for k in range(40)]
    with kernels.use("compiled"):
        auto = QoSArbitrator(6)
        ref = QoSArbitrator(6, backend="scalar")
        for job in jobs[:10]:
            assert auto.submit(job) == ref.submit(job)
        profile = auto.schedule.profile
        ctx = profile._ctx  # noqa: SLF001
        assert ctx.chains is shared
        if event in ("batch", "growth"):
            chains = other if event == "batch" else shared * 3
            mid = [Job(chains=chains, release=j.release, job_id=j.job_id) for j in jobs[10:12]]
            record = ctx.cols["record"]
            if event == "batch":
                assert auto.admit_batch(mid) == [ref.submit(job) for job in mid]
            else:
                assert [auto.submit(job) for job in mid] == [ref.submit(j) for j in mid]
                assert ctx.cols["record"] is not record  # re-bound at twice the size
        elif event == "python":
            with kernels.use("python"):
                for job in jobs[10:12]:
                    assert auto.submit(job) == ref.submit(job)
            assert profile._dirty  # noqa: SLF001
        else:
            impl = kernels.active()
            real = impl.admit_batch

            def scribbling(ctx_ref, n_jobs):
                for name in ("record", "out_chain", "out_rows"):
                    ctx.cols[name][:] = -7
                return -1

            monkeypatch.setattr(impl, "admit_batch", scribbling)
            for job in jobs[10:12]:
                assert auto.submit(job) == ref.submit(job)
            monkeypatch.setattr(impl, "admit_batch", real)
        assert ctx.chains is not shared or profile._dirty  # noqa: SLF001
        packed = _spy_flatten(monkeypatch)
        for job in jobs[12:]:
            assert auto.submit(job) == ref.submit(job)
            _assert_staged(auto, [job])
        assert packed == [12]
        assert _bits(auto) == _bits(ref)


@needs_compiled
def test_the_staged_record_is_reused_across_profile_growth(monkeypatch):
    """One tuple throughout, compaction off, two breakpoints left behind
    per admission: the profile buffers are re-bound several times while
    the record is packed once, and every decision is the reference's."""
    task = TaskSpec("t", ProcessorTimeRequest(3, 1.25), deadline=1.5)
    chains = (TaskChain((task,)),)
    jobs = [Job(chains=chains, release=2.0 * k, job_id=k) for k in range(700)]
    packed = _spy_flatten(monkeypatch)
    with kernels.use("compiled"):
        auto = QoSArbitrator(4, compact=False)
        ref = QoSArbitrator(4, compact=False, backend="scalar")
        caps = set()
        for job in jobs:
            assert auto.submit(job) == ref.submit(job)
            caps.add(auto.schedule.profile._ctx.c.cap_buf)  # noqa: SLF001
        assert packed == [0]
        assert len(caps) >= 4 and len(auto.schedule.profile) > 1_000
        assert _bits(auto) == _bits(ref)


#: One non-default value per flag the context stores on change.
_OTHER_FLAG = {"policy": TieBreakPolicy.FIRST, "compact": False}


@needs_compiled
@pytest.mark.parametrize("differ", tuple(_OTHER_FLAG))
def test_one_profile_adopted_by_two_arbitrators_gets_each_ones_flags(differ):
    """The context stores the scheduler and config flags only when they
    change, so a profile that two arbitrators take turns on (each adopted
    the same schedule) must see the flags of whichever one is calling."""
    case = random_flood(random.Random(12), min_jobs=150, max_jobs=150)
    jobs = _sharing(random.Random(12), list(case.jobs))
    capacity = case.capacity
    with kernels.use("compiled"):
        pairs = []
        for backend in ("auto", "scalar"):
            schedule = Schedule(capacity)
            pair = (
                QoSArbitrator(capacity, backend=backend),
                QoSArbitrator(
                    capacity, backend=backend, **{differ: _OTHER_FLAG[differ]}
                ),
            )
            for arbitrator in pair:
                arbitrator.adopt_schedule(schedule)
            pairs.append(pair)
        (first, second), (ref_first, ref_second) = pairs
        for k, job in enumerate(jobs):
            mine, theirs = (first, ref_first) if k % 5 < 3 else (second, ref_second)
            assert mine.submit(job) == theirs.submit(job)
            c = mine.schedule.profile._ctx.c  # noqa: SLF001
            assert (c.policy, c.do_compact) == (
                kernel_batch._POLICY_CODES[mine.scheduler.policy],  # noqa: SLF001
                mine.compact,
            )
        assert [_bits(a) for a in (first, second)] == [
            _bits(a) for a in (ref_first, ref_second)
        ]
        snap, want = first.perf_snapshot(), ref_first.perf_snapshot()
        for name in ("commits", "chains_probed", "chains_quick_rejected",
                     "chains_area_rejected", "profile_compactions"):
            assert snap[name] == want[name], name


# The struct keeps the quality accumulators it was last handed or answered
# with, and a call writes the arbitrator's only when they are not those
# very float objects ("Context lifetime").  Each test below assigns them
# outside the C loop between two calls on one profile; a loop that kept
# running on its own copy would drift from the reference at once.


def _accounts(arbitrator: QoSArbitrator) -> tuple[str, str]:
    return (
        float(arbitrator._quality_possible).hex(),  # noqa: SLF001
        float(arbitrator._quality_sum).hex(),  # noqa: SLF001
    )


@needs_compiled
def test_two_arbitrators_taking_turns_on_one_profile_keep_their_own_accumulators():
    """Same flags, one profile, alternating runs of calls: each arbitrator
    reads back its own accumulators plus its own jobs, never the other's."""
    case = random_flood(random.Random(21), min_jobs=150, max_jobs=150)
    jobs = _sharing(random.Random(21), list(case.jobs))
    capacity = case.capacity
    with kernels.use("compiled"):
        pairs = []
        for backend in ("auto", "scalar"):
            schedule = Schedule(capacity)
            pair = tuple(QoSArbitrator(capacity, backend=backend) for _ in range(2))
            for arbitrator in pair:
                arbitrator.adopt_schedule(schedule)
            pairs.append(pair)
        (first, second), (ref_first, ref_second) = pairs
        for k, job in enumerate(jobs):
            mine, theirs = (first, ref_first) if k % 7 < 4 else (second, ref_second)
            assert mine.submit(job) == theirs.submit(job)
            assert _accounts(mine) == _accounts(theirs)
        assert first.perf_snapshot()["batch_fallbacks"] == 0
        assert [_bits(a) for a in (first, second)] == [
            _bits(a) for a in (ref_first, ref_second)
        ]


@needs_compiled
def test_resubmit_restores_quality_possible_as_the_reference_does():
    """``resubmit`` puts back the ``_quality_possible`` its compiled
    decision read back; the next compiled call must start from that
    value, as the ``backend="scalar"`` twin does."""
    case = random_flood(random.Random(22), min_jobs=200, max_jobs=200)
    jobs = _sharing(random.Random(22), list(case.jobs))
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        resubmitted = 0
        for job in jobs:
            got, want = auto.submit(job), ref.submit(job)
            assert got == want
            if not got.admitted:
                assert auto.resubmit(job) == ref.resubmit(job)
                resubmitted += 1
            assert _accounts(auto) == _accounts(ref)
        assert resubmitted > 10
        assert _bits(auto) == _bits(ref)


@needs_compiled
def test_a_python_decision_between_two_compiled_calls_is_honoured():
    """A ``kernels.use("python")`` decision adds to the accumulators in
    Python; the compiled call after it must carry that addition."""
    case = random_flood(random.Random(23), min_jobs=150, max_jobs=150)
    jobs = _sharing(random.Random(23), list(case.jobs))
    with kernels.use("compiled"):
        auto = QoSArbitrator(case.capacity)
        ref = QoSArbitrator(case.capacity, backend="scalar")
        for k, job in enumerate(jobs):
            if k % 3 == 1:
                with kernels.use("python"):
                    assert auto.submit(job) == ref.submit(job)
            else:
                assert auto.submit(job) == ref.submit(job)
            assert _accounts(auto) == _accounts(ref)
        assert _bits(auto) == _bits(ref)
