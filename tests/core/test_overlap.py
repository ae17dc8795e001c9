"""The overlapped write-back: the C loop on the worker thread, the objects
built on the caller's as the loop publishes them.

``try_admit_batch_compiled`` runs a long batch's C call on one daemon
thread while the calling thread builds each published job's decision
(:mod:`repro.core.kernels.batch`, "Overlapped write-back").  Nothing may
change but who waits for whom: every test compares the overlapped path
with the inline one and with the Python reference, and each names the
flaw it catches.  Where a test needs one path, ``_OVERLAP_WORK`` is
lowered to 0 and the CPU count read as two (every batch overlaps) or the
rule raised past any batch (none does); the shipped rule is exercised by
the one-CPU and backlog tests.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.kernels import batch as kernel_batch
from repro.verify.fuzz import random_pressure
from tests.core.test_admit_batch import _campaign, _state, needs_compiled
from tests.core.test_crossing_spans import _fig4

pytestmark = needs_compiled

ROOT = Path(__file__).resolve().parents[2]


def _every_batch_overlaps(monkeypatch) -> None:
    """Every batch passes the rule, on one CPU too (then the two threads
    take turns on it)."""
    monkeypatch.setattr(kernel_batch, "_OVERLAP_WORK", 0)
    monkeypatch.setattr(kernel_batch, "_cpus", lambda: 2)


def _cases() -> dict[str, tuple[int, list, int]]:
    """``(capacity, jobs, chunk)`` per stream: a deep backlog, the
    paper's ``fig4`` job and a fact-table pressure case."""
    pressure = random_pressure(random.Random(3))
    return {
        "backlog": (64, _campaign(random.Random(2024), 4_000), 512),
        "fig4": (64, _fig4(1_500), 256),
        "pressure": (pressure.capacity, list(pressure.jobs), 64),
    }


CASES = _cases()


def _counters(arbitrator: QoSArbitrator) -> dict:
    """Every ``perf_snapshot()`` entry but the timers."""
    return {
        k: v for k, v in arbitrator.perf_snapshot().items()
        if not k.endswith(("_s", "_us"))
    }


def _batched(capacity: int, jobs: list, chunk: int):
    arbitrator = QoSArbitrator(capacity)
    decisions = []
    for at in range(0, len(jobs), chunk):
        decisions += arbitrator.admit_batch(jobs[at : at + chunk])
    return arbitrator, decisions


def _spy_starts(monkeypatch) -> list:
    """Count the calls handed to the worker thread."""
    starts = []
    start = kernel_batch._Worker.start  # noqa: SLF001

    def counted(self, call):
        starts.append(call)
        return start(self, call)

    monkeypatch.setattr(kernel_batch._Worker, "start", counted)  # noqa: SLF001
    return starts


@pytest.mark.parametrize("name", tuple(CASES))
def test_overlapped_inline_and_reference_decide_alike(monkeypatch, name):
    """Decisions, full state, every counter and both quality accumulators
    (in ``_state``) are those of the inline write-back, and decisions and
    state those of the serial Python reference."""
    capacity, jobs, chunk = CASES[name]
    starts = _spy_starts(monkeypatch)
    with kernels.use("compiled"):
        monkeypatch.setattr(kernel_batch, "_OVERLAP_WORK", 1 << 62)
        inline, want = _batched(capacity, jobs, chunk)
        assert not starts
        _every_batch_overlaps(monkeypatch)
        overlapped, got = _batched(capacity, jobs, chunk)
    ref = QoSArbitrator(capacity, backend="scalar")
    serial = [ref.submit(job) for job in jobs]
    assert len(starts) == -(-len(jobs) // chunk)
    assert got == want == serial
    assert _state(overlapped) == _state(inline) == _state(ref)
    assert _counters(overlapped) == _counters(inline)
    assert _counters(overlapped)["batch_fallbacks"] == 0


def test_a_deep_backlog_overlaps_under_the_shipped_rule(monkeypatch):
    """Chunks of 1,024 over a profile hundreds of segments deep pass the
    shipped rule on a host with two CPUs; ``fig4`` chunks over a shallow
    profile never do."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: nothing overlaps")
    starts = _spy_starts(monkeypatch)
    with kernels.use("compiled"):
        _batched(64, _fig4(3_000), 1_024)
        assert not starts
        _batched(64, _campaign(random.Random(7), 6_000), 1_024)
    assert starts


def test_a_stale_progress_read_after_the_call_is_not_an_error(monkeypatch):
    """The count reads half the batch until the caller has seen the call
    return, and once more after that: a caller that took "returned, and
    nothing new" for an error status would hand back half the decisions.
    Progress is re-read after completion, so all of them come back."""
    capacity, jobs, _ = CASES["backlog"]
    jobs = jobs[:1_500]
    half = len(jobs) // 2
    with kernels.use("compiled"):
        monkeypatch.setattr(kernel_batch, "_OVERLAP_WORK", 1 << 62)
        inline, want = _batched(capacity, jobs, len(jobs))
        impl = kernels.active()
        real_progress = impl.progress
        wait = kernel_batch._Worker.wait  # noqa: SLF001
        seen, stale = [], []

        def waited(self, timeout=None):
            status = wait(self, timeout)
            if status is not None:
                seen.append(status)
            return status

        def progress(ctx):
            published = real_progress(ctx)
            if not seen:
                return min(published, half)
            if not stale:
                stale.append(published)
                return half
            return published

        monkeypatch.setattr(kernel_batch._Worker, "wait", waited)  # noqa: SLF001
        monkeypatch.setattr(impl, "progress", progress)
        _every_batch_overlaps(monkeypatch)
        overlapped, got = _batched(capacity, jobs, len(jobs))
    assert (seen, stale) == ([0], [len(jobs)])
    assert got == want
    assert _state(overlapped) == _state(inline)
    assert overlapped.perf_snapshot()["batch_fallbacks"] == 0


def test_an_error_after_published_jobs_discards_them_and_falls_back(monkeypatch):
    """The real loop overflows a lowered ``cap_buf`` (the trick of
    ``test_a_real_overflow_after_commits_restores_the_entry_window``)
    after it has published jobs the caller has already built objects for.
    Those are dropped: the fallback decides the batch as the reference
    does, ``batch_fallbacks`` rises by one, and neither the arbitrator
    nor the schedule holds a discarded placement."""
    capacity, jobs, _ = CASES["backlog"]
    head, tail = jobs[:1_000], jobs[1_000:1_400]
    ref = QoSArbitrator(capacity, backend="scalar")
    want = [ref.submit(job) for job in head + tail][len(head) :]
    built = []
    decision_type = kernel_batch.AdmissionDecision
    some_built = threading.Event()

    def recorded(*args):
        decision = decision_type(*args)
        built.append(decision)
        some_built.set()
        return decision

    with kernels.use("compiled"):
        arbitrator = QoSArbitrator(capacity)
        arbitrator.admit_batch(head)
        profile = arbitrator.schedule.profile
        impl = kernels.active()
        real = impl.admit_batch
        calls = []

        def tight(ctx_ref, n_jobs):
            c = profile._ctx.c  # noqa: SLF001
            cap, c.cap_buf = c.cap_buf, c.lo + c.n + 60
            status = real(ctx_ref, n_jobs)
            c.cap_buf = cap
            calls.append((status, impl.progress(c)))
            some_built.wait(10)  # the caller has built published jobs
            return status

        monkeypatch.setattr(impl, "admit_batch", tight)
        monkeypatch.setattr(kernel_batch, "AdmissionDecision", recorded)
        _every_batch_overlaps(monkeypatch)
        starts = _spy_starts(monkeypatch)
        fallbacks = arbitrator.perf_snapshot()["batch_fallbacks"]
        got = arbitrator.admit_batch(tail)
    ((status, published),) = calls
    assert status == -1  # BATCH_ERR_OVERFLOW
    assert 0 < published < len(tail)
    assert len(starts) == 1
    assert built  # objects were built for published jobs, then dropped
    assert got == want
    assert arbitrator.perf_snapshot()["batch_fallbacks"] == fallbacks + 1
    schedule = arbitrator.schedule
    assert schedule.committed_jobs == ref.schedule.committed_jobs
    assert schedule.placements == ref.schedule.placements
    dropped = {id(d.placement) for d in built if d.admitted}
    assert not dropped & {id(cp) for cp in schedule._placements}  # noqa: SLF001
    assert _state(arbitrator) == _state(ref)


def test_the_booking_reads_the_rows_after_the_call(monkeypatch):
    """The nudge of ``test_staging``'s
    ``test_the_write_back_books_the_kernels_finish_and_area``, made once
    the caller has read every job as published: the schedule books the
    nudged finish and area of every row (read after the call returns),
    and each placement keeps its task starts (read as published)."""
    capacity, jobs, chunk = CASES["backlog"]
    jobs = jobs[: 2 * chunk]
    with kernels.use("compiled"):
        arbitrator = QoSArbitrator(capacity)
        impl = kernels.active()
        real, real_progress = impl.admit_batch, impl.progress
        offered = iter(jobs)
        all_read = threading.Event()

        def progress(ctx):
            published = real_progress(ctx)
            if published == ctx.n_jobs:
                all_read.set()
            return published

        def nudging(ctx, n_jobs):
            status = real(ctx, n_jobs)
            assert all_read.wait(10)
            all_read.clear()
            rows, at = arbitrator.schedule.profile._ctx.cols["out_rows"], 0  # noqa: SLF001
            for c in arbitrator.schedule.profile._ctx.cols["out_chain"][:n_jobs].tolist():  # noqa: SLF001
                job = next(offered)
                if c >= 0:
                    rows[at : at + 2] = np.nextafter(rows[at : at + 2], np.inf)
                    at += 2 + len(job.chains[c].tasks)
            return status

        _every_batch_overlaps(monkeypatch)
        monkeypatch.setattr(impl, "admit_batch", nudging)
        monkeypatch.setattr(impl, "progress", progress)
        starts = _spy_starts(monkeypatch)
        decisions = arbitrator.admit_batch(jobs[:chunk]) + arbitrator.admit_batch(jobs[chunk:])
    assert len(starts) == 2
    placed = [d.placement for d in decisions if d.admitted]
    assert 0 < len(placed)
    area = 0.0
    for cp in placed:
        area += math.nextafter(float(cp.total_area), math.inf)
    finishes = [math.nextafter(cp.finish, math.inf) for cp in placed]
    schedule = arbitrator.schedule
    assert schedule.committed_area == area
    assert schedule.last_finish == max(finishes)
    assert sorted(schedule._finishes.elements()) == sorted(finishes)  # noqa: SLF001


def test_an_exception_in_the_call_reaches_the_caller(monkeypatch):
    """A wrapper of the crossing that raises on the worker thread raises
    in ``admit_batch``, and the worker serves the next batch."""
    capacity, jobs, chunk = CASES["backlog"]
    with kernels.use("compiled"):
        impl = kernels.active()
        real = impl.admit_batch

        def failing(ctx, n_jobs):
            raise RuntimeError("injected")

        _every_batch_overlaps(monkeypatch)
        monkeypatch.setattr(impl, "admit_batch", failing)
        with pytest.raises(RuntimeError, match="injected"):
            QoSArbitrator(capacity).admit_batch(jobs[:chunk])
        monkeypatch.setattr(impl, "admit_batch", real)
        starts = _spy_starts(monkeypatch)
        overlapped, got = _batched(capacity, jobs[:chunk], chunk)
    assert len(starts) == 1
    ref = QoSArbitrator(capacity, backend="scalar")
    assert got == [ref.submit(job) for job in jobs[:chunk]]


def test_an_interrupt_waits_for_the_call_to_return(monkeypatch):
    """A ``KeyboardInterrupt`` on the calling thread mid write-back
    reaches the caller only after the C call has returned: the next call
    re-stages buffers that C reads while it runs."""
    capacity, jobs, chunk = CASES["backlog"]
    with kernels.use("compiled"):
        impl = kernels.active()
        real = impl.admit_batch
        returned = []

        def slow(ctx, n_jobs):
            time.sleep(0.2)
            status = real(ctx, n_jobs)
            returned.append(time.perf_counter())
            return status

        def interrupted(ctx):
            raise KeyboardInterrupt

        _every_batch_overlaps(monkeypatch)
        monkeypatch.setattr(impl, "admit_batch", slow)
        monkeypatch.setattr(impl, "progress", interrupted)
        with pytest.raises(KeyboardInterrupt):
            QoSArbitrator(capacity).admit_batch(jobs[:chunk])
        raised = time.perf_counter()
        assert returned and returned[0] <= raised
        assert not kernel_batch._worker.busy.locked()  # noqa: SLF001


@pytest.mark.parametrize("overlap", (False, True), ids=("inline", "overlapped"))
def test_an_interrupted_write_back_books_the_batch(monkeypatch, overlap):
    """A ``KeyboardInterrupt`` in the write-back after the C loop returned
    ``BATCH_OK`` reaches the caller with the batch booked: the counters,
    the schedule and the profile agree with the reference, and the next
    batch decides as the serial loop would (not against commits the
    schedule never saw)."""
    jobs = _campaign(random.Random(5), 600)
    starts = _spy_starts(monkeypatch)
    with kernels.use("compiled"):
        impl = kernels.active()
        real = impl.progress
        if overlap:
            _every_batch_overlaps(monkeypatch)
        else:
            monkeypatch.setattr(kernel_batch, "_OVERLAP_WORK", 1 << 62)

        def interrupted(ctx):
            real(ctx)
            raise KeyboardInterrupt

        arbitrator = QoSArbitrator(64)
        monkeypatch.setattr(impl, "progress", interrupted)
        with pytest.raises(KeyboardInterrupt):
            arbitrator.admit_batch(jobs[:300])
        monkeypatch.setattr(impl, "progress", real)
        assert arbitrator.admitted + arbitrator.rejected == 300
        assert arbitrator.schedule.committed_jobs == arbitrator.admitted > 0
        later = arbitrator.admit_batch(jobs[300:])
    assert len(starts) == (2 if overlap else 0)
    ref = QoSArbitrator(64, backend="scalar")
    serial = [ref.submit(job) for job in jobs]
    assert later == serial[300:]
    assert _state(arbitrator) == _state(ref)


def test_a_busy_worker_sends_the_caller_inline(monkeypatch):
    """While another caller holds the worker, a batch that would overlap
    is decided inline, alike."""
    capacity, jobs, chunk = CASES["backlog"]
    with kernels.use("compiled"):
        _every_batch_overlaps(monkeypatch)
        _batched(capacity, jobs[:chunk], chunk)  # the worker exists
        worker = kernel_batch._worker  # noqa: SLF001
        starts = _spy_starts(monkeypatch)
        assert worker.busy.acquire(False)
        try:
            held, got = _batched(capacity, jobs, chunk)
        finally:
            worker.busy.release()
        assert not starts
        free, want = _batched(capacity, jobs, chunk)
    assert starts
    assert got == want
    assert _state(held) == _state(free)


def test_more_threads_than_cores_share_one_worker_and_decide_alike(monkeypatch):
    """Four arbitrators on four threads, every batch eligible, the switch
    interval shortened: whichever caller finds the worker busy decides
    inline, and each decides as it would alone."""
    capacity, jobs, chunk = CASES["backlog"]
    jobs = jobs[: 4 * chunk]
    with kernels.use("compiled"):
        alone, want = _batched(capacity, jobs, chunk)
        _every_batch_overlaps(monkeypatch)
        results = [None] * 4

        def run(k):
            results[k] = _batched(capacity, jobs, chunk)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for arbitrator, got in results:
        assert got == want
        assert _state(arbitrator) == _state(alone)


_ONE_CPU = """
import hashlib, os, random, sys, threading
sys.path[:0] = [{src!r}, {root!r}]
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.kernels import batch
from tests.core.test_admit_batch import _campaign
jobs = _campaign(random.Random(7), 6_000)
with kernels.use("compiled"):
    arbitrator = QoSArbitrator(64)
    decisions = []
    for at in range(0, len(jobs), 1_024):
        decisions += arbitrator.admit_batch(jobs[at : at + 1_024])
print(batch._worker is None, threading.active_count(),
      hashlib.sha256(repr(decisions).encode()).hexdigest())
"""


def test_one_cpu_starts_no_worker_and_decides_alike(monkeypatch):
    """In a process pinned to one CPU no worker thread starts (the rule
    needs two), and the decisions are those of this process, where (on
    two CPUs) the same batches overlap."""
    starts = _spy_starts(monkeypatch)
    with kernels.use("compiled"):
        _, decisions = _batched(64, _campaign(random.Random(7), 6_000), 1_024)
    if len(os.sched_getaffinity(0)) >= 2:
        assert starts
    script = _ONE_CPU.format(src=str(ROOT / "src"), root=str(ROOT))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == [
        "True", "1", hashlib.sha256(repr(decisions).encode()).hexdigest()
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_decides_an_overlapped_batch(monkeypatch):
    """The parent's worker exists when the child is forked; the child
    starts its own and decides an overlapped batch as the parent did (a
    child handed the parent's worker object would wait on a thread that
    fork did not copy)."""
    capacity, jobs, chunk = CASES["backlog"]
    with kernels.use("compiled"):
        _every_batch_overlaps(monkeypatch)
        _, want = _batched(capacity, jobs[:chunk], chunk)
        assert kernel_batch._worker is not None  # noqa: SLF001
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report, and never return into pytest
            code = 1
            try:
                starts = _spy_starts(monkeypatch)
                _, got = _batched(capacity, jobs[:chunk], chunk)
                code = 0 if got == want and len(starts) == 1 else 2
            finally:
                os.write(write, bytes([code]))
                os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        finished, _ = os.waitpid(pid, os.WNOHANG)
        if finished:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its batch")
    assert os.read(read, 1) == bytes([0])
    os.close(read)
