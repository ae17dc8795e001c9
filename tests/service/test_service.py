"""The asyncio front-end: batching, dedup, shedding, degrade, deadlines,
and fail-stop semantics."""

from __future__ import annotations

import asyncio
import gc
import math
import random
import time
import weakref
from dataclasses import replace

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import TIME_LIMIT, ProcessorTimeRequest
from repro.errors import ConfigurationError, InvalidTaskError, ServiceUnavailableError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.service.chaos import chaos_workload
from repro.service.recovery import recover
from repro.service.service import (
    AdmissionService,
    ServiceConfig,
    ServiceDecision,
    ServiceOutcome,
    degrade_job,
    make_arbitrator,
)
from repro.service.wal import LedgerEntry, decision_to_tuple


def _workload(seed=11, n=12, malleable=False):
    return chaos_workload(random.Random(seed), n, malleable)


def _slow_decide(arbitrator, batch):
    time.sleep(0.01)
    return arbitrator.admit_batch(list(batch))


async def _submit_all(service, jobs, **kw):
    service.start()
    out = []
    for i, job in enumerate(jobs):
        out.append(await service.submit(job, request_id=f"req-{i}", **kw))
    return out


def test_a_zero_queue_limit_is_rejected():
    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=4, queue_limit=0)


def test_service_decisions_match_direct_serial_arbitrator(tmp_path):
    capacity, jobs = _workload()
    config = ServiceConfig(capacity)

    async def run():
        service = AdmissionService(config, tmp_path)
        answers = await _submit_all(service, jobs)
        await service.stop()
        return answers, service

    answers, service = asyncio.run(run())
    direct = make_arbitrator(config)
    for job, answer in zip(jobs, answers):
        assert answer.outcome in (ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED)
        assert decision_to_tuple(answer.decision) == decision_to_tuple(
            direct.submit(job)
        )
    assert service.stats()["acked"] == len(jobs)
    # One fsync per decision batch hardens both its WAL records.
    assert service.stats()["wal_syncs"] >= service.stats()["batches"]
    assert service.stats()["wal_appends"] >= 2 * service.stats()["batches"]


def test_pipelined_submissions_batch_and_still_match_serial(tmp_path):
    capacity, jobs = _workload(seed=12, n=20)
    config = ServiceConfig(capacity, max_batch=8)

    async def run():
        service = AdmissionService(config, tmp_path)
        service.start()
        futures = [
            await service.enqueue(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        answers = await asyncio.gather(*futures)
        await service.stop()
        return answers, service.stats()

    answers, stats = asyncio.run(run())
    assert stats["batches"] < len(jobs)  # coalescing actually happened
    direct = make_arbitrator(config)
    for job, answer in zip(jobs, answers):
        assert decision_to_tuple(answer.decision) == decision_to_tuple(
            direct.submit(job)
        )


def test_duplicate_request_ids_are_idempotent(tmp_path):
    capacity, jobs = _workload(n=4)
    config = ServiceConfig(capacity)

    async def run():
        service = AdmissionService(config, tmp_path)
        service.start()
        first = await service.submit(jobs[0], request_id="dup")
        again = await service.submit(jobs[0], request_id="dup")
        # Duplicate while pending shares the in-flight future too.
        f1 = await service.enqueue(jobs[1], request_id="pending")
        f2 = await service.enqueue(jobs[1], request_id="pending")
        assert f2 is f1
        await f1
        await service.stop()
        return first, again, service

    first, again, service = asyncio.run(run())
    assert again == first
    assert service.counters["duplicates"] == 2
    assert len(service.entries) == 2  # one ledger entry per unique request


def test_qos_class_aware_shedding(tmp_path):
    capacity, jobs = _workload(n=6)
    # Class 0 never sheds; class 1 sheds as soon as anything is queued.
    config = ServiceConfig(
        capacity, queue_limit=8, shed_thresholds=(1.01, 0.01)
    )

    async def run():
        service = AdmissionService(config, tmp_path)
        # Not started: the queue holds work, occupancy is real.
        fut = await service.enqueue(jobs[0], qos=0, request_id="a")
        shed = await service.enqueue(jobs[1], qos=1, request_id="b")
        kept = await service.enqueue(jobs[2], qos=0, request_id="c")
        service.start()
        results = await asyncio.gather(fut, shed, kept)
        await service.stop()
        return results, service

    (a, b, c), service = asyncio.run(run())
    assert b.outcome is ServiceOutcome.SHED and b.decision is None
    assert a.outcome is not ServiceOutcome.SHED
    assert c.outcome is not ServiceOutcome.SHED
    assert service.counters["shed"] == 1
    assert service.counters["shed_class_1"] == 1
    # Shed requests are never logged — and may retry under the same id.
    assert all(e.request_id != "b" for e in service.entries)


def test_degraded_admission_narrows_or_paths_and_logs_effective_job(tmp_path):
    capacity, jobs = _workload(seed=13, n=10)
    jobs = [j for j in jobs if len(j.chains) > 1] or jobs
    config = ServiceConfig(capacity, degrade_occupancy=0.0)

    async def run():
        service = AdmissionService(config, tmp_path)
        answers = await _submit_all(service, jobs)
        await service.stop()
        return answers, service

    answers, service = asyncio.run(run())
    assert service.counters["degraded"] == len(jobs)
    for entry, job, answer in zip(service.entries, jobs, answers):
        assert entry.degraded and answer.degraded
        assert len(entry.job.chains) == 1
        expected, changed = degrade_job(job)
        assert changed
        assert entry.job.chains == expected.chains


def test_degrade_job_keeps_cheapest_chain():
    _, jobs = _workload(seed=14, n=8)
    multi = [j for j in jobs if len(j.chains) > 1]
    for job in multi:
        narrowed, changed = degrade_job(job)
        assert changed and len(narrowed.chains) == 1

        def cost(chain):
            return sum(t.processors * t.duration for t in chain.tasks)

        assert cost(narrowed.chains[0]) == min(cost(c) for c in job.chains)
    single = [j for j in jobs if len(j.chains) == 1]
    for job in single:
        assert degrade_job(job) == (job, False)


def test_queue_deadline_expires_before_decision(tmp_path):
    capacity, jobs = _workload(n=3)
    config = ServiceConfig(capacity)

    async def run():
        service = AdmissionService(config, tmp_path)
        # Enqueue with a tiny deadline while the drain loop is not running.
        fut = await service.enqueue(jobs[0], timeout=0.001, request_id="late")
        await asyncio.sleep(0.01)
        service.start()
        answer = await fut
        await service.stop()
        return answer, service

    answer, service = asyncio.run(run())
    assert answer.outcome is ServiceOutcome.TIMED_OUT
    assert answer.decision is None  # never reached the arbitrator
    assert service.counters["timed_out_queue"] == 1
    assert not service.entries  # and never logged


def test_late_decision_is_durable_and_flagged(tmp_path):
    capacity, jobs = _workload(n=2)
    config = ServiceConfig(capacity)

    async def run():
        service = AdmissionService(config, tmp_path, decide=_slow_decide)
        service.start()
        answer = await service.submit(jobs[0], timeout=0.002, request_id="r0")
        await service.stop()
        return answer, service

    answer, service = asyncio.run(run())
    assert answer.outcome is ServiceOutcome.TIMED_OUT and answer.late
    assert answer.decision is not None  # decided durably, just too late
    assert service.counters["late_decisions"] == 1
    assert len(service.entries) == 1
    # A retry under the same id is answered from the ledger.
    stored = service._seen["r0"]
    assert stored.outcome in (ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED)


def test_permanent_worker_failure_fail_stops(tmp_path):
    capacity, jobs = _workload(n=4)
    config = ServiceConfig(capacity)
    calls = []

    def broken(arbitrator, batch):
        calls.append(len(batch))
        raise RuntimeError("permanently down")

    async def run():
        service = AdmissionService(config, tmp_path, decide=broken)
        service.start()
        with pytest.raises(ServiceUnavailableError):
            await asyncio.wait_for(service.submit(jobs[0], request_id="r0"), 5)
        assert not service.running
        with pytest.raises(ServiceUnavailableError):
            await service.enqueue(jobs[1], request_id="r1")
        return service

    service = asyncio.run(run())
    assert service.stats()["failed"] == 1
    assert calls == [1]  # the first exception fail-stops: no second attempt
    assert service.counters["retries"] == 0
    # The job record hit the WAL before the failure; recovery owns it.
    assert service.counters["acked"] == 0


def test_an_oversize_width_is_a_rejection_not_a_poison_request(tmp_path):
    """A job whose width fits no 64-bit cell is a valid model object and an
    unschedulable one: the batch that carries it is acked (``REJECTED`` for
    it, the rest as a direct arbitrator decides them), the service keeps
    running, and the directory — whose WAL now holds that job — recovers."""
    def job(width, release, job_id):
        task = TaskSpec("t", ProcessorTimeRequest(width, 1.0), deadline=50.0)
        return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)

    jobs = [job(2, 0.0, 0), job(2**70, 1.0, 1), job(2, 2.0, 2), job(3, 3.0, 3)]
    config = ServiceConfig(8)

    async def run():
        service = AdmissionService(config, tmp_path)
        service.start()
        futures = [  # one batch: the oversize job and its neighbours together
            await service.enqueue(j, request_id=f"req-{i}") for i, j in enumerate(jobs[:3])
        ]
        answers = list(await asyncio.gather(*futures))
        assert service.running
        answers.append(await service.submit(jobs[3], request_id="req-3"))
        await service.stop()
        return answers, service.stats()

    answers, stats = asyncio.run(run())
    assert [a.outcome for a in answers] == [
        ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED,
        ServiceOutcome.ADMITTED, ServiceOutcome.ADMITTED,
    ]
    direct = QoSArbitrator(8, backend="scalar", compact=False, keep_placements=True)
    for j, answer in zip(jobs, answers):
        assert decision_to_tuple(answer.decision) == decision_to_tuple(direct.submit(j))
    assert stats["acked"] == len(jobs) and stats["failed"] == 0
    state = recover(tmp_path, config)
    assert [d.admitted for d in state.decisions] == [True, False, True, True]


def test_a_sub_time_eps_duration_cannot_become_a_poison_request(tmp_path):
    """A duration the profile would call empty is refused where the job is
    built, so it never reaches the WAL (where it would fail-stop the drain
    loop and every later ``recover``); its neighbours are one ordinary
    batch."""
    def job(duration, release, job_id):
        task = TaskSpec("t", ProcessorTimeRequest(4, duration), deadline=50.0)
        return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)

    with pytest.raises(InvalidTaskError):
        job(1e-12, 1.0, 1)
    jobs = [job(2.0, 0.0, 0), job(2.0, 2.0, 2)]
    config = ServiceConfig(16)
    service, answers = _run_queued(config, tmp_path, jobs)
    assert [a.outcome for a in answers] == [ServiceOutcome.ADMITTED] * 2
    stats = service.stats()
    assert stats["batches"] == 1 and stats["acked"] == 2 and stats["failed"] == 0
    assert [d.admitted for d in recover(tmp_path, config).decisions] == [True, True]


@pytest.mark.parametrize(
    ("width", "max_concurrency"), [(2, 3.5), (1, True)], ids=["float", "bool"]
)
def test_a_non_int_concurrency_cannot_become_a_poison_request(
    tmp_path, width, max_concurrency
):
    """A degree of concurrency that is not an ``int`` is refused where the
    task is built.  It used to pass ``enqueue``'s contract; then the
    malleable search's ``range()`` raised ``TypeError`` and fail-stopped
    the service for every client, and the WAL decoder's ``int()`` would
    have turned 3.5 into 3 and re-decided another job on ``recover``."""
    def job(release, job_id, mc=0):
        task = TaskSpec(
            "t", ProcessorTimeRequest(width, 2.0), deadline=50.0, max_concurrency=mc
        )
        return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)

    with pytest.raises(InvalidTaskError, match="max_concurrency must be an int"):
        job(1.0, 1, max_concurrency)
    jobs = [job(0.0, 0, 4), job(2.0, 2, 4)]
    config = ServiceConfig(capacity=8, malleable=True)
    service, answers = _run_queued(config, tmp_path, jobs)
    assert [a.outcome for a in answers] == [ServiceOutcome.ADMITTED] * 2
    stats = service.stats()
    assert stats["batches"] == 1 and stats["acked"] == 2 and stats["failed"] == 0
    assert [d.admitted for d in recover(tmp_path, config).decisions] == [True, True]


def test_a_request_released_before_a_decided_one_sees_the_whole_future(tmp_path):
    """A shed or timed-out client may retry after later-release jobs were
    decided, so the service's arbitrator never compacts its profile: the
    early job offered last starts in the gap at 10 that the first job
    leaves, not after the newest release (20)."""
    def job(release, width, duration, job_id):
        task = TaskSpec("t", ProcessorTimeRequest(width, duration), deadline=50.0)
        return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)

    jobs = [job(0.0, 4, 10.0, 0), job(20.0, 1, 1.0, 1), job(0.0, 4, 5.0, 2)]
    _, answers = _run_queued(ServiceConfig(4), tmp_path, jobs)
    starts = [a.decision.placement.placements[0].start for a in answers]
    assert starts == [0.0, 20.0, 10.0]


@pytest.mark.parametrize(
    ("error", "kw"),
    [
        (TypeError, {"request_id": 5}),
        (TypeError, {"request_id": b"r"}),
        (TypeError, {"qos": True}),
        (TypeError, {"qos": 1.0}),
        (ValueError, {"qos": -1}),
        (ValueError, {"qos": 2**63}),
        (TypeError, {"job": "not a job"}),
        (ValueError, {"job_id": 2**63}),
        (ValueError, {"job_id": -(2**63) - 1}),
        (ValueError, {"release": math.nan}),
        (ValueError, {"release": math.inf}),
        (ValueError, {"release": TIME_LIMIT}),
    ],
    ids=["int-id", "bytes-id", "bool-qos", "float-qos", "negative-qos", "huge-qos",
         "not-a-job", "huge-job-id", "huge-negative-job-id", "nan-release",
         "inf-release", "out-of-range-release"],
)
def test_a_malformed_request_is_refused_to_its_caller_alone(tmp_path, error, kw):
    """``enqueue`` checks its arguments before anything is queued, counted
    or logged.  An integer request id used to reach the WAL encoder and
    fail-stop the service, failing the innocent request queued beside it
    and every later client; ``qos=-1`` was admitted as class -1.  A job id
    or class outside signed 64 bits does not fit the WAL's packed columns
    and would fail-stop it the same way."""
    capacity, jobs = _workload(n=3)
    config = ServiceConfig(capacity)

    async def run():
        service = AdmissionService(config, tmp_path)
        innocent = await service.enqueue(jobs[0], request_id="innocent")
        args = {"job": jobs[1], "request_id": "bad", **kw}
        job = args.pop("job")
        if "job_id" in args:
            job = replace(job, job_id=args.pop("job_id"))
        if "release" in args:  # only settable around Job's own check
            object.__setattr__(job, "release", args.pop("release"))
        with pytest.raises(error):
            await service.enqueue(job, **args)
        with pytest.raises(error):  # submit() is the same gate
            await service.submit(job, **args)
        service.start()
        first = await innocent
        later = await service.submit(jobs[2], request_id="later")
        await service.stop()
        return service, first, later

    service, first, later = asyncio.run(run())
    assert first.decision is not None and later.decision is not None
    stats = service.stats()
    assert stats["failed"] == 0 and stats["submitted"] == 2 and stats["queue_depth"] == 0
    assert [e.request_id for e in service.entries] == ["innocent", "later"]
    assert [e.request_id for e in recover(tmp_path, config).entries] == ["innocent", "later"]


# ----------------------------------------------------------------------
# A batch is what is waiting; a request is one row
# ----------------------------------------------------------------------


def _run_queued(config, wal_dir, jobs, **service_kw):
    """Queue every job before the drain loop starts, then serve and stop."""

    async def run():
        service = AdmissionService(config, wal_dir, **service_kw)
        futures = [
            await service.enqueue(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        service.start()
        answers = await asyncio.wait_for(asyncio.gather(*futures), 30)
        await service.stop()
        return service, answers

    return asyncio.run(run())


def test_everything_waiting_is_one_batch_one_fsync(tmp_path):
    capacity, jobs = _workload(seed=15, n=50)
    service, _ = _run_queued(ServiceConfig(capacity), tmp_path / "default", jobs)
    assert service.counters["batches"] == 1
    assert service.counters["batch_jobs"] == len(jobs)
    assert service.wal.syncs == 1 and service.wal.appends == 2

    # The cap still binds when a caller sets it.
    capped, _ = _run_queued(ServiceConfig(capacity, max_batch=4), tmp_path / "capped", jobs)
    assert capped.counters["batches"] == -(-len(jobs) // 4)
    assert capped.wal.syncs == capped.counters["batches"]


def test_default_max_batch_is_the_default_queue_limit():
    config = ServiceConfig(capacity=4)
    assert config.max_batch == config.queue_limit == 1024
    assert isinstance(config.max_batch, int)
    assert "max_batch" in ServiceConfig.__doc__


def test_batch_boundaries_never_change_decisions(tmp_path):
    capacity, jobs = _workload(seed=16, n=300)
    ledgers, acks, recovered = [], [], []
    for cap in (1, 7, 128, None):
        kw = {} if cap is None else {"max_batch": cap}
        config = ServiceConfig(capacity, **kw)
        wal_dir = tmp_path / f"cap-{cap}"
        service, answers = _run_queued(config, wal_dir, jobs)
        ledgers.append([(e.seq, e.request_id, e.decision) for e in service.entries])
        acks.append(
            [(a.request_id, a.outcome, a.seq, decision_to_tuple(a.decision)) for a in answers]
        )
        state = recover(wal_dir, config)
        recovered.append([(e.seq, e.request_id, e.decision) for e in state.entries])
    assert len(ledgers[0]) == len(jobs)
    assert all(ledger == ledgers[0] for ledger in ledgers)
    assert all(ack == acks[0] for ack in acks)
    assert all(ledger == ledgers[0] for ledger in recovered)


def test_service_decision_is_an_immutable_seven_field_record(tmp_path):
    assert ServiceDecision._fields == (
        "request_id", "outcome", "qos", "degraded", "decision", "seq", "late",
    )
    shed = ServiceDecision("r", ServiceOutcome.SHED, 2)
    assert (shed.degraded, shed.decision, shed.seq, shed.late) == (False, None, None, False)
    assert not shed.admitted
    assert ServiceDecision("r", ServiceOutcome.ADMITTED, 0).admitted
    with pytest.raises(AttributeError):
        shed.outcome = ServiceOutcome.ADMITTED
    with pytest.raises(AttributeError):
        shed.extra = 1

    # A late answer is the stored one but for ``outcome`` and ``late``.
    capacity, jobs = _workload(n=2)

    async def run():
        service = AdmissionService(ServiceConfig(capacity), tmp_path, decide=_slow_decide)
        service.start()
        answer = await service.submit(jobs[0], timeout=0.002, request_id="r0")
        await service.stop()
        return answer, service._seen["r0"]

    late, stored = asyncio.run(run())
    assert late.late and late.outcome is ServiceOutcome.TIMED_OUT
    assert stored.outcome in (ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED)
    assert late == stored._replace(outcome=late.outcome, late=True)


def _rows_alive(prefix):
    """The ledger rows in memory whose request id starts with ``prefix``."""
    gc.collect()
    return [
        o for o in gc.get_objects()
        if isinstance(o, LedgerEntry) and o.request_id.startswith(prefix)
    ]


def test_ledger_row_is_the_logged_object_and_pins_no_future(tmp_path):
    """The row ``enqueue`` builds is what the WAL is handed (it carries the
    caller's job object itself), and once acked neither its future nor the
    row is held: the ledger is the log."""
    capacity, jobs = _workload(seed=17, n=9)

    async def run():
        service = AdmissionService(ServiceConfig(capacity), tmp_path)
        logged = []
        append_jobs = service.wal.append_jobs

        def spy(entries, **kw):
            logged.extend((e.seq, e.request_id, e.job) for e in entries)
            return append_jobs(entries, **kw)

        service.wal.append_jobs = spy
        futures = [
            await service.enqueue(job, request_id=f"row-{i}")
            for i, job in enumerate(jobs)
        ]
        service.start()
        await asyncio.gather(*futures)
        refs = [weakref.ref(f) for f in futures]
        del futures
        await asyncio.sleep(0)  # the idle drain loop holds no batch either
        gc.collect()
        alive = [r for r in refs if r() is not None]
        rows = _rows_alive("row-")
        await service.stop()
        return alive, rows, logged, service

    alive, rows, logged, service = asyncio.run(run())
    assert not alive and not rows
    assert [(seq, rid) for seq, rid, _ in logged] == [
        (i + 1, f"row-{i}") for i in range(len(jobs))
    ]
    assert all(job is jobs[i] for i, (_, _, job) in enumerate(logged))
    assert service.stats()["ledger_entries"] == len(service.entries) == len(jobs)
    assert [e.seq for e in service.entries] == list(range(1, len(jobs) + 1))
    assert all(e.decision is not None for e in service.entries)


def test_a_client_that_drops_its_answers_leaves_no_ledger_rows(tmp_path):
    """Fire-and-forget requests: after the acks the service holds no
    ``LedgerEntry`` for them (it used to keep every row in ``entries``),
    and the durable ledger still has every one."""
    capacity, jobs = _workload(seed=23, n=40)

    async def run():
        service = AdmissionService(ServiceConfig(capacity, max_batch=8), tmp_path)
        service.start()
        for i, job in enumerate(jobs):
            await service.enqueue(job, request_id=f"dropped-{i}")
        while service.counters["acked"] < len(jobs):
            await asyncio.sleep(0.001)
        rows = _rows_alive("dropped-")
        await service.stop()
        return rows, service

    rows, service = asyncio.run(run())
    assert rows == []
    assert service.counters["batches"] > 1
    assert [e.request_id for e in service.entries] == [
        f"dropped-{i}" for i in range(len(jobs))
    ]


def test_a_fail_stop_chains_its_cause_to_every_refusal(tmp_path):
    """The exception that fail-stopped the service is the ``__cause__`` of
    the refusal a queued caller gets and of every later ``enqueue``'s."""
    capacity, jobs = _workload(n=4)
    boom = RuntimeError("decider broke")

    def broken(arbitrator, batch):
        raise boom

    async def run():
        service = AdmissionService(ServiceConfig(capacity), tmp_path, decide=broken)
        queued = [
            await service.enqueue(job, request_id=f"r{i}")
            for i, job in enumerate(jobs[:3])
        ]
        service.start()
        refusals = []
        for future in queued:
            with pytest.raises(ServiceUnavailableError) as queued_error:
                await future
            refusals.append(queued_error.value)
        with pytest.raises(ServiceUnavailableError) as later:
            await service.enqueue(jobs[3], request_id="r3")
        return refusals, later.value

    refusals, later = asyncio.run(run())
    assert all(error.__cause__ is boom for error in [*refusals, later])
    assert "decider broke" in str(later)


def test_fail_stop_after_a_partial_ack_resolves_nothing_twice(tmp_path):
    capacity, jobs = _workload(seed=18, n=6)
    config = ServiceConfig(capacity, checkpoint_every=1)

    async def run():
        service = AdmissionService(config, tmp_path)

        def broken_checkpoint():
            raise OSError("injected: checkpoint failed after the acks")

        service.checkpoint = broken_checkpoint
        futures = [
            await service.enqueue(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        service.start()
        task = service._task
        answers = await asyncio.wait_for(asyncio.gather(*futures), 30)
        await asyncio.wait_for(task, 30)  # the handler itself raised nothing
        return service, answers, task

    service, answers, task = asyncio.run(run())
    assert task.exception() is None
    assert service.stats()["failed"] == 1
    # Every request was acked — durably — before the failure, and stays so.
    assert all(a.decision is not None for a in answers)
    assert [service._seen[f"req-{i}"] for i in range(len(jobs))] == list(answers)


# ----------------------------------------------------------------------
# Lifecycle: no future is ever left pending
# ----------------------------------------------------------------------


def test_stop_under_backpressure_decides_every_accepted_request(tmp_path):
    capacity, jobs = _workload(seed=19, n=12)
    config = ServiceConfig(capacity, queue_limit=4, degrade_occupancy=9.0)

    async def run():
        service = AdmissionService(config, tmp_path)
        service.start()
        callers = [
            asyncio.ensure_future(service.enqueue(job, request_id=f"req-{i}"))
            for i, job in enumerate(jobs)
        ]
        await asyncio.sleep(0)  # four rows landed, eight callers are blocked
        assert sum(caller.done() for caller in callers) == config.queue_limit
        await asyncio.wait_for(service.stop(), 30)
        done, pending = await asyncio.wait(callers, timeout=5)
        assert not pending  # every enqueue() returned
        futures = [caller.result() for caller in callers]
        assert all(f.done() for f in futures)  # and every future resolved
        with pytest.raises(ServiceUnavailableError):
            await service.enqueue(jobs[0], request_id="after-stop")
        return service, [f.result() for f in futures]

    service, answers = asyncio.run(run())
    assert [a.request_id for a in answers] == [f"req-{i}" for i in range(len(jobs))]
    assert all(a.decision is not None for a in answers)
    assert len(service.entries) == len(jobs)
    assert service.wal._fd < 0 and service.stats()["queue_depth"] == 0
    direct = make_arbitrator(config)
    for job, answer in zip(jobs, answers):
        assert decision_to_tuple(answer.decision) == decision_to_tuple(direct.submit(job))


def test_caller_blocked_in_backpressure_survives_a_kill(tmp_path):
    capacity, jobs = _workload(seed=19, n=6)
    config = ServiceConfig(capacity, queue_limit=2)

    async def run():
        service = AdmissionService(config, tmp_path)  # never started: queue fills
        callers = [
            asyncio.ensure_future(service.enqueue(job, request_id=f"req-{i}"))
            for i, job in enumerate(jobs)
        ]
        await asyncio.sleep(0)
        service.kill()
        done, pending = await asyncio.wait(callers, timeout=5)
        assert not pending
        for caller in callers:
            with pytest.raises(ServiceUnavailableError):
                await asyncio.wait_for(caller.result(), 5)
        return service

    service = asyncio.run(run())
    assert not service._seen and service.stats()["queue_depth"] == 0


def test_auto_request_ids_do_not_collide_across_lives(tmp_path, monkeypatch):
    import itertools

    import repro.service.service as service_module

    capacity, jobs = _workload(seed=20, n=6)
    config = ServiceConfig(capacity)

    async def life(recovered, batch):
        service = AdmissionService(config, tmp_path, recovered=recovered)
        service.start()
        answers = [await service.submit(job) for job in batch]
        await service.stop()
        return service, answers

    first, _ = asyncio.run(life(None, jobs[:3]))
    assert first.counters["duplicates"] == 0
    # A new process starts every module-level counter again; ids must not
    # depend on one (this was ``_request_ids``, and the second life's three
    # new jobs were answered with the first life's decisions).
    monkeypatch.setattr(service_module, "_request_ids", itertools.count(), raising=False)
    second, answers = asyncio.run(life(recover(tmp_path, config), jobs[3:]))
    assert second.counters["duplicates"] == 0
    assert len(second.entries) == 6
    assert len({e.request_id for e in second.entries}) == 6
    assert [a.decision.job_id for a in answers] == [j.job_id for j in jobs[3:]]
    assert [a.seq for a in answers] == [4, 5, 6]


def test_caller_cancelled_in_backpressure_leaves_no_orphan_future(tmp_path):
    capacity, jobs = _workload(seed=19, n=3)
    config = ServiceConfig(capacity, queue_limit=1, degrade_occupancy=9.0)

    async def run():
        service = AdmissionService(config, tmp_path)  # not started: the queue stays full
        first = await service.enqueue(jobs[0], request_id="a")
        blocked = asyncio.ensure_future(service.enqueue(jobs[1], request_id="b"))
        await asyncio.sleep(0)
        blocked.cancel()
        await asyncio.wait([blocked], timeout=5)
        assert blocked.cancelled() and "b" not in service._seen
        service.start()
        retry = await asyncio.wait_for(service.submit(jobs[1], request_id="b"), 5)
        await first
        await service.stop()
        return service, retry

    service, retry = asyncio.run(run())
    assert retry.decision is not None and service.counters["duplicates"] == 0
    assert [e.request_id for e in service.entries] == ["a", "b"]


def test_backpressure_waiters_land_in_order_and_pass_on_a_wake_up(tmp_path):
    """Blocked callers land oldest first; one that times out is skipped, and
    one cancelled after its wake-up hands that wake-up to the next caller,
    which would otherwise wait on an idle service."""
    capacity, jobs = _workload(seed=19, n=5)
    config = ServiceConfig(capacity, queue_limit=1, degrade_occupancy=9.0)
    callers: dict[str, asyncio.Future] = {}

    def decide(arbitrator, batch):
        if not callers["a"].done():
            callers["a"].cancel()  # woken by this batch, not yet running
        return arbitrator.admit_batch(list(batch))

    async def run():
        service = AdmissionService(config, tmp_path, decide=decide)  # not started
        first = await service.enqueue(jobs[0], request_id="x")
        for rid, job, timeout in (("a", jobs[1], None), ("late", jobs[2], 0.01),
                                  ("b", jobs[3], None), ("c", jobs[4], None)):
            callers[rid] = asyncio.ensure_future(
                service.enqueue(job, request_id=rid, timeout=timeout)
            )
        await asyncio.sleep(0.05)  # "late" gives up in backpressure
        late = callers["late"].result().result()
        service.start()
        await asyncio.wait_for(first, 5)
        answers = [
            await asyncio.wait_for(await asyncio.wait_for(callers[rid], 5), 5)
            for rid in ("b", "c")
        ]
        await service.stop()
        return service, late, answers

    service, late, answers = asyncio.run(run())
    assert late.outcome is ServiceOutcome.TIMED_OUT
    assert service.counters["timed_out_backpressure"] == 1
    assert callers["a"].cancelled() and all(a.decision is not None for a in answers)
    assert [e.request_id for e in service.entries] == ["x", "b", "c"]
