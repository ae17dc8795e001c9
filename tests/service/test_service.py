"""The asyncio front-end: batching, dedup, shedding, degrade, deadlines,
retry/backoff, and fail-stop semantics."""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import replace

import pytest

from repro.core.policies import TieBreakPolicy
from repro.core.profile import PROFILE_BACKENDS
from repro.core.resources import ProcessorTimeRequest
from repro.errors import (
    ConfigurationError,
    InvalidTaskError,
    ServiceUnavailableError,
    TransientWorkerError,
)
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
from repro.service.wal import decision_to_tuple


def _workload(seed=11, n=12, malleable=False):
    return chaos_workload(random.Random(seed), n, malleable)


def _config(capacity, **kw):
    kw.setdefault("backoff_base", 0.0002)
    kw.setdefault("backoff_cap", 0.002)
    return ServiceConfig(capacity=capacity, **kw)


def _slow_decide(arbitrator, batch):
    time.sleep(0.01)
    return arbitrator.admit_batch(list(batch))


async def _submit_all(service, jobs, **kw):
    service.start()
    out = []
    for i, job in enumerate(jobs):
        out.append(await service.submit(job, request_id=f"req-{i}", **kw))
    return out


def test_random_tie_break_policy_is_rejected():
    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=4, policy=TieBreakPolicy.RANDOM)
    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=4, queue_limit=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=4, degrade_keep=0)


def test_unknown_backend_is_rejected_before_the_wal_is_touched(tmp_path):
    """The name is checked when the config is built: a config that
    survived to ``AdmissionService``/``recover`` would have created
    ``wal.log`` (or repaired a torn tail) before ``make_arbitrator``
    raised."""
    with pytest.raises(ConfigurationError) as err:
        ServiceConfig(capacity=8, backend="bogus")
    for name in PROFILE_BACKENDS:
        assert repr(name) in str(err.value)
    good = _config(8)
    with pytest.raises(ConfigurationError):
        replace(good, backend="bogus")
    assert list(tmp_path.iterdir()) == []


def test_service_decisions_match_direct_serial_arbitrator(tmp_path):
    capacity, jobs = _workload()
    config = _config(capacity)

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
    config = _config(capacity, max_batch=8)

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
    config = _config(capacity)

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
    config = _config(
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
    config = _config(capacity, degrade_occupancy=0.0, degrade_keep=1)

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
        expected, changed = degrade_job(job, 1)
        assert changed
        assert entry.job.chains == expected.chains


def test_degrade_job_keeps_cheapest_chain():
    _, jobs = _workload(seed=14, n=8)
    multi = [j for j in jobs if len(j.chains) > 1]
    for job in multi:
        narrowed, changed = degrade_job(job, 1)
        assert changed and len(narrowed.chains) == 1

        def cost(chain):
            return sum(t.processors * t.duration for t in chain.tasks)

        assert cost(narrowed.chains[0]) == min(cost(c) for c in job.chains)
    single = [j for j in jobs if len(j.chains) == 1]
    for job in single:
        assert degrade_job(job, 1) == (job, False)


def test_queue_deadline_expires_before_decision(tmp_path):
    capacity, jobs = _workload(n=3)
    config = _config(capacity)

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
    config = _config(capacity)

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


def test_retry_backoff_is_deterministic_under_seed(tmp_path):
    capacity, jobs = _workload(n=6)

    def runs(seed):
        fails = {"left": 4}

        def flaky(arbitrator, batch):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise TransientWorkerError("injected")
            return arbitrator.admit_batch(list(batch))

        config = _config(capacity, seed=seed, max_attempts=8)

        async def run():
            service = AdmissionService(
                config, tmp_path / f"s{seed}-{fails['left']}", decide=flaky
            )
            await _submit_all(service, jobs)
            await service.stop()
            return service.counters

        return asyncio.run(run())

    a = runs(5)
    b = runs(5)
    c = runs(6)
    assert a["retries"] == b["retries"] == 4
    assert a["retry_backoff_total"] == b["retry_backoff_total"] > 0
    assert c["retry_backoff_total"] != a["retry_backoff_total"]  # jitter reseeded


def test_permanent_worker_failure_fail_stops(tmp_path):
    capacity, jobs = _workload(n=4)
    config = _config(capacity, max_attempts=2)

    def broken(arbitrator, batch):
        raise TransientWorkerError("permanently down")

    async def run():
        service = AdmissionService(config, tmp_path, decide=broken)
        service.start()
        with pytest.raises(ServiceUnavailableError):
            await service.submit(jobs[0], request_id="r0")
        assert not service.running
        with pytest.raises(ServiceUnavailableError):
            await service.enqueue(jobs[1], request_id="r1")
        return service

    service = asyncio.run(run())
    assert service.stats()["failed"] == 1
    assert service.counters["retries"] == 2  # both attempts failed
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
    config = _config(8)

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
    direct = make_arbitrator(replace(config, backend="scalar"))
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
    config = _config(16)
    service, answers = _run_queued(config, tmp_path, jobs)
    assert [a.outcome for a in answers] == [ServiceOutcome.ADMITTED] * 2
    stats = service.stats()
    assert stats["batches"] == 1 and stats["acked"] == 2 and stats["failed"] == 0
    assert [d.admitted for d in recover(tmp_path, config).decisions] == [True, True]


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
    ],
    ids=["int-id", "bytes-id", "bool-qos", "float-qos", "negative-qos", "huge-qos",
         "not-a-job", "huge-job-id", "huge-negative-job-id"],
)
def test_a_malformed_request_is_refused_to_its_caller_alone(tmp_path, error, kw):
    """``enqueue`` checks its arguments before anything is queued, counted
    or logged.  An integer request id used to reach the WAL encoder and
    fail-stop the service, failing the innocent request queued beside it
    and every later client; ``qos=-1`` was admitted as class -1.  A job id
    or class outside signed 64 bits does not fit the WAL's packed columns
    and would fail-stop it the same way."""
    capacity, jobs = _workload(n=3)
    config = _config(capacity)

    async def run():
        service = AdmissionService(config, tmp_path)
        innocent = await service.enqueue(jobs[0], request_id="innocent")
        args = {"job": jobs[1], "request_id": "bad", **kw}
        job = args.pop("job")
        if "job_id" in args:
            job = replace(job, job_id=args.pop("job_id"))
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
    service, _ = _run_queued(_config(capacity), tmp_path / "default", jobs)
    assert service.counters["batches"] == 1
    assert service.counters["batch_jobs"] == len(jobs)
    assert service.wal.syncs == 1 and service.wal.appends == 2

    # The cap still binds when a caller sets it.
    capped, _ = _run_queued(_config(capacity, max_batch=4), tmp_path / "capped", jobs)
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
        config = _config(capacity, **kw)
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
        service = AdmissionService(_config(capacity), tmp_path, decide=_slow_decide)
        service.start()
        answer = await service.submit(jobs[0], timeout=0.002, request_id="r0")
        await service.stop()
        return answer, service._seen["r0"]

    late, stored = asyncio.run(run())
    assert late.late and late.outcome is ServiceOutcome.TIMED_OUT
    assert stored.outcome in (ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED)
    assert late == stored._replace(outcome=late.outcome, late=True)


def test_ledger_row_is_the_logged_object_and_pins_no_future(tmp_path):
    import gc
    import weakref

    capacity, jobs = _workload(seed=17, n=9)

    async def run():
        service = AdmissionService(_config(capacity), tmp_path)
        logged = []
        append_jobs = service.wal.append_jobs

        def spy(entries, **kw):
            logged.extend(entries)
            return append_jobs(entries, **kw)

        service.wal.append_jobs = spy
        futures = [
            await service.enqueue(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        service.start()
        await asyncio.gather(*futures)
        refs = [weakref.ref(f) for f in futures]
        del futures
        await asyncio.sleep(0)  # the idle drain loop holds no batch either
        gc.collect()
        alive = [r for r in refs if r() is not None]
        rows_are_logged = len(logged) == len(service.entries) and all(
            a is b for a, b in zip(logged, service.entries)
        )
        await service.stop()
        return alive, rows_are_logged, service

    alive, rows_are_logged, service = asyncio.run(run())
    assert not alive
    assert rows_are_logged
    assert [e.seq for e in service.entries] == list(range(1, len(jobs) + 1))
    assert all(e.decision is not None for e in service.entries)


def test_fail_stop_after_a_partial_ack_resolves_nothing_twice(tmp_path):
    capacity, jobs = _workload(seed=18, n=6)
    config = _config(capacity, checkpoint_every=1)

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


def test_kill_during_retry_backoff_resolves_the_in_flight_batch(tmp_path):
    capacity, jobs = _workload(n=2)
    config = _config(capacity, backoff_base=0.05, backoff_cap=0.25)

    def flaky(arbitrator, batch):
        raise TransientWorkerError("injected")

    async def run():
        service = AdmissionService(config, tmp_path, decide=flaky)
        service.start()
        future = await service.enqueue(jobs[0], request_id="a")
        await asyncio.sleep(0.02)  # the batch now sleeps in its backoff
        assert service.counters["retries"] == 1 and not future.done()
        service.kill()
        with pytest.raises(ServiceUnavailableError):
            await asyncio.wait_for(future, 5)
        return service, future

    service, future = asyncio.run(run())
    assert future.done()
    assert "a" not in service._seen


def test_stop_under_backpressure_decides_every_accepted_request(tmp_path):
    capacity, jobs = _workload(seed=19, n=12)
    config = _config(capacity, queue_limit=4, degrade_occupancy=9.0)

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
    config = _config(capacity, queue_limit=2)

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
    config = _config(capacity)

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
    config = _config(capacity, queue_limit=1, degrade_occupancy=9.0)

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
    config = _config(capacity, queue_limit=1, degrade_occupancy=9.0)
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
