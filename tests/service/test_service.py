"""The asyncio front-end: batching, dedup, shedding, degrade, deadlines,
retry/backoff, and fail-stop semantics."""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest

from repro.core.policies import TieBreakPolicy
from repro.core.profile import PROFILE_BACKENDS
from repro.errors import (
    ConfigurationError,
    ServiceUnavailableError,
    TransientWorkerError,
)
from repro.service.chaos import chaos_workload
from repro.service.service import (
    AdmissionService,
    ServiceConfig,
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

    def slow_decide(arbitrator, batch):
        import time

        time.sleep(0.01)
        return arbitrator.admit_batch(list(batch))

    async def run():
        service = AdmissionService(config, tmp_path, decide=slow_decide)
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
