"""Crash recovery: bit-identical replay, audit gating, idempotence."""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import VerificationError, WalCorruptionError
from repro.service.chaos import _arm_checkpoint_tear, chaos_workload
from repro.service.recovery import recover
from repro.service.service import AdmissionService, ServiceConfig, make_arbitrator
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    decision_to_tuple,
    read_wal,
)
from repro.verify.checks import verify_replay
from repro.workloads.synthetic import SyntheticParams


def _workload(seed=21, n=14, malleable=False):
    return chaos_workload(random.Random(seed), n, malleable)


def _run_service(
    config, wal_dir, jobs, *, kill_after=None, decide=None, tear_checkpoint=None
):
    async def run():
        kw = {} if decide is None else {"decide": decide}
        service = AdmissionService(config, wal_dir, **kw)
        if tear_checkpoint is not None:
            _arm_checkpoint_tear(service, tear_checkpoint, 0.5)
        service.start()
        answers = []
        for i, job in enumerate(jobs):
            fut = await service.enqueue(job, request_id=f"req-{i}")
            answers.append(fut)
            # Lock-step with the drain loop: wait until everything
            # enqueued so far is acked, so kill_after fires at a
            # deterministic point in the decision sequence.
            for _ in range(2000):
                if (
                    service.counters["acked"] >= len(answers)
                    or not service.running
                ):
                    break
                await asyncio.sleep(0.0002)
            if kill_after is not None and service.counters["acked"] >= kill_after:
                service.kill()
                break
            if not service.running:
                break  # fail-stopped (an injected fault)
        if service.running:
            await service.stop()
        done = [f.result() for f in answers if f.done() and not f.exception()]
        return service, done

    return asyncio.run(run())


def test_recover_reproduces_graceful_ledger_bit_identically(tmp_path):
    capacity, jobs = _workload()
    config = ServiceConfig(capacity=capacity)
    service, _ = _run_service(config, tmp_path, jobs)

    state = recover(tmp_path, config)
    assert state.report.ok and state.redecided == 0
    assert [(e.seq, e.request_id, e.decision) for e in state.entries] == [
        (e.seq, e.request_id, e.decision) for e in service.entries
    ]
    assert [decision_to_tuple(d) for d in state.decisions] == [
        e.decision for e in service.entries
    ]


def test_recover_after_kill_preserves_every_acked_decision(tmp_path):
    capacity, jobs = _workload(seed=22, n=20)
    config = ServiceConfig(capacity=capacity, max_batch=2)
    _, acked = _run_service(config, tmp_path, jobs, kill_after=6)
    assert acked  # the crash happened mid-run, with acks outstanding

    state = recover(tmp_path, config)
    by_rid = {e.request_id: e.decision for e in state.entries}
    for answer in acked:
        if answer.decision is not None:
            assert by_rid[answer.request_id] == decision_to_tuple(answer.decision)

    # Idempotent: recovering again changes nothing.
    again = recover(tmp_path, config)
    assert [(e.seq, e.decision) for e in again.entries] == [
        (e.seq, e.decision) for e in state.entries
    ]


def test_recover_redecides_torn_decision_append_and_persists_it(tmp_path):
    capacity, jobs = _workload(seed=23, n=10)
    config = ServiceConfig(capacity=capacity, max_batch=2)

    def run_with_tear():
        async def run():
            service = AdmissionService(config, tmp_path)
            service.wal.partial_write_after = 4  # the 2nd decision append
            service.start()
            futures = [
                await service.enqueue(job, request_id=f"req-{i}")
                for i, job in enumerate(jobs)
            ]
            for fut in futures:
                fut.add_done_callback(lambda f: f.exception())
            while service.running:
                await asyncio.sleep(0.001)
            return service

        return asyncio.run(run())

    run_with_tear()
    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated > 0  # the torn frame is on disk

    state = recover(tmp_path, config)
    assert state.redecided > 0 and state.truncated_bytes > 0
    assert all(e.decision is not None for e in state.entries)

    # The re-decided tail was durably re-logged: a second recovery has
    # nothing left to decide and agrees bit-for-bit.
    again = recover(tmp_path, config)
    assert again.redecided == 0 and again.truncated_bytes == 0
    assert [(e.seq, e.decision) for e in again.entries] == [
        (e.seq, e.decision) for e in state.entries
    ]


def test_recover_uses_checkpoint_and_watermark(tmp_path):
    capacity, jobs = _workload(seed=24, n=16)
    config = ServiceConfig(capacity=capacity, max_batch=4, checkpoint_every=4)
    service, _ = _run_service(config, tmp_path, jobs)
    assert service.counters["checkpoints"] >= 1

    state = recover(tmp_path, config)
    assert state.report.ok
    assert [(e.seq, e.decision) for e in state.entries] == [
        (e.seq, e.decision) for e in service.entries
    ]


def test_torn_checkpoint_append_recovers_and_the_next_checkpoint_commits(tmp_path):
    capacity, jobs = _workload(seed=30, n=24)
    config = ServiceConfig(capacity=capacity, max_batch=4, checkpoint_every=4)

    service, _ = _run_service(config, tmp_path, jobs, tear_checkpoint=3)
    assert service.stats()["failed"] and service.counters["checkpoints"] == 2
    log = tmp_path / "checkpoint.log"
    torn_size = log.stat().st_size
    records, _ = read_wal(tmp_path / "wal.log")
    assert len(records) > 1  # the WAL was not truncated under the torn append

    state = recover(tmp_path, config)
    assert state.report.ok and log.stat().st_size == torn_size
    assert [(e.seq, e.decision) for e in state.entries] == [
        (e.seq, e.decision) for e in service.entries
    ]

    # Restarted with checkpoints still on: the next one cuts the torn tail
    # and commits; the finished ledger recovers from checkpoint + WAL.
    async def finish():
        restarted = AdmissionService(config, tmp_path, recovered=state)
        restarted.start()
        for i, job in enumerate(jobs):
            await restarted.submit(job, request_id=f"req-{i}")
        await restarted.stop()
        return restarted

    restarted = asyncio.run(finish())
    assert restarted.counters["checkpoints"] >= 1
    final = recover(tmp_path, config)
    assert final.report.ok and len(final.entries) == len(jobs)
    assert [(e.seq, e.decision) for e in final.entries] == [
        (e.seq, e.decision) for e in restarted.entries
    ]


def _ledger(entries):
    return [(e.seq, e.request_id, e.decision) for e in entries]


@pytest.fixture(scope="module")
def checkpointed_runs(tmp_path_factory):
    """Three runs with >= 2 committed checkpoints each: one stopped right
    after a checkpoint (the WAL holds nothing but its base record), one
    killed with decisions still only in the WAL, one that died inside its
    third checkpoint append (uncommitted tail, WAL not truncated)."""
    runs = []
    for name, n, how in (
        ("at-watermark", 16, {}),
        ("mid-wal", 22, {"kill_after": 19}),
        ("torn-append", 16, {"tear_checkpoint": 3}),
    ):
        directory = tmp_path_factory.mktemp(name)
        capacity, jobs = _workload(seed=31, n=n)
        config = ServiceConfig(capacity=capacity, max_batch=4, checkpoint_every=4)
        service, _ = _run_service(config, directory, jobs, **how)
        assert service.counters["checkpoints"] >= 2
        reference = _ledger(recover(directory, config).entries)
        assert reference == _ledger(service.entries)
        runs.append((directory, config, reference))
    at_watermark, mid_wal, torn = (read_wal(d / "wal.log")[0] for d, _, _ in runs)
    assert [r["k"] for r in at_watermark] == ["base"]
    assert len(mid_wal) > 1 and len(torn) > 1
    return runs


def _recover_damaged(run, damage):
    """Recover a copy of ``run`` whose checkpoint.log went through
    ``damage(bytes) -> bytes``: the reference ledger or a refusal, never
    a silently different ledger."""
    directory, config, reference = run
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "wal"
        shutil.copytree(directory, copy)
        log = copy / "checkpoint.log"
        log.write_bytes(damage(log.read_bytes()))
        try:
            state = recover(copy, config)
        except WalCorruptionError:
            return
        assert _ledger(state.entries) == reference


@given(which=st.integers(0, 2), where=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoint_log_never_recovers_a_different_ledger(
    checkpointed_runs, which, where
):
    _recover_damaged(
        checkpointed_runs[which], lambda data: data[: int(where * len(data))]
    )


@given(
    which=st.integers(0, 2),
    where=st.floats(0.0, 1.0, exclude_max=True),
    mask=st.integers(1, 255),
)
def test_flipped_checkpoint_byte_never_recovers_a_different_ledger(
    checkpointed_runs, which, where, mask
):
    def flip(data):
        at = int(where * len(data))
        return data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]

    _recover_damaged(checkpointed_runs[which], flip)


def test_restart_from_recovered_state_continues_the_sequence(tmp_path):
    capacity, jobs = _workload(seed=25, n=18)
    config = ServiceConfig(capacity=capacity, max_batch=2)
    _run_service(config, tmp_path, jobs, kill_after=5)
    state = recover(tmp_path, config)
    decided_before = len(state.entries)
    assert 0 < decided_before < len(jobs)

    async def retry_everything():
        service = AdmissionService(config, tmp_path, recovered=state)
        service.start()
        answers = [
            await service.submit(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        await service.stop()
        return service, answers

    service, answers = asyncio.run(retry_everything())
    assert service.counters["duplicates"] == decided_before
    final = recover(tmp_path, config)
    assert final.report.ok
    assert len(final.entries) == len(jobs)
    assert len({e.request_id for e in final.entries}) == len(jobs)
    by_rid = {e.request_id: e.decision for e in final.entries}
    for i, answer in enumerate(answers):
        assert by_rid[f"req-{i}"] == decision_to_tuple(answer.decision)


def test_recovery_rejects_a_ledger_that_cannot_be_reproduced(tmp_path):
    capacity, jobs = _workload(seed=26, n=4)
    config = ServiceConfig(capacity=capacity)
    wal = WriteAheadLog(tmp_path)
    entries = [
        LedgerEntry(seq=i + 1, request_id=f"req-{i}", qos=0, degraded=False, job=job)
        for i, job in enumerate(jobs)
    ]
    wal.append_jobs(entries)
    # Log decisions that no deterministic replay could produce.
    wal.append_decisions(
        [e.seq for e in entries],
        [(True, 0, ((123.0, 999, 1.0),))] * len(entries),
    )
    wal.close()
    with pytest.raises(VerificationError):
        recover(tmp_path, config)


def test_recovery_rejects_checkpoint_hiding_undecided_entries(tmp_path):
    import hashlib

    from repro.service.wal import WAL_VERSION, _encode, _jobs_frame, write_checkpoint

    capacity, jobs = _workload(seed=27, n=2)
    config = ServiceConfig(capacity=capacity)
    entries = [
        LedgerEntry(seq=1, request_id="req-0", qos=0, degraded=False, job=jobs[0])
    ]
    # The writer refuses (a real error, not an assert ``-O`` would strip),
    # and only over the delta above the last watermark.
    with pytest.raises(WalCorruptionError, match="undecided entry seq 1"):
        write_checkpoint(tmp_path, entries)
    assert (tmp_path / "checkpoint.log").stat().st_size == 0

    # A committed segment whose jobs record has no decision: only another
    # writer could produce it, and recover() refuses it too.
    segment = _jobs_frame(entries)
    mark = {"k": "mark", "v": WAL_VERSION, "through_seq": 1, "count": 1,
            "sha256": hashlib.sha256(segment).hexdigest()}
    (tmp_path / "checkpoint.log").write_bytes(segment + _encode(mark))
    with pytest.raises(WalCorruptionError, match="hides undecided entry"):
        recover(tmp_path, config)


def test_recovered_jobs_share_chain_objects_within_a_frame(tmp_path):
    """One template's chains come back as one set of objects per frame —
    a checkpoint segment and a WAL batch alike — and no frame borrows
    from another."""
    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    jobs = [params.tunable_job(float(i)) for i in range(12)]
    config = ServiceConfig(capacity=64)

    async def run():
        service = AdmissionService(config, tmp_path)
        service.start()
        for half in (jobs[:6], jobs[6:]):  # one batch each
            futures = [
                await service.enqueue(job, request_id=f"req-{job.job_id}")
                for job in half
            ]
            await asyncio.gather(*futures)
            if half is jobs[:6]:
                service.checkpoint()
        await service.stop()
        return service

    service = asyncio.run(run())
    assert service.counters["batches"] == 2
    state = recover(tmp_path, config)
    assert _ledger(state.entries) == _ledger(service.entries)
    checkpointed, logged = state.entries[:6], state.entries[6:]
    for frame in (checkpointed, logged):
        assert all(e.job.chains is frame[0].job.chains for e in frame)
    assert all(
        a is not b
        for a, b in zip(checkpointed[0].job.chains, logged[0].job.chains)
    )


def test_service_checkpoint_guards_only_the_delta(tmp_path):
    capacity, jobs = _workload(seed=29, n=12)
    config = ServiceConfig(capacity=capacity, max_batch=4, checkpoint_every=4)
    service, _ = _run_service(config, tmp_path, jobs)
    assert service.counters["checkpoints"] >= 2
    # An undecided entry *below* the watermark is history the checkpoint
    # no longer looks at; one above it stops the checkpoint cold.
    service.entries[0].decision = None
    service.entries.append(
        LedgerEntry(seq=service.entries[-1].seq + 1, request_id="late",
                    qos=0, degraded=False, job=jobs[0])
    )
    before = (tmp_path / "checkpoint.log").read_bytes()
    with pytest.raises(WalCorruptionError, match="undecided entry"):
        service.checkpoint()
    assert (tmp_path / "checkpoint.log").read_bytes() == before


def test_verify_replay_flags_divergence_and_audits(tmp_path):
    capacity, jobs = _workload(seed=28, n=6)
    config = ServiceConfig(capacity=capacity)
    reference = make_arbitrator(config)
    expected = [decision_to_tuple(reference.submit(job)) for job in jobs]

    decisions, report = verify_replay(
        make_arbitrator(config), list(jobs), expected
    )
    assert report.ok and len(decisions) == len(jobs)

    tampered = list(expected)
    tampered[0] = (not expected[0][0], None, ())
    with pytest.raises(VerificationError):
        verify_replay(make_arbitrator(config), list(jobs), tampered)
    with pytest.raises(VerificationError):
        verify_replay(make_arbitrator(config), list(jobs), expected[:-1])
