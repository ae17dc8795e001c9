"""WAL framing, the packed ``jobs`` and ``dec`` records, torn-tail
semantics, checkpoints, and the fail-point."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.admission import AdmissionDecision
from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import TIME_LIMIT, ProcessorTimeRequest
from repro.errors import WalCorruptionError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.service import wal
from repro.service.recovery import recover
from repro.service.service import ServiceConfig, degrade_job, make_arbitrator
from repro.service.wal import (
    WAL_VERSION,
    LedgerEntry,
    WriteAheadLog,
    _decisions_frame,
    _encode,
    _jobs_frame,
    decision_to_tuple,
    read_checkpoint,
    read_wal,
    records_to_entries,
    write_checkpoint,
)
from repro.sim.persistence import chain_to_dict, job_to_dict
from repro.verify.fuzz import random_case
from repro.workloads.synthetic import SyntheticParams


def _entries(n=3, seed=0):
    case = random_case(random.Random(seed), max_jobs=max(n, 2))
    jobs = (list(case.jobs) * n)[:n]
    return [
        LedgerEntry(seq=i + 1, request_id=f"r{i}", qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, job in enumerate(jobs)
    ]


def _columns(entries):
    """Contiguously numbered ``entries`` as the columns
    :meth:`WriteAheadLog.append_jobs` takes."""
    return (
        entries[0].seq if entries else 1, [e.request_id for e in entries],
        [e.qos for e in entries], [e.degraded for e in entries], [e.job for e in entries],
    )


def _decisions(tuples):
    """An :class:`AdmissionDecision` for each ledger form in ``tuples``,
    what :meth:`WriteAheadLog.append_decisions` takes."""
    out = []
    for admitted, chain, placed in tuples:
        if not admitted:
            out.append(AdmissionDecision(0, False, None, "no fit"))
            continue
        tasks = [TaskSpec(f"t{i}", ProcessorTimeRequest(w, d)) for i, (_, w, d) in enumerate(placed)]
        placements = [Placement(t, *cell) for t, cell in zip(tasks, placed)]
        out.append(AdmissionDecision(
            0, True, ChainPlacement(0, chain, TaskChain(tasks), placements, 0.0)
        ))
    return out


def jobs_record(entries):
    """The ``jobs`` record :meth:`WriteAheadLog.append_jobs` logs for
    ``entries``, as the reader parses it."""
    return json.loads(_jobs_frame(*_columns(entries))[9:])


def _pack(typecode, values):
    """One packed column as the reader finds it in a parsed record."""
    return wal._pack(typecode, values).decode("ascii")


def dec_record(seqs, decisions):
    """The ``dec`` record :meth:`WriteAheadLog.append_decisions` logs, as
    the reader parses it."""
    return json.loads(_decisions_frame(seqs, _decisions(decisions))[9:])


DEC = (True, 0, ((0.0, 2, 3.0), (3.0, 1, 1.5)))
REJ = (False, None, ())


def _log(wal, entries):
    """Log decided ``entries`` as the service does: a ``jobs`` frame, then
    a ``dec`` frame and its fsync."""
    wal.append_jobs(*_columns(entries), sync=False)
    wal.append_decisions([e.seq for e in entries], _decisions([e.decision for e in entries]))


def _jobs_as_written(entries):
    """Each job as the archival dict, compared by ``repr`` so ``-0.0`` and
    ``0.0`` differ."""
    return [repr(job_to_dict(e.job)) for e in entries]


def _sharing(entries):
    """Each job's chains as the position of that chain object's first
    occurrence: which jobs share which chain objects."""
    first: dict[int, int] = {}
    return [[first.setdefault(id(c), len(first)) for c in e.job.chains] for e in entries]


def test_wal_round_trips_jobs_and_decisions(tmp_path):
    entries = _entries(3)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*_columns(entries))
    wal.append_decisions([1, 2, 3], _decisions([DEC, REJ, DEC]))
    wal.close()

    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated == 0
    loaded = records_to_entries(records)
    assert [(e.seq, e.request_id, e.qos, e.degraded) for e in loaded] == [
        (e.seq, e.request_id, e.qos, e.degraded) for e in entries
    ]
    assert [e.decision for e in loaded] == [DEC, REJ, DEC]
    assert [job_to_dict(e.job) for e in loaded] == [
        job_to_dict(e.job) for e in entries
    ]


def test_jobs_from_one_frame_share_chain_objects(tmp_path):
    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    jobs = [params.tunable_job(float(i)) for i in range(4)]
    assert jobs[0].chains[0] is jobs[1].chains[0]  # one template's chains
    entries = [LedgerEntry(i + 1, f"r{i}", 0, False, j) for i, j in enumerate(jobs)]
    assert len(jobs_record(entries)["chains"]) == len(jobs[0].chains)

    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*_columns(entries[:2]))
    wal.append_jobs(*_columns(entries[2:]))
    wal.close()
    a, b, c, d = (e.job for e in records_to_entries(read_wal(tmp_path / "wal.log")[0]))
    # Equal reference lists share one tuple of shared chain objects ...
    assert a.chains is b.chains and c.chains is d.chains
    # ... and a frame needs nothing from the one before it.
    assert all(x is not y for x, y in zip(a.chains, c.chains))
    assert [job_to_dict(j) for j in (a, b, c, d)] == [job_to_dict(j) for j in jobs]


def test_equal_but_distinct_chains_stay_distinct():
    """Interning is by identity: two chains that compare equal (qualities
    ``0.0`` and ``-0.0``) are two table entries and decode as two objects."""
    def chain(quality):
        task = TaskSpec("t", ProcessorTimeRequest(2, 1.0), quality=quality)
        return TaskChain((task,), label="c")

    zero, negative = chain(0.0), chain(-0.0)
    assert zero == negative and zero is not negative
    entries = [
        LedgerEntry(1, "a", 0, False, Job(chains=(zero,), release=0.0, job_id=1)),
        LedgerEntry(2, "b", 0, False, Job(chains=(negative, zero), release=1.0, job_id=2)),
    ]
    record = jobs_record(entries)
    assert record["ref"] == [[0], [1, 0]] and len(record["chains"]) == 2
    a, b = (e.job for e in records_to_entries([record]))
    assert b.chains[1] is a.chains[0] and b.chains[0] is not a.chains[0]
    assert math.copysign(1.0, b.chains[0].tasks[0].quality) == -1.0
    assert _jobs_as_written(records_to_entries([record])) == _jobs_as_written(entries)


GOLDEN = Path(__file__).parent / "data" / "golden-v4"
GOLDEN_CONFIG = ServiceConfig(capacity=8, malleable=True)


def _golden_batch():
    """The batch ``data/golden-v4`` was written for, as the columns the
    appenders take plus its decisions: two jobs share one chains tuple,
    another offers a chain equal to but distinct from theirs, a degraded
    job of class 3, a rejection, and a malleable placement four wide for
    2.0 where its task asks two for 4.0."""
    def task(name, width, duration, deadline, concurrency=0, quality=1.0):
        return TaskSpec(name, ProcessorTimeRequest(width, duration), deadline=deadline,
                        quality=quality, max_concurrency=concurrency)

    wide = TaskChain((task("w", 2, 4.0, 30.0, concurrency=4),), label="wide")
    pair = TaskChain((task("a", 3, 1.0, 40.0), task("b", 1, 0.5, 40.0, quality=0.5)),
                     label="pair")
    shared = (pair, wide)
    twin = TaskChain((task("w", 2, 4.0, 30.0, concurrency=4),), label="wide")
    late = TaskChain((task("z", 8, 5.0, 5.5),), label="late")
    tunable = Job((TaskChain((task("x", 8, 6.0, 50.0),), label="big"),
                   TaskChain((task("y", 1, 2.0, 50.0),), label="small")),
                  release=3.0, job_id=104, name="tunable")
    narrowed, degraded = degrade_job(tunable)
    jobs = [
        Job(shared, release=0.0, job_id=101, name="alpha"),
        Job(shared, release=1.0, job_id=102, name="alpha"),
        Job((late, twin), release=2.0, job_id=103, name="bête"),
        narrowed,
        Job((late,), release=3.5, job_id=-105, name="hopeless"),
    ]
    decisions = make_arbitrator(GOLDEN_CONFIG).admit_batch(jobs)
    columns = (1, ["r-1", "r-2", "r-3", "r-4", "r-5"], [0, 2, 1, 3, 0],
               [False, False, False, degraded, False], jobs)
    return columns, decisions


def test_the_column_encoders_write_the_golden_frames(tmp_path):
    """``data/golden-v4`` holds a ``jobs`` and a ``dec`` frame written by
    the version-4 encoders of commit dc84764, which were handed one ledger
    row and one decision tuple per request.  The column encoders write the
    same bytes, and a directory holding them recovers to the same ledger."""
    columns, decisions = _golden_batch()
    first, rids, qos, degraded, jobs = columns
    assert [d.admitted for d in decisions] == [True, True, True, True, False]
    malleable = decisions[2].placement.placements[0]
    assert (malleable.processors, malleable.duration) == (4, 2.0)
    assert (malleable.task.processors, malleable.task.duration) == (2, 4.0)

    jobs_frame, dec_frame = (GOLDEN / "jobs.frame").read_bytes(), (GOLDEN / "dec.frame").read_bytes()
    assert _jobs_frame(*columns) == jobs_frame
    assert _decisions_frame(range(1, 6), decisions) == dec_frame
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*columns, sync=False)
    wal.append_decisions(range(1, 6), decisions)
    wal.close()
    assert (tmp_path / "wal.log").read_bytes() == jobs_frame + dec_frame

    state = recover(tmp_path, GOLDEN_CONFIG)
    assert state.redecided == 0 and state.report.ok
    assert [(e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in state.entries] == [
        (first + i, rids[i], qos[i], degraded[i], decision_to_tuple(decisions[i]))
        for i in range(len(jobs))
    ]
    assert _jobs_as_written(state.entries) == [repr(job_to_dict(j)) for j in jobs]


# ----------------------------------------------------------------------
# Any ledger round-trips through both logs
# ----------------------------------------------------------------------

#: Far out in the model's time range, with room for the ``+ 1.0`` releases
#: of the shared jobs below.
_FAR_TIME = TIME_LIMIT / 2
_AWKWARD = st.sampled_from(['quo"te', "back\\slash", "uni-é✓", "ctrl-\n\t\x00\x1f", " "])
_TEXT = _AWKWARD | st.text(max_size=6)


@st.composite
def _awkward_chain(draw):
    tasks = tuple(
        TaskSpec(
            draw(_AWKWARD | st.text(min_size=1, max_size=6)),
            ProcessorTimeRequest(
                draw(st.integers(1, 8)), draw(st.sampled_from([1e-3, 0.5, 1.0, 2.75]))
            ),
            deadline=draw(st.sampled_from([math.inf, 40.0, _FAR_TIME])),
            quality=draw(st.sampled_from([0.0, -0.0, 0.25, 1.0])),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    values = st.integers(-3, 3) | _TEXT | st.floats(allow_nan=False)
    params = draw(st.none() | st.dictionaries(_TEXT, values, max_size=2))
    return TaskChain(tasks, label=draw(_TEXT), params=params)


_INT64 = st.sampled_from([-(2**63), -1, 0, 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def _ledgers(draw):
    """Decided ledgers built from fuzzer jobs plus every way chains get shared,
    with job ids and classes anywhere in the packed columns' 64-bit range."""
    base = random_case(random.Random(draw(st.integers(0, 2**16))), max_jobs=6).jobs
    jobs: list[Job] = []
    for i in range(draw(st.integers(1, 10))):
        prev = draw(st.sampled_from(jobs)) if jobs else base[0]
        how = draw(st.sampled_from(["case", "shared", "copy", "degraded", "twice", "awkward"]))
        if how == "case":
            job = base[i % len(base)]
        elif how == "shared":
            job = Job(chains=prev.chains, release=prev.release + 1.0, name=draw(_TEXT))
        elif how == "copy":  # equal chains, distinct objects
            job = Job(
                chains=tuple(TaskChain(c.tasks, label=c.label, params=c.params) for c in prev.chains),
                release=prev.release,
            )
        elif how == "degraded":
            job = degrade_job(prev)[0]
        elif how == "twice":  # one chain object offered twice by one job
            job = Job(chains=(prev.chains[0],) + prev.chains, release=prev.release)
        else:
            job = Job(
                chains=tuple(draw(st.lists(_awkward_chain(), min_size=1, max_size=3))),
                release=draw(st.sampled_from([0.0, -0.0, 0.1, _FAR_TIME])),
                name=draw(_TEXT),
            )
        if draw(st.booleans()):
            job = Job(chains=job.chains, release=job.release, job_id=draw(_INT64),
                      name=job.name)
        jobs.append(job)
    qos = st.integers(0, 5) | st.sampled_from([2**63 - 1])
    return [
        LedgerEntry(i + 1, draw(_TEXT), draw(qos), draw(st.booleans()),
                    job, draw(st.sampled_from([DEC, REJ])))
        for i, job in enumerate(jobs)
    ]


@given(entries=_ledgers(), cuts=st.lists(st.integers(1, 9), max_size=3))
def test_ledgers_round_trip_through_the_wal_and_the_checkpoint(entries, cuts):
    bounds = sorted({c for c in cuts if c < len(entries)} | {0, len(entries)})
    frames = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        wal = WriteAheadLog(directory / "logged")
        for frame in frames:
            _log(wal, frame)
        wal.close()
        records, truncated = read_wal(wal.path)
        assert truncated == 0
        from_wal = records_to_entries(records)
        wal = WriteAheadLog(directory / "checkpointed")
        for frame in frames:  # one checkpoint per frame
            _log(wal, frame)
            write_checkpoint(wal)
            wal.truncate()
        wal.close()
        from_checkpoint, through = read_checkpoint(wal.directory)
    assert through == len(entries)
    for loaded in (from_wal, from_checkpoint):
        assert [(e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in loaded] == [
            (e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in entries
        ]
        assert _jobs_as_written(loaded) == _jobs_as_written(entries)
        for a, b in zip(bounds, bounds[1:]):
            assert _sharing(loaded[a:b]) == _sharing(entries[a:b])


# ----------------------------------------------------------------------
# Damage
# ----------------------------------------------------------------------


def _three_frames(path):
    """A log of a ``jobs``, a ``dec`` and a final ``jobs`` frame; returns
    its bytes and the offset the final frame starts at."""
    entries = _entries(4, seed=3)
    wal = WriteAheadLog(path)
    wal.append_jobs(*_columns(entries[:2]))
    wal.append_decisions([1, 2], _decisions([DEC, REJ]))
    wal.append_jobs(*_columns(entries[2:]))
    wal.close()
    data = (path / "wal.log").read_bytes()
    return data, data.rindex(b"\n", 0, -1) + 1


def test_torn_tail_is_tolerated_and_repaired(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*_columns(entries))
    wal.close()
    path = tmp_path / "wal.log"
    good = path.read_bytes()
    path.write_bytes(good + b"deadbeef {\"k\":\"job\",\"seq\":99")  # torn

    records, truncated = read_wal(path, repair=True)
    assert truncated > 0
    assert len(records) == 1  # the whole batch is one framed record
    assert len(records_to_entries(records)) == 2
    assert path.read_bytes() == good  # physically repaired
    assert read_wal(path) == (records, 0)


def test_a_cut_anywhere_in_the_last_frame_is_a_torn_tail(tmp_path):
    data, last = _three_frames(tmp_path)
    path = tmp_path / "wal.log"
    kept = read_wal(path)[0][:-1]
    for cut in range(last, len(data)):
        path.write_bytes(data[:cut])
        assert read_wal(path, repair=True) == (kept, cut - last)
        assert path.read_bytes() == data[:last]
    assert len(records_to_entries(kept)) == 2


def test_a_flipped_byte_in_any_earlier_frame_is_corruption(tmp_path):
    data, last = _three_frames(tmp_path)
    path = tmp_path / "wal.log"
    # All but the newline that ends the second frame: flipping it joins
    # that frame to the last one, and the joined frame reads as a torn tail.
    # (No 0x20: it only changes the case of a checksum's hex digit.)
    for at in range(last - 1):
        for mask in (0x01, 0x80, 0xFF):
            path.write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
            with pytest.raises(WalCorruptionError):
                read_wal(path)


def test_damage_before_valid_records_is_corruption(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*_columns(entries))
    wal.append_decisions([1, 2], _decisions([DEC, REJ]))  # a valid record *after* it
    wal.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[15] ^= 0xFF  # flip a byte inside the *first* record's body
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def _malformed():
    good = jobs_record(_entries(2))
    without_rel = {k: v for k, v in good.items() if k != "rel"}
    admitted, rejected = dec_record([1, 2], [DEC, DEC]), dec_record([1], [REJ])

    return {
        "dec-without-decisions": [good, {"k": "dec", "seq": _pack("q", [1])}],
        # A cell short of its width.
        "two-field-decision": [good, {**admitted, "width": _pack("q", [2, 1, 2])}],
        "more-seqs-than-decisions": [good, {**rejected, "seq": _pack("q", [1, 2])}],
        "more-decisions-than-seqs": [good, {**rejected, "chain": _pack("q", [-1, -1])}],
        "count-without-a-chain": [good, {**rejected, "tasks": _pack("q", [0])}],
        "counts-beyond-the-cells": [good, {**admitted, "tasks": _pack("q", [2, 3])}],
        "negative-task-count": [good, {**admitted, "tasks": _pack("q", [-1, 5])}],
        "chain-below-rejected": [good, {**rejected, "chain": _pack("q", [-2])}],
        "column-not-base64": [good, {**rejected, "seq": "AQ*AAAAAAAA="}],
        "column-not-whole-cells": [good, {**rejected, "seq": _pack("B", [1] * 7)}],
        "column-is-a-list": [good, {**rejected, "seq": [1]}],
        "jobs-list-of-dicts": [{"k": "jobs", "jobs": [{"seq": 1}]}],
        "jobs-is-a-number": [{"k": "jobs", "jobs": 7}],
        "missing-column": [without_rel],
        "short-column": [{**good, "rid": good["rid"][:1]}],
        "short-packed-column": [{**good, "id": _pack("q", [1])}],
        "chain-index-out-of-range": [{**good, "ref": [[99], [0]]}],
        "negative-chain-index": [{**good, "ref": [[-1], [0]]}],
        "path-index-out-of-range": [{**good, "pix": _pack("q", [0, 9])}],
        "negative-path-index": [{**good, "pix": _pack("q", [0, -1])}],
        "negative-name-index": [{**good, "nix": _pack("q", [-1, 0])}],
        "job-without-chains": [{**good, "ref": [[], [0]]}],
        "chain-without-tasks": [{**good, "chains": [{"label": "c"}]}],
        "chains-is-a-number": [{**good, "chains": 7}],
        "release-is-text": [{**good, "rel": ["soon", 1.0]}],
        "base-without-watermark": [{"k": "base"}],
    }


_MALFORMED = _malformed()


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_a_malformed_record_is_corruption(tmp_path, name):
    """Checksum-valid frames of the wrong shape: refused as corruption by
    the fold, by recovery and by the checkpoint reader, never a
    ``KeyError``/``TypeError``/``ValueError`` or a silently shorter ledger."""
    records = _MALFORMED[name]
    with pytest.raises(WalCorruptionError):
        records_to_entries(records)
    frames = b"".join(_encode(r) for r in records)
    (tmp_path / "wal.log").write_bytes(frames)
    assert read_wal(tmp_path / "wal.log") == (records, 0)  # the framing is sound
    with pytest.raises(WalCorruptionError):
        recover(tmp_path, ServiceConfig(capacity=8))

    mark = {"k": "mark", "v": WAL_VERSION, "through_seq": 1, "count": 1,
            "sha256": hashlib.sha256(frames).hexdigest()}
    (tmp_path / "checkpoint.log").write_bytes(frames + _encode(mark))
    with pytest.raises(WalCorruptionError):
        read_checkpoint(tmp_path)


def _version_2_jobs_record(entries):
    """A ``jobs`` record as version 2 wrote it: no ``"v"``, one positional
    job per entry."""
    def chain(c):
        return [c.label, None, [[t.name, t.processors, t.duration, None, t.quality,
                                 t.max_concurrency] for t in c.tasks]]

    return {"k": "jobs", "jobs": [
        {"k": "job", "seq": e.seq, "rid": e.request_id, "cls": e.qos,
         "deg": int(e.degraded),
         "job": [e.job.job_id, e.job.release, e.job.name, [chain(c) for c in e.job.chains]]}
        for e in entries
    ]}


def _version_3_jobs_record(entries):
    """A ``jobs`` record as version 3 wrote it: every column a JSON list."""
    jobs = [e.job for e in entries]
    table = {id(c): c for job in jobs for c in job.chains}
    index = {key: i for i, key in enumerate(table)}
    return {
        "k": "jobs", "v": 3, "seq": [e.seq for e in entries],
        "rid": [e.request_id for e in entries], "cls": [e.qos for e in entries],
        "deg": [int(e.degraded) for e in entries], "id": [j.job_id for j in jobs],
        "rel": [j.release for j in jobs], "name": [j.name for j in jobs],
        "chains": [chain_to_dict(c) for c in table.values()],
        "ref": [[index[id(c)] for c in j.chains] for j in jobs],
    }


def _assert_refused_by_version(directory, jobs_record, version):
    """A log and a checkpoint holding an old ``jobs`` record are refused,
    naming its version, and a checkpoint write on top of one changes nothing."""
    entries = _entries(2)
    segment = _encode(jobs_record(entries)) + _encode(
        {"k": "dec", "seqs": [1, 2], "dec": [DEC, REJ]}  # as versions 2 and 3 wrote it
    )
    (directory / "wal.log").write_bytes(segment)
    with pytest.raises(WalCorruptionError, match=f"version {version}"):
        recover(directory, ServiceConfig(capacity=8))

    old = directory / "checkpointed"
    old.mkdir()
    mark = {"k": "mark", "v": version, "through_seq": 2, "count": 2,
            "sha256": hashlib.sha256(segment).hexdigest()}
    log = old / "checkpoint.log"
    log.write_bytes(segment + _encode(mark))
    with pytest.raises(WalCorruptionError, match=f"version {version}"):
        read_checkpoint(old)
    wal = WriteAheadLog(old)
    _log(wal, [LedgerEntry(3, "r2", 0, False, entries[0].job, DEC)])
    with pytest.raises(WalCorruptionError, match=f"version {version}"):
        write_checkpoint(wal)
    wal.close()
    assert log.read_bytes() == segment + _encode(mark)  # nothing cut, nothing added


def test_version_2_logs_and_checkpoints_are_refused(tmp_path):
    _assert_refused_by_version(tmp_path, _version_2_jobs_record, 2)


def test_version_3_logs_and_checkpoints_are_refused(tmp_path):
    _assert_refused_by_version(tmp_path, _version_3_jobs_record, 3)


def test_records_to_entries_dedup_and_conflicts(tmp_path):
    entries = _entries(1)
    job_rec = jobs_record(entries)
    dup = dict(job_rec)
    dec = dec_record([1], [(True, 0, ((0.0, 2, 3.0),))])
    same = records_to_entries([job_rec, dup, dec, dec])
    assert len(same) == 1 and same[0].decision == (True, 0, ((0.0, 2, 3.0),))

    with pytest.raises(WalCorruptionError):  # decision for unknown seq
        records_to_entries([dec_record([7], [REJ])])
    conflict = dec_record([1], [REJ])
    with pytest.raises(WalCorruptionError):
        records_to_entries([job_rec, dec, conflict])
    with pytest.raises(WalCorruptionError):
        records_to_entries([{"k": "mystery"}])
    # The per-job top-level record nothing has written since batching
    # is an unknown kind like any other.
    with pytest.raises(WalCorruptionError):
        records_to_entries([{**job_rec, "k": "job"}])


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def _decided(n, seed=0):
    entries = _entries(n, seed)
    for i, e in enumerate(entries):
        e.decision = DEC if i % 2 else REJ
    return entries


def _fingerprint(entries):
    return [(e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in entries]


def _checkpoint_in_steps(wal, entries, steps):
    """Log ``entries`` through ``wal`` and checkpoint, then truncate, at
    each prefix length in ``steps``; returns ``checkpoint.log``'s size
    after each."""
    sizes = []
    for upto in steps:
        if upto > wal.last_seq:
            _log(wal, entries[wal.last_seq : upto])
        write_checkpoint(wal)
        wal.truncate()
        sizes.append((wal.directory / "checkpoint.log").stat().st_size)
    return sizes


def test_checkpoint_round_trip_truncation_and_watermark(tmp_path):
    entries = _decided(9)
    wal = WriteAheadLog(tmp_path)
    path = tmp_path / "checkpoint.log"
    for upto in (2, 5, 5, 9):  # four checkpoints, one with nothing new
        if upto > wal.last_seq:
            _log(wal, entries[wal.last_seq : upto])
        logged = wal.path.read_bytes()
        before = path.stat().st_size if path.exists() else 0
        write_checkpoint(wal)
        wal.truncate()
        loaded, through = read_checkpoint(tmp_path)
        assert through == upto
        assert _fingerprint(loaded) == _fingerprint(entries[:upto])
        # The segment is the WAL's frames as they were on disk, then the mark.
        segment, mark = path.read_bytes()[before:].rsplit(b"\n", 2)[:2]
        assert segment + b"\n" == logged and json.loads(mark[9:])["k"] == "mark"
    wal.close()

    # The emptied WAL names the watermark it was truncated against, and
    # nothing else; records at or below the watermark are skipped.
    records, _ = read_wal(tmp_path / "wal.log")
    assert records == [{"k": "base", "through_seq": 9}]
    assert records_to_entries(records, min_seq=9) == []
    covered = jobs_record(entries[:1])
    assert records_to_entries([covered], min_seq=9) == []
    # A checkpoint that stops short of that watermark has lost decisions.
    with pytest.raises(WalCorruptionError, match="only reaches 5"):
        records_to_entries(records, min_seq=5)


def test_checkpoint_checksum_and_version_guards(tmp_path):
    entries = _decided(6)
    path = tmp_path / "checkpoint.log"
    sizes = _checkpoint_in_steps(WriteAheadLog(tmp_path), entries, (2, 4, 6))
    good = path.read_bytes()

    # A flipped byte in any committed segment or non-final watermark.
    for offset in (15, sizes[0] - 5, sizes[0] + 15, sizes[1] + 15):
        data = bytearray(good)
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            read_checkpoint(tmp_path)

    # A well-framed watermark that lies about its segment, one field each.
    segment, _, mark_line = good[sizes[1]:].rpartition(b"\n")[0].rpartition(b"\n")
    mark = json.loads(mark_line[9:])
    assert mark["k"] == "mark" and mark["through_seq"] == 6 and mark["count"] == 2
    for field, wrong in (("v", WAL_VERSION - 1), ("v", WAL_VERSION + 1), ("count", 3),
                         ("through_seq", 7), ("sha256", "0" * 64)):
        forged = _encode({**mark, field: wrong})
        path.write_bytes(good[: sizes[1]] + segment + b"\n" + forged)
        with pytest.raises(WalCorruptionError):
            read_checkpoint(tmp_path)
    # A segment replayed under a fresh watermark breaks sequence order.
    path.write_bytes(good + good[sizes[1]:])
    with pytest.raises(WalCorruptionError):
        read_checkpoint(tmp_path)

    path.write_bytes(good)
    assert read_checkpoint(tmp_path)[1] == 6
    # No dual reader: a version-1 snapshot in the directory is refused.
    (tmp_path / "checkpoint.json").write_text("{}")
    with pytest.raises(WalCorruptionError, match="version-1"):
        read_checkpoint(tmp_path)

    missing = tmp_path / "fresh"
    missing.mkdir()
    assert read_checkpoint(missing) == ([], 0)


def test_checkpoint_uncommitted_tail_is_ignored_then_cut_by_the_next_write(tmp_path):
    entries = _decided(6)
    path = tmp_path / "checkpoint.log"
    wal = WriteAheadLog(tmp_path)
    sizes = _checkpoint_in_steps(wal, entries, (2, 4))
    committed = path.read_bytes()
    _log(wal, entries[4:])
    write_checkpoint(wal)  # and no truncation: the WAL still holds 5 and 6
    third = path.read_bytes()[sizes[1]:]

    # Every proper prefix of the third append is an uncommitted tail:
    # torn jobs frame, whole segment without watermark, torn watermark.
    segment_end = third.rindex(b"\n", 0, -1) + 1
    for keep in (1, 40, len(third) // 2, segment_end, len(third) - 1):
        path.write_bytes(committed + third[:keep])
        loaded, through = read_checkpoint(tmp_path)
        assert through == 4 and _fingerprint(loaded) == _fingerprint(entries[:4])
        assert path.stat().st_size == sizes[1] + keep  # the reader writes nothing

    # The next checkpoint cuts the tail off and commits over it.
    write_checkpoint(wal)
    assert path.read_bytes() == committed + third
    assert _fingerprint(read_checkpoint(tmp_path)[0]) == _fingerprint(entries)


def test_checkpoint_cost_follows_the_delta_not_the_ledger(tmp_path, monkeypatch):
    """Counts, not time: bytes appended per checkpoint stay flat as the
    ledger grows, and the writer reads O(1) bytes of what is already in
    ``checkpoint.log`` (the WAL it copies is the delta)."""
    every, rounds = 8, 10
    # The same jobs in every segment, so each holds the same chain table.
    template = _entries(every)
    entries = [
        LedgerEntry(r * every + e.seq, e.request_id, e.qos, e.degraded, e.job, REJ)
        for r in range(rounds)
        for e in template
    ]
    read = []
    pread = os.pread

    def counting_pread(fd, n, offset):
        data = pread(fd, n, offset)
        read.append(len(data))
        return data

    monkeypatch.setattr(os, "pread", counting_pread)
    monkeypatch.setattr(
        "repro.service.wal._fold_checkpoint",
        lambda path: pytest.fail("steady-state checkpoint rescanned history"),
    )
    sizes = _checkpoint_in_steps(
        WriteAheadLog(tmp_path), entries, range(every, every * rounds + 1, every)
    )
    monkeypatch.undo()

    appended = [b - a for a, b in zip([0] + sizes, sizes)]
    assert len(appended) == rounds >= 8
    # Seq digits grow, and every segment after the first opens with the
    # WAL's ``base`` frame; nothing else.
    assert max(appended) <= 1.25 * appended[0]
    assert len(read) == rounds - 1 and max(read) <= 512  # one tail read each
    assert _fingerprint(read_checkpoint(tmp_path)[0]) == _fingerprint(entries)


def test_partial_write_failpoint_tears_exactly_one_append(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(*_columns(entries))
    wal.partial_write_after = 1
    with pytest.raises(OSError):
        wal.append_decisions([1, 2], _decisions([DEC, REJ]))
    wal.abandon()

    records, truncated = read_wal(tmp_path / "wal.log", repair=True)
    assert truncated > 0  # the torn decision frame
    loaded = records_to_entries(records)
    assert [e.decision for e in loaded] == [None, None]  # jobs survive, undecided


def test_crc_framing_rejects_bit_rot(tmp_path):
    body = json.dumps({"k": "dec", "seqs": [], "dec": []}).encode()
    line = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
    path = tmp_path / "wal.log"
    path.write_bytes(line)
    records, _ = read_wal(path)
    assert records == [{"k": "dec", "seqs": [], "dec": []}]
    path.write_bytes(b"00000000 " + body + b"\n" + line)
    with pytest.raises(WalCorruptionError):
        read_wal(path)
