"""WAL framing, torn-tail semantics, checkpoints, and the fail-point."""

from __future__ import annotations

import json
import os
import random
import zlib

import pytest

from repro.errors import WalCorruptionError
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    _chain_to_wire,
    _encode,
    read_checkpoint,
    read_wal,
    records_to_entries,
    write_checkpoint,
)
from repro.sim.persistence import job_to_dict
from repro.verify.fuzz import random_case


def _entries(n=3, seed=0):
    case = random_case(random.Random(seed), max_jobs=max(n, 2))
    jobs = (list(case.jobs) * n)[:n]
    return [
        LedgerEntry(seq=i + 1, request_id=f"r{i}", qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, job in enumerate(jobs)
    ]


def job_record(e):
    """Reference form of one logged job body: the plain dict whose JSON
    encoding the fast path (``_entry_json``) must reproduce byte for byte."""
    job = e.job
    chains = [_chain_to_wire(chain) for chain in job.chains]
    return {
        "k": "job",
        "seq": e.seq,
        "rid": e.request_id,
        "cls": e.qos,
        "deg": int(e.degraded),
        "job": [job.job_id, job.release, job.name, chains],
    }


DEC = (True, 0, ((0.0, 2, 3.0), (3.0, 1, 1.5)))
REJ = (False, None, ())


def test_wal_round_trips_jobs_and_decisions(tmp_path):
    entries = _entries(3)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.append_decisions([1, 2, 3], [DEC, REJ, DEC])
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


def test_fast_jobs_encoding_is_byte_identical_to_reference(tmp_path):
    """The cached-fragment assembly must match the plain dict encoding.

    ``append_jobs`` builds its record from ``_entry_json`` (identity-
    cached chain fragments, inline float reprs); the bytes on disk must
    be exactly what encoding ``{"k": "jobs", "jobs": [job_record()...]}``
    through the reference JSON encoder would produce — including awkward
    strings that force the escape fallback, and repeated (shared) chain
    objects that exercise the cache-hit path.
    """
    from repro.workloads.synthetic import SyntheticParams
    from repro.service.wal import _dumps, _frame

    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    shared = [params.tunable_job(float(i)) for i in range(4)]
    assert shared[0].chains[0] is shared[1].chains[0]  # cache-hit fuel
    odd = _entries(3, seed=7)
    entries = [
        LedgerEntry(seq=i + 1, request_id=rid, qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, (rid, job) in enumerate(
            zip(
                ['plain', 'quo"te', 'back\\slash', 'uni-é', 'ctrl-\n',
                 'r5', 'r6'],
                shared + [e.job for e in odd],
            )
        )
    ]
    wal = WriteAheadLog(tmp_path, fsync=False)
    wal.append_jobs(entries)
    wal.close()

    reference = _frame(
        _dumps(
            {"k": "jobs", "jobs": [job_record(e) for e in entries]}
        ).encode("utf-8")
    )
    assert (tmp_path / "wal.log").read_bytes() == reference

    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated == 0
    loaded = records_to_entries(records)
    assert [(e.seq, e.request_id) for e in loaded] == [
        (e.seq, e.request_id) for e in entries
    ]
    assert [job_to_dict(e.job) for e in loaded] == [
        job_to_dict(e.job) for e in entries
    ]


def test_torn_tail_is_tolerated_and_repaired(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
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


def test_damage_before_valid_records_is_corruption(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.append_decisions([1, 2], [DEC, REJ])  # a valid record *after* it
    wal.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[15] ^= 0xFF  # flip a byte inside the *first* record's body
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_records_to_entries_dedup_and_conflicts(tmp_path):
    entries = _entries(1)
    job_rec = {"k": "jobs", "jobs": [job_record(entries[0])]}
    dup = dict(job_rec)
    dec = {"k": "dec", "seqs": [1], "dec": [[True, 0, [[0.0, 2, 3.0]]]]}
    same = records_to_entries([job_rec, dup, dec, dec])
    assert len(same) == 1 and same[0].decision == (True, 0, ((0.0, 2, 3.0),))

    with pytest.raises(WalCorruptionError):  # decision for unknown seq
        records_to_entries([{"k": "dec", "seqs": [7], "dec": [[False, None, []]]}])
    conflict = {"k": "dec", "seqs": [1], "dec": [[False, None, []]]}
    with pytest.raises(WalCorruptionError):
        records_to_entries([job_rec, dec, conflict])
    with pytest.raises(WalCorruptionError):
        records_to_entries([{"k": "mystery"}])
    # The per-job top-level record nothing has written since batching
    # is an unknown kind like any other.
    with pytest.raises(WalCorruptionError):
        records_to_entries([job_record(entries[0])])


def _decided(n, seed=0):
    entries = _entries(n, seed)
    for i, e in enumerate(entries):
        e.decision = DEC if i % 2 else REJ
    return entries


def _fingerprint(entries):
    return [(e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in entries]


def _checkpoint_in_steps(directory, entries, steps):
    """Checkpoint ``entries`` cumulatively at each prefix length in ``steps``;
    returns the log's size after each."""
    sizes = []
    for upto in steps:
        write_checkpoint(directory, entries[:upto])
        sizes.append((directory / "checkpoint.log").stat().st_size)
    return sizes


def test_checkpoint_round_trip_truncation_and_watermark(tmp_path):
    entries = _decided(9)
    wal = WriteAheadLog(tmp_path)
    for upto in (2, 5, 5, 9):  # four checkpoints, one with nothing new
        fresh = [e for e in entries[:upto] if e.seq > wal.last_seq]
        if fresh:
            wal.append_jobs(fresh)
            wal.append_decisions([e.seq for e in fresh], [e.decision for e in fresh])
        write_checkpoint(tmp_path, entries[:upto])
        wal.truncate()
        loaded, through = read_checkpoint(tmp_path)
        assert through == upto
        assert _fingerprint(loaded) == _fingerprint(entries[:upto])
    wal.close()

    # The emptied WAL names the watermark it was truncated against, and
    # nothing else; records at or below the watermark are skipped.
    records, _ = read_wal(tmp_path / "wal.log")
    assert records == [{"k": "base", "through_seq": 9}]
    assert records_to_entries(records, min_seq=9) == []
    covered = {"k": "jobs", "jobs": [job_record(entries[0])]}
    assert records_to_entries([covered], min_seq=9) == []
    # A checkpoint that stops short of that watermark has lost decisions.
    with pytest.raises(WalCorruptionError, match="only reaches 5"):
        records_to_entries(records, min_seq=5)


def test_checkpoint_checksum_and_version_guards(tmp_path):
    entries = _decided(6)
    path = tmp_path / "checkpoint.log"
    sizes = _checkpoint_in_steps(tmp_path, entries, (2, 4, 6))
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
    for field, wrong in (("v", 1), ("v", 3), ("count", 3), ("through_seq", 7),
                         ("sha256", "0" * 64)):
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
    sizes = _checkpoint_in_steps(tmp_path, entries, (2, 4))
    committed = path.read_bytes()
    write_checkpoint(tmp_path, entries)
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
    write_checkpoint(tmp_path, entries)
    assert path.read_bytes() == committed + third
    assert _fingerprint(read_checkpoint(tmp_path)[0]) == _fingerprint(entries)


def test_checkpoint_cost_follows_the_delta_not_the_ledger(tmp_path, monkeypatch):
    """Counts, not time: bytes appended per checkpoint stay flat as the
    ledger grows, and the writer reads O(1) bytes of what is already there."""
    every, rounds = 8, 10
    entries = _decided(every * rounds)
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
        tmp_path, entries, range(every, every * rounds + 1, every)
    )
    monkeypatch.undo()

    appended = [b - a for a, b in zip([0] + sizes, sizes)]
    assert len(appended) == rounds >= 8
    assert max(appended) <= 1.25 * appended[0]  # seq digits grow, nothing else
    assert len(read) == rounds - 1 and max(read) <= 512  # one tail read each
    assert _fingerprint(read_checkpoint(tmp_path)[0]) == _fingerprint(entries)


def test_partial_write_failpoint_tears_exactly_one_append(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.partial_write_after = 1
    with pytest.raises(OSError):
        wal.append_decisions([1, 2], [DEC, REJ])
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
