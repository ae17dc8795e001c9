"""The write-ahead decision log (WAL) behind the admission service.

Durability contract (**append-before-ack**): a client is only ever acked
an admission decision after (1) the *effective job* it was decided on and
(2) the decision itself are on stable storage.  Both are appended to
``wal.log`` and fsync'd *before* the service resolves the client future —
so any acked decision survives a crash, and recovery can rebuild the
arbitrator's exact in-memory schedule by replaying the log
(:mod:`repro.service.recovery`).  ``wal.log`` and ``checkpoint.log`` are
the only ledger: the service keeps no copy in memory.

Each record is one frame, ``<crc32 as 8 hex chars> <compact JSON body>\n``.
A torn append shows as a damaged *final* frame, which recovery truncates;
damage followed by valid frames, or a checksum-valid record of the wrong
shape, raises :class:`~repro.errors.WalCorruptionError`.  The kinds
(``docs/service.md``, "The write-ahead log", has every field):

``jobs``
    One ingress batch of *effective* jobs (post-degrade), appended before
    it is decided: packed numeric columns (sequence number, class,
    degraded flag, job id, release, name and path index) plus the batch's
    request ids, names, chain table and path table, interned by identity
    within the frame, so every frame decodes on its own.
``dec``
    The batch's decisions, packed the same way, appended and fsync'd
    before any future of the batch resolves (the fsync also hardens the
    ``jobs`` frame).
``base``
    ``{"k":"base","through_seq":N}``, first record of a log emptied by
    :meth:`WriteAheadLog.truncate`: the checkpoint watermark it was
    truncated against.  Recovery refuses a checkpoint that stops short of
    it (the decisions in between exist nowhere else).

A checkpoint (:func:`write_checkpoint`) appends ``wal.log``'s frames byte
for byte to ``checkpoint.log`` as one *segment*, then a watermark
``{"k":"mark","v":WAL_VERSION,"through_seq":N,"count":n,"sha256":...}``
(``N`` the last decided sequence number, ``n`` = ``N`` minus the previous
watermark, as sequence numbers are contiguous from 1), then one fsync;
the WAL is truncated after.  The reader folds each segment with
:func:`records_to_entries` at the previous watermark, which drops what
that covers (the ``base`` frame, frames a crash between watermark and
truncation left), and checks every CRC, version, digest, count and
decision.  Frames after the last watermark are an *uncommitted tail*,
ignored (the WAL still holds them) and cut by the next checkpoint.  A
version-1 ``checkpoint.json`` and ``jobs`` records of version 2 or 3 are
refused by version (no dual reader).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from base64 import b64decode
from binascii import b2a_base64
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.admission import AdmissionDecision
from repro.errors import ModelError, WalCorruptionError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.sim.persistence import chain_from_dict, chain_to_dict

__all__ = [
    "WAL_VERSION",
    "DecisionTuple",
    "decision_to_tuple",
    "LedgerEntry",
    "WriteAheadLog",
    "read_wal",
    "read_checkpoint",
    "write_checkpoint",
]

#: Stamped into every ``jobs`` record and checkpoint watermark.  1 was the
#: whole-ledger snapshot, 2 the per-job positional ``jobs`` encoding, 3 the
#: columns as JSON number lists.
WAL_VERSION = 4

#: ``(admitted, chain_index | None, ((start, width, duration), ...))`` —
#: the canonical bit-exact decision fingerprint, the same shape the
#: differential fuzzer digests (:mod:`repro.verify.fuzz`).
DecisionTuple = tuple[bool, int | None, tuple[tuple[float, int, float], ...]]

_REJECTED: DecisionTuple = (False, None, ())


def decision_to_tuple(decision: AdmissionDecision) -> DecisionTuple:
    """Canonical ledger form of one admission decision."""
    if decision.admitted and decision.placement is not None:
        cp = decision.placement
        return (
            True,
            cp.chain_index,
            tuple([(pl.start, pl.processors, pl.duration) for pl in cp.placements]),
        )
    return _REJECTED


@dataclass(slots=True)
class LedgerEntry:
    """One durable admission: the effective job and (once made) its decision.

    ``degraded`` marks jobs whose OR-path set was narrowed under overload
    *before* logging — the logged job is the degraded one, so replay needs
    no knowledge of the load situation that caused it.  ``decision`` is
    ``None`` for a job logged but not yet decided (the crash-mid-decision
    window); recovery re-decides those.  This is the readers' row: the
    readers below fold the log into it, and nothing on the write path
    builds one (the service hands the WAL a batch's columns).
    """

    seq: int
    request_id: str
    qos: int
    degraded: bool
    job: Job
    decision: DecisionTuple | None = None


def _frame(body: bytes) -> bytes:
    return b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


#: Hot-path encoder: no circular-reference bookkeeping (wire structures
#: are trees by construction), no ASCII escaping (UTF-8 on disk).
_dumps = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, ensure_ascii=False
).encode


def _encode(record: Mapping[str, object]) -> bytes:
    return _frame(_dumps(record).encode("utf-8"))


def _packed_frame(head: bytes, packed: Sequence[tuple[bytes, bytes]]) -> bytes:
    """Frame a JSON object: ``head`` (without its closing brace), then each
    ``(key, base64)`` of ``packed`` as a string member, spliced in as bytes
    (base64 needs no escaping; the JSON encoder would copy every byte)."""
    return _frame(head + b"".join([b',"%s":"%s"' % kv for kv in packed]) + b"}")


def _pack(typecode: str, values: Sequence) -> bytes:
    """One packed column (an int out of range raises ``struct.error``)."""
    return b2a_base64(struct.pack(f"<{len(values)}{typecode}", *values), newline=False)


def _unpack(typecode: str, text: object) -> tuple:
    """One packed column's values; malformed text raises ``ValueError``,
    ``TypeError`` or ``struct.error``."""
    data = b64decode(text, validate=True)  # type: ignore[arg-type]
    return struct.unpack(f"<{len(data) // struct.calcsize(typecode)}{typecode}", data)


#: The packed columns of a ``jobs`` record, in the order its reader zips them.
_JOB_COLUMNS = (("seq", "q"), ("cls", "q"), ("deg", "B"), ("id", "q"),
                ("rel", "d"), ("nix", "q"), ("pix", "q"))


def _jobs_frame(first_seq: int, rids: Sequence[str], qos: Sequence[int],
                degraded: Sequence[bool], jobs: Sequence[Job]) -> bytes:
    """One framed ``jobs`` record of a batch's columns, numbered from ``first_seq``.

    Chains and ``job.chains`` tuples are interned by identity for this call
    only (``jobs`` keeps every id alive until it returns): shared chains
    encode once, equal-but-distinct ones stay distinct, distinct tuples of
    the same chains are one path, and no state outlives the frame.
    """
    table: dict[int, tuple[int, TaskChain]] = {}  # id -> (index, chain)
    paths: dict[tuple[int, ...], int] = {}  # chain indexes -> path index
    path_at: dict[int, int] = {}  # id(job.chains) -> path index
    names: dict[str, int] = {}
    path_ix, name_ix = [], []
    for job in jobs:
        chains = job.chains
        path = path_at.get(id(chains))
        if path is None:
            ref = tuple([table.setdefault(id(c), (len(table), c))[0] for c in chains])
            path = path_at[id(chains)] = paths.setdefault(ref, len(paths))
        path_ix.append(path)
        name_ix.append(names.setdefault(job.name, len(names)))
    head = _dumps({
        "k": "jobs",
        "v": WAL_VERSION,
        "rid": rids,
        "name": list(names),
        "chains": [chain_to_dict(c) for _, c in table.values()],
        "ref": list(paths),
    })
    return _packed_frame(head.encode("utf-8")[:-1], (
        (b"seq", _pack("q", range(first_seq, first_seq + len(jobs)))),
        (b"cls", _pack("q", qos)),
        (b"deg", _pack("B", degraded)),
        (b"id", _pack("q", [job.job_id for job in jobs])),
        (b"rel", _pack("d", [job.release for job in jobs])),
        (b"nix", _pack("q", name_ix)),
        (b"pix", _pack("q", path_ix)),
    ))


def _jobs_from_frame(record: Mapping[str, object]) -> list[LedgerEntry]:
    """The ledger entries of one ``jobs`` record (each table entry built
    once, so jobs of one path share one chains tuple); another version
    raises."""
    version = record.get("v", 2)  # version 2 frames carried no "v"
    if version != WAL_VERSION:
        raise WalCorruptionError(
            f"jobs record of WAL version {version!r}; this build reads only "
            f"version {WAL_VERSION} — recover the directory with the release "
            "that wrote it"
        )
    rids, names = record["rid"], record["name"]
    columns = [_unpack(code, record[key]) for key, code in _JOB_COLUMNS]
    if len({len(c) for c in columns} | {len(rids)}) > 1:  # type: ignore[arg-type]
        raise WalCorruptionError("jobs record columns differ in length")
    table = [chain_from_dict(c) for c in record["chains"]]  # type: ignore[union-attr]
    indexes = [*record["ref"], *columns[-2:]]  # type: ignore[misc]
    if any(min(ix, default=0) < 0 for ix in indexes):
        raise IndexError("negative chain, name or path index")
    paths = [tuple(table[i] for i in ref) for ref in record["ref"]]  # type: ignore[union-attr]
    return [
        LedgerEntry(seq, str(rid), cls, bool(deg),
                    Job(paths[p], release, job_id, str(names[n])))  # type: ignore[index]
        for rid, seq, cls, deg, job_id, release, n, p in zip(rids, *columns)  # type: ignore[call-overload]
    ]


def _decisions_frame(
    seqs: Sequence[int], decisions: Iterable[AdmissionDecision]
) -> bytes:
    """One framed ``dec`` record, read off the decisions in one pass: the
    columns :func:`decision_to_tuple` would give, with no tuple built."""
    chosen, counts, starts, widths, durations = [], [], [], [], []  # type: ignore[var-annotated]
    for decision in decisions:
        cp = decision.placement
        if cp is None or not decision.admitted:
            chosen.append(-1)
            continue
        chosen.append(cp.chain_index)
        counts.append(len(cp.placements))
        for pl in cp.placements:
            starts.append(pl.start)
            widths.append(pl.processors)
            durations.append(pl.duration)
    return _packed_frame(b'{"k":"dec"', (
        (b"seq", _pack("q", seqs)), (b"chain", _pack("q", chosen)),
        (b"tasks", _pack("q", counts)), (b"start", _pack("d", starts)),
        (b"width", _pack("q", widths)), (b"dur", _pack("d", durations)),
    ))


def _decisions_from_frame(
    record: Mapping[str, object],
) -> Iterator[tuple[int, DecisionTuple]]:
    """``(seq, decision)`` for each decision of one ``dec`` record."""
    seqs, chosen, counts = (_unpack("q", record[k]) for k in ("seq", "chain", "tasks"))
    cells = list(zip(*(_unpack(code, record[k]) for k, code in
                       (("start", "d"), ("width", "q"), ("dur", "d"))), strict=True))
    if (len(seqs) != len(chosen) or min(chosen, default=0) < -1
            or len(counts) != len(chosen) - chosen.count(-1)
            or min(counts, default=0) < 0 or sum(counts) != len(cells)):
        raise WalCorruptionError("dec record's seqs, chains, task counts and cells disagree")
    counted, at = iter(counts), 0
    for seq, chain in zip(seqs, chosen):
        if chain < 0:
            yield seq, _REJECTED
        else:
            n = next(counted)
            yield seq, (True, chain, tuple(cells[at : at + n]))
            at += n


class WriteAheadLog:
    """Append-only fsync'd record log over a raw file descriptor.

    Raw ``os.write`` (no Python-level buffering) keeps crash semantics
    honest: once an append call returns, the bytes are in the OS; after
    :meth:`sync` they are on stable storage.  The chaos harness arms
    :attr:`partial_write_after` to make the *n*-th append from now write
    only a prefix of its record and then raise ``OSError`` — the
    kill-mid-append fault recovery must tolerate.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "wal.log"
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.appends = 0
        self.syncs = 0
        #: Highest sequence number logged through this handle; what
        #: :meth:`truncate` records as the watermark it relied on.
        self.last_seq = 0
        #: Highest sequence number a decision was logged for; a checkpoint
        #: refuses to run while it lags ``last_seq``.
        self.last_decided = 0
        #: Chaos fail-point: when set to ``n``, the ``n``-th append from
        #: now writes ``partial_write_fraction`` of its bytes, then raises.
        self.partial_write_after: int | None = None
        self.partial_write_fraction: float = 0.5

    # ------------------------------------------------------------------

    def _append(self, data: bytes) -> None:
        self.appends += 1
        if self.partial_write_after is not None:
            self.partial_write_after -= 1
            if self.partial_write_after <= 0:
                self.partial_write_after = None
                keep = max(1, int(len(data) * self.partial_write_fraction))
                os.write(self._fd, data[:keep])
                raise OSError(
                    "injected crash: WAL append torn after "
                    f"{keep}/{len(data)} bytes"
                )
        os.write(self._fd, data)

    def sync(self) -> None:
        os.fsync(self._fd)
        self.syncs += 1

    def append_jobs(
        self, first_seq: int, rids: Sequence[str], qos: Sequence[int],
        degraded: Sequence[bool], jobs: Sequence[Job], *, sync: bool = True,
    ) -> None:
        """Log a batch of effective jobs, given as its columns and numbered
        from ``first_seq`` (one write; fsync unless deferred).

        The whole batch is one framed record — one CRC, one ``os.write`` —
        so a torn append loses the entire batch, which is exactly the right
        unit: none of its requests were acked yet.  ``sync=False`` defers
        durability to the batch's :meth:`append_decisions` fsync (nothing
        is acked in between, so append-before-ack still holds).
        """
        self._append(_jobs_frame(first_seq, rids, qos, degraded, jobs))
        if jobs:
            self.last_seq = first_seq + len(jobs) - 1
        if sync:
            self.sync()

    def append_decisions(
        self, seqs: Sequence[int], decisions: Iterable[AdmissionDecision]
    ) -> None:
        """Durably log the decider's decisions for previously logged jobs."""
        self._append(_decisions_frame(seqs, decisions))
        if seqs:
            self.last_decided = seqs[-1]
        self.sync()

    def truncate(self) -> None:
        """Empty the log (post-checkpoint); durable immediately.

        The emptied log opens with a ``base`` record naming the last
        sequence number it held, all of which the checkpoint now owns:
        should ``checkpoint.log`` later lose its tail, recovery sees the
        gap instead of a shorter ledger.
        """
        os.ftruncate(self._fd, 0)
        if self.last_seq:
            os.write(
                self._fd, _encode({"k": "base", "through_seq": self.last_seq})
            )
        self.sync()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def abandon(self) -> None:
        """Simulated crash: drop the descriptor without flushing/closing
        niceties (``os.close`` only — what a dying process gets)."""
        self.close()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _parse_frame(frame: bytes) -> dict[str, object] | None:
    """Decode one newline-terminated frame; ``None`` when it is damaged."""
    if len(frame) < 11 or frame[8:9] != b" ":
        return None
    body = frame[9:-1]
    try:
        if zlib.crc32(body) & 0xFFFFFFFF != int(frame[:8], 16):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _frames(path: Path) -> Iterator[tuple[dict[str, object], bytes]]:
    """Yield ``(record, raw frame)`` for each good frame of a framed log.

    A damaged frame is accepted only as the *final* one (the
    partial-append crash artifact), where iteration simply stops; damage
    followed by further frames raises
    :class:`~repro.errors.WalCorruptionError`.  A missing log has none.
    """
    data = path.read_bytes() if path.exists() else b""
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        raw = data[offset : newline + 1] if newline >= 0 else b""
        record = _parse_frame(raw)
        if record is None:
            if 0 <= newline < len(data) - 1:
                raise WalCorruptionError(
                    f"{path}: damaged record at byte {offset} is followed "
                    "by later records — log is corrupt beyond a torn tail"
                )
            return
        yield record, raw
        offset = newline + 1


def read_wal(
    path: str | Path, *, repair: bool = False
) -> tuple[list[dict[str, object]], int]:
    """Parse ``wal.log`` into records, tolerating a torn tail.

    Returns ``(records, truncated_bytes)``.  A damaged record is accepted
    only as the *final* frame (the partial-append crash artifact); with
    ``repair=True`` the file is physically truncated back to the good
    prefix.  Damage followed by valid records raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    path = Path(path)
    records = []
    good = 0
    for record, raw in _frames(path):
        records.append(record)
        good += len(raw)
    truncated = path.stat().st_size - good if path.exists() else 0
    if truncated and repair:
        with open(path, "r+b") as fh:
            fh.truncate(good)
            fh.flush()
            os.fsync(fh.fileno())
    return records, truncated


def records_to_entries(
    records: Sequence[Mapping[str, object]],
    *,
    min_seq: int = 0,
) -> list[LedgerEntry]:
    """Fold raw WAL records into ordered, deduplicated ledger entries.

    ``min_seq`` is the checkpoint watermark: job records at or below it
    are dropped, and a ``base`` record above it means the checkpoint lost
    entries this log was truncated against.  Replay is idempotent: a
    duplicate ``seq`` (the service re-appending after a recovery) keeps
    the first occurrence; a ``dec`` record for an entry that already has
    a decision must agree with it.  A checksum-valid record of the wrong
    shape raises :class:`~repro.errors.WalCorruptionError` like any other
    damage.
    """
    by_seq: dict[int, LedgerEntry] = {}
    try:
        for record in records:
            kind = record.get("k")
            if kind == "jobs":
                for entry in _jobs_from_frame(record):
                    if entry.seq > min_seq and entry.seq not in by_seq:
                        by_seq[entry.seq] = entry
            elif kind == "dec":
                for seq, tup in _decisions_from_frame(record):
                    if seq <= min_seq:
                        continue
                    entry = by_seq.get(seq)
                    if entry is None:
                        raise WalCorruptionError(
                            f"decision record references unknown seq {seq}"
                        )
                    if entry.decision is None:
                        entry.decision = tup
                    elif entry.decision != tup:
                        raise WalCorruptionError(
                            f"conflicting decisions logged for seq {seq}"
                        )
            elif kind == "base":
                base = int(record["through_seq"])  # type: ignore[call-overload]
                if base > min_seq:
                    raise WalCorruptionError(
                        f"WAL was truncated against checkpoint watermark {base} "
                        f"but the checkpoint only reaches {min_seq}"
                    )
            else:
                raise WalCorruptionError(f"unknown WAL record kind {kind!r}")
    except (KeyError, TypeError, ValueError, IndexError, struct.error, ModelError) as exc:
        raise WalCorruptionError(f"malformed WAL record: {exc!r}") from exc
    return [by_seq[seq] for seq in sorted(by_seq)]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _fold_checkpoint(path: Path) -> tuple[list[LedgerEntry], int, int]:
    """Verify ``checkpoint.log`` up to its last valid watermark.

    Returns ``(entries, through_seq, committed_bytes)``; whatever follows
    ``committed_bytes`` is the uncommitted tail.
    """
    entries: list[LedgerEntry] = []
    through_seq = committed = offset = 0
    pending: list[dict[str, object]] = []
    digest = hashlib.sha256()
    for record, raw in _frames(path):
        offset += len(raw)
        if record.get("k") != "mark":
            pending.append(record)
            digest.update(raw)
            continue
        # ``min_seq`` drops any entry at or below the previous
        # watermark, so the count check also enforces sequence order.
        segment = records_to_entries(pending, min_seq=through_seq)
        for entry in segment:
            if entry.decision is None:
                raise WalCorruptionError(
                    f"{path}: checkpoint hides undecided entry seq {entry.seq}"
                )
        if segment:
            through_seq = segment[-1].seq
        claimed = tuple(record.get(k) for k in ("v", "through_seq", "count", "sha256"))
        if claimed != (WAL_VERSION, through_seq, len(segment), digest.hexdigest()):
            raise WalCorruptionError(
                f"{path}: the segment ending at byte {offset} does not "
                "match its watermark (version, sequence, count or digest)"
            )
        entries += segment
        committed, pending, digest = offset, [], hashlib.sha256()
    return entries, through_seq, committed


def read_checkpoint(
    directory: str | Path,
) -> tuple[list[LedgerEntry], int]:
    """Load ``checkpoint.log``; returns ``(entries, through_seq)``.

    A missing checkpoint is the empty ledger, and an uncommitted tail is
    ignored (the WAL still holds it).  Damage before the last watermark
    raises :class:`~repro.errors.WalCorruptionError` — a damaged
    checkpoint silently ignored would silently drop acked decisions — and
    so do a version-1 snapshot and version-2 or -3 segments, which this
    build cannot read.
    """
    directory = Path(directory)
    if (directory / "checkpoint.json").exists():
        raise WalCorruptionError(
            f"{directory}: holds a version-1 checkpoint.json; this build reads "
            f"only checkpoint.log (version {WAL_VERSION}) — recover the "
            "directory with the release that wrote it"
        )
    return _fold_checkpoint(directory / "checkpoint.log")[:2]


def _last_watermark(fd: int, path: Path) -> int:
    """``through_seq`` of the watermark ``checkpoint.log`` ends with.

    Reads only the file's tail (a watermark frame is ~150 bytes).  A file
    that does not end in one holds an uncommitted tail: it is cut back to
    the last committed byte, found by a full verified read — the one case
    that costs more than the tail.
    """
    size = os.fstat(fd).st_size
    if not size:
        return 0
    tail = os.pread(fd, 512, max(0, size - 512))
    start = tail.rfind(b"\n", 0, -1) + 1
    mark = _parse_frame(tail[start:]) if start or len(tail) == size else None
    if mark and mark.get("k") == "mark" and mark.get("v") == WAL_VERSION:
        return int(mark["through_seq"])  # type: ignore[arg-type]
    _, through_seq, committed = _fold_checkpoint(path)
    os.ftruncate(fd, committed)
    return through_seq


def write_checkpoint(wal: WriteAheadLog) -> Path:
    """Append ``wal``'s frames to ``checkpoint.log`` as one segment, then
    its watermark, then one fsync; returns the path.  The caller truncates
    the WAL next.

    The frames are copied as they are on disk, so the cost is the bytes
    logged since the last truncation.  A logged job without a logged
    decision (``wal.last_decided`` short of ``wal.last_seq``) raises
    :class:`~repro.errors.WalCorruptionError` before anything is written:
    hidden below the watermark it could never be re-decided.
    """
    if wal.last_decided != wal.last_seq:
        raise WalCorruptionError(
            f"refusing to checkpoint undecided entry seq {wal.last_decided + 1}"
        )
    segment = wal.path.read_bytes()
    path = wal.directory / "checkpoint.log"
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        mark = {
            "k": "mark",
            "v": WAL_VERSION,
            "through_seq": wal.last_seq,
            "count": wal.last_seq - _last_watermark(fd, path),
            "sha256": hashlib.sha256(segment).hexdigest(),
        }
        os.write(fd, segment + _encode(mark))
        os.fsync(fd)
    finally:
        os.close(fd)
    return path
