"""Crash recovery: rebuild the exact pre-crash arbitrator from the WAL.

Recovery is a pure function of the WAL directory and the service
configuration:

1. fold ``checkpoint.log`` — every frame CRC, every watermark's version,
   digest and count verified, sequence numbers strictly increasing, every
   entry decided — into the ledger through the last watermark's
   ``through_seq``, ignoring an uncommitted tail after it (a checkpoint
   append the crash interrupted: the WAL still holds those entries) and
   refusing a version-1 snapshot;
2. parse ``wal.log``, repairing (physically truncating) a torn tail the
   crash legitimately left, and fold its records into ledger entries,
   skipping anything the checkpoint already covers and refusing a log
   that was truncated against a later watermark than the checkpoint
   reaches (steps 1 and 2 are :func:`read_ledger`, which the service's
   ``entries`` view reads through too, without the repair);
3. replay every effective job, in ledger order, through a **fresh**
   arbitrator built with :func:`~repro.service.service.make_arbitrator`
   and demand — via :func:`repro.verify.checks.verify_replay` — that
   every logged decision is reproduced *bit-identically* and that the
   independent :class:`~repro.verify.auditor.ScheduleAuditor` finds zero
   violations in the recovered schedule;
4. re-decide the undecided tail (jobs logged before the crash whose
   decision append never landed) and durably log those decisions, so a
   second crash straight after recovery replays idempotently.

Because the tie-break policy is forbidden from being ``RANDOM`` and the
batch API is decision-equivalent to the serial loop, the replayed
schedule *is* the pre-crash schedule — not an approximation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import QoSArbitrator
from repro.service.service import ServiceConfig, make_arbitrator
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    decision_to_tuple,
    read_checkpoint,
    read_wal,
    records_to_entries,
)
from repro.verify.auditor import AuditReport
from repro.verify.checks import verify_replay

__all__ = ["RecoveredState", "read_ledger", "recover"]


@dataclass(slots=True)
class RecoveredState:
    """Everything a restarted :class:`AdmissionService` needs to resume.

    ``entries``/``decisions`` are aligned; every entry is decided (the
    crash's undecided tail — ``redecided`` of them — was decided during
    recovery and durably re-logged).  ``report`` is the independent audit
    of the recovered schedule and is clean by construction (recovery
    raises otherwise).
    """

    arbitrator: QoSArbitrator
    entries: list[LedgerEntry]
    decisions: list[AdmissionDecision]
    last_seq: int
    redecided: int
    truncated_bytes: int
    report: AuditReport


def read_ledger(
    directory: str | Path, *, repair: bool = False
) -> tuple[list[LedgerEntry], int, int]:
    """The durable ledger: ``checkpoint.log`` folded through its last
    watermark, then ``wal.log`` past it.

    Returns ``(entries, through_seq, truncated_bytes)``.  ``repair`` cuts
    a torn WAL tail off the file (recovery's step 2); without it the tail
    is only skipped and nothing is written.
    """
    directory = Path(directory)
    checkpointed, through_seq = read_checkpoint(directory)
    records, truncated = read_wal(directory / "wal.log", repair=repair)
    entries = checkpointed + records_to_entries(records, min_seq=through_seq)
    return entries, through_seq, truncated


def recover(
    wal_dir: str | Path, config: ServiceConfig, *, strict: bool = True
) -> RecoveredState:
    """Replay checkpoint + WAL into a fresh, audited arbitrator.

    Raises :class:`~repro.errors.WalCorruptionError` for damage beyond a
    torn tail and :class:`~repro.errors.VerificationError` when the
    replayed schedule is not bit-identical to the logged ledger (with
    ``strict``, the default).  Safe to call repeatedly: recovery is
    idempotent and leaves the log strictly cleaner than it found it.
    """
    directory = Path(wal_dir)
    entries, through_seq, truncated = read_ledger(directory, repair=True)

    arbitrator = make_arbitrator(config)
    expected = [entry.decision for entry in entries]
    decisions, report = verify_replay(
        arbitrator,
        [entry.job for entry in entries],
        expected,
        malleable=config.malleable,
        strict=strict,
    )

    # Decide-and-persist the crash window: entries whose job record
    # landed but whose decision append did not.
    undecided = [i for i, want in enumerate(expected) if want is None]
    for i in undecided:
        entries[i].decision = decision_to_tuple(decisions[i])
    if undecided:
        wal = WriteAheadLog(directory)
        try:
            wal.append_decisions(
                [entries[i].seq for i in undecided], [decisions[i] for i in undecided]
            )
        finally:
            wal.close()

    return RecoveredState(
        arbitrator=arbitrator,
        entries=entries,
        decisions=decisions,
        last_seq=entries[-1].seq if entries else through_seq,
        redecided=len(undecided),
        truncated_bytes=truncated,
        report=report,
    )
