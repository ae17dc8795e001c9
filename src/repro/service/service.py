"""The fault-tolerant admission front-end (arbitrator-as-a-service).

:class:`AdmissionService` turns the library :class:`~repro.core.arbitrator.
QoSArbitrator` into a long-running asyncio service with the robustness
properties a "predictable" resource manager owes its clients:

* **Bounded ingress + backpressure** — requests enter a bounded queue (a
  plain deque: one future parks the idle drain loop, a FIFO of waiter
  futures holds callers blocked on a full queue); when it is full,
  :meth:`submit` *waits* (releasing the event loop) rather than buffering
  unboundedly, up to the request's deadline.
* **Batching** — a batch is what is waiting: the drain loop takes
  everything queued into one :meth:`~repro.core.arbitrator.QoSArbitrator.
  admit_batch` call, one WAL frame pair and one fsync, riding the
  compiled one-call admission kernel when it is available.  Batch
  boundaries never change decisions (the batch API's equivalence
  contract), so coalescing is pure amortization.
* **Graceful degradation** — under overload the service degrades in
  order of honesty: QoS-class-aware **load shedding** (lower classes
  are turned away first, counted per class, never silently dropped) and
  **degraded-quality admission** (tunable jobs keep only their cheapest
  OR-path — less work per job, so more jobs clear admission) before any
  outright failure.
* **Deadlines and fail-stop** — every request may carry a deadline; the
  decision path is one in-process call, so an exception from it is a
  bug, not a transient fault: the service *fail-stops* on the first one
  (unacked work is recovered from the WAL) instead of retrying or
  guessing.
* **Durability** — the write-ahead log (:mod:`repro.service.wal`)
  makes every ack crash-safe: effective jobs and decisions are fsync'd
  before clients see them, checkpoints copy the log's frames to
  ``checkpoint.log`` and truncate it, and
  :func:`repro.service.recovery.recover` rebuilds the exact pre-crash
  schedule (bit-identical, auditor-verified) from the log.  The two
  files are the only ledger: the service keeps no copy in memory, and
  :attr:`AdmissionService.entries` reads them back on demand.

Idempotency: requests carry client ``request_id``\\ s; a duplicate of a
pending request awaits the same future, and a duplicate of a decided one
is answered from the decision the service keeps for its id, without
touching the arbitrator — which is also how clients safely retry after a
crash.
"""

from __future__ import annotations

import asyncio
import itertools
import operator
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import TIME_LIMIT
from repro.errors import ConfigurationError, ServiceUnavailableError
from repro.model.job import Job
from repro.service.wal import LedgerEntry, WriteAheadLog, decision_to_tuple, write_checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.recovery import RecoveredState

__all__ = [
    "ServiceConfig",
    "ServiceOutcome",
    "ServiceDecision",
    "AdmissionService",
    "degrade_job",
    "make_arbitrator",
]


class ServiceOutcome(Enum):
    """What the service tells a client about its request."""

    #: Decided and committed: the job holds a reservation.
    ADMITTED = "admitted"
    #: Decided: no configuration was schedulable.
    REJECTED = "rejected"
    #: Turned away unprocessed under overload (QoS-class shedding).
    #: Not logged — the client may retry with the same request id.
    SHED = "shed"
    #: The request's deadline passed.  If ``decision`` is attached the
    #: outcome *was* decided (durably) after the client's patience ran
    #: out; a retry with the same request id returns it.
    TIMED_OUT = "timed-out"


class ServiceDecision(NamedTuple):
    """The service's answer for one request (immutable)."""

    request_id: str
    outcome: ServiceOutcome
    qos: int
    degraded: bool = False
    decision: AdmissionDecision | None = None
    seq: int | None = None
    late: bool = False

    @property
    def admitted(self) -> bool:
        return self.outcome is ServiceOutcome.ADMITTED


#: The outcome of a request that was decided, by ``AdmissionDecision.admitted``.
_DECIDED = {True: ServiceOutcome.ADMITTED, False: ServiceOutcome.REJECTED}


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Policy knobs for one :class:`AdmissionService`.

    ``shed_thresholds[c]`` is the ingress-queue occupancy fraction at or
    above which QoS class ``c`` (0 = highest) is shed; a value above 1.0
    means the class is never shed (it backpressures instead).  Classes
    beyond the tuple use its last entry.  ``degrade_occupancy`` is the
    occupancy at which tunable jobs are narrowed to their cheapest
    OR-path before admission.

    A batch is whatever is waiting when the drain loop wakes, so the bound
    on a batch is ``queue_limit``.  ``max_batch`` caps one decision batch
    (one ``admit_batch``, one WAL frame pair, one fsync) for a caller who
    wants that bounded below the queue; at its default — the default
    ``queue_limit`` — it does not bind.  A lower cap buys no earlier ack
    (capped batches run back to back without yielding), only more fsyncs.

    The arbitrator is always the default one (:func:`make_arbitrator`):
    crash recovery replays the WAL through a *fresh* arbitrator, and the
    replayed schedule must be bit-identical to the pre-crash one.

    Who sets each field off its default (a knob with no such user goes):

    * ``capacity``: required, no default.
    * ``malleable``: chaos ``malleable-baseline``, ``malleable-kill``,
      ``malleable-torn-decision``, ``malleable-torn-ckpt``.
    * ``queue_limit``: chaos ``overload-shed``, ``degrade-under-load``,
      ``stop-under-backpressure``.
    * ``max_batch``: chaos ``overload-shed``, ``baseline-large-batches``.
    * ``shed_thresholds``: chaos ``overload-shed``.
    * ``degrade_occupancy``: e2e ``svc_flood``, ``svc_paced``,
      ``svc_restart``; chaos ``degrade-under-load``.
    * ``checkpoint_every``: e2e ``svc_restart``; chaos
      ``checkpoint-then-kill``, ``torn-checkpoint-append``.
    """

    capacity: int
    malleable: bool = False
    queue_limit: int = 1024
    max_batch: int = 1024
    shed_thresholds: tuple[float, ...] = (1.01, 0.85, 0.6)
    degrade_occupancy: float = 0.5
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.queue_limit < 1 or self.max_batch < 1:
            raise ConfigurationError("queue_limit and max_batch must be >= 1")


def make_arbitrator(config: ServiceConfig) -> QoSArbitrator:
    """A fresh arbitrator configured exactly as the service (and replay) uses."""
    return QoSArbitrator(
        config.capacity,
        malleable=config.malleable,
        # Shed or timed-out requests may be retried after later-release
        # jobs were decided, so the service cannot promise the
        # non-decreasing release order that profile compaction requires.
        compact=False,
        keep_placements=True,
    )


def _chain_rank(chain) -> tuple[float, int]:
    """Total processor-time work, then task count: cheaper ranks lower."""
    return sum(t.processors * t.duration for t in chain.tasks), len(chain.tasks)


def degrade_job(job: Job) -> tuple[Job, bool]:
    """Narrow a tunable job to its cheapest OR-path.

    The cheapest chain has the least total processor-time work (ties:
    fewer tasks, then the earlier position).  The returned job *is* what
    gets logged and offered — replay needs no knowledge that degradation
    happened, only the effective job.  Returns ``(job, False)`` unchanged
    when the job has one chain.
    """
    if len(job.chains) <= 1:
        return job, False
    return replace(job, chains=(min(job.chains, key=_chain_rank),)), True


#: What the ingress queue holds: the request's ledger row (built once, in
#: ``enqueue``; what the WAL's ``jobs`` frame encodes), its future and its
#: absolute deadline on the service clock.  Tuple and row die with the batch.
_Queued = tuple[LedgerEntry, asyncio.Future, "float | None"]


#: Decision executor signature: returns the batch's decisions with the
#: arbitrator updated.  Any exception fail-stops the service; recovery
#: replays the WAL into a fresh arbitrator, so a half-applied batch is
#: never reused.
DecideFn = Callable[[QoSArbitrator, Sequence[Job]], "Sequence[AdmissionDecision]"]


def _default_decide(
    arbitrator: QoSArbitrator, jobs: Sequence[Job]
) -> Sequence[AdmissionDecision]:
    return arbitrator.admit_batch(list(jobs))


class _Ledger(Sequence[LedgerEntry]):
    """The durable ledger, read-only: ``checkpoint.log`` and ``wal.log``
    folded by :func:`~repro.service.recovery.read_ledger` (no repair) at
    each read.  Its length costs nothing: sequence numbers are contiguous
    from 1, so it is the last one the WAL logged."""

    def __init__(self, wal: WriteAheadLog) -> None:
        self._wal = wal

    def __len__(self) -> int:
        return self._wal.last_seq

    def __getitem__(self, index):  # type: ignore[override]
        return list(self)[index]

    def __iter__(self) -> Iterator[LedgerEntry]:
        from repro.service.recovery import read_ledger  # imports this module

        return iter(read_ledger(self._wal.directory)[0])


class AdmissionService:
    """Asyncio admission front-end over a durable decision ledger.

    Lifecycle: construct (optionally from a
    :class:`~repro.service.recovery.RecoveredState`), :meth:`start`,
    serve :meth:`submit` calls, then :meth:`stop` (graceful drain) or
    :meth:`kill` (simulated crash — the chaos harness's weapon).

    ``entries`` is the durable ledger as a read-only sequence, read from
    disk when iterated or indexed; nothing on the request path reads it.
    """

    def __init__(
        self,
        config: ServiceConfig,
        wal_dir: str | Path,
        *,
        recovered: "RecoveredState | None" = None,
        decide: DecideFn = _default_decide,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self._decide_fn = decide
        self.wal = WriteAheadLog(wal_dir)
        self.entries: Sequence[LedgerEntry] = _Ledger(self.wal)
        self._seen: dict[str, asyncio.Future | ServiceDecision] = {}
        if recovered is not None:
            self.arbitrator = recovered.arbitrator
            self.wal.last_seq = self.wal.last_decided = recovered.last_seq
            for e, decision in zip(recovered.entries, recovered.decisions):
                self._seen[e.request_id] = ServiceDecision(
                    e.request_id, _DECIDED[decision.admitted], e.qos, e.degraded,
                    decision, e.seq,
                )
        else:
            self.arbitrator = make_arbitrator(config)
        # Ids for requests submitted without one: unique within this life by
        # the counter and across lives by the sequence number it started at
        # (a life that logged nothing left nothing to collide with).
        self._auto_ids = map(f"auto-{self.wal.last_seq}-{{}}".format, itertools.count())
        self._queue: deque[_Queued] = deque()
        self._idle: asyncio.Future | None = None  # parks an idle drain loop
        self._waiters: deque[asyncio.Future] = deque()  # blocked callers, FIFO
        self._task: asyncio.Task | None = None
        self._stopping = False
        self._blocked = 0  # enqueue() calls waiting in backpressure
        self._failed: str | None = None
        self._cause: BaseException | None = None  # chained to every refusal
        self._undecided_since_checkpoint = 0
        self.counters: dict[str, float] = {
            "submitted": 0,
            "acked": 0,
            "admitted": 0,
            "rejected": 0,
            "degraded": 0,
            "duplicates": 0,
            "shed": 0,
            "timed_out_queue": 0,
            "timed_out_backpressure": 0,
            "late_decisions": 0,
            "batches": 0,
            "batch_jobs": 0,
            # Always 0: a decision is never retried.  Kept because
            # benchmarks/e2e/layers.py:246 reports it as service.retries.
            "retries": 0,
            "checkpoints": 0,
        }
        for cls in range(len(config.shed_thresholds)):
            self.counters[f"shed_class_{cls}"] = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the drain loop (requires a running event loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Graceful shutdown: decide everything accepted, refuse the rest, close.

        Every request :meth:`enqueue` accepted before this call — queued,
        or still waiting in backpressure — is decided, logged and acked;
        every later caller gets :class:`~repro.errors.ServiceUnavailableError`.
        When this returns no future is pending and the WAL is closed:
        nothing is appended afterwards.
        """
        self._stopping = True
        self._wake_drain()
        if self._task is not None:
            await self._task
            self._task = None
        self._reject_all_pending("service is shutting down")
        self.wal.close()

    def kill(self) -> None:
        """Simulated crash: stop abruptly, decide nothing more, abandon the WAL.

        Queued requests are left unacked (their futures get
        :class:`~repro.errors.ServiceUnavailableError`; a batch is decided
        without yielding, so none is in flight) — exactly the client
        experience of a dying process; clients re-submit after recovery and
        idempotency answers what was already decided.
        """
        self._failed = "killed"
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self._reject_all_pending("service crashed")
        self.wal.abandon()

    @property
    def running(self) -> bool:
        return self._task is not None and self._failed is None

    def _fail(self, reason: str, cause: BaseException) -> None:
        self._failed, self._cause = reason, cause
        self._reject_all_pending(reason)
        self.wal.abandon()

    def _wake_drain(self) -> None:
        """Make a parked drain loop re-read the queue and lifecycle flags."""
        idle, self._idle = self._idle, None
        if idle is not None and not idle.done():
            idle.set_result(None)

    def _wake_waiters(self, n: int) -> None:
        """Wake the ``n`` oldest live callers blocked on a full queue."""
        waiters = self._waiters
        while n > 0 and waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                n -= 1

    def _reject_all_pending(self, reason: str) -> None:
        queued = list(self._queue)
        self._queue.clear()
        # Blocked callers land their rows, see the failure and reject them.
        self._wake_waiters(len(self._waiters))
        self._abandon(queued, reason)

    def _abandon(self, batch: Sequence[_Queued], reason: str) -> None:
        """Fail every request of ``batch`` that was not acked; the client retries."""
        for row, future, _ in batch:
            if not future.done():
                self._seen.pop(row.request_id, None)
                error = ServiceUnavailableError(reason)
                error.__cause__ = self._cause
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    async def submit(
        self,
        job: Job,
        *,
        qos: int = 0,
        timeout: float | None = None,
        request_id: str | None = None,
    ) -> ServiceDecision:
        """Request admission of ``job``; await the durable outcome."""
        future = await self.enqueue(job, qos=qos, timeout=timeout, request_id=request_id)
        return await asyncio.shield(future)

    async def enqueue(
        self,
        job: Job,
        *,
        qos: int = 0,
        timeout: float | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceDecision]":
        """Admit-or-shed a request into the ingress queue; returns its future.

        This is the streaming half of :meth:`submit`: it applies dedup,
        shedding and backpressure, then hands back the future so callers
        can pipeline many requests before awaiting any decision.

        Input contract, checked before anything is counted, queued or
        logged: ``job`` is a :class:`~repro.model.job.Job` whose ``job_id``
        fits the WAL's signed 64-bit column and whose release is inside the
        model's time range (as ``Job`` itself checks, asked again of a job
        whose fields were set around its constructor; its tasks' times were
        checked by theirs), ``request_id`` a ``str`` or ``None`` and
        ``qos`` an ``int`` (not a ``bool``) in ``[0, 2**63)``.
        A violation raises ``TypeError`` or ``ValueError`` to this caller
        alone (past this gate it would fail-stop the service).
        """
        if not isinstance(job, Job):
            raise TypeError(f"job must be a Job, not {type(job).__name__}")
        if request_id is not None and not isinstance(request_id, str):
            raise TypeError(
                f"request_id must be a str or None, not {type(request_id).__name__}"
            )
        if isinstance(qos, bool) or not isinstance(qos, int):
            raise TypeError(f"qos must be an int, not {type(qos).__name__}")
        if not 0 <= qos < 2**63:
            raise ValueError(f"qos must be in [0, 2**63), got {qos}")
        if not -(2**63) <= operator.index(job.job_id) < 2**63:
            raise ValueError(f"job.job_id must fit in 64 signed bits, got {job.job_id}")
        if not -TIME_LIMIT < job.release < TIME_LIMIT:
            raise ValueError(f"job.release outside the model's time range: {job.release!r}")
        if self._failed is not None or self._stopping:
            reason = self._failed or "service is shutting down"
            raise ServiceUnavailableError(reason) from self._cause
        loop = asyncio.get_running_loop()
        rid = request_id if request_id is not None else next(self._auto_ids)
        counters = self.counters
        counters["submitted"] += 1
        prior = self._seen.get(rid)
        if prior is not None:
            counters["duplicates"] += 1
            if isinstance(prior, ServiceDecision):
                done: asyncio.Future = loop.create_future()
                done.set_result(prior)
                return done
            return prior

        deadline = None if timeout is None else self.clock() + timeout

        # QoS-class-aware shedding: cheap, pre-queue, never logged.
        queue, limit = self._queue, self.config.queue_limit
        occupancy = len(queue) / limit
        thresholds = self.config.shed_thresholds
        threshold = thresholds[min(qos, len(thresholds) - 1)]
        if occupancy >= threshold:
            counters["shed"] += 1
            key = f"shed_class_{min(qos, len(thresholds) - 1)}"
            counters[key] = counters.get(key, 0) + 1
            done = loop.create_future()
            done.set_result(ServiceDecision(rid, ServiceOutcome.SHED, qos))
            return done

        # The request's one record: this row is what the WAL is handed and
        # what the ledger keeps; ``_process`` fills in seq and decision.
        future: asyncio.Future = loop.create_future()
        item = (LedgerEntry(0, rid, qos, False, job), future, deadline)
        self._seen[rid] = future
        if len(queue) < limit:
            queue.append(item)
            if self._idle is not None:
                self._wake_drain()
            return future
        self._blocked += 1
        try:
            while len(queue) >= limit:
                waiter = loop.create_future()
                self._waiters.append(waiter)
                try:
                    await asyncio.wait_for(
                        waiter, None if deadline is None else max(0.0, deadline - self.clock())
                    )
                except BaseException:
                    # Cancelled, the waiter is skipped by the next wake-up;
                    # woken, it passes its wake-up on.
                    if not waiter.cancel() and not waiter.cancelled():
                        self._wake_waiters(1)
                    raise
            queue.append(item)
            self._wake_drain()
        except asyncio.TimeoutError:
            self._seen.pop(rid, None)
            counters["timed_out_backpressure"] += 1
            future.set_result(ServiceDecision(rid, ServiceOutcome.TIMED_OUT, qos))
        except asyncio.CancelledError:
            self._seen.pop(rid, None)  # never landed: a retry must not await it
            raise
        finally:
            self._blocked -= 1
            if self._failed is not None:
                # The drain loop died while this caller waited: nobody
                # reads the queue its row may just have landed in.
                self._reject_all_pending(self._failed)
            elif self._stopping:
                # stop() waits for the last blocked caller, landed or not.
                self._wake_drain()
        return future

    def stats(self) -> dict[str, float]:
        """Honest service counters plus WAL and queue instrumentation."""
        out = dict(self.counters)
        out["wal_appends"] = self.wal.appends
        out["wal_syncs"] = self.wal.syncs
        out["queue_depth"] = len(self._queue)
        out["ledger_entries"] = self.wal.last_seq
        out["failed"] = int(self._failed is not None)
        return out

    # ------------------------------------------------------------------
    # Drain loop
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        queue, cap = self._queue, self.config.max_batch
        loop = asyncio.get_running_loop()
        while True:
            if not queue:
                if self._stopping and not self._blocked:
                    return
                self._idle = loop.create_future()
                await self._idle
                continue
            # A batch is what is waiting.  Taking it never yields, so a
            # smaller cap would not ack anyone sooner: capped batches run
            # back to back, each paying its own frames and fsync.
            if len(queue) <= cap:
                batch = list(queue)
                queue.clear()
            else:
                batch = [queue.popleft() for _ in range(cap)]
            self._wake_waiters(len(batch))
            try:
                self._process(batch)
            except Exception as exc:
                # Fail-stop: a decision-path or WAL failure.  Unacked work
                # is in the WAL (or never was, in which case clients
                # retry); recovery owns the rest.
                self._fail(f"service failed: {exc}", exc)
                self._abandon(batch, str(exc))
                return
            del batch  # an idle drain loop pins no futures

    def _process(self, batch: list[_Queued]) -> None:
        now = self.clock()
        config, counters, seen = self.config, self.counters, self._seen
        rows: list[LedgerEntry] = []
        seq = self.wal.last_seq
        for row, future, deadline in batch:
            if deadline is not None and now > deadline:
                counters["timed_out_queue"] += 1
                seen.pop(row.request_id, None)
                if not future.done():
                    future.set_result(
                        ServiceDecision(
                            row.request_id, ServiceOutcome.TIMED_OUT, row.qos
                        )
                    )
            else:
                seq += 1
                row.seq = seq
                rows.append(row)
        if not rows:
            return
        # Expired rows were never numbered.
        live = batch if len(rows) == len(batch) else [q for q in batch if q[0].seq]

        # Degraded-quality admission under backlog: narrow OR-paths
        # *before* logging, so the WAL holds the effective jobs.
        occupancy = (len(rows) + len(self._queue)) / config.queue_limit
        if occupancy >= config.degrade_occupancy:
            for row in rows:
                row.job, row.degraded = degrade_job(row.job)
                counters["degraded"] += row.degraded

        # Append-before-ack, step 1: the effective jobs.  Durability is
        # deferred to the decision append's fsync — no ack happens before
        # that, and a crash in between loses only unacked work.
        self.wal.append_jobs(rows, sync=False)
        self._undecided_since_checkpoint += len(rows)

        decisions = self._decide_fn(self.arbitrator, [row.job for row in rows])

        # Append-before-ack, step 2: the decisions; the one fsync hardens
        # both records of the batch.
        self.wal.append_decisions(
            range(rows[0].seq, seq + 1), map(decision_to_tuple, decisions)
        )

        # Ack, one pass.  Counters are tallied locally and folded in once
        # after the loop — this runs for every decision the service ever
        # makes.
        now = self.clock()
        admitted = late = 0
        for (row, future, deadline), decision in zip(live, decisions):
            admitted += decision.admitted
            answer = seen[row.request_id] = ServiceDecision(
                row.request_id, _DECIDED[decision.admitted], row.qos, row.degraded,
                decision, row.seq,
            )
            if deadline is not None and now > deadline:
                # Decided — durably — after the client's patience ran out.
                late += 1
                answer = answer._replace(outcome=ServiceOutcome.TIMED_OUT, late=True)
            if not future.done():
                future.set_result(answer)
        counters["batches"] += 1
        counters["batch_jobs"] += len(rows)
        counters["acked"] += len(rows)
        counters["admitted"] += admitted
        counters["rejected"] += len(rows) - admitted
        counters["late_decisions"] += late

        every = config.checkpoint_every
        if every and self._undecided_since_checkpoint >= every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Copy the WAL's frames to ``checkpoint.log`` under a new watermark
        (a logged job without a logged decision raises), then truncate the
        WAL."""
        path = write_checkpoint(self.wal)
        self.wal.truncate()
        self.counters["checkpoints"] += 1
        self._undecided_since_checkpoint = 0
        return path
