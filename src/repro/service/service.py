"""The fault-tolerant admission front-end (arbitrator-as-a-service).

:class:`AdmissionService` turns the library :class:`~repro.core.arbitrator.
QoSArbitrator` into a long-running asyncio service with the robustness
properties a "predictable" resource manager owes its clients:

* **Bounded ingress + backpressure** — requests enter a bounded queue;
  when it is full, :meth:`submit` *waits* (releasing the event loop)
  rather than buffering unboundedly, up to the request's deadline.
* **Batching** — the drain loop coalesces whatever is queued (up to
  ``max_batch``) into one :meth:`~repro.core.arbitrator.QoSArbitrator.
  admit_batch` call, riding the compiled one-call admission kernel when
  it is available.  Batch boundaries never change decisions (the batch
  API's equivalence contract), so coalescing is pure amortization.
* **Graceful degradation** — under overload the service degrades in
  order of honesty: QoS-class-aware **load shedding** (lower classes
  are turned away first, counted per class, never silently dropped) and
  **degraded-quality admission** (tunable jobs keep only their
  ``degrade_keep`` cheapest OR-paths — less work per job, so more jobs
  clear admission) before any outright failure.
* **Deadlines, retries, backoff** — every request carries a deadline;
  transient decision-worker failures are retried with exponential
  backoff plus seeded jitter; a permanently failing decision path
  *fail-stops* the service (unacked work is recovered from the WAL)
  instead of guessing.
* **Durability** — the write-ahead log (:mod:`repro.service.wal`)
  makes every ack crash-safe: effective jobs and decisions are fsync'd
  before clients see them, checkpoints bound replay time, and
  :func:`repro.service.recovery.recover` rebuilds the exact pre-crash
  schedule (bit-identical, auditor-verified) from the log.

Idempotency: requests carry client ``request_id``\\ s; a duplicate of a
pending request awaits the same future, and a duplicate of a decided one
is answered from the ledger without touching the arbitrator — which is
also how clients safely retry after a crash.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Awaitable, Callable, Sequence

from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.policies import TieBreakPolicy
from repro.core.profile import check_backend
from repro.errors import (
    ConfigurationError,
    ServiceUnavailableError,
    TransientWorkerError,
)
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

_SENTINEL = object()

_request_ids = itertools.count()


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


@dataclass(frozen=True, slots=True)
class ServiceDecision:
    """The service's answer for one request."""

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


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Policy knobs for one :class:`AdmissionService`.

    ``shed_thresholds[c]`` is the ingress-queue occupancy fraction at or
    above which QoS class ``c`` (0 = highest) is shed; a value above 1.0
    means the class is never shed (it backpressures instead).  Classes
    beyond the tuple use its last entry.  ``degrade_occupancy`` is the
    occupancy at which tunable jobs are narrowed to their
    ``degrade_keep`` cheapest OR-paths before admission.

    The tie-break policy must be deterministic (``RANDOM`` is rejected):
    crash recovery replays the WAL through a *fresh* arbitrator and the
    replayed schedule must be bit-identical to the pre-crash one.
    """

    capacity: int
    malleable: bool = False
    objective: ArbitrationObjective = ArbitrationObjective.EARLIEST_FINISH
    policy: TieBreakPolicy = TieBreakPolicy.PAPER
    backend: str = "auto"
    prune: bool = True
    # Shed or timed-out requests may be retried after later-release jobs
    # were decided, so the service cannot promise the non-decreasing
    # release order that profile compaction requires.
    compact: bool = False
    queue_limit: int = 1024
    max_batch: int = 128
    shed_thresholds: tuple[float, ...] = (1.01, 0.85, 0.6)
    degrade_occupancy: float = 0.5
    degrade_keep: int = 1
    max_attempts: int = 4
    backoff_base: float = 0.002
    backoff_cap: float = 0.25
    backoff_jitter: float = 0.5
    default_timeout: float | None = None
    checkpoint_every: int = 0
    fsync: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        # Here, not at make_arbitrator(): by then AdmissionService has
        # opened the WAL and recover() may have repaired its tail.
        check_backend(self.backend)
        if self.policy is TieBreakPolicy.RANDOM:
            raise ConfigurationError(
                "the admission service requires a deterministic tie-break "
                "policy (WAL replay must be bit-identical); RANDOM is not"
            )
        if self.queue_limit < 1 or self.max_batch < 1:
            raise ConfigurationError("queue_limit and max_batch must be >= 1")
        if self.degrade_keep < 1:
            raise ConfigurationError("degrade_keep must be >= 1")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")


def make_arbitrator(config: ServiceConfig) -> QoSArbitrator:
    """A fresh arbitrator configured exactly as the service (and replay) uses."""
    return QoSArbitrator(
        config.capacity,
        malleable=config.malleable,
        objective=config.objective,
        policy=config.policy,
        backend=config.backend,
        prune=config.prune,
        compact=config.compact,
        keep_placements=True,
    )


def _chain_cost(chain) -> float:
    return sum(t.processors * t.duration for t in chain.tasks)


def degrade_job(job: Job, keep: int) -> tuple[Job, bool]:
    """Narrow a tunable job to its ``keep`` cheapest OR-paths.

    Chains are ranked by total processor-time work (ties: fewer tasks,
    then original position) and the survivors keep their original
    relative order.  The returned job *is* what gets logged and offered —
    replay needs no knowledge that degradation happened, only the
    effective job.  Returns ``(job, False)`` unchanged when nothing can
    be dropped.
    """
    if len(job.chains) <= keep:
        return job, False
    order = sorted(
        range(len(job.chains)),
        key=lambda i: (_chain_cost(job.chains[i]), len(job.chains[i].tasks), i),
    )
    kept = sorted(order[:keep])
    return (
        Job(
            chains=tuple(job.chains[i] for i in kept),
            release=job.release,
            job_id=job.job_id,
            name=job.name,
        ),
        True,
    )


@dataclass(slots=True)
class _Pending:
    request_id: str
    qos: int
    job: Job
    future: asyncio.Future
    deadline: float | None  # absolute, on the service clock


#: Decision executor signature: must be atomic — either return the full
#: batch's decisions with the arbitrator updated, or raise
#: :class:`~repro.errors.TransientWorkerError` having changed nothing.
DecideFn = Callable[[QoSArbitrator, Sequence[Job]], "Sequence[AdmissionDecision]"]


def _default_decide(
    arbitrator: QoSArbitrator, jobs: Sequence[Job]
) -> Sequence[AdmissionDecision]:
    return arbitrator.admit_batch(list(jobs))


class AdmissionService:
    """Asyncio admission front-end over a durable decision ledger.

    Lifecycle: construct (optionally from a
    :class:`~repro.service.recovery.RecoveredState`), :meth:`start`,
    serve :meth:`submit` calls, then :meth:`stop` (graceful drain) or
    :meth:`kill` (simulated crash — the chaos harness's weapon).
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
        self._rng = random.Random(config.seed)
        self.wal = WriteAheadLog(wal_dir, fsync=config.fsync)
        self.entries: list[LedgerEntry] = []
        self._seen: dict[str, asyncio.Future | ServiceDecision] = {}
        self._seq = 0
        if recovered is not None:
            self.arbitrator = recovered.arbitrator
            self.entries = list(recovered.entries)
            self._seq = self.wal.last_seq = recovered.last_seq
            for entry, decision in zip(recovered.entries, recovered.decisions):
                self._seen[entry.request_id] = ServiceDecision(
                    request_id=entry.request_id,
                    outcome=ServiceOutcome.ADMITTED
                    if decision.admitted
                    else ServiceOutcome.REJECTED,
                    qos=entry.qos,
                    degraded=entry.degraded,
                    decision=decision,
                    seq=entry.seq,
                )
        else:
            self.arbitrator = make_arbitrator(config)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_limit)
        self._task: asyncio.Task | None = None
        self._stopping = False
        self._failed: str | None = None
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
            "retries": 0,
            "retry_backoff_total": 0.0,
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
        """Graceful shutdown: drain the queue, decide everything, close."""
        self._stopping = True
        await self._queue.put(_SENTINEL)
        if self._task is not None:
            await self._task
            self._task = None
        self.wal.close()

    def kill(self) -> None:
        """Simulated crash: stop abruptly, resolve nothing, abandon the WAL.

        In-flight and queued requests are left unacked (their futures get
        :class:`~repro.errors.ServiceUnavailableError`) — exactly the
        client experience of a dying process; clients re-submit after
        recovery and idempotency answers what was already decided.
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

    def _fail(self, reason: str) -> None:
        self._failed = reason
        self._reject_all_pending(reason)
        self.wal.abandon()

    def _reject_all_pending(self, reason: str) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _SENTINEL:
                continue
            self._resolve_exception(item, reason)

    def _resolve_exception(self, pending: _Pending, reason: str) -> None:
        self._seen.pop(pending.request_id, None)
        if not pending.future.done():
            pending.future.set_exception(ServiceUnavailableError(reason))

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
        future = await self.enqueue(
            job, qos=qos, timeout=timeout, request_id=request_id
        )
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
        """
        if self._failed is not None or self._stopping:
            raise ServiceUnavailableError(
                self._failed or "service is shutting down"
            )
        loop = asyncio.get_running_loop()
        rid = request_id if request_id is not None else f"auto-{next(_request_ids)}"
        self.counters["submitted"] += 1
        prior = self._seen.get(rid)
        if prior is not None:
            self.counters["duplicates"] += 1
            if isinstance(prior, ServiceDecision):
                done: asyncio.Future = loop.create_future()
                done.set_result(prior)
                return done
            return prior

        timeout = timeout if timeout is not None else self.config.default_timeout
        deadline = None if timeout is None else self.clock() + timeout

        # QoS-class-aware shedding: cheap, pre-queue, never logged.
        occupancy = self._queue.qsize() / self.config.queue_limit
        thresholds = self.config.shed_thresholds
        threshold = thresholds[min(qos, len(thresholds) - 1)]
        if occupancy >= threshold:
            self.counters["shed"] += 1
            key = f"shed_class_{min(qos, len(thresholds) - 1)}"
            self.counters[key] = self.counters.get(key, 0) + 1
            done = loop.create_future()
            done.set_result(
                ServiceDecision(rid, ServiceOutcome.SHED, qos)
            )
            return done

        future: asyncio.Future = loop.create_future()
        pending = _Pending(rid, qos, job, future, deadline)
        self._seen[rid] = future
        try:
            if deadline is None:
                # Fast path: room in the queue, no deadline to arm —
                # skip the put() coroutine machinery entirely.
                if not self._queue.full():
                    self._queue.put_nowait(pending)
                else:
                    await self._queue.put(pending)
            else:
                await asyncio.wait_for(
                    self._queue.put(pending), max(0.0, deadline - self.clock())
                )
        except asyncio.TimeoutError:
            self._seen.pop(rid, None)
            self.counters["timed_out_backpressure"] += 1
            future.set_result(
                ServiceDecision(rid, ServiceOutcome.TIMED_OUT, qos)
            )
        return future

    def stats(self) -> dict[str, float]:
        """Honest service counters plus WAL and queue instrumentation."""
        out = dict(self.counters)
        out["wal_appends"] = self.wal.appends
        out["wal_syncs"] = self.wal.syncs
        out["queue_depth"] = self._queue.qsize()
        out["ledger_entries"] = len(self.entries)
        out["failed"] = int(self._failed is not None)
        return out

    # ------------------------------------------------------------------
    # Drain loop
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            if self._stopping and self._queue.empty():
                return
            item = await self._queue.get()
            if item is _SENTINEL:
                continue
            batch = [item]
            while len(batch) < self.config.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _SENTINEL:
                    continue
                batch.append(extra)
            try:
                await self._process(batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Fail-stop: a decision path or WAL failure the retry
                # loop could not absorb.  Unacked work is in the WAL (or
                # never was, in which case clients retry); recovery owns
                # the rest.
                self._fail(f"service failed: {exc}")
                for pending in batch:
                    self._resolve_exception(pending, str(exc))
                return

    async def _process(self, batch: list[_Pending]) -> None:
        now = self.clock()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                self.counters["timed_out_queue"] += 1
                self._seen.pop(pending.request_id, None)
                if not pending.future.done():
                    pending.future.set_result(
                        ServiceDecision(
                            pending.request_id,
                            ServiceOutcome.TIMED_OUT,
                            pending.qos,
                        )
                    )
            else:
                live.append(pending)
        if not live:
            return

        # Degraded-quality admission under backlog: narrow OR-paths
        # *before* logging, so the WAL holds the effective jobs.
        occupancy = (
            len(live) + self._queue.qsize()
        ) / self.config.queue_limit
        degrade = occupancy >= self.config.degrade_occupancy
        new_entries: list[LedgerEntry] = []
        for pending in live:
            job, was_degraded = (
                degrade_job(pending.job, self.config.degrade_keep)
                if degrade
                else (pending.job, False)
            )
            if was_degraded:
                self.counters["degraded"] += 1
            self._seq += 1
            new_entries.append(
                LedgerEntry(
                    seq=self._seq,
                    request_id=pending.request_id,
                    qos=pending.qos,
                    degraded=was_degraded,
                    job=job,
                )
            )

        # Append-before-ack, step 1: the effective jobs.  Durability is
        # deferred to the decision append's fsync — no ack happens before
        # that, and a crash in between loses only unacked work.
        self.wal.append_jobs(new_entries, sync=False)
        self._undecided_since_checkpoint += len(new_entries)

        decisions = await self._decide_with_retry(
            [entry.job for entry in new_entries]
        )

        # Append-before-ack, step 2: the decisions; the one fsync hardens
        # both records of the batch.
        tuples = [decision_to_tuple(d) for d in decisions]
        self.wal.append_decisions([e.seq for e in new_entries], tuples)
        for entry, tup in zip(new_entries, tuples):
            entry.decision = tup
        self.entries.extend(new_entries)
        self.counters["batches"] += 1
        self.counters["batch_jobs"] += len(new_entries)

        # Ack.  Counters are tallied locally and folded in once after the
        # loop — this runs for every decision the service ever makes.
        now = self.clock()
        seen = self._seen
        admitted = late = 0
        for pending, entry, decision in zip(live, new_entries, decisions):
            if decision.admitted:
                outcome = ServiceOutcome.ADMITTED
                admitted += 1
            else:
                outcome = ServiceOutcome.REJECTED
            answer = ServiceDecision(
                request_id=entry.request_id,
                outcome=outcome,
                qos=entry.qos,
                degraded=entry.degraded,
                decision=decision,
                seq=entry.seq,
            )
            seen[entry.request_id] = answer
            if pending.deadline is not None and now > pending.deadline:
                # Decided — durably — after the client's patience ran out.
                late += 1
                answer = replace(
                    answer, outcome=ServiceOutcome.TIMED_OUT, late=True
                )
            if not pending.future.done():
                pending.future.set_result(answer)
        self.counters["acked"] += len(new_entries)
        self.counters["admitted"] += admitted
        self.counters["rejected"] += len(new_entries) - admitted
        self.counters["late_decisions"] += late

        if (
            self.config.checkpoint_every
            and self._undecided_since_checkpoint >= self.config.checkpoint_every
        ):
            self.checkpoint()

    async def _decide_with_retry(
        self, jobs: Sequence[Job]
    ) -> Sequence[AdmissionDecision]:
        attempt = 0
        while True:
            try:
                return self._decide_fn(self.arbitrator, jobs)
            except TransientWorkerError as exc:
                attempt += 1
                self.counters["retries"] += 1
                if attempt >= self.config.max_attempts:
                    raise ServiceUnavailableError(
                        f"decision path failed {attempt} consecutive "
                        f"attempts; failing stop (last: {exc})"
                    ) from exc
                delay = min(
                    self.config.backoff_cap,
                    self.config.backoff_base * (2 ** (attempt - 1)),
                )
                delay *= 1.0 + self.config.backoff_jitter * self._rng.random()
                self.counters["retry_backoff_total"] += delay
                await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Append the newly decided delta to ``checkpoint.log`` (an undecided
        entry in it raises), then truncate the WAL."""
        path = write_checkpoint(self.wal.directory, self.entries)
        self.wal.truncate()
        self.counters["checkpoints"] += 1
        self._undecided_since_checkpoint = 0
        return path
