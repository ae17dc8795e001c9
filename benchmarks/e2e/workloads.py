"""The seven workloads: set-up, the timed lap, and the second-path check.

Each workload runs in a fresh child process (``run.py --child``) and
drives only public entry points: ``AdmissionService.enqueue/stop/kill``,
``recover``, ``QoSArbitrator.submit/admit_batch``.  :func:`prepare`
generates the stream, :func:`fresh_state` builds the program state the
timed lap starts from (an arbitrator with the backlog pre-admitted, or an
empty WAL directory and a load generator) and ``gc.freeze()``\\ s all that
is alive, so the collector's work during timing is the program's own
garbage, not the benchmark's inputs.  The collector itself stays on: its
pauses are part of what a client of the service sees.  Then
:func:`run_lap` runs **one** timed lap: one long lap, so the ledger and
the profile grow as deep as the workload says.

One load-generating thread everywhere.  ``svc_paced`` is an **open
loop** (requests are sent on a seeded Poisson schedule and timed from
when they were *due*); every other workload is a **closed loop** (the
next operation is handed over when the previous call returns, and for
the service when the bounded ingress queue accepts it).
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.arbitrator import QoSArbitrator
from repro.model.job import Job
from repro.service.recovery import recover
from repro.service.service import (
    AdmissionService,
    ServiceConfig,
    ServiceOutcome,
    make_arbitrator,
)
from repro.service.wal import DecisionTuple, decision_to_tuple
from repro.sim.rng import RandomStreams

from e2e import streams
from e2e.streams import CAPACITY
from e2e.trace import GcWatch, TimedSelector, Tracer, instrument_service

__all__ = [
    "WORKLOADS", "FULL_SECONDS", "SETUPS", "Workload", "Inputs", "Timed",
    "prepare", "fresh_state", "run_lap", "verify", "generate", "speed_check",
]

_pc = time.perf_counter

#: ``--seconds`` at which every workload has its full (ISSUE 12) size; any
#: other value scales all seven by ``seconds / FULL_SECONDS``.
FULL_SECONDS = 15.0

#: Fresh processes that set up per run; ``setup_s`` is their median.
SETUPS = 3

#: ``admit_batch`` chunk for direct batched admission.
CHUNK = 1024

#: Open-loop send rate and latency limit of ``svc_paced``.  ISSUE 12 says
#: 5,000 req/s, which keeps the service's one thread 62% busy on this host
#: at full speed and saturates it whenever the host runs 1.6x slower, as
#: it does for minutes at a time; half that rate stays an open loop then.
PACED_RATE = 2_500.0
ON_TIME_LIMIT_S = 0.050

#: ``svc_restart`` at full size: requests sent to the restarted service.
POST_RESTART = 1_000

#: Operations between two host-speed checks of the load generator.
SPEED_CHECK_EVERY = {"serial": 128, "batch": 1, "service": 512}


def speed_check() -> float:
    """Seconds for a fixed pure-Python loop (about 0.16 ms at full speed).

    The load generator runs it *between* operations, never inside one;
    their mean over the lap says how fast the host ran meanwhile
    (``layers.py``: one factor per run).
    """
    t0 = _pc()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return _pc() - t0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``full`` is the timed operation count ISSUE 12 gives for the 2-core
    reference sandbox and ``full_prefix`` the backlog that set-up
    pre-admits (``svc_paced``: 15 s at :data:`PACED_RATE`); a run does
    ``seconds / FULL_SECONDS`` of both.  The work of a run is therefore
    fixed by ``--seconds`` and is the same on every commit: a faster
    program finishes sooner, it does not get a bigger ledger to collect.
    """

    name: str
    family: str  # "service" | "batch" | "serial"
    stream: str
    full: int
    full_prefix: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("svc_flood", "service", "fig4", 200_000),
        Workload("svc_paced", "service", "fig4", int(PACED_RATE * FULL_SECONDS)),
        Workload("svc_restart", "service", "fig4", 30_000),
        Workload("batch_backlog", "batch", "backlog", 400_000),
        Workload("serial_commit", "serial", "backlog", 60_000, 30_000),
        Workload("serial_probe", "serial", "backlog+probe", 100_000, 30_000),
        Workload("serial_fig4", "serial", "fig4", 150_000),
    )
}


def generate(workload: Workload, seed: int, n: int, prefix: int, post: int) -> list[Job]:
    """The whole job stream: ``prefix`` set-up jobs, ``n`` timed, ``post`` after a restart."""
    if workload.stream == "fig4":
        return streams.fig4(n + post, seed)
    if workload.stream == "backlog":
        return streams.backlog(prefix + n, seed)
    head = streams.backlog(prefix, seed)
    return head + streams.probe(n, seed, head[-1].release, prefix)


@dataclass
class Inputs:
    """What set-up generates: the stream and, for the service, how to send it."""

    workload: Workload
    seed: int
    jobs: list[Job]  # prefix + timed, in stream order
    prefix: int
    out_dir: Path
    #: Service workloads: request ids, configuration, open-loop schedule
    #: (seconds after the lap's start at which request i is due).
    request_ids: list[str] = field(default_factory=list)
    config: ServiceConfig | None = None
    due: list[float] | None = None
    #: ``svc_restart``: requests sent before the kill.
    before_kill: int = 0

    @property
    def key(self) -> str:
        """What a committed digest of this stream is filed under."""
        timed = len(self.jobs) - self.prefix
        return f"{self.workload.stream}:{self.seed}:{self.prefix}+{timed}"


def prepare(workload: Workload, seed: int, seconds: float, out_dir: Path) -> Inputs:
    scale = seconds / FULL_SECONDS
    n = max(64, round(workload.full * scale))
    prefix = round(workload.full_prefix * scale)
    post = max(8, round(POST_RESTART * scale)) if workload.name == "svc_restart" else 0
    inputs = Inputs(
        workload, seed, generate(workload, seed, n, prefix, post), prefix, out_dir
    )
    if workload.family != "service":
        return inputs
    # Shipped defaults (queue_limit=1024, max_batch=128, fsync on) but for
    # one knob: degraded admission is off.  A closed loop keeps the ingress
    # queue full by construction, so the default would narrow 5 of every 8
    # batches to single-path jobs: a timing-dependent decision stream that
    # no second path could check.  qos 0 is never shed at the defaults.
    knobs: dict[str, object] = {"capacity": CAPACITY, "degrade_occupancy": 9.0}
    if workload.name == "svc_restart":
        # Three checkpoint cycles before the kill (10,000 requests apart at
        # full size), with a batch to spare so the third is sure to trigger.
        batch = ServiceConfig(capacity=CAPACITY).max_batch
        knobs["checkpoint_every"] = max(batch, (n // 3 - batch) // batch * batch)
    elif workload.name == "svc_paced":
        gaps = RandomStreams(seed).numpy("send-schedule").exponential(
            1.0 / PACED_RATE, size=n
        )
        inputs.due = np.cumsum(gaps).tolist()
    inputs.request_ids = [f"req-{i}" for i in range(len(inputs.jobs))]
    inputs.config = ServiceConfig(**knobs)
    inputs.before_kill = n
    return inputs


@dataclass
class Timed:
    """What the timed lap measured, before any analysis.

    One entry per *operation* (a ``submit``, an ``enqueue``d request, an
    ``admit_batch`` chunk): ``start`` is when the job was handed over (for
    the open loop: was due), ``call0``/``call1`` bracket the call the
    load generator made, ``done`` is when the decision was in the
    caller's hand, ``weight`` the jobs the operation carried, ``valid``
    whether it returned a decision at all.
    """

    begin: float
    end: float
    start: np.ndarray
    call0: np.ndarray
    call1: np.ndarray
    done: np.ndarray
    weight: np.ndarray
    valid: np.ndarray
    decisions: list[DecisionTuple | None]
    cpu_s: float
    arbitrator: QoSArbitrator
    #: Seconds each host-speed check took, in lap order.
    speed_s: np.ndarray
    #: Open loop: each wait for the next due time, ``(asked, woke)``.
    sleeps: list[tuple[float, float]] = field(default_factory=list)
    #: ``svc_restart``: when the flood phase's last ack landed, ``recover()``
    #: call to first new ack, and its parts.
    extra: dict[str, float] = field(default_factory=dict)
    #: Traced lap only: raw material for the per-layer metrics.
    probes: dict[str, object] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.begin

    @property
    def failed(self) -> int:
        return int(self.weight[~self.valid].sum())


def _chunks(jobs: Sequence[Job]):
    for lo in range(0, len(jobs), CHUNK):
        yield jobs[lo : lo + CHUNK]


def _admit_all(arbitrator: QoSArbitrator, jobs: Sequence[Job]) -> list[DecisionTuple]:
    out: list[DecisionTuple] = []
    for chunk in _chunks(jobs):
        out.extend(decision_to_tuple(d) for d in arbitrator.admit_batch(chunk))
    return out


# ---------------------------------------------------------------------------
# Program state and the load generator
# ---------------------------------------------------------------------------


class _Driver:
    """The service load generator: one coroutine, stamps in preallocated lists."""

    def __init__(self, inputs: Inputs) -> None:
        n = len(inputs.jobs)
        self.inputs = inputs
        self.start = [0.0] * n
        self.call0 = [0.0] * n
        self.call1 = [0.0] * n
        self.done = [0.0] * n
        self.futures: list[asyncio.Future | None] = [None] * n
        self.callbacks = [partial(self._on_done, i) for i in range(n)]
        self.sleeps: list[tuple[float, float]] = []
        self.speed_s: list[float] = []

    def _on_done(self, i: int, _future: asyncio.Future) -> None:
        self.done[i] = _pc()

    async def send(self, service: AdmissionService, lo: int, hi: int) -> None:
        """Requests ``lo..hi-1``; returns when every one is answered."""
        inputs = self.inputs
        jobs, rids, due = inputs.jobs, inputs.request_ids, inputs.due
        start, call0, call1 = self.start, self.call0, self.call1
        futures, callbacks = self.futures, self.callbacks
        enqueue = service.enqueue
        every = SPEED_CHECK_EVERY["service"]
        next_check = lo
        origin = _pc()
        i = lo
        while i < hi:
            if i >= next_check:
                self.speed_s.append(speed_check())
                next_check = i + every
            t0 = _pc()
            if due is not None:
                ahead = origin + due[i] - t0
                if ahead > 0:
                    await asyncio.sleep(ahead)
                    self.sleeps.append((t0, _pc()))
                    continue
                start[i] = origin + due[i]
            else:
                start[i] = t0
            try:
                future = await enqueue(jobs[i], qos=0, request_id=rids[i])
            except Exception:
                break  # the service is gone: the rest stay unanswered, and fail
            call1[i] = _pc()
            call0[i] = t0
            future.add_done_callback(callbacks[i])
            futures[i] = future
            i += 1
        for future in futures[lo:i]:
            if not future.done():
                try:
                    await future
                except Exception:
                    pass  # read again, and counted, in ``outcomes``
        # A resolved future's callbacks run on the loop's next turn: take it,
        # so every ack is stamped before anything else happens.
        await asyncio.sleep(0)

    def outcomes(self) -> tuple[list[DecisionTuple | None], list[bool]]:
        """Per request: the decision tuple and whether it is a valid answer."""
        decisions: list[DecisionTuple | None] = []
        valid: list[bool] = []
        for future in self.futures:
            answer = None
            if future is not None and future.done() and future.exception() is None:
                answer = future.result()
            ok = (
                answer is not None
                and not answer.late
                and answer.outcome in (ServiceOutcome.ADMITTED, ServiceOutcome.REJECTED)
                and answer.decision is not None
            )
            valid.append(ok)
            decisions.append(decision_to_tuple(answer.decision) if ok else None)
        return decisions, valid


@dataclass
class State:
    """The program state the timed lap starts from."""

    #: Direct workloads: the arbitrator, backlog pre-admitted.
    arbitrator: QoSArbitrator | None = None
    prefix_decisions: list[DecisionTuple] = field(default_factory=list)
    #: Service workloads: an empty WAL directory and a load generator.
    wal_dir: Path | None = None
    driver: _Driver | None = None
    #: ``svc_restart``: the recovered ledger, kept for the durability check.
    recovered_ledger: list[tuple[str, DecisionTuple | None]] = field(
        default_factory=list
    )


def fresh_state(inputs: Inputs) -> State:
    """Set-up's last step.  Ends by freezing all that is alive."""
    if inputs.workload.family == "service":
        wal_dir = inputs.out_dir / f"wal-{inputs.workload.name}-{time.time_ns()}"
        wal_dir.mkdir(parents=True)
        state = State(wal_dir=wal_dir, driver=_Driver(inputs))
    else:
        arbitrator = QoSArbitrator(CAPACITY)
        state = State(
            arbitrator=arbitrator,
            prefix_decisions=_admit_all(arbitrator, inputs.jobs[: inputs.prefix]),
        )
    gc.collect()
    gc.freeze()
    return state


def run_lap(
    inputs: Inputs, state: State, tracer: Tracer | None, gc_watch: GcWatch
) -> Timed:
    if inputs.workload.family == "service":
        return _lap_service(inputs, state, tracer, gc_watch)
    return _lap_direct(inputs, state, tracer, gc_watch)


# ---------------------------------------------------------------------------
# serial_* and batch_backlog: the arbitrator called directly
# ---------------------------------------------------------------------------


def _sampling(call: Callable, profile, segments: list[int]) -> Callable:
    """``call`` followed by one sample of the live segment count."""

    def sampled(arg):
        result = call(arg)
        segments.append(len(profile))
        return result

    return sampled


def _lap_direct(
    inputs: Inputs, state: State, tracer: Tracer | None, gc_watch: GcWatch
) -> Timed:
    arbitrator = state.arbitrator
    timed_jobs = inputs.jobs[inputs.prefix :]
    batched = inputs.workload.family == "batch"
    ops: list = list(_chunks(timed_jobs)) if batched else timed_jobs
    call = arbitrator.admit_batch if batched else arbitrator.submit
    probes: dict[str, object] = {}
    if tracer is not None:
        name = "arbitrator.decide" if batched else "arbitrator.submit"
        probes["segments"] = segments = []
        probes["perf_before"] = arbitrator.perf_snapshot()
        # Sampled inside the span, so the sample's cost is attributed.
        call = tracer.wrap(
            name, _sampling(call, arbitrator.schedule.profile, segments)
        )
    n = len(ops)
    call0, call1 = [0.0] * n, [0.0] * n
    results: list = [None] * n
    every = SPEED_CHECK_EVERY[inputs.workload.family]
    speed_s: list[float] = []
    with gc_watch:
        cpu0 = time.process_time()
        begin = _pc()
        for i, op in enumerate(ops):
            if not i % every:
                speed_s.append(speed_check())
            t0 = _pc()
            try:
                results[i] = call(op)
            except Exception:
                pass  # no decision: the operation fails, and so will the digest
            call1[i] = _pc()
            call0[i] = t0
        end = _pc()
        cpu_s = time.process_time() - cpu0
    if batched:
        decisions = [
            decision_to_tuple(d) for chunk in results if chunk for d in chunk
        ]
    else:
        decisions = [None if d is None else decision_to_tuple(d) for d in results]
    t0s, t1s = np.array(call0), np.array(call1)
    return Timed(
        begin, end, t0s, t0s, t1s, t1s,
        np.array([len(op) if batched else 1 for op in ops]),
        np.array([r is not None for r in results]),
        decisions, cpu_s, arbitrator, np.array(speed_s), probes=probes,
    )


# ---------------------------------------------------------------------------
# svc_*: the durable asyncio service
# ---------------------------------------------------------------------------


def _stamping_clock(stamps: list[float]) -> Callable[[], float]:
    """The service clock, leaving a ``perf_counter`` stamp at every reading.

    With no request timeouts the only readings are the two ``_process``
    makes per batch — on entry and just before it resolves the batch's
    futures — which is the only way to see those two instants through the
    public constructor.  ``layers.per_layer`` refuses a traced lap whose
    stamp count is not twice its batch count.
    """

    def clock() -> float:
        stamps.append(_pc())
        return time.monotonic()

    return clock


def _lap_service(
    inputs: Inputs, state: State, tracer: Tracer | None, gc_watch: GcWatch
) -> Timed:
    driver = state.driver
    inject: dict[str, object] = {}
    probes: dict[str, object] = {}
    selector = None
    if tracer is not None:
        probes.update(
            clock=[], batch_sizes=[], segments=[], ledger_sizes=[], wal_bytes=[]
        )
        batch_sizes, segments = probes["batch_sizes"], probes["segments"]

        def decide(arbitrator, jobs):
            batch_sizes.append(len(jobs))
            segments.append(len(arbitrator.schedule.profile))
            return arbitrator.admit_batch(list(jobs))

        inject = {
            "decide": tracer.wrap("arbitrator.decide", decide),
            "clock": _stamping_clock(probes["clock"]),
        }
        selector = TimedSelector(tracer)

    def make_service(**kwargs) -> AdmissionService:
        service = AdmissionService(inputs.config, state.wal_dir, **inject, **kwargs)
        if tracer is not None:
            instrument_service(tracer, service, probes)
        return service

    extra: dict[str, float] = {}
    stats: dict[str, float] = {}

    def absorb(service: AdmissionService) -> None:
        for key, value in service.stats().items():
            stats[key] = stats.get(key, 0) + value

    async def main() -> tuple[float, float, QoSArbitrator]:
        n = inputs.before_kill
        service = make_service()
        service.start()
        begin = _pc()
        await driver.send(service, 0, n)
        if inputs.workload.name == "svc_restart":
            extra["flood_end"] = _pc()
            extra["flood_jobs"] = n
            extra["flood_checks"] = len(driver.speed_s)
            absorb(service)
            service.kill()
            recover_call = recover
            if tracer is not None:
                recover_call = tracer.wrap("recovery.recover", recover)
            t0 = _pc()
            recovered = recover_call(state.wal_dir, inputs.config)
            extra["recover_call_s"] = _pc() - t0
            extra["redecided"] = recovered.redecided
            state.recovered_ledger = [
                (e.request_id, e.decision) for e in recovered.entries
            ]
            service = make_service(recovered=recovered)
            service.start()
            await driver.send(service, n, len(inputs.jobs))
            extra["recover_s"] = driver.done[n] - t0
        end = _pc()
        await service.stop()
        absorb(service)
        if tracer is not None:
            probes["wal_bytes"].append(service.wal.path.stat().st_size)
        return begin, end, service.arbitrator

    loop = asyncio.SelectorEventLoop(selector)
    try:
        with gc_watch:
            cpu0 = time.process_time()
            begin, end, arbitrator = loop.run_until_complete(main())
            cpu_s = time.process_time() - cpu0
    finally:
        loop.close()
        shutil.rmtree(state.wal_dir, ignore_errors=True)

    decisions, valid = driver.outcomes()
    probes["stats"] = stats
    return Timed(
        begin, end, np.array(driver.start), np.array(driver.call0),
        np.array(driver.call1), np.array(driver.done),
        np.ones(len(valid), dtype=np.int64), np.array(valid), decisions, cpu_s,
        arbitrator, np.array(driver.speed_s), sleeps=driver.sleeps, extra=extra, probes=probes,
    )


# ---------------------------------------------------------------------------
# The second path
# ---------------------------------------------------------------------------


def verify(inputs: Inputs, state: State, timed: Timed) -> list[dict[str, object]]:
    """The same stream through another public path; decisions must be equal.

    Service workloads are compared with direct batched admission — a pass
    that is also timed (``timed.extra["direct_per_s"]``), the denominator
    of the ROADMAP's service/direct ratio — and ``svc_restart`` with the
    ledger ``recover()`` rebuilt.  Serial workloads are compared with
    ``admit_batch`` on a fresh arbitrator.  ``batch_backlog`` already *is*
    that path and has no cheaper second one (serial ``submit`` over a deep
    backlog takes minutes), so it relies on the committed digest or the
    oracle prefix.
    """
    workload = inputs.workload
    if workload.family == "batch":
        return []
    if workload.family == "serial":
        want = _admit_all(QoSArbitrator(CAPACITY), inputs.jobs)
        return [
            {
                "ok": want == state.prefix_decisions + timed.decisions,
                "reference": "admit_batch",
                "detail": f"serial submit vs batched admission over {len(want)} jobs",
            }
        ]
    arbitrator = make_arbitrator(inputs.config)
    t0 = _pc()
    want = _admit_all(arbitrator, inputs.jobs)
    timed.extra["direct_per_s"] = len(want) / (_pc() - t0)
    checks = [
        {
            "ok": want == timed.decisions,
            "reference": "admit_batch",
            "detail": f"service acks vs direct admission over {len(want)} requests",
        }
    ]
    if workload.name == "svc_restart":
        n = inputs.before_kill
        acked = list(zip(inputs.request_ids[:n], timed.decisions[:n]))
        checks.append(
            {
                "ok": state.recovered_ledger == acked,
                "reference": "recovered-ledger",
                "detail": f"{n} decisions acked before kill() vs "
                f"{len(state.recovered_ledger)} ledger entries after recover()",
            }
        )
    return checks
