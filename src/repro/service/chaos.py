"""Chaos harness for the admission service.

Every scenario runs the full fault → crash → recover → verify loop:

1. **Drive** a seeded random workload through a live
   :class:`~repro.service.service.AdmissionService` while injecting
   faults — a permanent decision-path outage, decision-path delays,
   duplicate and dropped (fire-and-forget) requests, tight
   deadlines, kill-mid-WAL-append and kill-mid-checkpoint-append partial
   writes, and outright process kills.
2. **Recover** from the WAL directory the crash left behind.
3. **Verify** the robustness contract:

   * *acked durability* — every decision a client was acked survives in
     the recovered ledger with a bit-identical fingerprint, and no
     negatively-acked (shed / timed-out-unqueued) request was logged;
   * *replay identity* — the recovered ledger is bit-identical to a
     fault-free serial :class:`~repro.core.arbitrator.QoSArbitrator` run
     over the same effective jobs, and the recovered schedule passes the
     independent :class:`~repro.verify.auditor.ScheduleAuditor` with
     zero violations (both enforced inside
     :func:`repro.service.recovery.recover`);
   * *idempotence* — recovering twice yields the identical ledger;
   * *completability* — a service restarted from the recovered state
     answers client retries idempotently and decides everything the
     faults interrupted, and the *final* ledger recovers clean too.

Run the committed scenario set (CI's chaos-smoke gate)::

    PYTHONPATH=src python -m repro.service.chaos

or a rotating-seed campaign (nightly)::

    PYTHONPATH=src python -m repro.service.chaos --rotate $RUN_NUMBER \
        --reproducers chaos-failures/
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.core.arbitrator import QoSArbitrator
from repro.errors import ReproError, ServiceUnavailableError
from repro.model.job import Job
from repro.service.recovery import RecoveredState, recover
from repro.service.service import AdmissionService, ServiceConfig
from repro.service.wal import decision_to_tuple, write_checkpoint
from repro.verify.fuzz import _random_chain

__all__ = [
    "ChaosScenario",
    "ChaosResult",
    "SCENARIOS",
    "chaos_workload",
    "run_scenario",
    "run_campaign",
    "main",
]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """One seeded, fully reproducible fault script.

    ``partial_write_after`` arms the WAL fail-point on the *n*-th append:
    odd values land mid-job-append, even values mid-decision-append (the
    service alternates job and decision appends), covering both halves of
    the crash-mid-decision window.  ``checkpoint_tear_after`` makes the
    *n*-th checkpoint die inside its append to ``checkpoint.log``: a
    ``partial_write_fraction`` prefix of the segment on disk, no
    watermark, WAL not yet truncated.  ``crash_after_acks`` kills the whole
    service once that many decisions were acked.  ``permanent_fail_after``
    makes the decision path raise after N successful batches; the first
    injected failure fail-stops the service.
    ``stop_under_backpressure`` sends every request at once, so all but
    ``queue_limit`` callers wait in backpressure, then stops gracefully.
    """

    name: str
    seed: int
    n_jobs: int = 24
    malleable: bool = False
    qos_classes: int = 3
    dup_prob: float = 0.0
    drop_prob: float = 0.0
    worker_delay_prob: float = 0.0
    tight_deadline_share: float = 0.0
    tight_timeout: float = 0.002
    partial_write_after: int | None = None
    partial_write_fraction: float = 0.5
    checkpoint_tear_after: int | None = None
    crash_after_acks: int | None = None
    permanent_fail_after: int | None = None
    stop_under_backpressure: bool = False
    queue_limit: int = 64
    max_batch: int = 4
    checkpoint_every: int = 0
    degrade_occupancy: float = 9.0
    shed_thresholds: tuple[float, ...] = (9.0,)
    yield_spins: int = 3
    graceful: bool = True

    def config(self, capacity: int) -> ServiceConfig:
        return ServiceConfig(
            capacity=capacity,
            malleable=self.malleable,
            queue_limit=self.queue_limit,
            max_batch=self.max_batch,
            shed_thresholds=self.shed_thresholds,
            degrade_occupancy=self.degrade_occupancy,
            checkpoint_every=self.checkpoint_every,
        )


def _s(name: str, seed: int, **kw) -> ChaosScenario:
    return ChaosScenario(name=name, seed=seed, **kw)


#: The committed scenario set — CI's chaos-smoke gate runs all of them.
SCENARIOS: tuple[ChaosScenario, ...] = (
    _s("baseline-small", 101, n_jobs=8),
    _s("baseline-large-batches", 102, n_jobs=40, max_batch=16),
    _s("dup-storm", 103, dup_prob=0.5),
    _s("dropped-clients", 104, drop_prob=0.4),
    _s("slow-workers", 106, n_jobs=16, worker_delay_prob=0.5),
    _s("tight-deadlines", 107, tight_deadline_share=0.4, tight_timeout=0.001),
    _s(
        "overload-shed",
        108,
        n_jobs=48,
        queue_limit=6,
        max_batch=2,
        yield_spins=0,
        shed_thresholds=(1.01, 0.7, 0.4),
    ),
    _s(
        "degrade-under-load",
        109,
        n_jobs=32,
        queue_limit=12,
        yield_spins=0,
        degrade_occupancy=0.25,
    ),
    _s("torn-job-append", 110, partial_write_after=3),
    _s("torn-decision-append", 111, partial_write_after=4),
    _s("torn-first-append", 112, n_jobs=12, partial_write_after=1,
       partial_write_fraction=0.1),
    _s("torn-late-append", 113, n_jobs=40, partial_write_after=9,
       partial_write_fraction=0.9),
    _s("kill-early", 114, crash_after_acks=3, graceful=False),
    _s("kill-mid", 115, n_jobs=32, crash_after_acks=12, graceful=False),
    _s("worker-outage-failstop", 116, permanent_fail_after=3),
    _s("checkpoint-then-kill", 117, n_jobs=32, checkpoint_every=8,
       crash_after_acks=20, graceful=False),
    _s("checkpoint-then-torn", 118, n_jobs=32, checkpoint_every=6,
       partial_write_after=11),
    _s("torn-checkpoint-append", 124, n_jobs=32, checkpoint_every=6,
       checkpoint_tear_after=3),
    _s("malleable-torn-ckpt", 125, n_jobs=32, malleable=True,
       checkpoint_every=8, checkpoint_tear_after=2,
       partial_write_fraction=0.97),
    _s("malleable-baseline", 119, n_jobs=20, malleable=True),
    _s("malleable-kill", 120, malleable=True, crash_after_acks=8,
       graceful=False),
    _s("malleable-torn-decision", 121, malleable=True, partial_write_after=6),
    _s(
        "kitchen-sink-kill",
        122,
        n_jobs=48,
        dup_prob=0.3,
        drop_prob=0.2,
        tight_deadline_share=0.2,
        checkpoint_every=10,
        crash_after_acks=18,
        graceful=False,
    ),
    _s(
        "kitchen-sink-torn",
        123,
        n_jobs=40,
        dup_prob=0.25,
        drop_prob=0.15,
        checkpoint_every=8,
        partial_write_after=7,
    ),
    _s("stop-under-backpressure", 127, n_jobs=32, queue_limit=4,
       stop_under_backpressure=True),
)


# ---------------------------------------------------------------------------
# Workload + fault injection
# ---------------------------------------------------------------------------


def chaos_workload(
    rng: random.Random, n_jobs: int, malleable: bool
) -> tuple[int, list[Job]]:
    """Seeded release-ordered workload sized for one scenario."""
    capacity = rng.randint(3, 8)
    jobs: list[Job] = []
    release = 0.0
    for j in range(n_jobs):
        release += round(rng.uniform(0.0, 6.0), 3)
        chains = tuple(
            _random_chain(rng, capacity, malleable, f"j{j}c{c}")
            for c in range(rng.randint(1, 3))
        )
        jobs.append(Job(chains=chains, release=release))
    return capacity, jobs


class ChaoticDecider:
    """Fault-injecting decision path, fail-before-side-effect by design."""

    def __init__(self, scenario: ChaosScenario, rng: random.Random) -> None:
        self.scenario = scenario
        self.rng = rng
        self.batches = 0

    def __call__(
        self, arbitrator: QoSArbitrator, jobs: Sequence[Job]
    ) -> Sequence[object]:
        s = self.scenario
        if (
            s.permanent_fail_after is not None
            and self.batches >= s.permanent_fail_after
        ):
            raise RuntimeError("injected permanent worker outage")
        if s.worker_delay_prob and self.rng.random() < s.worker_delay_prob:
            time.sleep(self.rng.uniform(0.0, 0.002))
        decisions = arbitrator.admit_batch(list(jobs))
        self.batches += 1
        return decisions


# ---------------------------------------------------------------------------
# Running one scenario
# ---------------------------------------------------------------------------


def _arm_checkpoint_tear(
    service: AdmissionService, nth: int, fraction: float
) -> None:
    """Make the service's ``nth`` checkpoint die inside its append.

    The real append runs, then ``checkpoint.log`` is cut back to a prefix
    of the new segment — byte for byte what a kill mid-``write`` leaves —
    and the ``OSError`` fail-stops the service before the WAL truncation.
    """
    checkpoint = service.checkpoint
    path = service.wal.directory / "checkpoint.log"

    def torn() -> Path:
        nonlocal nth
        nth -= 1
        if nth:
            return checkpoint()
        before = path.stat().st_size if path.exists() else 0
        data = write_checkpoint(service.wal.directory, service.entries).read_bytes()
        segment = data.rindex(b"\n", 0, -1) + 1 - before  # up to the watermark
        keep = max(1, int(segment * fraction))
        os.truncate(path, before + keep)
        raise OSError(
            f"injected crash: checkpoint append torn after {keep}/{segment} bytes"
        )

    service.checkpoint = torn  # type: ignore[method-assign]


@dataclass(slots=True)
class ChaosResult:
    """Outcome + honest accounting for one scenario run."""

    scenario: str
    seed: int
    ok: bool
    failures: tuple[str, ...]
    crash: str  # "none" | "killed" | "failstop"
    entries: int
    redecided: int
    truncated_bytes: int
    stats: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        flag = "ok  " if self.ok else "FAIL"
        line = (
            f"{flag} {self.scenario:<24} crash={self.crash:<8} "
            f"ledger={self.entries:<3} redecided={self.redecided} "
            f"torn={self.truncated_bytes}B "
            f"acked={int(self.stats.get('acked', 0))} "
            f"shed={int(self.stats.get('shed', 0))} "
            f"degraded={int(self.stats.get('degraded', 0))}"
        )
        return "\n".join([line] + [f"     !! {f}" for f in self.failures])


def _swallow(future: asyncio.Future) -> None:
    if not future.cancelled():
        future.exception()


async def _drive(
    scenario: ChaosScenario,
    config: ServiceConfig,
    wal_dir: Path,
    jobs: Sequence[Job],
    rng: random.Random,
) -> tuple[dict[str, object], dict[str, float], str, set[str]]:
    """Phase A: live service under fault injection.  Returns
    ``(acked_by_rid, stats, crash_kind, dup_rids)``."""
    decider = ChaoticDecider(scenario, rng)
    service = AdmissionService(config, wal_dir, decide=decider)
    if scenario.partial_write_after is not None:
        service.wal.partial_write_after = scenario.partial_write_after
        service.wal.partial_write_fraction = scenario.partial_write_fraction
    if scenario.checkpoint_tear_after is not None:
        _arm_checkpoint_tear(
            service, scenario.checkpoint_tear_after, scenario.partial_write_fraction
        )
    service.start()
    futures: dict[str, asyncio.Future] = {}
    handed_out: list[asyncio.Future] = []  # every future, awaited or not
    dup_rids: set[str] = set()
    crash = "none"
    stuck: set[asyncio.Future] = set()
    if scenario.stop_under_backpressure:
        callers = [
            asyncio.ensure_future(service.enqueue(job, request_id=f"req-{i}"))
            for i, job in enumerate(jobs)
        ]
        await asyncio.sleep(0)  # queue_limit rows landed; the other callers wait
        stop = asyncio.ensure_future(service.stop())
        _, stuck = await asyncio.wait([stop, *callers], timeout=5.0)
        for task in stuck:  # a regression fails the scenario, it does not hang it
            task.cancel()
        futures = {
            f"req-{i}": caller.result()
            for i, caller in enumerate(callers)
            if caller.done() and caller.exception() is None
        }
        handed_out, jobs = list(futures.values()), ()
    for i, job in enumerate(jobs):
        rid = f"req-{i}"
        qos = rng.randrange(scenario.qos_classes)
        timeout = (
            scenario.tight_timeout
            if rng.random() < scenario.tight_deadline_share
            else None
        )
        try:
            fut = await service.enqueue(
                job, qos=qos, timeout=timeout, request_id=rid
            )
            handed_out.append(fut)
            if rng.random() < scenario.dup_prob:
                dup_rids.add(rid)
                dup = await service.enqueue(job, qos=qos, request_id=rid)
                dup.add_done_callback(_swallow)
                handed_out.append(dup)
        except ServiceUnavailableError:
            crash = "failstop"
            break
        if rng.random() < scenario.drop_prob:
            # Fire-and-forget client: never awaits its answer.  The
            # decision still lands in the ledger.
            fut.add_done_callback(_swallow)
        else:
            futures[rid] = fut
        for _ in range(scenario.yield_spins):
            await asyncio.sleep(0)
        if (
            scenario.crash_after_acks is not None
            and service.counters["acked"] >= scenario.crash_after_acks
        ):
            service.kill()
            crash = "killed"
            break
    if crash == "none":
        if service.running:
            await service.stop()
        # The decision path may have fail-stopped after the last enqueue
        # (e.g. an outage hitting the graceful drain).
        if service.stats()["failed"]:
            crash = "failstop"
    acked: dict[str, object] = {}
    for rid, fut in futures.items():
        if not fut.done():
            fut.add_done_callback(_swallow)
            continue
        if fut.cancelled() or fut.exception() is not None:
            continue
        acked[rid] = fut.result()
    await asyncio.sleep(0)  # a kill()'s cancellation lands one loop turn later
    stats = service.stats()
    stats["pending_futures"] = len(stuck) + sum(not f.done() for f in handed_out)
    return acked, stats, crash, dup_rids


async def _finish(
    config: ServiceConfig,
    wal_dir: Path,
    state: RecoveredState,
    jobs: Sequence[Job],
) -> list[object]:
    """Phase D: restart from recovered state; every client retries."""
    service = AdmissionService(config, wal_dir, recovered=state)
    service.start()
    outcomes = []
    for i, job in enumerate(jobs):
        outcomes.append(
            await service.submit(job, request_id=f"req-{i}")
        )
    await service.stop()
    return outcomes


def _ledger_fingerprint(state: RecoveredState) -> list[tuple]:
    return [(e.seq, e.request_id, e.decision) for e in state.entries]


def run_scenario(
    scenario: ChaosScenario, wal_dir: str | Path | None = None
) -> ChaosResult:
    """Run one scenario end to end; never raises, reports failures."""
    rng = random.Random(scenario.seed)
    capacity, jobs = chaos_workload(rng, scenario.n_jobs, scenario.malleable)
    config = scenario.config(capacity)
    # Fault-free settings for recovery-side replays and the retry run:
    # same arbitrator-relevant fields, no shedding/degrading/checkpoints.
    calm = replace(
        config,
        queue_limit=4 * scenario.n_jobs + 16,
        max_batch=8,
        shed_thresholds=(9.0,),
        degrade_occupancy=9.0,
        checkpoint_every=0,
    )
    failures: list[str] = []
    crash = "none"
    entries = redecided = truncated = 0
    stats: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(wal_dir) if wal_dir is not None else Path(tmp)
        try:
            acked, stats, crash, dup_rids = asyncio.run(
                _drive(scenario, config, directory, jobs, rng)
            )

            if stats["pending_futures"]:
                failures.append(
                    f"{stats['pending_futures']} client futures left pending"
                )

            # Phase B: recover (replay-identity + auditor enforced inside).
            state = recover(directory, calm)
            entries, redecided, truncated = (
                len(state.entries),
                state.redecided,
                state.truncated_bytes,
            )

            # Acked durability.
            by_rid = {e.request_id: e for e in state.entries}
            for rid, sd in acked.items():
                if sd.decision is not None:
                    entry = by_rid.get(rid)
                    if entry is None:
                        failures.append(f"acked decision for {rid} lost")
                    elif entry.decision != decision_to_tuple(sd.decision):
                        failures.append(
                            f"acked decision for {rid} mutated: ledger "
                            f"{entry.decision!r} != acked "
                            f"{decision_to_tuple(sd.decision)!r}"
                        )
                elif rid in by_rid and rid not in dup_rids:
                    # A duplicate submission may legitimately decide a
                    # request whose first attempt was negatively acked
                    # (that *is* the supported retry path) — but absent
                    # one, a shed/timed-out request must never be logged.
                    failures.append(
                        f"{rid} was negatively acked ({sd.outcome.value}) "
                        "yet logged"
                    )

            # Phase C: idempotent double recovery.
            state2 = recover(directory, calm)
            if _ledger_fingerprint(state) != _ledger_fingerprint(state2):
                failures.append("double recovery diverged")

            # Phase D: restart, retry every request, finish fault-free.
            asyncio.run(_finish(calm, directory, state2, jobs))
            final = recover(directory, calm)
            entries = len(final.entries)
            rids = {e.request_id for e in final.entries}
            if len(rids) != len(final.entries):
                failures.append("final ledger logged a request id twice")
            if len(final.entries) != len(jobs):
                failures.append(
                    f"final ledger has {len(final.entries)} entries for "
                    f"{len(jobs)} requests"
                )
            if any(e.decision is None for e in final.entries):
                failures.append("final ledger holds undecided entries")
        except (ReproError, OSError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    return ChaosResult(
        scenario=scenario.name,
        seed=scenario.seed,
        ok=not failures,
        failures=tuple(failures),
        crash=crash,
        entries=entries,
        redecided=redecided,
        truncated_bytes=truncated,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Campaigns / CLI
# ---------------------------------------------------------------------------


def rotate(scenarios: Sequence[ChaosScenario], salt: int) -> list[ChaosScenario]:
    """The committed fault scripts under fresh seeds (nightly campaign)."""
    if not salt:
        return list(scenarios)
    return [
        replace(s, seed=s.seed + 1009 * salt, name=f"{s.name}@{salt}")
        for s in scenarios
    ]


def run_campaign(
    scenarios: Sequence[ChaosScenario],
    *,
    reproducers: Path | None = None,
    verbose: bool = True,
    salt: int = 0,
) -> list[ChaosResult]:
    results = []
    for scenario in scenarios:
        result = run_scenario(scenario)
        results.append(result)
        if verbose:
            print(result.summary())
        if not result.ok and reproducers is not None:
            reproducers.mkdir(parents=True, exist_ok=True)
            path = reproducers / f"{scenario.name}.json"
            path.write_text(
                json.dumps(
                    {
                        "scenario": asdict(scenario),
                        "failures": list(result.failures),
                        "repro": (
                            "PYTHONPATH=src python -m repro.service.chaos "
                            f"--only {scenario.name.split('@')[0]} "
                            f"--rotate {salt}"
                        ),
                    },
                    indent=2,
                    default=str,
                )
                + "\n"
            )
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="Chaos-test the admission service's crash recovery.",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        help="run only scenarios with this name (repeatable)",
    )
    parser.add_argument(
        "--rotate",
        type=int,
        default=0,
        metavar="SALT",
        help="re-seed the committed scenario set with this salt "
        "(0 = committed seeds)",
    )
    parser.add_argument(
        "--reproducers",
        type=Path,
        default=None,
        metavar="DIR",
        help="write a reproducer JSON per failing scenario into DIR",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    scenarios = rotate(SCENARIOS, args.rotate)
    if args.only:
        wanted = set(args.only)
        scenarios = [
            s for s in scenarios if s.name.split("@")[0] in wanted
        ]
        if not scenarios:
            print(f"no scenario matches {sorted(wanted)}", file=sys.stderr)
            return 2
    if args.list:
        for s in scenarios:
            print(f"{s.name:<28} seed={s.seed}")
        return 0

    results = run_campaign(
        scenarios, reproducers=args.reproducers, salt=args.rotate
    )
    bad = [r for r in results if not r.ok]
    print(
        f"[chaos] {len(results) - len(bad)}/{len(results)} scenarios clean"
        + (f"; {len(bad)} FAILED" if bad else "")
    )
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
