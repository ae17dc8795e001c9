"""Admission-decision throughput: serial vs batched, Python vs compiled.

The headline benchmark of the compiled decision-kernel layer
(:mod:`repro.core.kernels`): complete admission decisions per second —
candidate probing, tie-break, commit — on a fragmented profile, across
three execution modes over one identical job stream:

* ``serial-python`` — :meth:`QoSArbitrator.submit` per job, no C
  (``REPRO_KERNEL=python``): the reference, the seed-equivalent hot path;
* ``batched-python`` — one :meth:`QoSArbitrator.admit_batch` call, no C:
  the same serial loop behind the batch API;
* ``batched-compiled`` — one ``admit_batch`` call routed through the
  one-call C admission loop (only when the compiled kernel loads).

Every mode's full decision sequence (admit/reject, chosen configuration,
every placement start/width/duration) and final profile are checksummed
and must agree — the speedups are meaningless unless the decisions are
bit-identical.  At full scale, with the compiled kernel available, the
low-fragmentation point must clear **100k decisions/sec** in
``batched-compiled`` mode or the benchmark raises instead of writing
numbers (the ISSUE-7 headline); CI separately gates batched-compiled at
>= 3x serial-python on the quick report.

The profile is a backlog region of unit-width segments whose
availability cycles through small values, followed by a fully-free
frontier; the probe jobs need far more processors than any backlog
segment offers, so every probe crosses the whole backlog.  Admissions are
*committed* (throughput of real admission control, not read-only
probing): the stream saturates the frontier, so late jobs exercise the
reject path while early ones commit.
"""

from __future__ import annotations

import hashlib
import time

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec

__all__ = ["fragmentation_jobs", "run_decision_throughput_bench"]

#: Decisions/sec the batched-compiled mode must clear at the
#: low-fragmentation point (full scale, compiled kernel available).
THROUGHPUT_FLOOR = 100_000

CAPACITY = 64
#: Availability cycle of the backlog region: every value is far below the
#: probe widths, so no probe can place before the frontier.  Adjacent
#: values differ, so a backlog of ``n`` unit segments is ``n + 1`` live
#: segments exactly.
_BACKLOG_AVAIL = (1, 3, 6, 2, 5, 4)


def _task(name: str, procs: int, dur: float, deadline: float, q: float = 1.0) -> TaskSpec:
    return TaskSpec(name, ProcessorTimeRequest(procs, dur), deadline=deadline, quality=q)


def fragmentation_jobs(n_jobs: int, n_segments: int) -> list[Job]:
    """Deterministic probe jobs against a ``n_segments``-deep backlog.

    All release at 0 with deadlines generous enough to place at the
    frontier, cycling through three types:

    * plain two-path tunable jobs (both paths feasible, distinct shapes);
    * duplicate-path jobs (both paths identical — duplicate collapse);
    * doomed-then-fallback jobs: two configurations whose deadlines end
      inside the backlog (unplaceable, the second pointwise harder than
      the first — failure propagation) plus a feasible fallback.
    """
    horizon = float(n_segments)
    jobs: list[Job] = []
    for i in range(n_jobs):
        kind = i % 4
        w1 = 16 + 8 * (i % 3)  # 16, 24, 32 — all above every backlog segment
        d1 = 3.0 + (i % 4)
        c1 = TaskChain(
            (
                _task("a", w1, d1, horizon + 100.0),
                _task("b", w1 // 2, d1 / 2, horizon + 200.0),
            ),
            label="c1",
        )
        if kind <= 1:
            c2 = TaskChain(
                (
                    _task("a", 48, 2.0, horizon + 100.0, q=0.8),
                    _task("b", 12, d1, horizon + 200.0, q=0.8),
                ),
                label="c2",
            )
            jobs.append(Job((c1, c2), job_id=i))
        elif kind == 2:
            dup = TaskChain(tuple(c1.tasks), label="dup")
            jobs.append(Job((c1, dup), job_id=i))
        else:
            # Deadlines end mid-backlog: no sufficient run exists before
            # them, so both configurations force a full backlog scan when
            # probed — the second is pointwise harder and prunable.
            doomed1 = TaskChain((_task("a", w1, d1, horizon * 0.5),), label="doomed1")
            doomed2 = TaskChain(
                (_task("a", w1 + 8, d1 + 1.0, horizon * 0.4),), label="doomed2"
            )
            jobs.append(Job((doomed1, doomed2, c1), job_id=i))
    return jobs


def _fragmented_arbitrator(n_segments: int) -> QoSArbitrator:
    """An arbitrator whose profile carries the standard backlog pattern."""
    arbitrator = QoSArbitrator(CAPACITY, keep_placements=False)
    profile = arbitrator.schedule.profile
    for i in range(n_segments):
        profile.reserve(
            float(i), float(i + 1), CAPACITY - _BACKLOG_AVAIL[i % 6]
        )
    return arbitrator


def _digest(decisions) -> str:
    payload = tuple(
        (
            d.admitted,
            d.chain_index,
            tuple(
                (pl.start, pl.processors, pl.duration)
                for pl in d.placement.placements
            )
            if d.placement
            else (),
        )
        for d in decisions
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _run_mode(
    n_segments: int, jobs, *, kernel_mode: str, batched: bool
) -> tuple[dict, str]:
    with kernels.use(kernel_mode):
        arbitrator = _fragmented_arbitrator(n_segments)
        t0 = time.perf_counter()
        if batched:
            decisions = arbitrator.admit_batch(jobs)
        else:
            decisions = [arbitrator.submit(job) for job in jobs]
        elapsed = time.perf_counter() - t0
        profile = arbitrator.schedule.profile
        profile.check_invariants()
        checksum = hashlib.sha256(
            (
                _digest(decisions)
                + repr(
                    (
                        tuple(profile._times),  # noqa: SLF001 - identity guard
                        tuple(profile._avail),  # noqa: SLF001
                        arbitrator.utilization(),
                    )
                )
            ).encode("utf-8")
        ).hexdigest()
        report = {
            "seconds": round(elapsed, 6),
            "decisions_per_sec": round(len(jobs) / elapsed, 1)
            if elapsed > 0
            else None,
            "admitted": arbitrator.admitted,
            "kernel_backend": kernels.kernel_backend(),
        }
    return report, checksum


def run_decision_throughput_bench(
    n_jobs: int,
    segment_counts: tuple[int, ...] = (100, 1_000),
    enforce_floor: bool = False,
) -> dict:
    """Throughput comparison across the three execution modes.

    Raises on any decision/profile divergence between modes, and — with
    ``enforce_floor`` and the compiled kernel available — when
    ``batched-compiled`` misses :data:`THROUGHPUT_FLOOR` at the first
    (lowest-fragmentation) segment count.
    """
    try:
        with kernels.use("compiled"):
            pass
        have_compiled = True
    except Exception:
        have_compiled = False

    modes = [
        ("serial-python", dict(kernel_mode="python", batched=False)),
        ("batched-python", dict(kernel_mode="python", batched=True)),
    ]
    if have_compiled:
        modes.append(
            ("batched-compiled", dict(kernel_mode="compiled", batched=True))
        )

    points = []
    for n_segments in segment_counts:
        jobs = fragmentation_jobs(n_jobs, n_segments)
        reports: dict[str, dict] = {}
        checksums: dict[str, str] = {}
        for name, cfg in modes:
            reports[name], checksums[name] = _run_mode(
                n_segments, jobs, **cfg
            )
        if len(set(checksums.values())) != 1:
            raise AssertionError(
                f"decision divergence at {n_segments} segments: {checksums}"
            )
        point = {
            "segments": n_segments,
            "jobs": n_jobs,
            "modes": reports,
            "checksum": checksums["serial-python"],
            "checksums_match": True,
        }
        serial = reports["serial-python"]["decisions_per_sec"]
        if have_compiled:
            batched = reports["batched-compiled"]["decisions_per_sec"]
            point["speedup_batched_compiled_vs_serial_python"] = round(
                batched / serial, 3
            )
        else:
            point["speedup_batched_python_vs_serial_python"] = round(
                reports["batched-python"]["decisions_per_sec"] / serial, 3
            )
        points.append(point)

    if enforce_floor and have_compiled:
        headline = points[0]["modes"]["batched-compiled"]["decisions_per_sec"]
        if headline < THROUGHPUT_FLOOR:
            raise AssertionError(
                f"batched-compiled throughput {headline}/s below the "
                f"{THROUGHPUT_FLOOR}/s floor at "
                f"{points[0]['segments']} segments"
            )

    return {
        "capacity": CAPACITY,
        "workload": "committed admission stream on the backlog profile",
        "compiled_available": have_compiled,
        "floor_decisions_per_sec": THROUGHPUT_FLOOR,
        "points": points,
    }


if __name__ == "__main__":
    import json
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    print(json.dumps(run_decision_throughput_bench(2_000, (100,)), indent=2))
