"""Generate ``BENCH_sched.json``: the scheduler hot-path benchmark report.

Sections:

* ``micro`` — the :mod:`bench_profile_ops` before/after pairs: the greedy
  inner loop (``earliest_fit`` + ``reserve``) and the tie-break's
  ``free_area`` window probes, each run against the legacy (seed) profile
  implementation and the optimized one on identical request streams.  The
  checksum fields double as a correctness guard: before/after must agree.
* ``arrival`` — a figure-level arrival simulation (Figure-4 tunable jobs,
  Poisson arrivals, the Section 5.2 arbitrator) reporting throughput,
  utilization and the per-submit wall-clock decision latency percentiles
  collected by :mod:`repro.perf`.
* ``sweep`` — the end-to-end experiment-runner benchmark
  (:mod:`bench_sweep_runner`): one full interval sweep executed serially,
  in parallel over worker processes with a cold content-addressed result
  cache, and again warm — with checksums proving all three executions
  produced identical metrics.
* ``resilience`` — the fault-aware simulation loop
  (:mod:`repro.resilience`): a zero-event run checked bit-identical
  against the baseline simulator (the subsystem's no-overhead-when-idle
  guard), then a perturbed run (capacity faults x overruns x bursts)
  timed under full per-event verification.
* ``decision_throughput`` — complete admission decisions per second
  (:mod:`bench_decision_throughput`): one identical committed job stream
  run serial vs batched, decided by the Python reference vs the compiled
  kernel (:mod:`repro.core.kernels`), decisions and final profile checksummed
  across all modes; at full scale the batched-compiled mode must clear
  the 100k decisions/sec floor on the low-fragmentation point.
* ``service`` — the fault-tolerant admission front-end
  (:mod:`repro.service`, via :mod:`bench_service`): one identical job
  stream decided directly by ``admit_batch`` and through the full durable
  service path (enqueue -> coalesce -> WAL append -> decide -> fsync ->
  ack), decisions checksummed across modes; at full scale the fsync'd
  service must stay within 2x of the recorded 100k/s direct floor (>=
  50k durable decisions/sec).
* ``perf_overhead`` — the always-on recorder's per-decision cost
  (slotted counter bumps + one latency sample) micro-timed and compared
  against the arrival section's decision p50; at full scale the overhead
  must stay <= 2% of the decision p50, the budget that keeps the
  counters cheap enough to stay on in every run (``perf_snapshot()``,
  ``RunMetrics`` and the per-layer metrics of ``benchmarks/e2e`` read
  them).
* ``reconfig`` — mid-execution malleability
  (:mod:`repro.resilience.reconfig`): an armed grow/shrink engine with a
  prohibitive reconfiguration cost on a zero-event trace must reproduce
  the baseline scheduling metrics bit for bit with zero resizes — every
  probe's transaction rollback has to be a bit-exact inverse — then the
  committed reconfig-experiment regime is timed with resizing on,
  reporting the grow/shrink ledger against the no-resize arm.

Usage::

    python benchmarks/run_bench.py            # full scale, writes BENCH_sched.json
    python benchmarks/run_bench.py --quick    # CI smoke scale, ~seconds
    python benchmarks/run_bench.py --output /tmp/bench.json

The committed ``BENCH_sched.json`` at the repo root is regenerated with the
default (full) scale.  Numbers are wall-clock and therefore machine-
dependent; the *speedup ratios* are the stable, reviewable quantity.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from bench_profile_ops import (  # noqa: E402 - after sys.path bootstrap
    LegacyAvailabilityProfile,
    run_area_query_bench,
    run_reserve_fit_bench,
)
from bench_decision_throughput import (  # noqa: E402
    run_decision_throughput_bench,
)
from bench_service import run_service_bench  # noqa: E402
from bench_sweep_runner import run_sweep_runner_bench  # noqa: E402
from repro.core.arbitrator import QoSArbitrator  # noqa: E402
from repro.core.profile import AvailabilityProfile  # noqa: E402
from repro.resilience.events import (  # noqa: E402
    FaultModel,
    PerturbationTrace,
    generate_trace,
)
from repro.resilience.reconfig import (  # noqa: E402
    ReconfigCostModel,
    ReconfigEngine,
    ResizePolicy,
)
from repro.resilience.simulator import simulate_resilient  # noqa: E402
from repro.sim.arrivals import PoissonArrivals  # noqa: E402
from repro.sim.rng import RandomStreams  # noqa: E402
from repro.sim.simulator import simulate_arrivals  # noqa: E402
from repro.workloads.synthetic import SyntheticParams  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sched.json"


def _pair(run, **kwargs) -> dict:
    """Run one micro-benchmark for both implementations; attach the ratio."""
    before = run(LegacyAvailabilityProfile, **kwargs)
    after = run(AvailabilityProfile, **kwargs)
    if before["checksum"] != after["checksum"]:
        raise AssertionError(
            f"implementations disagree: {before['checksum']} != {after['checksum']}"
        )
    return {
        "before": before,
        "after": after,
        "speedup": round(after["ops_per_sec"] / before["ops_per_sec"], 3),
    }


def run_arrival_bench(
    n_jobs: int,
    capacity: int = 64,
    mean_interval: float = 4.0,
    seed: int = 2024,
) -> dict:
    """Figure-level arrival run with decision-latency instrumentation.

    Poisson arrivals of the Figure-4 tunable job against the rigid
    Section 5.2 arbitrator; returns the experiment's headline metrics plus
    the :meth:`QoSArbitrator.perf_snapshot` latency/counter fields.
    """
    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    arbitrator = QoSArbitrator(capacity)
    process = PoissonArrivals(mean_interval, RandomStreams(seed))
    t_start = time.perf_counter()
    metrics = simulate_arrivals(
        arbitrator,
        lambda i, release: params.tunable_job(release),
        process,
        n_jobs,
    )
    elapsed = time.perf_counter() - t_start
    perf = metrics.perf
    return {
        "jobs": n_jobs,
        "capacity": capacity,
        "mean_interval": mean_interval,
        "seconds": round(elapsed, 6),
        "jobs_per_sec": round(n_jobs / elapsed, 1) if elapsed > 0 else None,
        "throughput": metrics.throughput,
        "admit_rate": round(metrics.admit_rate, 4),
        "utilization": round(metrics.utilization, 4),
        "decision_p50_us": round(perf.get("decision_p50_us", 0.0), 3),
        "decision_p95_us": round(perf.get("decision_p95_us", 0.0), 3),
        "chains_probed": perf.get("chains_probed", 0),
        "chains_area_rejected": perf.get("chains_area_rejected", 0),
        "profile_shift_ops": perf.get("profile_shift_ops", 0),
        "profile_probes": perf.get("profile_probes", 0),
        "profile_segments": perf.get("profile_segments", 0),
    }


def run_resilience_bench(
    n_jobs: int,
    capacity: int = 32,
    mean_interval: float = 30.0,
    seed: int = 2024,
) -> dict:
    """Fault-aware loop benchmark with the zero-event equivalence guard.

    First proves the no-overhead-when-idle identity — an empty
    ``PerturbationTrace`` through :func:`simulate_resilient` must reproduce
    the fault-free ``simulate_arrivals`` metrics bit for bit, with an empty
    resilience block — then times a perturbed run (capacity faults, latent
    overruns, arrival bursts) with full per-event verification on and
    reports its headline resilience metrics.
    """
    params = SyntheticParams(x=16, t=25.0, alpha=0.25, laxity=0.5)

    def factory(i, release):
        return params.tunable_job(release)

    arrivals = list(
        PoissonArrivals(mean_interval, RandomStreams(seed)).times(n_jobs)
    )
    baseline = simulate_arrivals(
        QoSArbitrator(capacity),
        factory,
        PoissonArrivals(mean_interval, RandomStreams(seed)),
        n_jobs,
    )
    empty = simulate_resilient(
        QoSArbitrator(capacity), factory, arrivals, PerturbationTrace()
    )
    if empty != baseline or empty.resilience != {}:
        raise AssertionError(
            "zero-event resilient run diverged from the baseline simulator"
        )

    model = FaultModel(
        fault_rate=3e-4,
        fault_severity=0.375,
        mean_repair=300.0,
        overrun_prob=0.10,
        burst_rate=5e-5,
        burst_size=4,
    )
    trace = generate_trace(
        model,
        RandomStreams(seed),
        horizon=arrivals[-1] + params.d2,
        base_capacity=capacity,
        n_arrivals=n_jobs,
    )
    t_start = time.perf_counter()
    metrics = simulate_resilient(
        QoSArbitrator(capacity, keep_placements=True),
        factory,
        arrivals,
        trace,
        verify=True,
    )
    elapsed = time.perf_counter() - t_start
    r = metrics.resilience
    return {
        "jobs": n_jobs,
        "capacity": capacity,
        "mean_interval": mean_interval,
        "zero_event_identical": True,
        "seconds": round(elapsed, 6),
        "jobs_per_sec": round(n_jobs / elapsed, 1) if elapsed > 0 else None,
        "events": r["events"],
        "capacity_events": r["capacity_events"],
        "overrun_events": r["overrun_events"],
        "burst_arrivals": r["burst_arrivals"],
        "affected": r["affected"],
        "survival_rate": round(r["survival_rate"], 4),
        "path_switches": r["path_switches"],
        "wasted_work": round(r["wasted_work"], 3),
        "utilization": round(metrics.utilization, 4),
    }


def run_reconfig_bench(
    n_jobs: int,
    capacity: int = 32,
    mean_interval: float = 35.0,
    seed: int = 2024,
) -> dict:
    """Mid-execution malleability benchmark with its bit-identity guard.

    Guard: a ``GROW_SHRINK`` engine whose cost model makes every resize
    unprofitable (prohibitive checkpoint term), run on a zero-event trace,
    must commit **zero** resizes and reproduce the plain simulator's
    scheduling metrics bit for bit — failed probes run the full
    rollback/restore transaction, so this proves the undo path is a
    bit-exact inverse.  Then the perturbed committed regime (severity 0.6,
    repair 100 — the reconfig experiment's fault model) is timed with
    zero-cost grow/shrink enabled, reporting the resize ledger and the
    survival x quality benefit against the no-resize arm on the identical
    trace.
    """
    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)

    def factory(i, release):
        return params.tunable_job(release)

    def engine(cost: float) -> ReconfigEngine:
        return ReconfigEngine(ResizePolicy.GROW_SHRINK, ReconfigCostModel(cost))

    arrivals = list(
        PoissonArrivals(mean_interval, RandomStreams(seed)).times(n_jobs)
    )
    baseline = simulate_arrivals(
        QoSArbitrator(capacity, malleable=True),
        factory,
        PoissonArrivals(mean_interval, RandomStreams(seed)),
        n_jobs,
    )
    guard_engine = engine(1e9)
    guarded = simulate_resilient(
        QoSArbitrator(capacity, malleable=True, keep_placements=True),
        factory,
        arrivals,
        PerturbationTrace(),
        reconfig=guard_engine,
    )
    ledger = guard_engine.ledger()
    if ledger["grows"] or ledger["shrinks"] or guard_engine.records:
        raise AssertionError(
            f"prohibitive-cost engine committed resizes: {ledger}"
        )
    if replace(guarded, resilience={}) != baseline:
        raise AssertionError(
            "armed-but-idle reconfig run diverged from the baseline simulator"
        )

    model = FaultModel(
        fault_rate=1e-3,
        fault_severity=0.6,
        mean_repair=100.0,
        overrun_prob=0.10,
        burst_rate=5e-5,
        burst_size=4,
    )
    trace = generate_trace(
        model,
        RandomStreams(seed),
        horizon=arrivals[-1] + params.d2,
        base_capacity=capacity,
        n_arrivals=n_jobs,
    )
    off = simulate_resilient(
        QoSArbitrator(capacity, malleable=True, keep_placements=True),
        factory,
        arrivals,
        trace,
        verify=True,
    )
    on_engine = engine(0.0)
    t_start = time.perf_counter()
    on = simulate_resilient(
        QoSArbitrator(capacity, malleable=True, keep_placements=True),
        factory,
        arrivals,
        trace,
        verify=True,
        reconfig=on_engine,
    )
    elapsed = time.perf_counter() - t_start
    r = on.resilience

    def benefit(m):
        return m.resilience.get("survival_rate", 1.0) * m.achieved_quality

    return {
        "jobs": n_jobs,
        "capacity": capacity,
        "mean_interval": mean_interval,
        "idle_engine_identical": True,
        "idle_probe_attempts": ledger["grow_attempts"] + ledger["shrink_attempts"],
        "seconds": round(elapsed, 6),
        "jobs_per_sec": round(n_jobs / elapsed, 1) if elapsed > 0 else None,
        "grows": r["grows"],
        "shrinks": r["shrinks"],
        "shrink_admits": r["shrink_admits"],
        "shrink_rescues": r["shrink_rescues"],
        "resizes": r["resizes"],
        "resize_cost": round(r["resize_cost"], 3),
        "resize_wasted": round(r["resize_wasted"], 3),
        "survival_rate": round(r["survival_rate"], 4),
        "benefit_resize_on": round(benefit(on), 3),
        "benefit_resize_off": round(benefit(off), 3),
    }


#: Recorder overhead budget: the always-on counters may cost at most this
#: fraction of the decision p50 (the guard for keeping them permanently
#: enabled: every ``perf_snapshot()`` and per-layer benchmark metric reads
#: them, so there is no "profiling off" build to fall back to).
PERF_OVERHEAD_BUDGET = 0.02


def run_perf_overhead_bench(
    decision_p50_us: float, n: int = 200_000, enforce: bool = True
) -> dict:
    """Micro-time the recorder work one admission decision performs.

    Per decision the hot path pays one :meth:`PerfRecorder.note_decision`
    (float add + list append) plus a handful of slotted counter bumps
    from the schedulers and the schedule.  This times that bundle and
    reports it as a fraction of the measured decision p50; with
    ``enforce`` the fraction must clear :data:`PERF_OVERHEAD_BUDGET`
    (one re-measure allowed — it is a nanosecond-scale wall-clock
    sample).
    """
    from repro.perf import PerfRecorder

    def measure() -> float:
        rec = PerfRecorder()
        t0 = time.perf_counter()
        for _ in range(n):
            # One decision's worth of recorder traffic: the latency
            # sample plus representative hot-counter bumps (probe loop,
            # prune accounting, the commit).
            rec.chains_probed += 1
            rec.chains_quick_rejected += 1
            rec.chains_pruned_dominated += 1
            rec.chains_area_rejected += 1
            rec.commits += 1
            rec.note_decision(1e-6)
        return (time.perf_counter() - t0) / n * 1e6

    per_decision_us = measure()
    if enforce and per_decision_us > PERF_OVERHEAD_BUDGET * decision_p50_us:
        per_decision_us = min(per_decision_us, measure())
    overhead = (
        per_decision_us / decision_p50_us if decision_p50_us > 0 else 0.0
    )
    if enforce and overhead > PERF_OVERHEAD_BUDGET:
        raise AssertionError(
            f"perf recorder overhead {per_decision_us:.3f}us/decision is "
            f"{overhead:.2%} of the decision p50 {decision_p50_us}us "
            f"(budget {PERF_OVERHEAD_BUDGET:.0%})"
        )
    return {
        "iterations": n,
        "recorder_us_per_decision": round(per_decision_us, 4),
        "decision_p50_us": decision_p50_us,
        "overhead_fraction": round(overhead, 5),
        "budget_fraction": PERF_OVERHEAD_BUDGET,
        "enforced": enforce,
    }


def generate(quick: bool = False) -> dict:
    """Run every section and return the report dict."""
    if quick:
        micro_n, area_n, area_resv, arrival_n = 1_500, 1_500, 600, 200
        sweep_n, sweep_values, sweep_workers = (
            150,
            (15.0, 30.0, 45.0, 60.0),
            2,
        )
        resilience_n = 300
        reconfig_n = 300
        throughput_jobs, throughput_counts, throughput_floor = (
            2_000, (100,), False,
        )
        service_jobs, service_floor = 400, False
        perf_overhead_enforced = False
    else:
        micro_n, area_n, area_resv, arrival_n = 10_000, 10_000, 2_000, 2_000
        sweep_n, sweep_values, sweep_workers = (
            2_000,
            tuple(float(v) for v in range(10, 86, 5)),
            4,
        )
        resilience_n = 2_000
        reconfig_n = 2_000
        throughput_jobs, throughput_counts, throughput_floor = (
            20_000, (100, 1_000), True,
        )
        service_jobs, service_floor = 4_000, True
        perf_overhead_enforced = True
    arrival = run_arrival_bench(arrival_n)
    return {
        "generated_by": "benchmarks/run_bench.py",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "micro": {
            "reserve_fit": _pair(run_reserve_fit_bench, n_placements=micro_n),
            "area_query": _pair(
                run_area_query_bench, n_queries=area_n, n_reservations=area_resv
            ),
        },
        "arrival": arrival,
        "sweep": run_sweep_runner_bench(
            sweep_n, sweep_values, workers=sweep_workers
        ),
        "perf_overhead": run_perf_overhead_bench(
            arrival["decision_p50_us"], enforce=perf_overhead_enforced
        ),
        "decision_throughput": run_decision_throughput_bench(
            throughput_jobs, throughput_counts, enforce_floor=throughput_floor
        ),
        "service": run_service_bench(
            service_jobs, enforce_floor=service_floor
        ),
        "resilience": run_resilience_bench(resilience_n),
        "reconfig": run_reconfig_bench(reconfig_n),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke scale (seconds, for CI); committed reports use full scale",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    report = generate(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    micro = report["micro"]
    print(f"wrote {args.output}")
    print(f"  reserve_fit speedup: {micro['reserve_fit']['speedup']}x")
    print(f"  area_query speedup:  {micro['area_query']['speedup']}x")
    print(
        f"  decision latency: p50={report['arrival']['decision_p50_us']}us "
        f"p95={report['arrival']['decision_p95_us']}us"
    )
    sweep = report["sweep"]
    bound = " [cpu-bound host]" if sweep.get("cpu_bound") else ""
    print(
        f"  sweep ({sweep['units']} units, {sweep['workers']} workers, "
        f"{sweep['cpus']} cpus): serial={sweep['serial_seconds']}s "
        f"parallel-cold={sweep['parallel_cold_seconds']}s "
        f"({sweep['speedup_parallel_cold']}x{bound}) "
        f"warm-cache={sweep['warm_cache_seconds']}s "
        f"({sweep['speedup_warm_cache']}x), checksums match"
    )
    overhead = report["perf_overhead"]
    print(
        f"  perf recorder overhead: "
        f"{overhead['recorder_us_per_decision']}us/decision = "
        f"{overhead['overhead_fraction']:.2%} of decision p50 "
        f"(budget {overhead['budget_fraction']:.0%})"
    )
    throughput = report["decision_throughput"]
    for point in throughput["points"]:
        modes = point["modes"]
        headline = (
            modes["batched-compiled"]["decisions_per_sec"]
            if "batched-compiled" in modes
            else modes["batched-python"]["decisions_per_sec"]
        )
        tag = (
            "batched-compiled"
            if "batched-compiled" in modes
            else "batched-python [no compiler]"
        )
        speed_key = next(k for k in point if k.startswith("speedup_"))
        print(
            f"  decision throughput @ {point['segments']} segments: "
            f"serial-python={modes['serial-python']['decisions_per_sec']}/s "
            f"{tag}={headline}/s ({point[speed_key]}x), decisions identical"
        )
    service = report["service"]
    if service["floor_enforced"]:
        floor_note = (
            f"required >= {service['required_decisions_per_sec']}/s, "
            f"{'ok' if service['floor_satisfied'] else 'MISSED'}"
        )
    else:
        floor_note = "floor not enforced at this scale"
    print(
        f"  service ({service['jobs']} jobs, batch {service['max_batch']}): "
        f"direct={service['modes']['direct']['decisions_per_sec']}/s "
        f"durable={service['modes']['service']['decisions_per_sec']}/s "
        f"({floor_note}), "
        f"nosync={service['modes']['service-nosync']['decisions_per_sec']}/s, "
        f"decisions identical"
    )
    resilience = report["resilience"]
    print(
        f"  resilience ({resilience['jobs']} jobs, "
        f"{resilience['events']} events): zero-event identical, "
        f"perturbed run {resilience['seconds']}s "
        f"({resilience['jobs_per_sec']} jobs/s), "
        f"survival={resilience['survival_rate']} "
        f"switches={resilience['path_switches']}"
    )
    reconfig = report["reconfig"]
    print(
        f"  reconfig ({reconfig['jobs']} jobs): idle engine identical "
        f"({reconfig['idle_probe_attempts']} probes rolled back), "
        f"perturbed run {reconfig['seconds']}s — "
        f"grows={reconfig['grows']} shrinks={reconfig['shrinks']} "
        f"benefit on/off={reconfig['benefit_resize_on']}/"
        f"{reconfig['benefit_resize_off']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
