"""From raw stamps and spans to the named metrics.

``end_to_end`` needs only what every lap records.  Throughput is jobs
over wall-clock seconds, the latency percentiles are plain
``np.percentile`` over every ``done - start`` sample of the one long lap,
and a request is on time when its own sample is within the limit: a
collector pause, a slow fsync or a checkpoint stall stays in the tail it
caused.  Only the median is an end-to-end (bounded) metric; the 90th and
99th percentiles are reported beside it, unbounded, because on the
service workloads a handful of pauses and stalls set them and ten runs
spread by more than any bound the contract allows (README).

One thing is done to the time-based values: each is scaled by **one
factor per run**, ``host_slowdown``.  The sandbox is a two-thread slice of
a shared host whose speed, pure interpreter loops included, moves by tens
of percent for minutes at a time (ten raw runs of *any* workload here
spread by 30-50% between quartiles, more than any bound the benchmark's
contract allows), so a raw wall-clock time measures the neighbours as
much as the commit.  The load generator therefore runs a fixed
pure-Python loop between operations (``workloads.speed_check``);
``host_slowdown`` is its mean duration over the lap divided by
:data:`REFERENCE_CHECK_S`, that loop's duration on the reference sandbox
at full speed.  Rates are multiplied by it and times divided: they are in
*reference-speed seconds*.  The factor is a scalar, so it cannot reorder
or remove a sample; it is reported (``loadgen.host_slowdown``), and so is
every value before scaling (``raw_*``).  Not scaled: the open loop's rate
(the schedule's), ``on_time_share`` (the limit is in real milliseconds),
``peak_rss_mb``, and the per-layer span times of a traced lap.

``per_layer`` needs a traced lap: it completes the span tree (service
batches are delimited by clock stamps, so their spans are added
afterwards and adopt the WAL and decide spans that ran inside them),
takes each layer's self time, and reads the program's own counters
(``perf_snapshot()``, ``stats()``) at the same boundaries.

What counts towards ``trace.coverage`` is only what was *measured as an
interval* between two stamps: span self times, load-generator code
between two of its own stamps, and runs of consecutive ack callbacks.
``service.self_s`` is the remainder the ISSUE defines (wall minus every
other layer), so it also holds what nothing measured; ``trace.coverage``
says how large that part is.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.profile import PROFILE_BACKENDS

from e2e.trace import GcWatch, Tracer
from e2e.workloads import ON_TIME_LIMIT_S, Timed

__all__ = ["REFERENCE_CHECK_S", "host_slowdown", "end_to_end", "per_layer"]

#: ``speed_check()`` on the reference sandbox at full speed.  Only a unit:
#: it scales every time-based end-to-end metric alike, on every commit.
REFERENCE_CHECK_S = 160e-6


def host_slowdown(checks: Sequence[float]) -> float:
    """How much slower than the reference the host ran during ``checks``."""
    return float(np.mean(checks)) / REFERENCE_CHECK_S


def end_to_end(
    timed: Timed, setup_s: float, peak_rss_mb: float
) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the ISSUE's workload-specific ones.

    One latency sample per job: an ``admit_batch`` chunk's duration counts
    once for each job it carried.  An operation that returned no valid
    decision has no latency; it is a failure and is never on time.
    """
    weight = timed.weight
    jobs = float(weight.sum())
    latency = np.repeat(timed.done - timed.start, weight)
    valid = np.repeat(timed.valid, weight)
    # svc_restart: the checkpointed flood phase; recovery is ``recover_s``.
    flood_s = timed.extra.get("flood_end", timed.end) - timed.begin
    flood_jobs = timed.extra.get("flood_jobs", jobs)
    open_loop = bool(timed.sleeps)
    if not open_loop:  # the checks ran between operations, on the timed path
        flood_s -= timed.speed_s[: timed.extra.get("flood_checks")].sum()
    slow = host_slowdown(timed.speed_s)
    p50, p90, p99 = np.percentile(latency[valid], (50, 90, 99)) * 1e6
    raw = {
        "decisions_per_s": flood_jobs / flood_s,
        "latency_p50_us": float(p50),
        "latency_p90_us": float(p90),
        "latency_p99_us": float(p99),
    }
    metrics = {
        "decisions_per_s": raw["decisions_per_s"] * (1.0 if open_loop else slow),
        "latency_p50_us": raw["latency_p50_us"] / slow,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {f"raw_{name}": value for name, value in raw.items()}
    extra.update(
        latency_p90_us=raw["latency_p90_us"] / slow,
        latency_p99_us=raw["latency_p99_us"] / slow,
        host_slowdown=slow,
        on_time_share=float((valid & (latency <= ON_TIME_LIMIT_S)).sum()) / jobs,
        failed_share=timed.failed / jobs,
    )
    if "recover_s" in timed.extra:
        extra["recover_s"] = timed.extra["recover_s"] / slow
    return metrics, extra


def _between(stamps: np.ndarray, others: np.ndarray) -> np.ndarray:
    """For sorted ``stamps``: is any of ``others`` inside gap ``[k, k+1)``?"""
    busy = np.zeros(max(len(stamps) - 1, 0), dtype=bool)
    slot = np.searchsorted(stamps, others, side="right") - 1
    slot = slot[(slot >= 0) & (slot < len(busy))]
    busy[slot] = True
    return busy


def _loadgen_self(timed: Timed, family: str, phase_break: int, marks: np.ndarray) -> float:
    """Seconds spent in load-generator code between two of its own stamps."""
    call0, call1 = timed.call0, timed.call1
    sent = call1 > 0
    gaps = call0[1:] - call1[:-1]
    keep = sent[1:] & sent[:-1]
    if 0 < phase_break < len(call0):
        keep[phase_break - 1] = False  # kill + recover sit in this gap
    own = float(gaps[keep].sum())
    if family != "service":
        return own + (call0[0] - timed.begin) + (timed.end - call1[-1])
    own -= sum(woke - asked for asked, woke in timed.sleeps)
    # Ack callbacks run back to back; a gap between two of them is the
    # load generator's unless something else left a stamp inside it.
    done = np.sort(timed.done[timed.done > 0])
    quiet = ~_between(done, marks)
    return own + float(np.diff(done)[quiet].sum())


def _infer_spans(tracer: Tracer, timed: Timed, clock: np.ndarray) -> None:
    """Add the spans that are delimited by stamps rather than by a wrapper.

    ``service.batch``  first to second clock reading of ``_process``: the
                       batch body, which adopts the WAL and decide spans.
    ``service.ack``    second clock reading to the next stamp of any kind:
                       the ack fan-out, plus the hand-over to whatever ran
                       next (an upper bound).
    ``runtime.loop``   the selector returning to the next stamp, and the
                       last ack callback or the generator asking to sleep
                       to the selector being entered: the event loop's own
                       turn-taking (also an upper bound).
    """
    batch_in, batch_ack = clock[0::2], clock[1::2]
    for t0, t1 in zip(batch_in, batch_ack):
        tracer.add("service.batch", t0, t1)
    idle = tracer.code_of("runtime.idle")
    is_idle = np.array(tracer.code) == idle
    idle_in, idle_out = np.array(tracer.t0)[is_idle], np.array(tracer.t1)[is_idle]
    done = timed.done[timed.done > 0]
    asked, woke = np.array(timed.sleeps).reshape(-1, 2).T
    marks = np.sort(np.concatenate(
        [timed.call0, timed.call1, clock, np.array(tracer.t0), done, asked, woke]
    ))
    for name, starts in (("service.ack", batch_ack), ("runtime.loop", idle_out)):
        nxt = np.searchsorted(marks, starts, side="right")
        for t0, k in zip(starts, nxt):
            if k < len(marks):
                tracer.add(name, t0, marks[k])
    # Into the selector: only from a stamp that nothing above already owns.
    prev = np.searchsorted(marks, idle_in, side="left") - 1
    mine = (prev >= 0) & np.isin(marks[np.maximum(prev, 0)], np.concatenate([done, asked]))
    for t0, t1 in zip(marks[prev[mine]], idle_in[mine]):
        tracer.add("runtime.loop", t0, t1)


def per_layer(
    names: list[str],
    family: str,
    timed: Timed,
    tracer: Tracer,
    gc_watch: GcWatch,
    phase_break: int,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Every per-layer metric of the traced lap (0 where a layer is bypassed)."""
    m = dict.fromkeys(names, 0.0)
    probes = timed.probes
    arbitrator = timed.arbitrator
    perf_before = probes.get("perf_before", {})
    wall = timed.wall_s
    jobs = int(timed.weight.sum())

    clock = np.array(probes.get("clock", ()))
    batch_in = clock[0::2]
    if family == "service":
        # Stamps are paired as (batch entry, batch ack) by position: any
        # other clock reading would shift every later pair unnoticed.
        batches = int(probes["stats"]["batches"])
        if len(clock) != 2 * batches:
            raise RuntimeError(
                f"traced lap: {len(clock)} clock stamps for {batches} batches; "
                "the service no longer reads its clock exactly twice per batch"
            )
        _infer_spans(tracer, timed, clock)
    frame = tracer.frame()
    late = frame["t0"] >= timed.end  # service.stop(): after the timed lap
    frame["t1"][late] = frame["t0"][late]
    tracer.adopt(frame, "service.batch")
    totals = tracer.totals(frame)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    layer_self: dict[str, float] = {}
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t["self_s"]

    # -- loadgen and what the harness measured of the service -------------
    span_starts = frame["t0"]
    marks = np.concatenate([timed.call0, timed.call1, clock, span_starts])
    loadgen_s = _loadgen_self(timed, family, phase_break, marks)
    m["loadgen.self_s"] = loadgen_s
    measured = sum(layer_self.values()) + loadgen_s
    if family == "service":
        sent = timed.call1 > 0
        blocked = np.zeros(len(sent), dtype=bool)
        if len(batch_in):
            blocked = np.searchsorted(batch_in, timed.call1) > np.searchsorted(
                batch_in, timed.call0
            )
        quick = (timed.call1 - timed.call0)[sent & ~blocked]
        m["service.enqueue_us"] = float(quick.mean()) * 1e6
        measured += float(quick.sum())
        late = (timed.call0 - timed.start)[sent] * 1e3
        m["loadgen.late_p50_ms"] = float(np.percentile(late, 50))
        m["loadgen.late_p99_ms"] = float(np.percentile(late, 99))

        stats = probes["stats"]
        m["service.batches"] = stats["batches"]
        m["service.batch_size_mean"] = stats["batch_jobs"] / max(1, stats["batches"])
        m["service.shed"] = stats["shed"]
        m["service.retries"] = stats["retries"]
        m["service.late_decisions"] = stats["late_decisions"]
        m["service.checkpoints"] = stats["checkpoints"]
        m["wal.appends"] = stats["wal_appends"]
        m["wal.syncs"] = stats["wal_syncs"]
        m["wal.bytes_per_decision"] = sum(probes["wal_bytes"]) / max(1, stats["acked"])

        # Request -> batch, by order: batches take requests first come.
        batch_of = np.searchsorted(
            np.cumsum(probes["batch_sizes"]), np.arange(int(sent.sum())), side="right"
        )
        waited = (batch_in[batch_of] - timed.call0[sent]) * 1e6
        m["service.queue_wait_p50_us"] = float(np.percentile(waited, 50))
        m["service.queue_wait_p99_us"] = float(np.percentile(waited, 99))
        m["service.ack_fanout_us"] = float(
            tracer.durations(frame, "service.ack").mean() * 1e6
        )

        stalls = tracer.durations(frame, "service.checkpoint")
        m["service.checkpoint_s"] = float(stalls.sum())
        if len(stalls):
            m["service.checkpoint_stall_max_ms"] = float(stalls.max()) * 1e3
            m["service.checkpoint_us_per_entry"] = (
                float(stalls.sum()) * 1e6 / max(1, sum(probes["ledger_sizes"]))
            )
        m["wal.append_jobs_s"] = total("wal.append_jobs")
        m["wal.append_decisions_s"] = own("wal.append_decisions")
        syncs = tracer.durations(frame, "wal.sync")
        m["wal.sync_s"] = float(syncs.sum())
        m["wal.sync_p99_ms"] = float(np.percentile(syncs, 99)) * 1e3
        m["recovery.read_s"] = total("recovery.read")
        m["recovery.replay_s"] = total("recovery.replay")
        m["recovery.redecided"] = timed.extra.get("redecided", 0)
        if "recover_call_s" in timed.extra:
            m["recovery.entries_per_s"] = phase_break / timed.extra["recover_call_s"]

        others = sum(s for layer, s in layer_self.items() if layer != "service")
        m["service.self_s"] = wall - loadgen_s - others

    # -- arbitrator, kernels, greedy, profile: spans + the program's counters
    perf = arbitrator.perf_snapshot()

    def delta(key: str) -> float:
        return perf.get(key, 0) - perf_before.get(key, 0)

    m["arbitrator.decide_s"] = total("arbitrator.decide")
    m["arbitrator.submit_s"] = total("arbitrator.submit")
    m["arbitrator.admit_rate"] = arbitrator.admitted / max(
        1, arbitrator.admitted + arbitrator.rejected
    )
    m["arbitrator.utilization"] = arbitrator.utilization()
    m["kernels.flatten_s"] = total("kernels.flatten")
    m["kernels.c_call_s"] = total("kernels.c_call")
    m["kernels.writeback_s"] = own("arbitrator.decide")
    m["kernels.batch_fallbacks"] = delta("batch_fallbacks")
    m["kernels.kernel_fallbacks"] = delta("kernel_fallbacks")
    m["kernels.backend"] = float(perf["kernel_backend"] == "compiled")
    m["greedy.chains_probed"] = delta("chains_probed")
    m["greedy.chains_pruned_dominated"] = delta("chains_pruned_dominated")
    m["greedy.chains_area_rejected"] = delta("chains_area_rejected")
    m["greedy.probes_per_decision"] = delta("chains_probed") / jobs
    m["greedy.choose_s"] = own("greedy.schedule_job")
    segments = probes.get("segments") or [len(arbitrator.schedule.profile)]
    m["profile.segments_mean"] = float(np.mean(segments))
    m["profile.segments_max"] = float(np.max(segments))
    m["profile.probe_segments_per_decision"] = delta("profile_probe_segments") / jobs
    m["profile.shift_ops"] = delta("profile_shift_ops")
    m["profile.earliest_fit_s"] = total("profile.earliest_fit")
    m["profile.reserve_s"] = total("profile.reserve") + total("profile.release")
    m["profile.compact_s"] = total("profile.compact")
    m["autotune.switches"] = perf.get("autotune_switches", 0)
    m["autotune.backend_final"] = PROFILE_BACKENDS.index(
        arbitrator.schedule.profile.scan_backend()
    )

    m["runtime.gc_pause_total_s"] = float(sum(gc_watch.pauses))
    m["runtime.gc_pause_max_ms"] = max(gc_watch.pauses, default=0.0) * 1e3
    m["runtime.gc_gen2_collections"] = gc_watch.gen2
    m["runtime.cpu_s"] = timed.cpu_s
    m["trace.coverage"] = measured / wall
    return m, frame
