"""The arrival-driven scheduling simulator.

Replays an arrival process against a :class:`~repro.core.arbitrator.QoSArbitrator`:
each arrival instantiates a job from a *job factory*, submits it, and
records the admission decision.  Because allocations are committed at
arrival and never revised (static negotiation, fault-free system — the
Section 5 model), this arrival loop *is* the full simulation.  The only
other virtual-time loop is the best-effort executor's
(:mod:`repro.sim.executor`), which has no arbitrator to replay.

The same loop also applies the events of a
:class:`~repro.resilience.events.PerturbationTrace` at their virtual times
(the Section 3.1 monitoring loop):

* **arrivals** (base process plus burst injections) are submitted to the
  arbitrator and, when admitted, registered with the
  :class:`~repro.resilience.driver.RenegotiationDriver`;
* **capacity events** hand the live schedule to the driver for carrying /
  re-planning / graceful degradation;
* **overrun detections** fire when an afflicted task's reserved finish
  passes; the driver rolls back and re-plans the job's remainder.

With a :class:`~repro.resilience.reconfig.ReconfigEngine` attached (and
the arbitrator malleable), the loop also exercises **mid-execution
malleability**: reserved job completions become resize events that let
running jobs grow onto the freed processors, capacity repairs trigger the
same grow pass, and an arrival the arbitrator rejects may shrink a running
job to make itself admissible (see :mod:`repro.resilience.reconfig`).

Ties at one instant resolve overrun-detection first (the machine notices a
task still running before it reacts to anything else at that time), then
capacity changes, then arrivals, then completion-triggered resizes — so a
job arriving at the instant of a fault negotiates against the post-fault
machine, and a job arriving at the instant another completes is offered
the freed capacity *before* incumbents may grow onto it (growing first
would let running jobs crowd out admissions they could not crowd out in
the no-resize system).

An empty trace with no active resize engine *is* the fault-free run: no
driver is built, nothing is registered, and the returned
:class:`~repro.sim.metrics.RunMetrics` has an empty ``resilience`` block.

The simulator independently verifies the arbitrator's promise: every
admitted placement is re-checked against release, precedence, capacity-safe
commitment (enforced by the profile) and the final deadline.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import time_leq
from repro.errors import ScheduleConsistencyError, SimulationError, VerificationError
from repro.model.job import Job
from repro.sim.arrivals import ArrivalProcess
from repro.sim.metrics import MetricsCollector, RunMetrics

if TYPE_CHECKING:  # repro.resilience imports repro.sim; no runtime import here
    from repro.resilience.driver import RenegotiationDriver
    from repro.resilience.events import OverrunEvent, PerturbationTrace
    from repro.resilience.reconfig import ReconfigEngine

__all__ = ["ArrivalSimulator", "simulate_arrivals"]

#: A job factory maps (sequence number, release time) to a fresh Job.
JobFactory = Callable[[int, float], Job]

# Event kinds, in tie-break order at equal times.  Completion-triggered
# resizes sort *after* arrivals so same-instant admissions see the machine
# the no-resize system would have shown them (bit-identity when resizing
# is off is regression-tested).
_OVERRUN, _CAPACITY, _ARRIVAL, _RESIZE = 0, 1, 2, 3

#: Tolerance when matching a queued overrun detection against the current
#: due time — entries that drifted (the placement was re-planned) are stale.
_DUE_EPS = 1e-9


class ArrivalSimulator:
    """Drives one arbitrator through arrivals and, optionally, perturbations.

    Parameters
    ----------
    arbitrator:
        The system under test (owns capacity, scheduler model and policy).
        Must retain placements (``keep_placements=True``) when the run is
        perturbed.
    job_factory:
        Called as ``job_factory(i, release)`` for the i-th arrival; must
        return a job released at ``release``.  Base arrivals keep their
        sequence numbers ``0..n-1`` (identical to a burst-free run, for
        CRN pairing), burst arrivals are numbered after them.
    verify:
        When True (default), re-validate every admitted placement and check
        on-time completion — catching scheduler bugs during experiments
        rather than silently mis-reporting throughput — and, in a perturbed
        run, check the schedule plus every live placement after each event.
    audit:
        Opt-in *independent* verification (stronger and costlier than
        ``verify``, which reuses the scheduler's own validation): every
        offered job is recorded and the committed schedule is re-validated
        from first principles by :func:`repro.verify.auditor.audit_run`
        after every perturbation event and at end of run.  Violations raise
        :class:`~repro.errors.VerificationError` at the offending event.
    trace:
        The perturbation schedule; ``None`` or an empty trace is the
        fault-free run.
    reconfig:
        Optional mid-execution resize engine.  Ignored (fully inert, bit
        for bit) unless its policy enables a direction *and* the
        arbitrator is malleable — rigid placements cannot be reshaped.
    """

    def __init__(
        self,
        arbitrator: QoSArbitrator,
        job_factory: JobFactory,
        verify: bool = True,
        audit: bool = False,
        *,
        trace: PerturbationTrace | None = None,
        reconfig: ReconfigEngine | None = None,
    ) -> None:
        self.arbitrator = arbitrator
        self.job_factory = job_factory
        self.verify = verify
        self.audit = audit
        self.trace = trace
        self.reconfig = reconfig
        self._resizing = (
            reconfig is not None and reconfig.active and arbitrator.malleable
        )
        self.collector = MetricsCollector()
        self.driver: RenegotiationDriver | None = None
        if self._resizing or (trace is not None and not trace.empty):
            # Here, not at module level: repro.resilience imports repro.sim.
            from repro.resilience.driver import RenegotiationDriver
            from repro.resilience.events import PerturbationTrace

            self.trace = trace if trace is not None else PerturbationTrace()
            self.driver = RenegotiationDriver(arbitrator)
            if self._resizing:
                assert reconfig is not None
                reconfig.bind(self.driver)
        self._offered: list[Job] = []
        self._overruns: Mapping[int, OverrunEvent] = {}
        # (time, kind, tiebreak) for every event but the base arrivals:
        # kind orders overrun < capacity < arrival < resize at equal
        # times; the tiebreak (arrival sequence / event index / job id)
        # orders same-kind events deterministically.
        self._heap: list[tuple[float, int, int]] = []

    @property
    def perturbed(self) -> bool:
        """Whether anything (trace event or resize engine) may revise the run."""
        return self.driver is not None

    def run(self, arrivals: Iterable[float]) -> RunMetrics:
        """Replay arrivals and trace events in time order; return metrics."""
        base = list(arrivals)
        for i in range(1, len(base)):
            if base[i] < base[i - 1]:
                raise SimulationError(
                    f"arrival {i} at {base[i]} precedes previous arrival {base[i - 1]}"
                )
        n_bursts = self._queue_trace(len(base))
        heap = self._heap
        # The base arrivals are already in (time, _ARRIVAL, seq) order, so
        # merging them with the heap pops events in global order.
        for seq, release in enumerate(base):
            while heap and heap[0] < (release, _ARRIVAL, seq):
                self._on_event(*heapq.heappop(heap))
            self._on_arrival(seq, release)
        while heap:
            self._on_event(*heapq.heappop(heap))
        if self.audit:
            self._run_audit("end of run")

        driver = self.driver
        if driver is None:
            sched = self.arbitrator.schedule
            return self.collector.finalize(
                utilization=self.arbitrator.utilization(),
                chain_usage=self.arbitrator.chain_usage(),
                achieved_quality=self.arbitrator.achieved_quality,
                horizon=sched.last_finish if sched.committed_jobs else 0.0,
                perf=self.arbitrator.perf_snapshot(),
            )
        driver.sweep_finished(math.inf)
        outcome = driver.finalize(self.trace, burst_arrivals=n_bursts)
        resilience = outcome.resilience
        if self._resizing:
            assert self.reconfig is not None
            resilience = {**resilience, **self.reconfig.ledger()}
        return self.collector.finalize(
            utilization=outcome.utilization,
            chain_usage=self.arbitrator.chain_usage(),
            achieved_quality=outcome.achieved_quality,
            horizon=outcome.horizon,
            perf=self.arbitrator.perf_snapshot(),
            resilience=resilience,
        )

    # ------------------------------------------------------------------

    def _queue_trace(self, n_base: int) -> int:
        """Queue the trace's bursts and capacity events; return the burst count."""
        if self.driver is None:
            return 0
        trace = self.trace
        assert trace is not None
        self._overruns = trace.overruns_by_seq()
        heap = self._heap
        seq = n_base
        for ev in trace.bursts:
            for _ in range(ev.count):
                heap.append((ev.time, _ARRIVAL, seq))
                seq += 1
        for i, ev in enumerate(trace.capacity_events):
            heap.append((ev.time, _CAPACITY, i))
        heapq.heapify(heap)
        return seq - n_base

    def _on_arrival(self, seq: int, release: float) -> None:
        """Offer one job; register it with the driver when perturbed."""
        job = self.job_factory(seq, release)
        if job.release != release:
            raise SimulationError(
                f"job factory returned release {job.release}, expected {release}"
            )
        if self.audit:
            self._offered.append(job)
        decision = self.arbitrator.submit(job)
        shrunk = False
        if not decision.admitted and self._resizing:
            assert self.reconfig is not None
            if self.reconfig.policy.shrinks:
                # Capacity pressure: try narrowing one running job so this
                # arrival fits (kept only when the re-offer then admits).
                rescue = self.reconfig.shrink_to_admit(
                    job, release, self.arbitrator
                )
                if rescue is not None:
                    decision, _donor = rescue
                    shrunk = True
        deadline = None
        if decision.admitted and decision.placement is not None:
            cp = decision.placement
            deadline = job.release + cp.chain.final_deadline
            if self.verify:
                cp.validate()
                if not time_leq(cp.finish, deadline):
                    raise ScheduleConsistencyError(
                        f"admitted job {job.job_id} finishes at {cp.finish} "
                        f"past its deadline {deadline}"
                    )
            driver = self.driver
            if driver is not None:
                overrun = self._overruns.get(seq)
                driver.register(job, cp, overrun=overrun)
                if overrun is not None:
                    due = driver.overrun_due(job.job_id)
                    if due is not None:
                        heapq.heappush(self._heap, (due, _OVERRUN, job.job_id))
                if self._resizing:
                    heapq.heappush(self._heap, (cp.finish, _RESIZE, job.job_id))
        if shrunk:
            # The donor's reservation (and possibly its overrun due) moved.
            self._settle(f"shrink-to-admit of job {job.job_id} at t={release:g}")
        self.collector.observe(decision, deadline)

    def _on_event(self, t: float, kind: int, ref: int) -> None:
        """Apply one queued event (burst arrival, capacity, overrun, resize)."""
        if kind == _ARRIVAL:
            self._on_arrival(ref, t)
            return
        driver = self.driver
        assert driver is not None
        if kind == _CAPACITY:
            was_capacity = self.arbitrator.capacity
            driver.on_capacity_change(self.trace.capacity_events[ref])
            context = f"capacity event at t={t:g}"
            if self._resizing and self.arbitrator.capacity > was_capacity:
                # A repair freed processors: let running jobs grow onto
                # them (after every displaced job has been re-planned).
                assert self.reconfig is not None
                if self.reconfig.grow_all(t):
                    context += " (post-repair grow)"
            self._settle(context)
        elif kind == _OVERRUN:
            due = driver.overrun_due(ref)
            if due is None or abs(due - t) > _DUE_EPS:
                return  # consumed, job retired, or a stale entry
            driver.handle_overrun(ref)
            self._settle(f"overrun of job {ref} at t={t:g}", overruns=False)
        else:  # _RESIZE: a reserved completion freed capacity
            due = dict(driver.live_finishes()).get(ref)
            if due is None or abs(due - t) > _DUE_EPS:
                return  # already retired, or a stale (moved) entry
            assert self.reconfig is not None
            driver.sweep_finished(t)
            if self.reconfig.grow_all(t):
                self._settle(f"grow on completion of job {ref} at t={t:g}")

    def _settle(self, context: str, *, overruns: bool = True) -> None:
        """After a revision: re-queue what moved, then check the schedule.

        Re-plans and resizes move reserved finishes, so detection and
        resize events are pushed afresh (stale queue entries are skipped
        when popped).
        """
        driver = self.driver
        assert driver is not None
        heap = self._heap
        if overruns:
            for job_id, due in driver.pending_overruns():
                heapq.heappush(heap, (due, _OVERRUN, job_id))
        if self._resizing:
            for job_id, finish in driver.live_finishes():
                heapq.heappush(heap, (finish, _RESIZE, job_id))
        if self.verify:
            driver.check_consistency()
        if self.audit:
            self._run_audit(context)

    def _run_audit(self, context: str) -> None:
        """Independent schedule audit (the ``audit=True`` hook)."""
        # Lazy: repro.verify is optional tooling, not a simulator dependency.
        from repro.verify.auditor import audit_run

        report = audit_run(
            self.arbitrator.schedule,
            self._offered,
            malleable=self.arbitrator.malleable,
            perturbed=self.perturbed,
        )
        if not report.ok:
            raise VerificationError(
                f"schedule audit failed after {context}:\n{report.summary()}"
            )


def simulate_arrivals(
    arbitrator: QoSArbitrator,
    job_factory: JobFactory,
    process: ArrivalProcess,
    n_jobs: int,
    verify: bool = True,
    audit: bool = False,
) -> RunMetrics:
    """Convenience wrapper: run ``n_jobs`` arrivals from ``process``."""
    sim = ArrivalSimulator(arbitrator, job_factory, verify=verify, audit=audit)
    return sim.run(process.times(n_jobs))
