"""RenegotiationDriver unit tests: carry, degrade, lose, overrun, account.

The Figure-4 workloads give every path quality 1.0 (the paper's Section 5
setting), so these tests build custom unequal-quality jobs to exercise the
degradation machinery: a wide path at quality 1.0 and a narrow fallback at
quality 0.5.
"""

import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.errors import SimulationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.driver import RenegotiationDriver
from repro.resilience.events import (
    CapacityEvent,
    OverrunEvent,
    PerturbationTrace,
)
from repro.workloads.synthetic import SyntheticParams


def two_path_job(release=0.0):
    """Wide path (8 procs, quality 1.0) with a narrow 0.5-quality fallback."""
    wide = TaskChain(
        (
            TaskSpec(
                "wide", ProcessorTimeRequest(8, 10.0), deadline=40.0, quality=1.0
            ),
        ),
        label="wide",
    )
    narrow = TaskChain(
        (
            TaskSpec(
                "narrow",
                ProcessorTimeRequest(2, 40.0),
                deadline=100.0,
                quality=0.5,
            ),
        ),
        label="narrow",
    )
    return Job(chains=(wide, narrow), release=release, name="twopath")


def rigid_wide_job(release=0.0):
    """The wide path alone: no fallback to degrade onto."""
    wide = TaskChain(
        (
            TaskSpec(
                "wide", ProcessorTimeRequest(8, 10.0), deadline=40.0, quality=1.0
            ),
        ),
        label="wide",
    )
    return Job(chains=(wide,), release=release, name="rigidwide")


def chain2_job(d0=100.0, d1=100.0, w0=4, w1=4, release=0.0):
    """One rigid two-task chain (10 time units each)."""
    chain = TaskChain(
        (
            TaskSpec("t0", ProcessorTimeRequest(w0, 10.0), deadline=d0),
            TaskSpec("t1", ProcessorTimeRequest(w1, 10.0), deadline=d1),
        ),
        label="only",
    )
    return Job(chains=(chain,), release=release, name="chain2")


def admit(arbitrator, job):
    decision = arbitrator.submit(job)
    assert decision.admitted and decision.placement is not None
    return decision.placement


class TestCapacityEvents:
    def test_running_reservation_carried_when_it_fits(self):
        arb = QoSArbitrator(16, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = rigid_wide_job()
        driver.register(job, admit(arb, job))
        ev = CapacityEvent(2.0, 8)
        driver.on_capacity_change(ev)
        driver.check_consistency()
        driver.sweep_finished(math.inf)
        r = driver.finalize(PerturbationTrace(capacity_events=(ev,))).resilience
        assert r["carried"] == 1
        assert r["affected"] == 1
        assert r["survived"] == 1
        assert r["degraded"] == 0
        assert r["replans"] == 0
        assert r["wasted_work"] == 0.0

    def test_degrade_dont_drop_switches_to_fallback_path(self):
        """A drop below the wide path's width re-admits the narrow path:
        the job survives at lower quality instead of being dropped."""
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = two_path_job()
        placement = admit(arb, job)
        assert placement.chain.label == "wide"  # granted at full quality
        driver.register(job, placement)
        ev = CapacityEvent(2.0, 4)
        driver.on_capacity_change(ev)
        driver.check_consistency()
        (live,) = driver.live_placements()
        assert live.chain.label == "narrow"
        driver.sweep_finished(math.inf)
        outcome = driver.finalize(PerturbationTrace(capacity_events=(ev,)))
        r = outcome.resilience
        assert r["dropped"] == 0
        assert r["survived"] == 1
        assert r["degraded"] == 1
        assert r["path_switches"] == 1
        assert r["survival_rate"] == 1.0
        assert r["quality_delta"] == pytest.approx(-0.5)
        # 2 time units x 8 processors of the wide attempt were discarded.
        assert r["wasted_work"] == pytest.approx(16.0)
        assert outcome.achieved_quality == pytest.approx(0.5)

    def test_no_path_fits_job_dropped_honestly(self):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = rigid_wide_job()
        driver.register(job, admit(arb, job))
        ev = CapacityEvent(2.0, 4)
        driver.on_capacity_change(ev)
        driver.check_consistency()
        assert driver.live_jobs == 0
        outcome = driver.finalize(PerturbationTrace(capacity_events=(ev,)))
        r = outcome.resilience
        assert r["dropped"] == 1
        assert r["survived"] == 0
        assert r["survival_rate"] == 0.0
        # Everything the job consumed before the fault is waste.
        assert r["wasted_work"] == pytest.approx(16.0)
        assert outcome.achieved_quality == pytest.approx(0.0)

    def test_pending_overrun_due_moves_with_replans(self):
        """Re-planning a pending placement moves its overrun detection."""
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        blocker = rigid_wide_job()  # occupies all 8 procs over [0, 10)
        driver.register(blocker, admit(arb, blocker))
        victim = chain2_job()  # queued behind it: [10, 20), [20, 30)
        cp = admit(arb, victim)
        assert cp.placements[0].start == pytest.approx(10.0)
        driver.register(victim, cp, overrun=OverrunEvent(1, 0, 2.0))
        assert driver.overrun_due(victim.job_id) == pytest.approx(20.0)

        driver.on_capacity_change(CapacityEvent(2.0, 4))
        driver.check_consistency()
        # The blocker (8-wide, no fallback) is gone; the victim re-plans
        # onto the now-empty 4-processor machine from the event time.
        assert driver.live_jobs == 1
        assert driver.overrun_due(victim.job_id) == pytest.approx(12.0)
        assert driver.pending_overruns() == ((victim.job_id, 12.0),)


class TestOneDrop:
    """One capacity event over a pre-admitted batch (the survival setting)."""

    def test_replan_never_starts_a_job_before_its_release(self):
        arb = QoSArbitrator(16, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6).tunable_job(50.0)
        driver.register(job, admit(arb, job))
        driver.on_capacity_change(CapacityEvent(10.0, 16))
        (live,) = driver.live_placements()
        assert live.release >= 50.0
        assert live.start >= 50.0
        driver.check_consistency()


class TestOverruns:
    def test_overrun_replanned_with_dilated_duration(self):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = chain2_job()
        driver.register(job, admit(arb, job), overrun=OverrunEvent(0, 0, 2.0))
        due = driver.overrun_due(job.job_id)
        assert due == pytest.approx(10.0)
        assert driver.handle_overrun(job.job_id) is True
        driver.check_consistency()
        (live,) = driver.live_placements()
        # The interrupted task restarts at the detection instant with its
        # revealed duration (10 * 2); its successor follows.
        assert live.placements[0].start == pytest.approx(10.0)
        assert live.placements[0].duration == pytest.approx(20.0)
        assert live.finish == pytest.approx(40.0)
        assert driver.overrun_due(job.job_id) is None  # latent consumed
        driver.sweep_finished(math.inf)
        r = driver.finalize(PerturbationTrace(overruns=(OverrunEvent(0, 0, 2.0),))).resilience
        assert r["overrun_events"] == 1
        assert r["deadline_misses"] == 0
        assert r["survived"] == 1
        assert r["replans"] == 1
        assert r["path_switches"] == 0

    def test_unrecoverable_overrun_is_deadline_miss(self):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = chain2_job(d0=12.0, d1=30.0)
        driver.register(job, admit(arb, job), overrun=OverrunEvent(0, 0, 3.0))
        assert driver.handle_overrun(job.job_id) is False
        driver.check_consistency()
        assert driver.live_jobs == 0
        r = driver.finalize(
            PerturbationTrace(overruns=(OverrunEvent(0, 0, 3.0),))
        ).resilience
        assert r["deadline_misses"] == 1
        assert r["dropped"] == 0
        assert r["survival_rate"] == 0.0
        # t0's first (discarded) execution: 10 time units x 4 processors.
        assert r["wasted_work"] == pytest.approx(40.0)


class TestAccounting:
    def test_unperturbed_job_spends_exactly_its_area(self):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = chain2_job()
        driver.register(job, admit(arb, job))
        driver.sweep_finished(math.inf)
        outcome = driver.finalize(PerturbationTrace())
        r = outcome.resilience
        assert r["affected"] == 0
        assert r["survival_rate"] == 1.0
        assert r["wasted_work"] == 0.0
        assert outcome.utilization == pytest.approx(arb.utilization())

    def test_finalize_with_live_jobs_raises(self):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        job = chain2_job()
        driver.register(job, admit(arb, job))
        with pytest.raises(SimulationError, match="still live"):
            driver.finalize(PerturbationTrace())


class TestOverrunAtTaskFinishBoundary:
    """Regression for the remainder-slicing completed-count clamp.

    A capacity event landing at, or half a nanosecond either side of, an
    overrun-armed task's reserved finish must NOT count that task as
    completed: the overrun has
    not been detected yet, so the task's true duration is still unknown and
    the re-plan must re-offer it.  Before the clamp, the ``start < tau``
    slice counted it done, the re-plan dropped it, and the armed overrun
    silently disarmed — the job then "finished" at its optimistic length.
    """

    @pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10])
    def test_event_at_armed_finish_keeps_task_and_overrun(self, offset):
        arb = QoSArbitrator(8, keep_placements=True)
        driver = RenegotiationDriver(arb)
        blocker = Job(
            chains=(
                TaskChain(
                    (
                        TaskSpec(
                            "b", ProcessorTimeRequest(6, 30.0), deadline=100.0
                        ),
                    ),
                    label="only",
                ),
            ),
            release=0.0,
            name="blocker",
        )
        driver.register(blocker, admit(arb, blocker))  # [0, 30) x 6
        victim = chain2_job(w0=2, w1=2, release=5.0)  # [5,15), [15,25) x 2
        driver.register(
            victim, admit(arb, victim), overrun=OverrunEvent(0, 0, 2.0)
        )
        assert driver.overrun_due(victim.job_id) == pytest.approx(15.0)

        # Capacity drops to 7 at (or just around) t0's finish: the
        # blocker carries (6 <= 7) but the victim can't (only 1 free), so
        # it re-plans — and must re-offer BOTH tasks, t0 included.
        driver.on_capacity_change(CapacityEvent(15.0 + offset, 7))
        driver.check_consistency()
        rec = driver._live[victim.job_id]
        assert len(rec.placement.placements) == 2
        due = driver.overrun_due(victim.job_id)
        assert due is not None  # overrun still armed on the re-offered t0
        assert due == pytest.approx(rec.placement.placements[0].end)
        assert driver.handle_overrun(victim.job_id) is True
