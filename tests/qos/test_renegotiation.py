"""Unit tests for renegotiation across a capacity change.

Every case registers an admitted batch with a
:class:`~repro.resilience.driver.RenegotiationDriver`, fires one
:class:`~repro.resilience.events.CapacityEvent` and reads what became of
each job: finished by the change, carried (clipped at it), re-planned on
the new machine, or dropped.
"""

import math
from dataclasses import dataclass

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.placement import ChainPlacement
from repro.core.resources import TIME_STEP, ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.driver import RenegotiationDriver
from repro.resilience.events import CapacityEvent, PerturbationTrace
from repro.workloads.synthetic import SyntheticParams

PARAMS = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6)


def registered_batch(releases, capacity=16):
    """A driver over a batch of tunable Figure-4 jobs, all registered."""
    arb = QoSArbitrator(capacity, keep_placements=True)
    driver = RenegotiationDriver(arb)
    for release in releases:
        job = PARAMS.tunable_job(release=release)
        decision = arb.submit(job)
        if decision.admitted:
            driver.register(job, decision.placement)
    return arb, driver


def admit_one(job, capacity):
    """A driver holding ``job`` alone, admitted on ``capacity`` processors."""
    arb = QoSArbitrator(capacity, keep_placements=True)
    driver = RenegotiationDriver(arb)
    decision = arb.submit(job)
    assert decision.admitted
    driver.register(job, decision.placement)
    return arb, driver, decision.placement


def drop(driver, event):
    """Fire one capacity event, retire everything, return the ledger."""
    driver.on_capacity_change(event)
    driver.check_consistency()
    driver.sweep_finished(math.inf)
    return driver.finalize(PerturbationTrace(capacity_events=(event,))).resilience


@dataclass
class Change:
    """A batch just after ``CapacityEvent(tau, 8)``: its placements both sides."""

    arb: QoSArbitrator
    driver: RenegotiationDriver
    tau: float
    before: dict[int, ChainPlacement]
    after: tuple[ChainPlacement, ...]

    @property
    def finished(self):
        return [cp for cp in self.before.values() if cp.finish <= self.tau]

    @property
    def carried(self):
        return [cp for cp in self.after if cp is self.before[cp.job_id]]

    @property
    def replanned(self):
        return [cp for cp in self.after if cp is not self.before[cp.job_id]]

    def ledger(self):
        self.driver.sweep_finished(math.inf)
        trace = PerturbationTrace(capacity_events=(CapacityEvent(self.tau, 8),))
        return self.driver.finalize(trace).resilience


@pytest.fixture
def halved():
    """Ten tunable jobs on 16 processors, cut to 8 at t=30 mid-batch."""
    arb, driver = registered_batch([6.0 * i for i in range(10)])
    tau = 30.0
    before = {cp.job_id: cp for cp in driver.live_placements()}
    driver.on_capacity_change(CapacityEvent(tau, 8))
    driver.check_consistency()
    change = Change(arb, driver, tau, before, driver.live_placements())
    assert change.finished and change.carried and change.replanned, (
        "the drop must straddle the batch"
    )
    return change


class TestCapacityChange:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapacityEvent(time=1.0, new_capacity=0)
        with pytest.raises(ConfigurationError):
            CapacityEvent(time=float("inf"), new_capacity=4)


class TestRenegotiate:
    def test_partition_is_complete(self, halved):
        r = halved.ledger()
        assert r["affected"] == len(halved.before) - len(halved.finished)
        assert r["affected"] == r["carried"] + r["replans"] + r["dropped"]
        assert r["carried"] == len(halved.carried)
        assert r["replans"] == len(halved.replanned)

    def test_finished_untouched(self, halved):
        done = {cp.job_id for cp in halved.finished}
        assert done.isdisjoint(cp.job_id for cp in halved.after)
        assert done.isdisjoint(cp.job_id for cp in halved.arb.schedule.placements)

    def test_carried_fit_new_capacity(self, halved):
        for cp in halved.carried:
            assert cp.start < halved.tau < cp.finish
            for pl in cp.placements:
                if pl.end > halved.tau:
                    assert pl.processors <= 8

    def test_reallocated_valid_on_new_schedule(self, halved):
        halved.arb.schedule.profile.check_invariants()
        for cp in halved.replanned:
            cp.validate()
            assert cp.start >= halved.tau

    def test_no_capacity_change_drops_nothing(self):
        arb, driver = registered_batch([6.0 * i for i in range(10)])
        r = drop(driver, CapacityEvent(30.0, 16))
        assert r["affected"] > 0
        assert r["dropped"] == 0

    def test_severe_drop_loses_jobs(self):
        # The tall task needs 8 processors on both paths; a machine of 4
        # can re-admit no pending job.
        arb, driver = registered_batch([6.0 * i for i in range(10)])
        r = drop(driver, CapacityEvent(30.0, 4))
        assert r["dropped"] > 0
        assert r["replans"] == 0

    def test_capacity_increase_drops_nothing(self):
        """Renegotiating onto a *larger* machine keeps every job."""
        arb, driver = registered_batch([6.0 * i for i in range(10)])
        r = drop(driver, CapacityEvent(30.0, 32))
        assert r["affected"] > 0
        assert r["dropped"] == 0

    def test_capacity_increase_never_worsens_finish(self):
        arb, driver = registered_batch([6.0 * i for i in range(10)])
        before = {cp.job_id: cp for cp in driver.live_placements()}
        driver.on_capacity_change(CapacityEvent(30.0, 32))
        pending = [
            cp for cp in driver.live_placements() if before[cp.job_id].start >= 30.0
        ]
        assert pending
        for cp in pending:
            assert cp.finish <= before[cp.job_id].finish + 1e-9

    def test_path_switches_counted(self, halved):
        switches = sum(
            1
            for cp in halved.replanned
            if cp.chain.label != halved.before[cp.job_id].chain.label
        )
        assert halved.ledger()["path_switches"] == switches


class TestRenegotiateEdgeCases:
    def test_change_before_first_release(self):
        """A change before anything starts re-plans the entire batch."""
        arb, driver = registered_batch([10.0 + 6.0 * i for i in range(6)])
        event = CapacityEvent(5.0, 16)
        driver.on_capacity_change(event)
        arb.schedule.profile.check_invariants()
        for cp in driver.live_placements():
            cp.validate()
        driver.sweep_finished(math.inf)
        r = driver.finalize(PerturbationTrace(capacity_events=(event,))).resilience
        # Same capacity, empty machine: every job is re-admitted.
        assert r["affected"] == r["replans"] == arb.admitted
        assert r["carried"] == 0
        assert r["dropped"] == 0

    def test_change_after_all_finished(self):
        """A change after the last finish touches nothing."""
        arb, driver = registered_batch([6.0 * i for i in range(10)])
        tau = max(cp.finish for cp in driver.live_placements()) + 1.0
        r = drop(driver, CapacityEvent(tau, 4))
        assert r["affected"] == 0
        assert r["carried"] == r["replans"] == r["dropped"] == 0

    def _drop_mid_tall_task(self, new_capacity):
        """One rigid job whose 8-wide first task is running at the change."""
        job = PARAMS.rigid_job(1, release=0.0)  # tall task first
        arb, driver, cp = admit_one(job, 16)
        lead = cp.placements[0]
        assert lead.processors == 8
        tau = lead.start + lead.duration / 2
        return drop(driver, CapacityEvent(tau, new_capacity))

    def test_running_placement_exactly_at_boundary_carried(self):
        """A running 8-wide task survives a drop to exactly 8 processors."""
        r = self._drop_mid_tall_task(8)
        assert r["carried"] == 1
        assert r["replans"] == r["dropped"] == 0

    def test_running_placement_one_below_boundary_dropped(self):
        """One processor fewer and the rigid reservation cannot be carried."""
        r = self._drop_mid_tall_task(7)
        assert r["carried"] == r["replans"] == 0
        assert r["dropped"] == 1


def _chain_job(*tasks):
    """A one-path job released at 0 from ``(name, procs, duration)`` tasks."""
    chain = TaskChain(
        tuple(
            TaskSpec(name, ProcessorTimeRequest(procs, duration), deadline=1000.0)
            for name, procs, duration in tasks
        )
    )
    return Job.rigid(chain, release=0.0)


class TestSubEpsRemainder:
    """A change exactly at a task's end leaves no remainder; one a single
    :data:`~repro.core.resources.TIME_STEP` earlier leaves that step.

    Times are compared exactly: a job ending at the change is finished,
    and a later task is carried without its finished predecessor.  A
    change just before the end keeps the short remainder reserved.
    """

    TAU = 10.0

    def test_lone_task_ending_at_the_change_is_finished(self):
        arb, driver, _cp = admit_one(_chain_job(("a", 4, 10.0)), 8)
        event = CapacityEvent(self.TAU, 8)
        driver.on_capacity_change(event)
        assert driver.live_jobs == 0
        assert arb.schedule.placements == ()
        assert arb.schedule.profile.available_at(self.TAU) == 8
        r = driver.finalize(PerturbationTrace(capacity_events=(event,)))
        assert r.resilience["affected"] == 0

    def test_following_task_is_carried_without_the_sliver(self):
        job = _chain_job(("a", 4, 10.0), ("b", 2, 5.0))
        arb, driver, cp = admit_one(job, 8)
        driver.on_capacity_change(CapacityEvent(self.TAU, 8))
        assert driver.live_placements() == (cp,)
        profile = arb.schedule.profile
        profile.check_invariants()
        assert arb.schedule.committed_area == 2 * 5.0  # task b only
        assert profile.available_at(12.0) == 6
        assert profile.available_at(15.0) == 8

    def test_a_change_one_step_early_carries_the_step(self):
        job = _chain_job(("a", 4, 10.0), ("b", 2, 5.0))
        arb, driver, cp = admit_one(job, 8)
        tau = self.TAU - TIME_STEP
        driver.on_capacity_change(CapacityEvent(tau, 8))
        assert driver.live_placements() == (cp,)
        profile = arb.schedule.profile
        assert profile.available_at(tau) == 4
        assert profile.available_at(self.TAU) == 6
        assert arb.schedule.committed_area == 4 * TIME_STEP + 2 * 5.0


class TestCarriedBooking:
    """The new schedule books carried and re-planned placements alike."""

    def test_carried_placements_and_clipped_area_are_booked(self, halved):
        schedule = halved.arb.schedule
        assert schedule.capacity == 8
        assert schedule.committed_jobs == len(halved.after)
        clipped = sum(
            (pl.end - max(pl.start, halved.tau)) * pl.processors
            for cp in halved.carried
            for pl in cp.placements
            if pl.end > halved.tau
        )
        replanned = sum(cp.total_area for cp in halved.replanned)
        assert schedule.committed_area == pytest.approx(clipped + replanned)
        assert schedule.committed_area < sum(cp.total_area for cp in halved.after)
        schedule.check_consistency()
