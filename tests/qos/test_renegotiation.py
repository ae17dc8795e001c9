"""Unit tests for renegotiation across capacity changes."""

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError, NegotiationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.qos.renegotiation import CapacityChange, renegotiate
from repro.workloads.synthetic import SyntheticParams


@pytest.fixture
def loaded():
    """An arbitrator with a batch of admitted tunable jobs, plus the jobs."""
    params = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6)
    arb = QoSArbitrator(16)
    jobs = {}
    for i in range(10):
        job = params.tunable_job(release=6.0 * i)
        jobs[job.job_id] = job
        arb.submit(job)
    return arb, jobs


class TestCapacityChange:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CapacityChange(time=1.0, new_capacity=0)
        with pytest.raises(ConfigurationError):
            CapacityChange(time=float("inf"), new_capacity=4)


class TestRenegotiate:
    def test_partition_is_complete(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)
        total = (
            len(result.finished)
            + len(result.carried)
            + len(result.reallocated)
            + len(result.dropped)
        )
        assert total == arb.admitted

    def test_finished_untouched(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)
        for cp in result.finished:
            assert cp.finish <= 30.0

    def test_carried_fit_new_capacity(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)
        for cp in result.carried:
            assert cp.start < 30.0 < cp.finish
            for pl in cp.placements:
                if pl.end > 30.0:
                    assert pl.processors <= 8

    def test_reallocated_valid_on_new_schedule(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)
        result.schedule.profile.check_invariants()
        for _old, new in result.reallocated:
            new.validate()
            assert new.start >= 30.0

    def test_no_capacity_change_drops_nothing(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 16), jobs)
        assert result.dropped == ()

    def test_severe_drop_loses_jobs(self, loaded):
        arb, jobs = loaded
        # The tall task needs 8 processors; a machine of 4 kills every
        # not-yet-finished chain (rigid model).
        result = renegotiate(arb.schedule, CapacityChange(30.0, 4), jobs)
        assert len(result.dropped) > 0
        assert result.reallocated == ()

    def test_missing_job_raises(self, loaded):
        arb, jobs = loaded
        some_future_id = None
        for cp in arb.schedule.placements:
            if cp.start >= 30.0:
                some_future_id = cp.job_id
                break
        assert some_future_id is not None
        del jobs[some_future_id]
        with pytest.raises(NegotiationError):
            renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)

    def test_capacity_increase_drops_nothing(self, loaded):
        """Renegotiating onto a *larger* machine keeps every job."""
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 32), jobs)
        assert result.dropped == ()
        result.schedule.profile.check_invariants()

    def test_capacity_increase_never_worsens_finish(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 32), jobs)
        for old, new in result.reallocated:
            # A bigger machine from the change time onward can only delay a
            # job relative to its old slot if the old slot started before
            # the change; jobs starting after it must not get worse.
            if old.start >= 30.0:
                assert new.finish <= old.finish + 1e-9

    def test_path_switches_counted(self, loaded):
        arb, jobs = loaded
        result = renegotiate(arb.schedule, CapacityChange(30.0, 8), jobs)
        switches = sum(
            1
            for old, new in result.reallocated
            if old.chain_index != new.chain_index
        )
        assert result.path_switches == switches


class TestRenegotiateEdgeCases:
    def _late_batch(self):
        """Admitted jobs none of which starts before t=10."""
        params = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6)
        arb = QoSArbitrator(16)
        jobs = {}
        for i in range(6):
            job = params.tunable_job(release=10.0 + 6.0 * i)
            jobs[job.job_id] = job
            arb.submit(job)
        return arb, jobs

    def test_change_before_first_release(self):
        """A change before anything starts re-plans the entire batch."""
        arb, jobs = self._late_batch()
        result = renegotiate(arb.schedule, CapacityChange(5.0, 16), jobs)
        assert result.finished == ()
        assert result.carried == ()
        assert len(result.reallocated) + len(result.dropped) == arb.admitted
        # Same capacity, empty machine: every job is re-admitted.
        assert result.dropped == ()
        result.schedule.profile.check_invariants()
        for _old, new in result.reallocated:
            new.validate()

    def test_change_after_all_finished(self, loaded):
        """A change after the last finish touches nothing."""
        arb, jobs = loaded
        tau = max(cp.finish for cp in arb.schedule.placements) + 1.0
        result = renegotiate(arb.schedule, CapacityChange(tau, 4), jobs)
        assert len(result.finished) == arb.admitted
        assert result.carried == ()
        assert result.reallocated == ()
        assert result.dropped == ()

    def _single_running(self, capacity=16):
        """One admitted rigid job whose tall (8-wide) task spans t=5."""
        params = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6)
        arb = QoSArbitrator(capacity)
        job = params.rigid_job(1, release=0.0)  # tall task first
        decision = arb.submit(job)
        assert decision.admitted
        return arb, {job.job_id: job}, decision.placement

    def test_running_placement_exactly_at_boundary_carried(self):
        """A running 8-wide task survives a drop to exactly 8 processors."""
        arb, jobs, cp = self._single_running()
        assert cp.placements[0].processors == 8
        tau = cp.placements[0].start + cp.placements[0].duration / 2
        result = renegotiate(arb.schedule, CapacityChange(tau, 8), jobs)
        assert [c.job_id for c in result.carried] == [cp.job_id]
        assert result.dropped == ()
        result.schedule.profile.check_invariants()

    def test_running_placement_one_below_boundary_dropped(self):
        """One processor fewer and the rigid reservation cannot be carried."""
        arb, jobs, cp = self._single_running()
        tau = cp.placements[0].start + cp.placements[0].duration / 2
        result = renegotiate(arb.schedule, CapacityChange(tau, 7), jobs)
        assert result.carried == ()
        assert list(result.dropped) == [cp.job_id]


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
    """A change within ``TIME_EPS`` before a task's end leaves no remainder.

    The one-shot path used to clip by hand with ``<=`` and reserve the
    sub-eps sliver ``[10 - 5e-10, 10)``, which the profile refuses as an
    empty interval; it now carries through ``Schedule.adopt_carried``.
    """

    TAU = 10.0 - 5e-10

    def _admit(self, *tasks):
        arb = QoSArbitrator(8)
        job = _chain_job(*tasks)
        decision = arb.submit(job)
        assert decision.admitted
        return arb, {job.job_id: job}, decision.placement

    def test_lone_task_ending_at_the_change_is_finished(self):
        arb, jobs, cp = self._admit(("a", 4, 10.0))
        result = renegotiate(arb.schedule, CapacityChange(self.TAU, 8), jobs)
        assert result.finished == (cp,)
        assert result.carried == () and result.dropped == ()
        assert result.schedule.placements == ()
        assert result.schedule.profile.available_at(self.TAU) == 8

    def test_following_task_is_carried_without_the_sliver(self):
        arb, jobs, cp = self._admit(("a", 4, 10.0), ("b", 2, 5.0))
        result = renegotiate(arb.schedule, CapacityChange(self.TAU, 8), jobs)
        assert result.carried == (cp,)
        assert result.dropped == ()
        profile = result.schedule.profile
        profile.check_invariants()
        assert result.schedule.committed_area == 2 * 5.0  # task b only
        assert profile.available_at(12.0) == 6
        assert profile.available_at(15.0) == 8


class TestCarriedBooking:
    """``result.schedule`` books carried placements, as the driver does."""

    def test_carried_placements_and_clipped_area_are_booked(self, loaded):
        arb, jobs = loaded
        tau = 30.0
        result = renegotiate(arb.schedule, CapacityChange(tau, 8), jobs)
        assert result.carried, "fixture must straddle the change"
        booked = result.schedule.placements
        assert booked[: len(result.carried)] == result.carried
        assert booked[len(result.carried):] == tuple(
            new for _old, new in result.reallocated
        )
        clipped = sum(
            (pl.end - max(pl.start, tau)) * pl.processors
            for cp in result.carried
            for pl in cp.placements
            if pl.end > tau
        )
        readmitted = sum(new.total_area for _old, new in result.reallocated)
        assert result.schedule.committed_jobs == len(booked)
        assert result.schedule.committed_area == pytest.approx(clipped + readmitted)
        assert result.schedule.committed_area < sum(cp.total_area for cp in booked)
        result.schedule.check_consistency()
