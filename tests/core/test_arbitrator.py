"""Unit tests for the QoS arbitrator."""

import pytest

from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


def two_path_job(release=0.0, q_fast=0.6, q_slow=1.0):
    """Fast low-quality path vs slow high-quality path."""
    fast = TaskChain(
        (TaskSpec("a", ProcessorTimeRequest(4, 2.0), deadline=100.0, quality=q_fast),),
        label="fast",
    )
    slow = TaskChain(
        (TaskSpec("a", ProcessorTimeRequest(2, 8.0), deadline=100.0, quality=q_slow),),
        label="slow",
    )
    return Job.tunable_of([fast, slow], release=release)


class TestConstruction:
    def test_rigid_scheduler_by_default(self):
        arb = QoSArbitrator(4)
        assert type(arb.scheduler) is GreedyScheduler

    def test_malleable_scheduler(self):
        arb = QoSArbitrator(4, malleable=True)
        assert isinstance(arb.scheduler, MalleableScheduler)

    def test_capacity_property(self):
        assert QoSArbitrator(7).capacity == 7


class TestSubmit:
    def test_earliest_finish_objective(self):
        arb = QoSArbitrator(4)
        decision = arb.submit(two_path_job())
        assert decision.admitted
        assert decision.placement.chain.label == "fast"

    def test_max_quality_objective(self):
        arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        decision = arb.submit(two_path_job())
        assert decision.admitted
        assert decision.placement.chain.label == "slow"

    def test_max_quality_falls_back(self):
        arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        # Leave only 1 processor free until t=97: the slow path (2 procs for
        # 8) can no longer finish by 100, the fast path (4 procs for 2) can.
        arb.schedule.profile.reserve(0.0, 97.0, 3)
        decision = arb.submit(two_path_job())
        assert decision.admitted
        assert decision.placement.chain.label == "fast"

    def test_max_quality_reject(self):
        arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        arb.schedule.profile.reserve(0.0, 99.5, 4)
        decision = arb.submit(two_path_job())
        assert not decision.admitted
        assert arb.rejected == 1

    def test_quality_accounting(self):
        arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        arb.submit(two_path_job())
        assert arb.achieved_quality == pytest.approx(1.0)
        assert arb.quality_ratio == pytest.approx(1.0)

    def test_quality_ratio_under_degradation(self):
        arb = QoSArbitrator(4)  # earliest finish picks the 0.6 path
        arb.submit(two_path_job())
        assert arb.achieved_quality == pytest.approx(0.6)
        assert arb.quality_ratio == pytest.approx(0.6)

    def test_quality_ratio_empty(self):
        assert QoSArbitrator(4).quality_ratio == 0.0

    def test_counts(self):
        arb = QoSArbitrator(2)
        arb.submit(two_path_job())
        # Saturate: tall path needs 4 (skipped), slow 2x8; fill the machine.
        arb.schedule.profile.reserve(8.0, 92.5, 2)
        arb.submit(two_path_job(release=1.0))
        assert arb.admitted + arb.rejected == 2

    def test_chain_usage(self):
        arb = QoSArbitrator(8)
        arb.submit(two_path_job())
        arb.submit(two_path_job(release=1.0))
        usage = arb.chain_usage()
        assert sum(usage.values()) == 2

    def test_utilization_delegates(self):
        arb = QoSArbitrator(4)
        arb.submit(two_path_job())
        assert 0 < arb.utilization() <= 1.0

    def test_seeded_random_policy(self):
        from repro.core.policies import TieBreakPolicy

        results = []
        for _ in range(2):
            arb = QoSArbitrator(8, policy=TieBreakPolicy.RANDOM, seed=13)
            decisions = [arb.submit(two_path_job(release=float(i))) for i in range(5)]
            results.append([d.chain_index for d in decisions])
        assert results[0] == results[1]


class TestAFailedDecisionCountsNothing:
    """Decide, then account: a decision that raises (a reservation refused
    inside ``Schedule.commit``) leaves every accumulator and the profile
    exactly as they were — ``_quality_possible`` included, which used to
    be bumped before deciding and then ran ahead of ``offered``."""

    @staticmethod
    def _snapshot(arb):
        profile = arb.schedule.profile
        return (
            arb._quality_possible, arb._quality_sum,  # noqa: SLF001
            arb.admitted, arb.rejected, arb.chain_usage(),
            profile.breakpoints, tuple(profile.segments()),
            arb.schedule.committed_jobs, arb.schedule.committed_area,
        )

    @pytest.mark.parametrize("objective", tuple(ArbitrationObjective))
    @pytest.mark.parametrize("call", ("submit", "resubmit", "admit_batch"))
    def test_commit_that_raises(self, monkeypatch, objective, call):
        from repro.core.profile import AvailabilityProfile
        from repro.errors import CapacityExceededError

        from repro.core import kernels

        # backend="scalar" (and, for admit_batch, the Python kernels): the
        # Python path, the only one that commits through Schedule.commit —
        # the C loop reports a status and falls back instead of raising.
        arb = QoSArbitrator(4, objective=objective, backend="scalar")
        assert arb.submit(two_path_job()).admitted
        before = self._snapshot(arb)
        offered = arb.admitted + arb.rejected

        def refuse(self, t0, t1, processors):
            raise CapacityExceededError("injected")

        monkeypatch.setattr(AvailabilityProfile, "reserve", refuse)
        with pytest.raises(CapacityExceededError), kernels.use("python"):
            if call == "admit_batch":
                arb.admit_batch([two_path_job(release=1.0)])
            else:
                getattr(arb, call)(two_path_job(release=1.0))
        monkeypatch.undo()
        assert self._snapshot(arb) == before
        assert arb.admitted + arb.rejected == offered
        assert arb.schedule.perf.commit_failures == 1

    def test_resubmit_nets_out_exactly_one_rejection(self):
        for admit in (True, False):
            arb = QoSArbitrator(4, malleable=True)
            blocker = arb.schedule.profile
            blocker.reserve(0.0, 99.5, 4)
            job = two_path_job()
            assert not arb.submit(job).admitted
            possible = arb._quality_possible  # noqa: SLF001
            if admit:
                blocker.release(0.0, 99.5, 4)
            assert arb.resubmit(job).admitted is admit
            assert (arb.admitted, arb.rejected) == ((1, 0) if admit else (0, 1))
            assert arb._quality_possible == possible  # noqa: SLF001
