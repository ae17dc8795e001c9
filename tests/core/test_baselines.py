"""Unit tests for baseline/ablation schedulers."""

import pytest
from hypothesis import given

from repro.core.arbitrator import QoSArbitrator
from repro.core.baselines import BestFitScheduler
from repro.core.greedy import GreedyScheduler
from repro.core.policies import ArbitrationObjective
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from tests.conftest import task_chains


def task(name, procs, dur, deadline):
    return TaskSpec(name, ProcessorTimeRequest(procs, dur), deadline=deadline)


class TestBestFit:
    def test_prefers_tight_hole(self):
        s = Schedule(8)
        # Create a 2-high hole [0, 10) next to the full 8-high machine after.
        s.profile.reserve(0.0, 10.0, 6)
        g = BestFitScheduler(s)
        cp = g.place_chain(
            TaskChain((task("a", 2, 5.0, 1000.0),)), release=0.0
        )
        # First fit would also pick 0.0 here; craft a case where best-fit
        # differs: a 2-wide task with a loose hole first.
        assert cp.placements[0].start == 0.0

    def test_differs_from_first_fit(self):
        # Availability 4 on [0,10), 1 on [10,12), 2 on [12,1000): the task
        # (2 procs x 5) fits loosely at t=0 (surplus 2) and tightly at t=12
        # (surplus 0).  First fit takes the early start, best fit the tight
        # hole — a bounded availability dip separates the two holes.
        s = Schedule(8)
        s.profile.reserve(0.0, 10.0, 4)
        s.profile.reserve(10.0, 12.0, 7)
        s.profile.reserve(12.0, 1000.0, 6)
        c = TaskChain((task("a", 2, 5.0, 10000.0),))
        first = GreedyScheduler(s).place_chain(c, release=0.0)
        best = BestFitScheduler(s).place_chain(c, release=0.0)
        assert first.placements[0].start == 0.0
        assert best.placements[0].start == 12.0

    def test_respects_deadline(self):
        s = Schedule(4)
        s.profile.reserve(0.0, 10.0, 4)
        g = BestFitScheduler(s)
        assert g.place_chain(
            TaskChain((task("a", 1, 5.0, 12.0),)), release=0.0
        ) is None

    @given(task_chains(max_len=3, max_procs=4))
    def test_placements_always_valid(self, c):
        s = Schedule(4)
        s.profile.reserve(0.0, 8.0, 2)
        cp = BestFitScheduler(s).place_chain(c, release=0.0)
        if cp is not None:
            cp.validate()
            for pl in cp.placements:
                assert s.profile.min_available(pl.start, pl.end) >= pl.processors

    @given(task_chains(max_len=2, max_procs=4))
    def test_feasibility_agrees_with_first_fit(self, c):
        """Best fit and first fit agree on *whether* a chain fits."""
        s = Schedule(4)
        s.profile.reserve(2.0, 9.0, 3)
        first = GreedyScheduler(s).place_chain(c, release=0.0)
        best = BestFitScheduler(s).place_chain(c, release=0.0)
        # First-fit dominance: anything best-fit schedules, first-fit can too.
        if best is not None:
            assert first is not None


def conservative(capacity):
    return QoSArbitrator(capacity, objective=ArbitrationObjective.CONSERVATIVE)


class TestConservative:
    def make_job(self, release=0.0):
        wide = TaskChain((task("w", 4, 2.0, 50.0),), label="wide")
        narrow = TaskChain((task("n", 1, 8.0, 50.0),), label="narrow")
        return Job.tunable_of([wide, narrow], release=release)

    def test_admits_when_all_paths_fit(self):
        arb = conservative(8)
        decision = arb.submit(self.make_job())
        assert decision.admitted

    def test_rejects_when_one_path_blocked(self):
        arb = conservative(4)
        arb.schedule.profile.reserve(0.0, 49.0, 1)  # narrow path can't finish
        decision = arb.submit(self.make_job())
        assert not decision.admitted
        assert "conservative" in decision.reason

    def test_plain_arbitrator_admits_same_case(self):
        arb = QoSArbitrator(4)
        arb.schedule.profile.reserve(0.0, 49.0, 1)
        assert arb.submit(self.make_job()).admitted

    def test_quality_accounting_on_admit(self):
        arb = conservative(8)
        arb.submit(self.make_job())
        assert arb.achieved_quality == pytest.approx(1.0)
