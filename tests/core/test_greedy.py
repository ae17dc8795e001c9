"""Unit and property tests for the greedy heuristic (Section 5.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.greedy import GreedyScheduler
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from tests.conftest import task_chains


def chain(*specs, label=""):
    return TaskChain(tuple(specs), label=label)


def task(name, procs, dur, deadline):
    return TaskSpec(name, ProcessorTimeRequest(procs, dur), deadline=deadline)


class TestPlaceChain:
    def test_back_to_back_on_empty_machine(self):
        s = Schedule(4)
        g = GreedyScheduler(s)
        c = chain(task("a", 2, 5.0, 100.0), task("b", 4, 3.0, 100.0))
        cp = g.place_chain(c, release=0.0)
        assert cp is not None
        assert cp.placements[0].start == 0.0
        assert cp.placements[1].start == 5.0
        assert cp.finish == 8.0

    def test_gap_inserted_when_needed(self):
        s = Schedule(4)
        s.profile.reserve(5.0, 10.0, 3)  # blocks the wide second task
        g = GreedyScheduler(s)
        c = chain(task("a", 1, 5.0, 100.0), task("b", 4, 3.0, 100.0))
        cp = g.place_chain(c, release=0.0)
        assert cp.placements[0].start == 0.0
        assert cp.placements[1].start == 10.0

    def test_deadline_failure_returns_none(self):
        s = Schedule(4)
        s.profile.reserve(0.0, 50.0, 4)
        g = GreedyScheduler(s)
        c = chain(task("a", 1, 5.0, 20.0))
        assert g.place_chain(c, release=0.0) is None

    def test_second_task_deadline_failure(self):
        s = Schedule(4)
        s.profile.reserve(5.0, 50.0, 4)
        g = GreedyScheduler(s)
        c = chain(task("a", 1, 5.0, 20.0), task("b", 2, 5.0, 30.0))
        assert g.place_chain(c, release=0.0) is None

    def test_does_not_modify_schedule(self):
        s = Schedule(4)
        before = s.profile.copy()
        GreedyScheduler(s).place_chain(
            chain(task("a", 2, 5.0, 100.0)), release=0.0
        )
        assert s.profile == before

    def test_release_respected(self):
        s = Schedule(4)
        g = GreedyScheduler(s)
        cp = g.place_chain(chain(task("a", 1, 2.0, 50.0)), release=7.5)
        assert cp.placements[0].start == 7.5

    @given(task_chains(max_len=3, max_procs=4))
    def test_placement_always_valid(self, c):
        s = Schedule(4)
        s.profile.reserve(0.0, 10.0, 1)
        cp = GreedyScheduler(s).place_chain(c, release=2.0)
        if cp is not None:
            cp.validate()
            for pl in cp.placements:
                assert s.profile.min_available(pl.start, pl.end) >= pl.processors


class TestChooseAndScheduleJob:
    def make_job(self, release=0.0):
        fast = chain(task("a", 4, 2.0, 100.0), label="fast")
        slow = chain(task("a", 1, 8.0, 100.0), label="slow")
        return Job.tunable_of([fast, slow], release=release)

    def test_choose_picks_earliest_finish(self):
        s = Schedule(4)
        g = GreedyScheduler(s)
        chosen = g.schedule_job(self.make_job())
        assert chosen.chain.label == "fast"

    def test_choose_falls_back_when_preferred_blocked(self):
        s = Schedule(4)
        s.profile.reserve(0.0, 95.0, 1)  # wide chain can't fit by deadline
        g = GreedyScheduler(s)
        chosen = g.schedule_job(self.make_job())
        assert chosen.chain.label == "slow"

    def test_schedule_job_commits(self):
        s = Schedule(4)
        g = GreedyScheduler(s)
        cp = g.schedule_job(self.make_job())
        assert cp is not None
        assert s.committed_jobs == 1
        assert s.profile.available_at(1.0) == 0

    def test_schedule_job_rejects(self):
        s = Schedule(4)
        s.profile.reserve(0.0, 500.0, 4)
        assert GreedyScheduler(s).schedule_job(self.make_job()) is None
        assert s.committed_jobs == 0

    def test_job_wider_than_machine_skipped(self):
        s = Schedule(2)
        wide = chain(task("w", 4, 1.0, 100.0))
        narrow = chain(task("n", 1, 1.0, 100.0))
        job = Job.tunable_of([wide, narrow])
        cp = GreedyScheduler(s).schedule_job(job)
        assert cp.chain is job.chains[1]

    def test_candidates_reports_all_feasible(self):
        s = Schedule(4)
        cands = GreedyScheduler(s).candidates(self.make_job())
        assert {c.chain.label for c in cands} == {"fast", "slow"}


class TestEarliestFinishOptimality:
    """The heuristic achieves each chain's earliest possible finish time."""

    @given(task_chains(max_len=3, max_procs=4), st.integers(0, 3))
    def test_no_delayed_start_improves_finish(self, c, delay_steps):
        """Delaying the first task never lets the chain finish earlier."""
        s = Schedule(4)
        s.profile.reserve(0.0, 6.0, 2)
        g = GreedyScheduler(s)
        base = g.place_chain(c, release=0.0)
        if base is None:
            return
        delayed = g.place_chain(c, release=0.5 * (delay_steps + 1))
        if delayed is not None:
            assert delayed.finish >= base.finish - 1e-9
