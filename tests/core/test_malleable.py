"""Unit and property tests for malleable scheduling (Section 5.4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.malleable import MalleableScheduler, MalleableStrategy
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


def task(name, procs, dur, deadline, max_concurrency=0):
    return TaskSpec(
        name,
        ProcessorTimeRequest(procs, dur),
        deadline=deadline,
        max_concurrency=max_concurrency or procs,
    )


def chain(*specs, label=""):
    return TaskChain(tuple(specs), label=label)


class TestWidestFirst:
    def test_uses_full_width_on_empty_machine(self):
        s = Schedule(8)
        m = MalleableScheduler(s)
        cp = m.place_chain(chain(task("a", 4, 8.0, 100.0)), release=0.0)
        assert cp.placements[0].processors == 4
        assert cp.placements[0].duration == 8.0

    def test_narrows_to_meet_deadline(self):
        s = Schedule(8)
        # 4 processors busy until 50; a 4-wide task can't finish by 20,
        # but narrowed variants can use the 4 free processors immediately.
        s.profile.reserve(0.0, 50.0, 4)
        m = MalleableScheduler(s)
        cp = m.place_chain(chain(task("a", 8, 4.0, 20.0)), release=0.0)
        assert cp is not None
        pl = cp.placements[0]
        assert pl.processors == 4
        assert pl.duration == pytest.approx(8.0)  # area conserved: 32
        assert pl.end <= 20.0

    def test_work_conservation(self):
        s = Schedule(8)
        s.profile.reserve(0.0, 30.0, 5)
        m = MalleableScheduler(s)
        spec = task("a", 6, 5.0, 200.0)
        cp = m.place_chain(chain(spec), release=0.0)
        assert cp.placements[0].area == pytest.approx(spec.area)

    def test_capacity_caps_width(self):
        s = Schedule(4)
        m = MalleableScheduler(s)
        cp = m.place_chain(chain(task("a", 8, 2.0, 100.0)), release=0.0)
        assert cp is not None
        assert cp.placements[0].processors == 4
        assert cp.placements[0].duration == pytest.approx(4.0)

    def test_reshape_conserves_area_up_to_max_concurrency(self):
        """A task of area 24 and degree of concurrency 8 runs as wide as the
        machine allows, never wider than 8, for area / width time."""
        spec = task("a", 3, 8.0, 100.0, max_concurrency=8)
        for capacity, width in ((1, 1), (2, 2), (8, 8), (16, 8)):
            m = MalleableScheduler(Schedule(capacity))
            pl = m.place_chain(chain(spec), release=0.0).placements[0]
            assert (pl.processors, pl.duration) == (width, 24.0 / width)
            assert pl.area == spec.area

    def test_reshape_to_the_free_width_conserves_area(self):
        """Reserved processors leave p free past the deadline: the task runs
        p wide for area / p time and keeps its own spec."""
        spec = task("a", 8, 3.0, 100.0)
        for free in (1, 2, 4):
            s = Schedule(8)
            s.profile.reserve(0.0, 1000.0, 8 - free)
            pl = MalleableScheduler(s).place_chain(chain(spec), release=0.0).placements[0]
            assert (pl.processors, pl.duration) == (free, 24.0 / free)
            assert pl.task is spec and pl.task.max_concurrency == 8

    def test_rigid_width_is_never_widened(self):
        """A task whose degree of concurrency is its own width runs at that
        width on a machine twice as wide."""
        spec = task("a", 4, 2.0, 100.0)
        pl = MalleableScheduler(Schedule(8)).place_chain(chain(spec), release=0.0).placements[0]
        assert (pl.processors, pl.duration) == (4, 2.0)

    def test_reshape_down_to_the_width_floor(self):
        """With one processor free the task runs on that one (§5.4: any
        width up to its degree of concurrency)."""
        s = Schedule(8)
        s.profile.reserve(0.0, 1000.0, 7)
        m = MalleableScheduler(s)
        pl = m.place_chain(chain(task("a", 4, 2.0, 50.0)), release=0.0).placements[0]
        assert (pl.processors, pl.duration) == (1, 8.0)

    def test_widest_first_prefers_width_over_finish(self):
        """The literal reading: first *feasible* from the top, even if a
        narrower shape would finish earlier."""
        s = Schedule(8)
        # 8-wide possible only at t=10; 4-wide possible at t=0.
        s.profile.reserve(0.0, 10.0, 4)
        m = MalleableScheduler(s, strategy=MalleableStrategy.WIDEST_FIRST_FEASIBLE)
        cp = m.place_chain(chain(task("a", 8, 4.0, 100.0)), release=0.0)
        assert cp.placements[0].processors == 8
        assert cp.placements[0].start == 10.0


class TestEarliestFinishStrategy:
    def test_picks_earliest_finishing_width(self):
        s = Schedule(8)
        s.profile.reserve(0.0, 10.0, 4)
        m = MalleableScheduler(s, strategy=MalleableStrategy.EARLIEST_FINISH)
        cp = m.place_chain(chain(task("a", 8, 4.0, 100.0)), release=0.0)
        pl = cp.placements[0]
        # 4-wide starting at 0 finishes at 8; 8-wide at 10 finishes at 14.
        assert pl.processors == 4
        assert pl.end == pytest.approx(8.0)

    def test_tie_goes_to_wider(self):
        s = Schedule(8)
        m = MalleableScheduler(s, strategy=MalleableStrategy.EARLIEST_FINISH)
        cp = m.place_chain(chain(task("a", 8, 4.0, 100.0)), release=0.0)
        # On an empty machine the widest is strictly fastest anyway.
        assert cp.placements[0].processors == 8

    def test_near_tie_set_favours_widest_within_eps(self):
        """The tie is judged against the true minimum finish, exactly.

        Finish times wide-to-narrow: 10, 9, 9.  Width 3 is not tied (one
        unit later); widths 2 and 1 tie exactly at the minimum, and the
        wider of the two wins.  (A time tolerance once made near-ties
        here; finishes are now compared with ``==`` and ``<``.)
        """
        s = Schedule(3)
        # Free width over time: 0, then 1 from t=3, 2 from t=6, 3 from t=8.
        s.profile.reserve(0.0, 3.0, 1)
        s.profile.reserve(0.0, 6.0, 1)
        s.profile.reserve(0.0, 8.0, 1)
        m = MalleableScheduler(s, strategy=MalleableStrategy.EARLIEST_FINISH)
        cp = m.place_chain(chain(task("a", 3, 2.0, 100.0)), release=0.0)
        pl = cp.placements[0]
        assert pl.processors == 2
        assert (pl.start, pl.end) == (6.0, 9.0)

    def test_degenerate_band_min_width_equals_width_cap(self):
        """A single-width band (a resize's ``first_min_width`` at the
        task's cap) must still place, and pick that width."""
        s = Schedule(3)
        s.profile.reserve(0.0, 8.0, 1)  # widest-only fit starts at 8
        m = MalleableScheduler(s, strategy=MalleableStrategy.EARLIEST_FINISH)
        cp = m.resize_placement(
            chain(task("a", 3, 2.0, 100.0)), release=0.0, earliest=0.0,
            first_min_width=3,
        )
        pl = cp.placements[0]
        assert pl.processors == 3
        assert pl.start == pytest.approx(8.0)


class TestQuickReject:
    def test_wide_task_not_rejected(self):
        """Rigid quick-reject would kill an 8-wide task on a 4-machine."""
        s = Schedule(4)
        m = MalleableScheduler(s)
        job = Job.rigid(chain(task("a", 8, 2.0, 100.0)))
        assert m.schedule_job(job) is not None

    def test_impossible_deadline_rejected_cheaply(self):
        s = Schedule(4)
        m = MalleableScheduler(s)
        # area 32 on <=4 procs takes >= 8 time > deadline 5.
        assert m._quick_reject(chain(task("a", 8, 4.0, 5.0)))

    def test_feasible_not_rejected(self):
        s = Schedule(4)
        m = MalleableScheduler(s)
        assert not m._quick_reject(chain(task("a", 8, 4.0, 100.0)))

    def test_exactly_tight_fit_admitted_despite_relative_rounding(self):
        # 1.1 + 0.35 rounds above 1.45, but placed from release 1.0 the
        # chain ends at 2.45 == 1.0 + 1.45: the filter must not reject it.
        m = MalleableScheduler(Schedule(1))
        c = chain(task("a", 1, 1.1, float("inf")), task("b", 1, 0.35, 1.45))
        cp = m.schedule_job(Job.rigid(c, release=1.0))
        assert cp is not None and cp.finish == 1.0 + 1.45


class TestMalleableJobs:
    def test_tunable_job_scheduling(self):
        s = Schedule(8)
        m = MalleableScheduler(s)
        job = Job.tunable_of(
            [
                chain(task("a", 8, 4.0, 50.0), label="wide"),
                chain(task("a", 2, 16.0, 50.0), label="narrow"),
            ]
        )
        cp = m.schedule_job(job)
        assert cp is not None
        s.check_consistency()

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_area_invariant_across_widths(self, procs, cap):
        s = Schedule(cap)
        m = MalleableScheduler(s)
        spec = task("a", procs, 4.0, 1000.0)
        cp = m.place_chain(chain(spec), release=0.0)
        assert cp is not None
        assert cp.placements[0].area == pytest.approx(spec.area)
        assert cp.placements[0].processors <= cap
