"""Unit tests for the committed schedule."""

import pytest

from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.errors import CapacityExceededError, ScheduleConsistencyError
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec


def chain_placement(job_id=1, start=0.0, procs=2, dur=5.0, release=0.0):
    chain = TaskChain(
        (TaskSpec("t", ProcessorTimeRequest(procs, dur), deadline=1000.0),)
    )
    return ChainPlacement(
        job_id=job_id,
        chain_index=0,
        chain=chain,
        placements=(Placement.rigid(chain[0], start),),
        release=release,
    )


class TestCommit:
    def test_commit_reserves(self):
        s = Schedule(4)
        s.commit(chain_placement(start=1.0))
        assert s.profile.available_at(3.0) == 2
        assert s.committed_jobs == 1
        assert s.committed_area == 10.0
        assert s.first_release == 0.0
        assert s.last_finish == 6.0

    def test_commit_validates(self):
        s = Schedule(4)
        bad = chain_placement(start=0.0, release=5.0)  # starts before release
        with pytest.raises(ScheduleConsistencyError):
            s.commit(bad)
        assert s.committed_jobs == 0

    def test_commit_atomic_on_capacity_failure(self):
        s = Schedule(2)
        s.commit(chain_placement(job_id=1, start=0.0, procs=2, dur=5.0))
        # Second commit of a 2-task chain whose second task overlaps.
        chain = TaskChain(
            (
                TaskSpec("a", ProcessorTimeRequest(1, 2.0), deadline=1000.0),
                TaskSpec("b", ProcessorTimeRequest(2, 2.0), deadline=1000.0),
            )
        )
        cp = ChainPlacement(
            job_id=2,
            chain_index=0,
            chain=chain,
            placements=(
                Placement.rigid(chain[0], 6.0),   # fine
                Placement.rigid(chain[1], 8.0),   # fine on its own
            ),
            release=6.0,
        )
        # Make the second task's window infeasible.
        s.profile.reserve(8.0, 10.0, 1)
        with pytest.raises(CapacityExceededError):
            s.commit(cp)
        # First task's tentative reservation must have been rolled back.
        assert s.profile.available_at(6.5) == 2
        assert s.committed_jobs == 1

    def test_rollback(self):
        s = Schedule(4)
        cp = chain_placement()
        s.commit(cp)
        s.rollback(cp)
        assert s.committed_jobs == 0
        assert s.committed_area == 0.0
        assert s.profile.available_at(2.0) == 4
        assert s.placements == ()

    def test_rollback_unknown_placement(self):
        s = Schedule(4)
        cp = chain_placement()
        s.commit(cp)
        other = chain_placement(job_id=9, start=20.0, release=20.0)
        s.profile.reserve(20.0, 25.0, 2)  # make release() legal
        with pytest.raises(ScheduleConsistencyError):
            s.rollback(other)

    @pytest.mark.parametrize("undo", ("rollback", "rollback_tail"))
    def test_second_rollback_raises_and_changes_nothing(self, undo):
        """The guard used to fire after the profile had been released: a
        second rollback handed another job's processors out as free."""
        s = Schedule(4)
        cp = chain_placement()
        other = chain_placement(job_id=2)  # same interval, the other 2 procs
        s.commit(cp)
        s.commit(other)
        s.rollback(cp)
        before = (
            list(s.profile._times), list(s.profile._avail),  # noqa: SLF001
            s.committed_area, s.committed_jobs, s.placements,
        )
        with pytest.raises(ScheduleConsistencyError):
            if undo == "rollback":
                s.rollback(cp)
            else:
                s.rollback_tail(cp, 2.0)
        assert before == (
            list(s.profile._times), list(s.profile._avail),  # noqa: SLF001
            s.committed_area, s.committed_jobs, s.placements,
        )
        assert s.profile.available_at(2.0) == 2  # ``other`` still owns its two
        s.check_consistency()

    def test_keep_placements_false(self):
        s = Schedule(4, keep_placements=False)
        s.commit(chain_placement())
        assert s.placements == ()
        assert s.committed_jobs == 1
        s.check_consistency()  # must not raise


class TestRollbackWindowAccounting:
    """Regression: rollback used to leave the utilization window stale.

    ``Schedule`` tracked ``first_release``/``last_finish`` as bare running
    extremes, so rolling back the earliest-released or latest-finishing job
    kept the old window and ``utilization()`` divided committed area by a
    span no surviving placement occupies.  The window is now recomputed
    from the surviving placements' release/finish multisets.
    """

    def test_rollback_latest_finisher_shrinks_window(self):
        s = Schedule(4)
        early = chain_placement(job_id=1, start=0.0, procs=2, dur=5.0)
        late = chain_placement(job_id=2, start=10.0, dur=5.0, release=10.0)
        s.commit(early)
        s.commit(late)
        assert s.last_finish == 15.0
        s.rollback(late)
        # Stale accounting kept last_finish == 15.0 and reported
        # utilization 10 / (4 * 15) instead of 10 / (4 * 5).
        assert s.last_finish == 5.0
        assert s.utilization() == pytest.approx(0.5)

    def test_rollback_earliest_release_shrinks_window(self):
        s = Schedule(4)
        early = chain_placement(job_id=1, start=0.0, procs=2, dur=5.0)
        late = chain_placement(job_id=2, start=10.0, dur=5.0, release=10.0)
        s.commit(early)
        s.commit(late)
        s.rollback(early)
        assert s.first_release == 10.0
        assert s.last_finish == 15.0
        assert s.utilization() == pytest.approx(0.5)

    def test_rollback_with_duplicate_extremes_keeps_window(self):
        s = Schedule(8)
        twin_a = chain_placement(job_id=1, start=0.0, procs=2, dur=5.0)
        twin_b = chain_placement(job_id=2, start=0.0, procs=2, dur=5.0)
        s.commit(twin_a)
        s.commit(twin_b)
        s.rollback(twin_a)
        # The twin still occupies the same window: no shrink.
        assert s.first_release == 0.0
        assert s.last_finish == 5.0
        assert s.utilization() == pytest.approx(10.0 / (8 * 5))

    def test_rollback_to_empty_resets_window(self):
        s = Schedule(4)
        cp = chain_placement()
        s.commit(cp)
        s.rollback(cp)
        assert s.first_release == float("inf")
        assert s.last_finish == float("-inf")
        assert s.utilization() == 0.0
        # The schedule remains fully usable afterwards.
        again = chain_placement(job_id=3, start=2.0, dur=3.0, release=2.0)
        s.commit(again)
        assert s.first_release == 2.0
        assert s.last_finish == 5.0
        assert s.utilization() == pytest.approx((2 * 3.0) / (4 * 3.0))


class TestMetrics:
    def test_utilization_empty(self):
        assert Schedule(4).utilization() == 0.0

    def test_utilization_single_job(self):
        s = Schedule(4)
        s.commit(chain_placement(start=0.0, procs=2, dur=5.0))
        # area 10 over capacity 4 x span 5
        assert s.utilization() == pytest.approx(0.5)

    def test_utilization_horizon(self):
        s = Schedule(4)
        s.commit(chain_placement(start=0.0, procs=2, dur=5.0))
        assert s.utilization(horizon=10.0) == pytest.approx(0.25)

    def test_utilization_never_above_one(self):
        s = Schedule(2)
        for i in range(4):
            s.commit(chain_placement(job_id=i, start=5.0 * i, procs=2, dur=5.0,
                                     release=5.0 * i))
        assert s.utilization() == pytest.approx(1.0)


class TestConsistency:
    def test_check_consistency_passes(self):
        s = Schedule(4)
        s.commit(chain_placement(job_id=1, start=0.0))
        s.commit(chain_placement(job_id=2, start=0.0, release=0.0))
        s.check_consistency()

    def test_gantt_rows(self):
        s = Schedule(4)
        s.commit(chain_placement(job_id=7, start=1.0))
        rows = list(s.gantt_rows())
        assert rows == [(7, "t", 1.0, 6.0, 2)]

    def test_compact_keeps_accounting(self):
        s = Schedule(4)
        s.commit(chain_placement(start=0.0))
        s.compact(100.0)
        assert s.committed_area == 10.0
        assert s.utilization() > 0
