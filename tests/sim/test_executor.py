"""Unit tests for the best-effort EDF executor (extension)."""

import pytest

from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError, SimulationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.sim.executor import BestEffortMetrics, EDFExecutor
from repro.workloads.synthetic import SyntheticParams


def job(procs=2, dur=5.0, deadline=20.0, release=0.0, tasks=1):
    chain = TaskChain(
        tuple(
            TaskSpec(
                f"t{i}",
                ProcessorTimeRequest(procs, dur),
                deadline=deadline * (i + 1),
            )
            for i in range(tasks)
        )
    )
    return Job.rigid(chain, release=release)


class TestBasics:
    def test_single_job_completes(self):
        m = EDFExecutor(4).run([job()])
        assert m.offered == 1
        assert m.on_time == 1
        assert m.late == 0
        assert m.busy_area == pytest.approx(10.0)
        assert m.horizon == pytest.approx(5.0)

    def test_chain_runs_sequentially(self):
        m = EDFExecutor(4).run([job(tasks=3, deadline=100.0)])
        assert m.on_time == 1
        assert m.horizon == pytest.approx(15.0)

    def test_parallel_jobs_share_machine(self):
        jobs = [job(procs=2, dur=5.0, release=0.0) for _ in range(2)]
        m = EDFExecutor(4).run(jobs)
        assert m.on_time == 2
        assert m.horizon == pytest.approx(5.0)  # both ran concurrently

    def test_queueing_when_machine_full(self):
        jobs = [job(procs=4, dur=5.0, deadline=50.0, release=0.0) for _ in range(3)]
        m = EDFExecutor(4).run(jobs)
        assert m.on_time == 3
        assert m.horizon == pytest.approx(15.0)  # serialized

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EDFExecutor(0)

    def test_release_order_enforced(self):
        with pytest.raises(SimulationError):
            EDFExecutor(4).run([job(release=5.0), job(release=0.0)])

    def test_negative_release_rejected(self):
        with pytest.raises(SimulationError, match="before time 0.0"):
            EDFExecutor(4).run([job(release=-5.0)])


def test_arrival_is_queued_before_a_same_instant_finish():
    # At t=5 job a's first task finishes and job b arrives.  b is queued
    # first, so when a's task frees the machine EDF starts b (absolute
    # deadline 13) ahead of a's second task (deadline 100).  Were the
    # finish handled first, a's second task would take the machine and b,
    # starting at 10, would miss its deadline.
    a = Job.rigid(
        TaskChain(
            (
                TaskSpec("a0", ProcessorTimeRequest(4, 5.0), deadline=5.0),
                TaskSpec("a1", ProcessorTimeRequest(4, 5.0), deadline=100.0),
            )
        ),
        release=0.0,
    )
    b = Job.rigid(
        TaskChain((TaskSpec("b0", ProcessorTimeRequest(4, 5.0), deadline=8.0),)),
        release=5.0,
    )
    assert EDFExecutor(4).run([a, b]) == BestEffortMetrics(
        offered=2,
        on_time=2,
        late=0,
        busy_area=60.0,
        wasted_area=0.0,
        horizon=15.0,
        capacity=4,
    )


class TestDeadlines:
    def test_late_job_dropped(self):
        # Machine busy with job A; job B's deadline is too tight to wait.
        a = job(procs=4, dur=10.0, deadline=10.0, release=0.0)
        b = job(procs=4, dur=5.0, deadline=6.0, release=1.0)
        m = EDFExecutor(4).run([a, b])
        assert m.on_time == 1
        assert m.late == 1

    def test_edf_order_prefers_tighter_deadline(self):
        # Two queued jobs; the later-arriving but tighter one runs first.
        blocker = job(procs=4, dur=5.0, deadline=100.0, release=0.0)
        loose = job(procs=4, dur=5.0, deadline=100.0, release=1.0)
        tight = job(procs=4, dur=5.0, deadline=11.0, release=2.0)
        m = EDFExecutor(4).run([blocker, loose, tight])
        assert m.on_time == 3  # tight fits only if it preceded loose

    def test_wasted_work_counted(self):
        # A long-running blocker holds 2 of 4 processors.  The victim's
        # first (narrow) task runs beside it, but its second task needs the
        # whole machine before the blocker finishes: the chain is dropped
        # *after* consuming task a's processor-time.
        blocker = Job.rigid(
            TaskChain(
                (TaskSpec("x", ProcessorTimeRequest(2, 20.0), deadline=100.0),)
            ),
            release=0.0,
        )
        victim = Job.rigid(
            TaskChain(
                (
                    TaskSpec("a", ProcessorTimeRequest(2, 5.0), deadline=5.0),
                    TaskSpec("b", ProcessorTimeRequest(4, 5.0), deadline=12.0),
                )
            ),
            release=0.1,
        )
        m = EDFExecutor(4).run([blocker, victim])
        assert m.on_time == 1  # the blocker
        assert m.late == 1
        assert m.wasted_area == pytest.approx(10.0)  # task a's area
        assert m.goodput_utilization < m.utilization

    def test_task_wider_than_machine_dropped(self):
        m = EDFExecutor(2).run([job(procs=4)])
        assert m.late == 1


class TestDispatch:
    def test_narrow_task_starts_beside_a_waiting_wide_head(self):
        # The EDF head needs the full machine; a narrow job behind it runs
        # in the 2 free processors instead of waiting behind the head.
        wide_running = job(procs=2, dur=10.0, deadline=100.0, release=0.0)
        wide_waiting = job(procs=4, dur=5.0, deadline=30.0, release=1.0)
        narrow = job(procs=2, dur=5.0, deadline=100.0, release=2.0)
        m = EDFExecutor(4).run([wide_running, wide_waiting, narrow])
        assert m.on_time == 3
        assert m.horizon == pytest.approx(15.0)


class TestTunableJob:
    def test_runs_its_first_chain(self):
        # A tunable job runs its first chain: the wide, fast one here.
        fast = TaskChain(
            (TaskSpec("a", ProcessorTimeRequest(4, 2.0), deadline=100.0),),
            label="wide-fast",
        )
        narrow = TaskChain(
            (TaskSpec("a", ProcessorTimeRequest(1, 6.0), deadline=100.0),),
            label="narrow-slow",
        )
        m = EDFExecutor(4).run([Job.tunable_of([fast, narrow])])
        assert m.horizon == pytest.approx(2.0)


class TestAgainstArbitrator:
    def test_overload_reservation_beats_best_effort(self):
        """Under overload the admission-controlled arbitrator completes at
        least as many jobs on time and wastes nothing."""
        from repro.core.arbitrator import QoSArbitrator
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.rng import RandomStreams
        from repro.sim.simulator import simulate_arrivals

        params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
        arrivals = list(PoissonArrivals(15.0, RandomStreams(3)).times(300))

        arb = QoSArbitrator(16, keep_placements=False)

        class Replay:
            def times(self, n):
                return iter(arrivals[:n])

        reservation = simulate_arrivals(
            arb, lambda i, r: params.tunable_job(r), Replay(), 300
        )
        edf = EDFExecutor(16).run(params.tunable_job(t) for t in arrivals)
        assert reservation.throughput >= edf.on_time
        assert edf.wasted_area > 0
