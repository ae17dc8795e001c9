"""Mid-execution malleability: cost model, engine policy, driver mechanics.

The grow/shrink scenarios are built from first principles on tiny
machines: a repair that leaves a running job narrow (grow headroom), an
arrival that only fits if a running donor narrows (shrink pressure).  The
transactional mechanics are pinned bit-exactly: an undone resize must
leave no trace in the availability profile or the driver's ledgers.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.driver import RenegotiationDriver
from repro.resilience.events import (
    CapacityEvent,
    FaultModel,
    OverrunEvent,
    PerturbationTrace,
    generate_trace,
)
from repro.resilience.reconfig import (
    ReconfigCostModel,
    ReconfigEngine,
    ResizePolicy,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim import simulator as sim_mod
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.verify.auditor import ScheduleAuditor, audit_run
from repro.workloads.synthetic import SyntheticParams


def mtask(name, procs, dur, deadline, mc=None):
    return TaskSpec(
        name,
        ProcessorTimeRequest(procs, dur),
        deadline=deadline,
        max_concurrency=mc if mc is not None else procs,
    )


def single(name, procs, dur, deadline, mc=None, release=0.0):
    chain = TaskChain((mtask(name, procs, dur, deadline, mc),), label="only")
    return Job(chains=(chain,), release=release, name=name)


def malleable_rig(capacity):
    arb = QoSArbitrator(capacity, malleable=True, keep_placements=True)
    return arb, RenegotiationDriver(arb)


def admit(arb, job):
    decision = arb.submit(job)
    assert decision.admitted and decision.placement is not None
    return decision.placement


def segments(arb, clip=0.0):
    """Profile segments with any fully-past history before ``clip`` dropped.

    Rollback is exact for the *future*; the profile is free to compact
    segments that end at or before the current time, so snapshots taken
    around a probe are compared from ``now`` onward.
    """
    out = []
    for start, end, used in arb.schedule.profile.segments():
        if end <= clip:
            continue
        out.append((max(start, clip), end, used))
    return out


class TestCostModelAndPolicy:
    def test_negative_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconfigCostModel(checkpoint=-1.0)

    @pytest.mark.parametrize("term", ["checkpoint"])
    def test_nan_terms_rejected(self, term):
        # ``nan < 0`` is false: a NaN cost once slipped through and a
        # resize-on run died later in the event loop with an IndexError.
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            ReconfigCostModel(**{term: math.nan})

    def test_policy_directions(self):
        assert ResizePolicy.GROW.grows and not ResizePolicy.GROW.shrinks
        assert ResizePolicy.SHRINK.shrinks and not ResizePolicy.SHRINK.grows
        assert ResizePolicy.GROW_SHRINK.grows and ResizePolicy.GROW_SHRINK.shrinks
        assert not ResizePolicy.OFF.grows and not ResizePolicy.OFF.shrinks
        assert not ReconfigEngine(ResizePolicy.OFF).active
        assert ReconfigEngine(ResizePolicy.GROW).active


class TestGrow:
    """A repair doubles the machine under a job admitted at half width."""

    def _repaired_rig(self, checkpoint=0.0):
        arb, driver = malleable_rig(4)
        job = single("g", 4, 10.0, 100.0, mc=8)
        cp = admit(arb, job)
        assert cp.placements[0].processors == 4
        driver.register(job, cp)
        engine = ReconfigEngine(
            ResizePolicy.GROW, ReconfigCostModel(checkpoint)
        )
        engine.bind(driver)
        driver.on_capacity_change(CapacityEvent(2.0, 8))
        return arb, driver, engine, job

    def test_grow_on_repair_improves_finish(self):
        arb, driver, engine, job = self._repaired_rig()
        assert engine.grow_all(2.0) == [job.job_id]
        rec = driver._live[job.job_id]
        pl = rec.placement.placements[0]
        assert pl.processors == 8
        assert pl.start == pytest.approx(2.0)
        assert pl.end == pytest.approx(7.0)  # 40 area restarted 8-wide
        assert engine.ledger()["grows"] == 1
        # Restarted from scratch: the 2x4 partial run is spent AND wasted.
        assert rec.spent == pytest.approx(8.0)
        assert rec.wasted == pytest.approx(8.0)
        [record] = engine.records
        assert record.kind == "grow"
        assert record.old_width == 4 and record.new_width == 8
        report = ScheduleAuditor(malleable=True).audit_resizes(engine.records)
        assert not report.violations, report.summary()

    def test_grow_rejected_when_cost_eats_the_gain(self):
        """checkpoint 10 pushes the restart past the old finish: undo."""
        arb, driver, engine, job = self._repaired_rig(checkpoint=10.0)
        before = segments(arb)
        assert engine.grow_all(2.0) == []
        ledger = engine.ledger()
        assert ledger["grow_attempts"] == 1 and ledger["grows"] == 0
        rec = driver._live[job.job_id]
        assert rec.placement.placements[0].processors == 4
        assert rec.spent == 0.0 and rec.wasted == 0.0
        assert segments(arb) == before  # undo left no trace
        assert engine.records == []

    def test_grow_skips_jobs_without_width_headroom(self):
        """max_concurrency == current width: no probe, no attempt."""
        arb, driver = malleable_rig(4)
        job = single("r", 4, 10.0, 100.0, mc=4)
        driver.register(job, admit(arb, job))
        engine = ReconfigEngine(ResizePolicy.GROW)
        engine.bind(driver)
        driver.on_capacity_change(CapacityEvent(2.0, 8))
        assert engine.grow_all(2.0) == []
        assert engine.ledger()["grow_attempts"] == 0


class TestShrink:
    """A donor holding the whole machine vs an urgent narrow arrival."""

    def _pressed_rig(self):
        arb, driver = malleable_rig(8)
        donor = single("d", 8, 10.0, 100.0, mc=8)
        driver.register(donor, admit(arb, donor))
        engine = ReconfigEngine(ResizePolicy.SHRINK)
        engine.bind(driver)
        return arb, driver, engine, donor

    def test_shrink_to_admit_rescues_rejected_arrival(self):
        arb, driver, engine, donor = self._pressed_rig()
        # 4-wide for 2 time units, due by absolute time 8: impossible
        # while the donor holds all 8 processors until 10.
        arrival = single("a", 4, 2.0, 6.0, release=2.0)
        assert not arb.submit(arrival).admitted
        rescue = engine.shrink_to_admit(arrival, 2.0, arb)
        assert rescue is not None
        decision, donor_id = rescue
        assert decision.admitted and donor_id == donor.job_id
        ledger = engine.ledger()
        assert ledger["shrinks"] == 1 and ledger["shrink_admits"] == 1
        rec = driver._live[donor.job_id]
        assert rec.placement.placements[0].processors < 8
        [record] = engine.records
        assert record.kind == "shrink"
        report = ScheduleAuditor(malleable=True).audit_resizes(engine.records)
        assert not report.violations, report.summary()

    def test_shrink_undone_when_arrival_still_infeasible(self):
        arb, driver, engine, donor = self._pressed_rig()
        # Area 18 due 2.5 time units after release: needs width > 7, but
        # a shrunken donor frees at most 7 — unadmittable either way.
        hopeless = single("h", 9, 2.0, 2.5, mc=9, release=2.0)
        assert not arb.submit(hopeless).admitted
        before = segments(arb, clip=2.0)
        assert engine.shrink_to_admit(hopeless, 2.0, arb) is None
        ledger = engine.ledger()
        assert ledger["shrink_attempts"] >= 1
        assert ledger["shrinks"] == 0 and ledger["shrink_admits"] == 0
        # Probed shrink rolled back exactly (from ``now`` onward).
        assert segments(arb, clip=2.0) == before
        assert driver._live[donor.job_id].placement.placements[0].processors == 8

    def test_off_policy_never_probes(self):
        arb, driver, _engine, _donor = self._pressed_rig()
        off = ReconfigEngine(ResizePolicy.OFF)
        off.bind(driver)
        arrival = single("a", 4, 2.0, 6.0, release=2.0)
        assert not arb.submit(arrival).admitted
        assert off.shrink_to_admit(arrival, 2.0, arb) is None
        assert off.ledger()["shrink_attempts"] == 0


class TestResizeTxn:
    def _resizable_rig(self):
        arb, driver = malleable_rig(4)
        job = single("t", 4, 10.0, 100.0, mc=8)
        cp = admit(arb, job)
        driver.register(job, cp)
        driver.on_capacity_change(CapacityEvent(0.5, 8))
        return arb, driver, job, cp

    def test_undo_restores_profile_and_ledger_bit_exact(self):
        arb, driver, job, cp = self._resizable_rig()
        before = segments(arb)
        txn = driver.resize_remainder(
            job.job_id, 3.0, delay=1.0, first_min_width=8, first_max_width=8
        )
        assert txn is not None and txn.new_width == 8
        assert txn.new_cp.placements[0].start >= 4.0  # now + delay
        txn.undo()
        rec = driver._live[job.job_id]
        assert rec.placement is cp
        assert rec.spent == 0.0 and rec.wasted == 0.0 and rec.resizes == 0
        assert segments(arb) == before

    def test_finalize_swaps_placement_and_charges_ledger(self):
        arb, driver, job, _cp = self._resizable_rig()
        txn = driver.resize_remainder(
            job.job_id, 3.0, delay=1.0, first_min_width=8, first_max_width=8
        )
        txn.finalize()
        rec = driver._live[job.job_id]
        assert rec.placement is txn.new_cp
        assert rec.spent == pytest.approx(12.0)  # 3 time units x 4 wide
        assert rec.wasted == pytest.approx(12.0)
        assert rec.resizes == 1
        report = audit_run(arb.schedule, [job], malleable=True, perturbed=True)
        assert report.ok, report.summary()

    def test_nothing_in_flight_returns_none(self):
        arb, driver, job, _cp = self._resizable_rig()
        assert driver.resize_remainder(job.job_id, 0.0, delay=0.0) is None
        assert driver.resize_remainder(job.job_id, 10.0, delay=0.0) is None
        assert driver.resize_remainder(999, 3.0, delay=0.0) is None


class TestResizeAndOverruns:
    def test_resize_moves_overrun_due_and_never_resurrects(self):
        """S3: after a resize, the old detection time must be dead.

        The simulator skips stale overrun heap entries by matching the
        popped time against ``overrun_due``; this pins the driver half —
        the due time moves with the resized placement, the pending set
        holds exactly the new time, and detection at the new time
        processes the restarted task cleanly.
        """
        arb, driver = malleable_rig(4)
        job = single("o", 4, 10.0, 100.0, mc=8)
        driver.register(job, admit(arb, job), overrun=OverrunEvent(0, 0, 2.0))
        assert driver.overrun_due(job.job_id) == pytest.approx(10.0)
        engine = ReconfigEngine(ResizePolicy.GROW)
        engine.bind(driver)
        driver.on_capacity_change(CapacityEvent(2.0, 8))
        assert engine.grow_all(2.0) == [job.job_id]
        due = driver.overrun_due(job.job_id)
        assert due == pytest.approx(7.0)
        assert driver.pending_overruns() == ((job.job_id, due),)
        assert driver.handle_overrun(job.job_id) is True


class TestArmedButIdle:
    def test_prohibitive_cost_engine_reproduces_the_plain_simulator(self):
        """A grow/shrink engine whose every resize costs 1e9 time units,
        on an empty trace: it probes, every probe fails against the
        deadlines and is rolled back, and the run is the resize-free
        simulator's bit for bit — so the undo path is an exact inverse."""
        params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)

        def factory(i, release):
            return params.tunable_job(release)

        def poisson():
            return PoissonArrivals(35.0, RandomStreams(2024))

        baseline = simulate_arrivals(
            QoSArbitrator(32, malleable=True), factory, poisson(), 300
        )
        engine = ReconfigEngine(ResizePolicy.GROW_SHRINK, ReconfigCostModel(1e9))
        armed = ArrivalSimulator(
            QoSArbitrator(32, malleable=True, keep_placements=True),
            factory,
            trace=PerturbationTrace(),
            reconfig=engine,
        ).run(poisson().times(300))
        ledger = engine.ledger()
        assert ledger["grows"] == ledger["shrinks"] == 0 and not engine.records
        assert ledger["grow_attempts"] + ledger["shrink_attempts"] > 0
        assert armed.resilience["events"] == 0
        assert replace(armed, resilience={}) == baseline


class TestSimulatorEventOrder:
    def test_same_instant_kind_order(self):
        """Overrun -> capacity -> arrival -> resize at equal timestamps.

        Resizes sort last so a same-instant arrival negotiates the
        no-resize machine — that ordering is what makes the disabled
        engine bit-identical to the resize-free simulator.
        """
        assert (
            sim_mod._OVERRUN
            < sim_mod._CAPACITY
            < sim_mod._ARRIVAL
            < sim_mod._RESIZE
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        jitter=st.floats(
            min_value=-2.5e-10, max_value=2.5e-10, allow_nan=False
        ),
    )
    def test_jittered_fault_times_stay_clean(self, seed, jitter):
        """S3 property: sub-nanosecond jitter on fault timestamps never
        breaks per-event verification or outcome conservation."""
        params = SyntheticParams(
            x=8, t=10.0, alpha=0.5, laxity=0.5, concurrency_factor=2.0
        )
        streams = RandomStreams(seed)
        arrivals = list(PoissonArrivals(8.0, streams).times(60))
        model = FaultModel(
            fault_rate=2e-3,
            fault_severity=0.5,
            mean_repair=30.0,
            overrun_prob=0.2,
            burst_rate=1e-3,
            burst_size=2,
        )
        trace = generate_trace(
            model,
            streams,
            horizon=arrivals[-1] + params.d2,
            base_capacity=16,
            n_arrivals=60,
        )
        from dataclasses import replace as dc_replace

        jittered = dc_replace(
            trace,
            capacity_events=tuple(
                dc_replace(ev, time=ev.time + jitter)
                for ev in trace.capacity_events
            ),
        )
        metrics = ArrivalSimulator(
            QoSArbitrator(16, malleable=True, keep_placements=True),
            lambda i, release: params.tunable_job(release),
            trace=jittered,
            reconfig=ReconfigEngine(ResizePolicy.GROW_SHRINK),
        ).run(arrivals)
        r = metrics.resilience
        assert r["affected"] == (
            r["survived"] + r["dropped"] + r["deadline_misses"]
        )
        assert metrics.offered == 60 + r["burst_arrivals"]
