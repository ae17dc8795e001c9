"""End-to-end integration: DSL -> agent -> arbitrator -> runtime -> metrics."""

import math

import pytest

from repro.apps.junction import (
    DEFAULT_CONFIGS,
    junction_program,
    profile_configuration,
    synthetic_image,
)
from repro.apps.junction.tunable import prepare_memory
from repro.calypso import ApplicationManager, CalypsoRuntime
from repro.calypso.faults import FaultInjector
from repro.core.arbitrator import QoSArbitrator
from repro.lang.preprocess import build_agent
from repro.resilience import CapacityEvent, PerturbationTrace, RenegotiationDriver
from repro.sim.rng import RandomStreams
from repro.sim.trace import render_gantt, schedule_records
from repro.workloads.synthetic import SyntheticParams


class TestFullStack:
    def test_junction_program_lifecycle(self):
        """Program -> preprocessor -> negotiation -> parallel execution."""
        image = synthetic_image(size=128, n_junctions=5, seed=21)
        profiles = [profile_configuration(image, c) for c in DEFAULT_CONFIGS]
        program = junction_program(profiles)

        agent = build_agent(program)
        assert agent.tunable

        arbitrator = QoSArbitrator(8)
        manager = ApplicationManager(
            program, CalypsoRuntime(workers=4), prepare_memory(image)
        )
        run = manager.run(arbitrator, release=0.0)
        assert run is not None
        assert manager.memory["junctions"].shape[0] >= 1
        # The arbitrator's schedule reflects the executed reservation.
        assert arbitrator.schedule.committed_jobs == 1
        arbitrator.schedule.check_consistency()

    def test_junction_under_faults(self):
        """The admitted path executes correctly even with injected faults."""
        image = synthetic_image(size=128, n_junctions=5, seed=22)
        profiles = [profile_configuration(image, c) for c in DEFAULT_CONFIGS]
        program = junction_program(profiles)

        injector = FaultInjector(0.4, RandomStreams(5), max_faults_per_task=4)
        clean_mgr = ApplicationManager(
            program, CalypsoRuntime(workers=4), prepare_memory(image)
        )
        clean_mgr.run(QoSArbitrator(8), release=0.0)

        faulty_mgr = ApplicationManager(
            program,
            CalypsoRuntime(workers=4, fault_injector=injector),
            prepare_memory(image),
        )
        run = faulty_mgr.run(QoSArbitrator(8), release=0.0)
        assert run.faults_masked > 0
        import numpy as np

        assert np.array_equal(
            clean_mgr.memory["junctions"], faulty_mgr.memory["junctions"]
        )

    def test_mixed_workload_with_trace(self):
        """Synthetic jobs + junction jobs share one arbitrator; the trace
        and Gantt render coherently."""
        params = SyntheticParams(x=4, t=5.0, alpha=0.5, laxity=0.6)
        arb = QoSArbitrator(8)
        admitted = 0
        for i in range(8):
            if arb.submit(params.tunable_job(release=3.0 * i)).admitted:
                admitted += 1
        records = schedule_records(arb.schedule)
        assert len(records) == 2 * admitted  # two tasks per admitted job
        gantt = render_gantt(arb.schedule)
        assert gantt.count("job") >= admitted

    def test_renegotiation_after_admission(self):
        params = SyntheticParams(x=4, t=5.0, alpha=0.5, laxity=0.6)
        arb = QoSArbitrator(8)
        driver = RenegotiationDriver(arb)
        for i in range(8):
            job = params.tunable_job(release=3.0 * i)
            decision = arb.submit(job)
            if decision.admitted:
                driver.register(job, decision.placement)
        event = CapacityEvent(10.0, 4)
        driver.on_capacity_change(event)
        driver.check_consistency()
        driver.sweep_finished(math.inf)
        r = driver.finalize(PerturbationTrace(capacity_events=(event,))).resilience
        assert r["survived"] + r["dropped"] == r["affected"] <= arb.admitted
        assert r["carried"] + r["replans"] == r["survived"]
