"""The perturbed arrival loop: baseline identity, replay determinism, event mixing."""

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.errors import SimulationError
from repro.resilience.events import (
    BurstEvent,
    CapacityEvent,
    FaultModel,
    OverrunEvent,
    PerturbationTrace,
    generate_trace,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator
from repro.workloads.sweep import SweepConfig, run_point
from repro.workloads.synthetic import SyntheticParams

PARAMS = SyntheticParams(x=16, t=25.0, alpha=0.25, laxity=0.5)
SEED = 7
N = 300
P = 32
INTERVAL = 30.0

MODEL = FaultModel(
    fault_rate=3e-4,
    fault_severity=0.375,
    mean_repair=300.0,
    overrun_prob=0.10,
    burst_rate=5e-5,
    burst_size=4,
)


def _arrivals(seed=SEED, n=N):
    return list(PoissonArrivals(INTERVAL, RandomStreams(seed)).times(n))


def _factory(system="tunable"):
    if system == "tunable":
        return lambda i, release: PARAMS.tunable_job(release)
    return lambda i, release: PARAMS.rigid_job(int(system[-1]), release)


def _perturbed_run(system="tunable", seed=SEED, n=N, model=MODEL, verify=True):
    arrivals = _arrivals(seed, n)
    trace = generate_trace(
        model,
        RandomStreams(seed),
        horizon=arrivals[-1] + PARAMS.d2,
        base_capacity=P,
        n_arrivals=n,
    )
    arbitrator = QoSArbitrator(P, keep_placements=True)
    metrics = ArrivalSimulator(
        arbitrator, _factory(system), verify=verify, trace=trace
    ).run(arrivals)
    return metrics, trace


class TestEmptyTraceIdentity:
    def test_bit_identical_to_baseline(self):
        """Regression: a zero-event trace reproduces the fault-free
        baseline metrics exactly, with an empty resilience block.  The
        reference is a plain submit loop, independent of the simulator."""
        ref_arb = QoSArbitrator(P)
        collector = MetricsCollector()
        for release in _arrivals():
            decision = ref_arb.submit(PARAMS.tunable_job(release))
            deadline = None
            if decision.admitted:
                deadline = release + decision.placement.chain.final_deadline
            collector.observe(decision, deadline)
        sched = ref_arb.schedule
        reference = collector.finalize(
            utilization=ref_arb.utilization(),
            chain_usage=ref_arb.chain_usage(),
            achieved_quality=ref_arb.achieved_quality,
            horizon=sched.last_finish if sched.committed_jobs else 0.0,
        )
        sim = ArrivalSimulator(QoSArbitrator(P), _factory(), trace=PerturbationTrace())
        res = sim.run(_arrivals())
        assert sim.driver is None  # nothing perturbs: no driver, no bookkeeping
        assert res.resilience == {}
        assert res == reference

    def test_run_point_empty_fault_model_is_baseline_path(self):
        """SweepConfig(faults=FaultModel()) is the fault-free run —
        bit-identical to faults=None."""
        cfg_none = SweepConfig(params=PARAMS, processors=P, n_jobs=N, seed=SEED)
        cfg_empty = SweepConfig(
            params=PARAMS, processors=P, n_jobs=N, seed=SEED, faults=FaultModel()
        )
        for system in ("tunable", "shape1"):
            assert run_point(cfg_none, system) == run_point(cfg_empty, system)


class TestReplayDeterminism:
    def test_same_trace_twice_identical_metrics(self):
        """Property: replaying the identical trace yields identical
        metrics, with every placement verified after every event
        (verify=True audits the schedule and all live placements)."""
        first, trace_a = _perturbed_run(verify=True)
        second, trace_b = _perturbed_run(verify=True)
        assert trace_a == trace_b
        assert trace_a.capacity_events  # the trace actually perturbs
        assert trace_a.overruns
        assert first == second

    @pytest.mark.parametrize("system", ["tunable", "shape1", "shape2"])
    def test_all_systems_run_clean_under_verification(self, system):
        metrics, trace = _perturbed_run(system=system)
        r = metrics.resilience
        assert r["capacity_events"] == len(trace.capacity_events)
        assert r["events"] >= r["capacity_events"]
        # Every affected job is accounted for exactly once.
        assert r["affected"] == (
            r["survived"] + r["dropped"] + r["deadline_misses"]
        )
        assert 0.0 <= r["survival_rate"] <= 1.0
        assert 0.0 <= metrics.utilization <= 1.0 + 1e-9
        assert r["wasted_work"] >= 0.0


class TestEventMixing:
    def test_burst_arrivals_counted_and_submitted(self):
        trace = PerturbationTrace(bursts=(BurstEvent(500.0, 5),))
        arb = QoSArbitrator(P, keep_placements=True)
        metrics = ArrivalSimulator(arb, _factory(), trace=trace).run(_arrivals(n=50))
        assert metrics.offered == 50 + 5
        assert metrics.resilience["burst_arrivals"] == 5

    def test_manual_combined_trace(self):
        """Hand-built capacity + overrun + burst events all apply."""
        arrivals = _arrivals(n=40)
        trace = PerturbationTrace(
            capacity_events=(
                CapacityEvent(arrivals[10], 20),
                CapacityEvent(arrivals[20], P),
            ),
            overruns=(OverrunEvent(2, 0, 1.8), OverrunEvent(5, 1, 2.5)),
            bursts=(BurstEvent(arrivals[15], 3),),
        )
        arb = QoSArbitrator(P, keep_placements=True)
        metrics = ArrivalSimulator(arb, _factory(), trace=trace).run(arrivals)
        r = metrics.resilience
        assert r["capacity_events"] == 2
        assert r["burst_arrivals"] == 3
        assert r["overrun_events"] <= 2  # only admitted jobs can overrun
        assert r["affected"] >= r["overrun_events"]

    def test_tie_order_arrival_at_fault_instant_sees_new_capacity(self):
        """A job arriving exactly at a drop negotiates the post-fault
        machine: a 16-wide rigid job cannot be admitted on 12 processors."""
        tau = 100.0
        trace = PerturbationTrace(capacity_events=(CapacityEvent(tau, 12),))
        arb = QoSArbitrator(P, keep_placements=True)
        metrics = ArrivalSimulator(arb, _factory("shape1"), trace=trace).run(
            [0.0, tau]
        )
        assert metrics.admitted == 1  # only the pre-fault arrival

    def test_decreasing_base_arrival_rejected_under_a_trace(self):
        """One arrival-order contract with or without a trace: a decreasing
        base arrival raises instead of being silently re-sorted."""
        trace = PerturbationTrace(bursts=(BurstEvent(15.0, 2),))
        sim = ArrivalSimulator(
            QoSArbitrator(P, keep_placements=True), _factory(), trace=trace
        )
        with pytest.raises(SimulationError, match="precedes"):
            sim.run([10.0, 5.0, 20.0])
