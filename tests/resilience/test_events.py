"""Perturbation events and trace generation: validation, determinism, CRN."""

import math

import pytest

from repro.core.resources import TIME_LIMIT
from repro.errors import ConfigurationError
from repro.resilience.events import (
    BurstEvent,
    CapacityEvent,
    FaultModel,
    OverrunEvent,
    PerturbationTrace,
    generate_trace,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim.rng import RandomStreams

MODEL = FaultModel(
    fault_rate=5e-4,
    fault_severity=0.25,
    mean_repair=200.0,
    overrun_prob=0.2,
    burst_rate=1e-4,
    burst_size=3,
)


class TestEventValidation:
    def test_capacity_event(self):
        with pytest.raises(ConfigurationError):
            CapacityEvent(time=float("nan"), new_capacity=4)
        for time in (math.inf, TIME_LIMIT):
            with pytest.raises(ConfigurationError):
                CapacityEvent(time=time, new_capacity=4)
        with pytest.raises(ConfigurationError):
            CapacityEvent(time=1.0, new_capacity=0)

    def test_overrun_event(self):
        with pytest.raises(ConfigurationError):
            OverrunEvent(job_seq=-1, task_index=0, factor=2.0)
        with pytest.raises(ConfigurationError):
            OverrunEvent(job_seq=0, task_index=-1, factor=2.0)
        with pytest.raises(ConfigurationError):
            OverrunEvent(job_seq=0, task_index=0, factor=1.0)  # must exceed 1

    def test_burst_event(self):
        with pytest.raises(ConfigurationError):
            BurstEvent(time=-1.0, count=2)
        with pytest.raises(ConfigurationError):
            BurstEvent(time=1.0, count=0)

    def test_trace_ordering_enforced(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            PerturbationTrace(
                capacity_events=(CapacityEvent(2.0, 4), CapacityEvent(2.0, 8))
            )
        with pytest.raises(ConfigurationError, match="one overrun"):
            PerturbationTrace(
                overruns=(
                    OverrunEvent(3, 0, 2.0),
                    OverrunEvent(3, 1, 1.5),
                )
            )
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            PerturbationTrace(
                bursts=(BurstEvent(5.0, 2), BurstEvent(4.0, 2))
            )

    def test_fault_model_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(fault_rate=-1.0)
        with pytest.raises(ConfigurationError):
            FaultModel(fault_severity=0.0)
        with pytest.raises(ConfigurationError):
            FaultModel(fault_severity=1.5)
        with pytest.raises(ConfigurationError):
            FaultModel(overrun_prob=1.1)
        with pytest.raises(ConfigurationError):
            FaultModel(mean_repair=0.0)
        with pytest.raises(ConfigurationError):
            FaultModel(burst_size=0)


class TestTraceQueries:
    def test_empty(self):
        assert PerturbationTrace().empty
        assert FaultModel().empty
        assert not FaultModel(fault_rate=1e-3).empty
        assert not PerturbationTrace(bursts=(BurstEvent(1.0, 1),)).empty

    def test_capacity_at(self):
        trace = PerturbationTrace(
            capacity_events=(CapacityEvent(10.0, 4), CapacityEvent(20.0, 8))
        )
        assert trace.capacity_at(0.0, 16) == 16
        assert trace.capacity_at(10.0, 16) == 4
        assert trace.capacity_at(15.0, 16) == 4
        assert trace.capacity_at(25.0, 16) == 8

    def test_capacity_lost_integrates_deficit_only(self):
        trace = PerturbationTrace(
            capacity_events=(
                CapacityEvent(10.0, 12),  # lose 4 for 10 units
                CapacityEvent(20.0, 24),  # above base: no loss
                CapacityEvent(30.0, 16),  # back to base
            )
        )
        assert trace.capacity_lost(16, 40.0) == pytest.approx(40.0)
        assert trace.capacity_lost(16, 15.0) == pytest.approx(20.0)
        assert PerturbationTrace().capacity_lost(16, 100.0) == 0.0


class TestGenerateTrace:
    def test_deterministic_per_seed(self):
        a = generate_trace(MODEL, RandomStreams(11), 50_000.0, 32, 500)
        b = generate_trace(MODEL, RandomStreams(11), 50_000.0, 32, 500)
        c = generate_trace(MODEL, RandomStreams(12), 50_000.0, 32, 500)
        assert a == b
        assert a != c

    def test_nonempty_at_moderate_rates(self):
        trace = generate_trace(MODEL, RandomStreams(11), 50_000.0, 32, 500)
        assert trace.capacity_events
        assert trace.overruns
        assert trace.bursts

    def test_capacity_floored_at_one(self):
        severe = FaultModel(fault_rate=5e-3, fault_severity=1.0, mean_repair=5e3)
        trace = generate_trace(severe, RandomStreams(3), 20_000.0, 8, 0)
        assert trace.capacity_events
        assert all(ev.new_capacity >= 1 for ev in trace.capacity_events)

    def test_empty_model_yields_empty_trace(self):
        assert generate_trace(
            FaultModel(), RandomStreams(1), 1_000.0, 16, 100
        ).empty

    def test_substreams_disjoint_from_arrivals(self):
        """Drawing the trace never perturbs the arrival sequence (CRN)."""
        streams = RandomStreams(1999)
        arrivals_then_trace = list(PoissonArrivals(30.0, streams).times(200))
        generate_trace(MODEL, streams, 10_000.0, 32, 200)

        streams2 = RandomStreams(1999)
        generate_trace(MODEL, streams2, 10_000.0, 32, 200)
        trace_then_arrivals = list(PoissonArrivals(30.0, streams2).times(200))
        assert arrivals_then_trace == trace_then_arrivals

    def test_overrun_prob_change_preserves_pairing(self):
        """Raising overrun_prob adds overruns without reshuffling the
        factor/task-index a given arrival would have drawn."""
        low = generate_trace(
            MODEL, RandomStreams(7), 50_000.0, 32, 500
        ).overruns_by_seq()
        high = generate_trace(
            FaultModel(
                fault_rate=MODEL.fault_rate,
                fault_severity=MODEL.fault_severity,
                mean_repair=MODEL.mean_repair,
                overrun_prob=0.6,
                burst_rate=MODEL.burst_rate,
                burst_size=MODEL.burst_size,
            ),
            RandomStreams(7),
            50_000.0,
            32,
            500,
        ).overruns_by_seq()
        assert set(low) <= set(high)
        for seq, ev in low.items():
            assert high[seq] == ev

    def test_with_fault_rate_axis(self):
        model = FaultModel(overrun_prob=0.1)
        swept = model.with_fault_rate(3e-4)
        assert swept.fault_rate == 3e-4
        assert swept.overrun_prob == 0.1

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            generate_trace(MODEL, RandomStreams(1), float("inf"), 16, 10)
        with pytest.raises(ConfigurationError):
            generate_trace(MODEL, RandomStreams(1), 100.0, 0, 10)
        with pytest.raises(ConfigurationError):
            generate_trace(MODEL, RandomStreams(1), 100.0, 16, -1)
