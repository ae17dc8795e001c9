"""Unit tests for the arrival-driven simulator."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.arbitrator import QoSArbitrator
from repro.errors import SimulationError
from repro.sim.arrivals import DeterministicArrivals, TraceArrivals
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.workloads.synthetic import SyntheticParams


@pytest.fixture
def params():
    return SyntheticParams(x=4, t=10.0, alpha=0.5, laxity=0.5)


class TestRun:
    def test_counts_add_up(self, params):
        arb = QoSArbitrator(4)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(10.0),
            20,
        )
        assert m.offered == 20
        assert m.admitted + m.rejected == 20
        assert m.admitted == arb.admitted

    def test_underloaded_admits_all(self, params):
        arb = QoSArbitrator(8)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(40.0),
            10,
        )
        assert m.admitted == 10
        assert m.admit_rate == 1.0

    def test_overloaded_rejects_some(self, params):
        arb = QoSArbitrator(4)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(1.0),
            30,
        )
        assert m.rejected > 0
        assert m.utilization > 0.5

    def test_arrival_disorder_rejected(self, params):
        arb = QoSArbitrator(4)
        sim = ArrivalSimulator(arb, lambda i, r: params.tunable_job(r))
        with pytest.raises(SimulationError):
            sim.run([5.0, 3.0])

    def test_factory_release_mismatch_rejected(self, params):
        arb = QoSArbitrator(4)
        sim = ArrivalSimulator(arb, lambda i, r: params.tunable_job(r + 1.0))
        with pytest.raises(SimulationError):
            sim.run([0.0])

    def test_horizon_is_last_finish(self, params):
        arb = QoSArbitrator(8)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            TraceArrivals([0.0]),
            1,
        )
        assert m.horizon == arb.schedule.last_finish

    def test_chain_usage_propagated(self, params):
        arb = QoSArbitrator(8)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(50.0),
            6,
        )
        assert sum(m.chain_usage.values()) == m.admitted

    def test_verification_accepts_correct_scheduler(self, params):
        """The per-admission checks every run makes pass silently for the
        real scheduler."""
        arb = QoSArbitrator(4)
        simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(5.0),
            50,
        )

    def test_perf_snapshot_propagated(self, params):
        """Every run carries the hot-path instrumentation in metrics.perf."""
        arb = QoSArbitrator(4)
        m = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            DeterministicArrivals(10.0),
            15,
        )
        assert m.perf["decision_count"] == 15
        assert m.perf["decision_p95_us"] >= m.perf["decision_p50_us"] > 0
        assert m.perf["commits"] == m.admitted
        assert m.perf["profile_shift_ops"] >= m.admitted
        assert m.perf["chains_probed"] >= m.offered
        # Wall-clock diagnostics stay out of the experiment-result dict.
        assert "decision_p50_us" not in m.as_dict()


@pytest.mark.parametrize(
    "first, second",
    [("repro.resilience", "repro.sim"), ("repro.sim", "repro.resilience")],
)
def test_fresh_interpreter_imports_in_either_order(first, second):
    """repro.resilience imports repro.sim (for its RNG streams); the
    simulator reaches back into repro.resilience only when a run is
    perturbed, so neither import order may hit a cycle."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = "\n".join(
        [
            f"import sys; sys.path.insert(0, {src!r})",
            f"import {first}",
            f"import {second}",
            "import repro.sim.simulator as s",
            "assert 'RenegotiationDriver' not in vars(s), 'module-level import'",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
