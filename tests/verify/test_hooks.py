"""The opt-in audit hooks: the simulator and audited units."""

from __future__ import annotations

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.errors import VerificationError
from repro.resilience.events import FaultModel, generate_trace
from repro.sim.arrivals import PoissonArrivals
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.verify.checks import audited_point
from repro.workloads.sweep import SweepConfig, _job_factory

# Default params need a 16-wide machine (x=16): on fewer processors every
# job is rejected and these tests would audit an empty schedule.
SMALL = SweepConfig(n_jobs=40, processors=16)
PERTURBED = SweepConfig(
    n_jobs=40,
    processors=16,
    faults=FaultModel(fault_rate=0.01, overrun_prob=0.2, burst_rate=0.005),
)


def _arrivals_setup(config, system="tunable"):
    streams = RandomStreams(config.seed)
    process = PoissonArrivals(config.interval, streams)
    factory = _job_factory(config, system)
    arbitrator = QoSArbitrator(
        config.processors, malleable=config.malleable, keep_placements=True
    )
    return streams, process, factory, arbitrator


# ---------------------------------------------------------------------------
# Simulator-level hooks
# ---------------------------------------------------------------------------


def test_arrival_simulator_audit_passes_on_clean_run():
    _, process, factory, arbitrator = _arrivals_setup(SMALL)
    metrics = simulate_arrivals(
        arbitrator, factory, process, SMALL.n_jobs, audit=True
    )
    assert metrics.offered == SMALL.n_jobs
    assert metrics.admitted > 0, "vacuous fixture: audit saw an empty schedule"


def test_arrival_simulator_audit_flags_a_tampered_schedule():
    _, process, factory, arbitrator = _arrivals_setup(SMALL)

    class Tampering:
        """Corrupt the job-count ledger right before the final audit."""

        def __init__(self, real):
            self.real = real

        def times(self, n):
            yield from self.real.times(n)
            arbitrator.schedule._committed_jobs += 1

    with pytest.raises(VerificationError):
        simulate_arrivals(
            arbitrator, factory, Tampering(process), SMALL.n_jobs, audit=True
        )


def test_resilient_simulator_audit_passes_on_perturbed_run():
    streams, process, factory, arbitrator = _arrivals_setup(PERTURBED)
    arrivals = list(process.times(PERTURBED.n_jobs))
    horizon = (arrivals[-1] if arrivals else 0.0) + PERTURBED.params.d2
    trace = generate_trace(
        PERTURBED.faults,
        streams,
        horizon=horizon,
        base_capacity=PERTURBED.processors,
        n_arrivals=PERTURBED.n_jobs,
    )
    assert (
        trace.capacity_events or trace.overruns or trace.bursts
    ), "fixture must actually perturb the run"
    metrics = ArrivalSimulator(arbitrator, factory, audit=True, trace=trace).run(
        arrivals
    )
    assert metrics.offered >= PERTURBED.n_jobs  # bursts may add arrivals


# ---------------------------------------------------------------------------
# audited_point
# ---------------------------------------------------------------------------


def test_audited_point_metrics_match_unaudited_run():
    from repro.sim.persistence import metrics_to_dict
    from repro.workloads.sweep import run_point

    metrics, report = audited_point(SMALL, "tunable")
    assert report.ok, report.summary()
    assert metrics_to_dict(metrics) == metrics_to_dict(
        run_point(SMALL, "tunable")
    )


def test_audited_point_metrics_match_unaudited_rigid_run():
    from repro.sim.persistence import metrics_to_dict
    from repro.workloads.sweep import run_point

    metrics, report = audited_point(SMALL, "shape1")
    assert report.ok, report.summary()
    assert metrics_to_dict(metrics) == metrics_to_dict(run_point(SMALL, "shape1"))


def test_audited_point_handles_perturbed_configs():
    metrics, report = audited_point(PERTURBED, "tunable")
    assert report.ok, report.summary()
    assert metrics.offered >= PERTURBED.n_jobs
