"""Unit tests for JSON workload/metrics persistence."""

import json
import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.errors import ConfigurationError
from repro.sim.arrivals import PoissonArrivals
from repro.sim.persistence import (
    dump_workload,
    job_from_dict,
    job_to_dict,
    load_workload,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.workloads.synthetic import SyntheticParams


@pytest.fixture
def params():
    return SyntheticParams(x=4, t=10.0, alpha=0.5, laxity=0.5)


class TestJobRoundTrip:
    def test_tunable_job(self, params):
        job = params.tunable_job(release=12.5)
        back = job_from_dict(job_to_dict(job))
        assert back.job_id == job.job_id
        assert back.release == job.release
        assert back.name == job.name
        assert len(back.chains) == 2
        for a, b in zip(job.chains, back.chains):
            assert a.label == b.label
            assert dict(a.params) == dict(b.params)
            for ta, tb in zip(a.tasks, b.tasks):
                assert ta == tb

    def test_infinite_deadline(self, params):
        import repro.model.task as task_mod
        from repro.core.resources import ProcessorTimeRequest
        from repro.model.chain import TaskChain
        from repro.model.job import Job

        chain = TaskChain(
            (task_mod.TaskSpec("t", ProcessorTimeRequest(1, 1.0)),)
        )
        job = Job.rigid(chain)
        back = job_from_dict(job_to_dict(job))
        assert math.isinf(back.chains[0][0].deadline)


class TestWorkloadRoundTrip:
    def test_full_sequence(self, params):
        arrivals = PoissonArrivals(10.0, RandomStreams(4)).times(20)
        jobs = [params.tunable_job(t) for t in arrivals]
        text = dump_workload(jobs, note="test")
        loaded = load_workload(text)
        assert len(loaded) == 20
        assert [j.release for j in loaded] == [j.release for j in jobs]

    def test_replay_reproduces_metrics(self, params):
        arrivals = list(PoissonArrivals(6.0, RandomStreams(4)).times(40))
        jobs = [params.tunable_job(t) for t in arrivals]
        loaded = load_workload(dump_workload(jobs))

        def run(job_list):
            arb = QoSArbitrator(4, keep_placements=False)
            out = [arb.submit(j) for j in job_list]
            return [(d.admitted, d.chain_index) for d in out]

        assert run(jobs) == run(loaded)

    def test_version_check(self):
        bad = json.dumps({"version": 99, "jobs": []})
        with pytest.raises(ConfigurationError):
            load_workload(bad)

    def test_disorder_rejected(self, params):
        jobs = [params.tunable_job(10.0), params.tunable_job(5.0)]
        text = dump_workload(jobs)
        with pytest.raises(ConfigurationError):
            load_workload(text)


class TestMetricsRoundTrip:
    def test_roundtrip(self, params):
        arb = QoSArbitrator(4, keep_placements=False)
        metrics = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            PoissonArrivals(8.0, RandomStreams(1)),
            30,
        )
        back = metrics_from_dict(metrics_to_dict(metrics))
        assert back == metrics

    def test_nan_roundtrip(self):
        from repro.sim.metrics import MetricsCollector

        empty = MetricsCollector().finalize(0.0, {}, 0.0, 0.0)
        back = metrics_from_dict(metrics_to_dict(empty))
        assert math.isnan(back.mean_response)
        assert back.offered == 0

    def test_version_check(self):
        with pytest.raises(ConfigurationError):
            metrics_from_dict({"version": 0})

    def test_resilience_block_roundtrip(self, params):
        """A perturbed run's nested resilience block survives the JSON hop
        exactly (it is how the result cache persists fault experiments)."""
        from repro.resilience.events import FaultModel, generate_trace

        arrivals = list(PoissonArrivals(8.0, RandomStreams(1)).times(60))
        trace = generate_trace(
            FaultModel(fault_rate=2e-3, mean_repair=50.0, overrun_prob=0.15),
            RandomStreams(1),
            horizon=arrivals[-1] + 100.0,
            base_capacity=8,
            n_arrivals=60,
        )
        assert not trace.empty
        arb = QoSArbitrator(8, keep_placements=True)
        metrics = ArrivalSimulator(
            arb, lambda i, r: params.tunable_job(r), trace=trace
        ).run(arrivals)
        assert metrics.resilience  # the block is populated
        payload = metrics_to_dict(metrics)
        assert "resilience" in payload
        back = metrics_from_dict(payload)
        assert back == metrics
        assert back.resilience == metrics.resilience
