"""Unit tests for JSON job/metrics persistence and archived workloads."""

import dataclasses
import json
import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.sim.arrivals import PoissonArrivals
from repro.sim.persistence import (
    job_from_dict,
    job_to_dict,
    metrics_to_dict,
)
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.verify.fuzz import FuzzCase, load_case
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
    """A whole arrival sequence archives as a corpus workload entry."""

    @staticmethod
    def archived(jobs):
        case = FuzzCase(capacity=4, jobs=tuple(jobs), note="test")
        return FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))

    def test_full_sequence(self, params):
        arrivals = PoissonArrivals(10.0, RandomStreams(4)).times(20)
        jobs = [params.tunable_job(t) for t in arrivals]
        loaded = self.archived(jobs).jobs
        assert len(loaded) == 20
        assert [j.release for j in loaded] == [j.release for j in jobs]
        assert [j.chains for j in loaded] == [j.chains for j in jobs]

    def test_replay_reproduces_metrics(self, params):
        arrivals = list(PoissonArrivals(6.0, RandomStreams(4)).times(40))
        jobs = [params.tunable_job(t) for t in arrivals]
        loaded = self.archived(jobs).jobs

        def run(job_list):
            arb = QoSArbitrator(4, keep_placements=False)
            out = [arb.submit(j) for j in job_list]
            return [(d.admitted, d.chain_index) for d in out]

        assert run(jobs) == run(loaded)

    def test_version_check(self, tmp_path):
        bad = tmp_path / "entry.json"
        bad.write_text(json.dumps({"version": 99, "kind": "workload", "jobs": []}))
        with pytest.raises(ValueError, match="unsupported corpus version 99"):
            load_case(bad)


def _assert_carries_every_field(metrics: RunMetrics) -> dict:
    """``metrics_to_dict`` holds every result field exactly, after a JSON
    hop (a corpus sweep entry compares a fresh run through it)."""
    payload = json.loads(json.dumps(metrics_to_dict(metrics)))
    derived = {"version", "throughput", "admit_rate"}
    fields = {f.name for f in dataclasses.fields(RunMetrics)} - {"perf"}
    assert set(payload) == fields | derived
    for name in fields:
        value, got = getattr(metrics, name), payload[name]
        if name == "chain_usage":
            assert {int(k): v for k, v in got.items()} == dict(value)
        elif name == "resilience":
            assert got == dict(value)
        elif isinstance(value, float) and math.isnan(value):
            assert got is None
        else:
            assert got == value, name
    assert payload["throughput"] == metrics.throughput
    assert payload["admit_rate"] == metrics.admit_rate
    return payload


class TestMetricsRoundTrip:
    def test_roundtrip(self, params):
        arb = QoSArbitrator(4, keep_placements=False)
        metrics = simulate_arrivals(
            arb,
            lambda i, r: params.tunable_job(r),
            PoissonArrivals(8.0, RandomStreams(1)),
            30,
        )
        _assert_carries_every_field(metrics)

    def test_nan_roundtrip(self):
        from repro.sim.metrics import MetricsCollector

        empty = MetricsCollector().finalize(0.0, {}, 0.0, 0.0)
        assert math.isnan(empty.mean_response)
        payload = _assert_carries_every_field(empty)
        assert payload["mean_response"] is None
        assert payload["offered"] == 0

    def test_resilience_block_roundtrip(self, params):
        """A perturbed run's nested resilience block survives the JSON hop
        exactly (the corpus pins fault experiments through it)."""
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
        payload = _assert_carries_every_field(metrics)
        assert payload["resilience"] == dict(metrics.resilience)
