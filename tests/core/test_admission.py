"""Unit tests for admission control: the arbitrator's decide-and-account path."""

from repro.core.arbitrator import QoSArbitrator
from repro.core.baselines import ConservativeArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


def job(procs=2, dur=5.0, deadline=20.0, release=0.0):
    chain = TaskChain(
        (TaskSpec("t", ProcessorTimeRequest(procs, dur), deadline=deadline),)
    )
    return Job.rigid(chain, release=release)


def make_arbitrator(capacity=4, compact=True):
    """``scalar``: every ``submit`` takes the Python decide-and-account
    path (the C loop's equivalence is the differential suites' job)."""
    return QoSArbitrator(capacity, compact=compact, backend="scalar")


class TestOffer:
    def test_admit(self):
        arb = make_arbitrator()
        decision = arb.submit(job())
        assert decision.admitted
        assert decision.placement is not None
        assert decision.chain_index == 0
        assert decision.finish == 5.0
        assert arb.admitted == 1
        assert arb.rejected == 0

    def test_reject(self):
        arb = make_arbitrator(capacity=1)
        arb.submit(job(procs=1, dur=30.0, deadline=100.0))
        decision = arb.submit(job(procs=1, dur=5.0, deadline=10.0))
        assert not decision.admitted
        assert decision.placement is None
        assert decision.chain_index is None
        assert decision.finish is None
        assert "no schedulable" in decision.reason
        assert arb.rejected == 1

    def test_decisions_by_chain(self):
        arb = make_arbitrator()
        for _ in range(3):
            arb.submit(job(dur=1.0, deadline=1000.0))
        assert arb.decisions_by_chain == {0: 3}
        assert arb.chain_usage() == {0: 3}

    def test_compaction_advances_origin(self):
        arb = make_arbitrator(compact=True)
        arb.submit(job(release=0.0, deadline=1000.0))
        arb.submit(job(release=50.0, deadline=1000.0))
        assert arb.schedule.profile.origin == 50.0

    def test_no_compaction_when_disabled(self):
        arb = make_arbitrator(compact=False)
        arb.submit(job(release=0.0, deadline=1000.0))
        arb.submit(job(release=50.0, deadline=1000.0))
        assert arb.schedule.profile.origin == 0.0

    def test_rejected_job_leaves_schedule_untouched(self):
        arb = make_arbitrator(capacity=2)
        arb.submit(job(procs=2, dur=10.0, deadline=100.0))
        snapshot = arb.schedule.profile.copy()
        arb.submit(job(procs=2, dur=5.0, deadline=5.0))
        assert arb.schedule.profile == snapshot


def test_conservative_submit_probes_each_configuration_once():
    """One submit of an admitted n-chain job probes n chains and records
    one ``decision`` sample: the all-configurations filter reads the one
    candidate search it shares with the arbitrator."""
    chains = tuple(
        TaskChain(
            (TaskSpec(f"c{k}", ProcessorTimeRequest(k + 1, 2.0), deadline=50.0),)
        )
        for k in range(3)
    )
    arb = ConservativeArbitrator(4)
    before = arb.perf_snapshot()
    decision = arb.submit(Job(chains=chains, release=0.0))
    after = arb.perf_snapshot()
    assert decision.admitted
    assert after["chains_probed"] - before["chains_probed"] == len(chains)
    assert after.get("decision_count", 0) - before.get("decision_count", 0) == 1
