"""Every Python decision is one call of ``GreedyScheduler.schedule_job``.

The benchmark tracer times that method as its ``greedy.schedule_job`` span
(``benchmarks/e2e/trace.py``), so the span covers every decision the
Python reference makes: an admission by ``submit`` or ``admit_batch``
under any objective, a malleable admission and a resilience re-plan.  A
decision of the C admission loop makes no call.  The wrapper below is
installed the way the tracer installs its span, on the class.
"""

import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.greedy import GreedyScheduler
from repro.core.policies import ArbitrationObjective
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.driver import RenegotiationDriver
from repro.resilience.events import CapacityEvent
from tests.core.test_admit_batch import needs_compiled


def jobs(n=4):
    """Two-path jobs on a 4-processor machine: the first two are admitted
    on the wide path, the rest refused."""
    out = []
    for i in range(n):
        chains = tuple(
            TaskChain(
                (
                    TaskSpec(
                        "t",
                        ProcessorTimeRequest(w, 8.0 / w),
                        deadline=5.0,
                        quality=q,
                    ),
                )
            )
            for w, q in ((4, 1.0), (2, 0.5))
        )
        out.append(Job(chains=chains, release=0.0, job_id=i))
    return out


@pytest.fixture
def decided(monkeypatch):
    """The ids of the jobs ``GreedyScheduler.schedule_job`` was called on."""
    calls = []
    inner = GreedyScheduler.schedule_job

    def counted(self, job):
        calls.append(job.job_id)
        return inner(self, job)

    monkeypatch.setattr(GreedyScheduler, "schedule_job", counted)
    return calls


def test_scalar_submit_is_one_call_each(decided):
    arb = QoSArbitrator(4, backend="scalar")
    decisions = [arb.submit(job) for job in jobs()]
    assert [d.admitted for d in decisions] == [True, True, False, False]
    assert decided == [0, 1, 2, 3]


def test_max_quality_admit_batch_is_one_call_each(decided):
    arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
    arb.admit_batch(jobs())
    assert decided == [0, 1, 2, 3]


def test_conservative_submit_is_one_call_each(decided):
    arb = QoSArbitrator(4, objective=ArbitrationObjective.CONSERVATIVE)
    for job in jobs():
        arb.submit(job)
    assert decided == [0, 1, 2, 3]


def test_malleable_submit_is_one_call_each(decided):
    arb = QoSArbitrator(4, malleable=True)
    for job in jobs():
        arb.submit(job)
    assert decided == [0, 1, 2, 3]


def test_driver_replan_is_one_call(decided):
    arb = QoSArbitrator(4, backend="scalar")
    driver = RenegotiationDriver(arb)
    job = jobs(1)[0]
    decision = arb.submit(job)
    assert decision.chain_index == 0
    driver.register(job, decision.placement)
    decided.clear()
    driver.on_capacity_change(CapacityEvent(1.0, 2))
    (live,) = driver.live_placements()
    assert live.placements[0].processors == 2
    assert decided == [0]


@needs_compiled
def test_c_decided_submit_makes_no_call(decided):
    with kernels.use("compiled"):
        arb = QoSArbitrator(4)
        decisions = [arb.submit(job) for job in jobs()]
    assert [d.admitted for d in decisions] == [True, True, False, False]
    assert decided == []
