"""Tests for the candidate search's two filters: counters, area reject,
identity.

Every configuration of a job is probed; ``_quick_reject`` and
``_area_reject`` only turn a doomed first-fit walk into a cheap rejection.
The filters are a pure performance optimisation — the tests here assert
that they count what they turn away and that a search with both switched
off reaches the *same decisions*.
"""

from functools import partial

import pytest

from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.workloads import sweep
from repro.workloads.sweep import SweepConfig, run_point

#: The counters under test are ``GreedyScheduler.candidates``', so every
#: arbitrator below that decides EARLIEST_FINISH pins the reference path
#: (on ``auto`` a ``submit`` goes through the C loop when it is compiled;
#: ``test_kernel_context.py`` holds that port to the same counts).
PY = "scalar"

COUNTERS = ("chains_probed", "chains_quick_rejected", "chains_area_rejected")


def chain(procs, dur, deadline, quality=1.0, label=""):
    return TaskChain(
        (
            TaskSpec(
                "t",
                ProcessorTimeRequest(procs, dur),
                deadline=deadline,
                quality=quality,
            ),
        ),
        label=label,
    )


class TestPerfSnapshot:
    def test_counters_present_even_before_any_submit(self):
        snap = QoSArbitrator(4).perf_snapshot()
        for name in COUNTERS:
            assert snap[name] == 0

    def test_probes_counted(self):
        arb = QoSArbitrator(4, backend=PY)
        arb.submit(Job.rigid(chain(2, 2.0, 100.0)))
        assert arb.perf_snapshot()["chains_probed"] == 1


class TestAreaReject:
    def test_area_reject_fires_and_decision_survives(self):
        """A chain whose deadline window lacks free area dies in O(log S).

        Capacity 4 with 3 CPUs reserved until t=95 leaves 1 free CPU.  The
        doomed path needs 20 processor-time inside [0, 12] where only 12
        is free — rejected by the area bound without a first-fit walk.
        The narrow path (1 CPU x 5) still fits, so the job is admitted.
        """
        arb = QoSArbitrator(4, backend=PY)
        arb.schedule.profile.reserve(0.0, 95.0, 3)
        doomed = chain(2, 10.0, 12.0, label="doomed")
        narrow = chain(1, 5.0, 50.0, label="narrow")
        decision = arb.submit(Job.tunable_of([doomed, narrow]))
        assert decision.admitted
        assert decision.placement.chain.label == "narrow"
        snap = arb.perf_snapshot()
        assert snap["chains_area_rejected"] == 1
        assert snap["chains_quick_rejected"] == 0


class TestMaxQualityShortCircuit:
    """Quality-first choice probes every configuration, like the
    earliest-finish one, and keeps the best quality that fits."""

    def test_falls_through_to_lower_tier(self):
        """When the top tier is infeasible the next tier is still reached."""
        arb = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        arb.schedule.profile.reserve(0.0, 97.0, 3)
        job = Job.tunable_of(
            [
                chain(4, 2.0, 100.0, quality=0.6, label="fast"),
                chain(2, 8.0, 100.0, quality=1.0, label="slow"),
            ]
        )
        decision = arb.submit(job)
        assert decision.admitted
        assert decision.placement.chain.label == "fast"
        assert arb.perf_snapshot()["chains_probed"] == 2


def _unfiltered_point(config, system, monkeypatch):
    """``run_point`` decided by the reference with both filters off."""
    monkeypatch.setattr(sweep, "QoSArbitrator", partial(QoSArbitrator, backend=PY))
    for scheduler in (GreedyScheduler, MalleableScheduler):
        monkeypatch.setattr(scheduler, "_quick_reject", lambda self, chain: False)
    monkeypatch.setattr(GreedyScheduler, "_area_reject", lambda self, chain, t: False)
    off = run_point(config, system)
    assert off.perf["chains_quick_rejected"] == off.perf["chains_area_rejected"] == 0
    return off


@pytest.mark.parametrize(
    "axis,value",
    [("interval", 20.0), ("interval", 35.0), ("alpha", 1.0), ("laxity", 0.5)],
)
@pytest.mark.parametrize("system", ["tunable", "shape2"])
def test_sweep_decisions_identical_with_and_without_pruning(
    axis, value, system, monkeypatch
):
    """Fig. 5/6 points: the filters change the work done, never the answer.

    ``RunMetrics.perf`` is excluded from equality, so ``==`` compares the
    actual simulation outcome (admissions, response times, utilization).
    The filtered side is the C loop when it is compiled, the unfiltered
    side the reference; both probe every configuration.
    """
    base = SweepConfig(n_jobs=150).with_axis(axis, value)
    on = run_point(base, system)
    off = _unfiltered_point(base, system, monkeypatch)
    assert on == off
    assert on.perf["chains_probed"] == off.perf["chains_probed"]
    assert on.perf["chains_quick_rejected"] + on.perf["chains_area_rejected"] > 0


def test_malleable_sweep_identical_with_and_without_pruning(monkeypatch):
    base = SweepConfig(n_jobs=120, malleable=True)
    on = run_point(base, "tunable")
    off = _unfiltered_point(base, "tunable", monkeypatch)
    assert on == off
    assert on.perf["chains_quick_rejected"] + on.perf["chains_area_rejected"] > 0
