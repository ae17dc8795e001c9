"""Tests for candidate-search pruning: counters, area reject, identity.

Pruning is a pure performance optimisation — every test here asserts
both that the pruned search does strictly less work (the perf counters)
and that it reaches the *same decision* as the exhaustive search it
replaced (the ``prune=False`` oracle).
"""

from dataclasses import replace

import pytest

from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.workloads.sweep import SweepConfig, run_point

#: The counters under test are ``GreedyScheduler._prober``'s, so every
#: arbitrator below that decides EARLIEST_FINISH pins the reference path
#: (on ``auto`` a ``submit`` goes through the C loop when it is compiled;
#: ``test_kernel_context.py`` holds that port to the same counts).
PY = "scalar"

COUNTERS = (
    "chains_probed",
    "chains_quick_rejected",
    "chains_area_rejected",
    "chains_pruned_dominated",
    "chains_pruned_quality",
)


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


class TestDominancePruning:
    def test_duplicate_chains_probed_once(self):
        dup = chain(2, 4.0, 100.0)
        job = Job.tunable_of([dup, dup, dup])
        pruned = QoSArbitrator(8, backend=PY)
        exhaustive = QoSArbitrator(8, prune=False, backend=PY)
        d1, d2 = pruned.submit(job), exhaustive.submit(job)
        assert (d1.admitted, d1.chain_index) == (d2.admitted, d2.chain_index)
        assert pruned.perf_snapshot()["chains_probed"] == 1
        assert pruned.perf_snapshot()["chains_pruned_dominated"] == 2
        assert exhaustive.perf_snapshot()["chains_probed"] == 3
        assert exhaustive.perf_snapshot()["chains_pruned_dominated"] == 0

    def test_pointwise_harder_chain_skipped_after_failure(self):
        """A failed probe prunes every later chain that is pointwise harder.

        Only [0, 2) has >= 2 free CPUs, so a 2x3 task cannot fit by t=8
        (but the window holds plenty of area, so the *area* bound passes
        and the first-fit walk genuinely fails).  The second path asks for
        more CPUs, for longer, by an earlier deadline — dominated.  The
        third, narrow path keeps the job admissible.
        """
        arb = QoSArbitrator(4, backend=PY)
        arb.schedule.profile.reserve(2.0, 100.0, 3)
        failing = chain(2, 3.0, 8.0, label="failing")
        harder = chain(3, 3.0, 7.0, label="harder")
        narrow = chain(1, 3.0, 50.0, label="narrow")
        job = Job.tunable_of([failing, harder, narrow])
        decision = arb.submit(job)
        assert decision.admitted
        assert decision.placement.chain.label == "narrow"
        snap = arb.perf_snapshot()
        assert snap["chains_pruned_dominated"] == 1
        assert snap["chains_probed"] == 2  # failing + narrow; harder skipped
        oracle = QoSArbitrator(4, prune=False, backend=PY)
        oracle.schedule.profile.reserve(2.0, 100.0, 3)
        d2 = oracle.submit(job)
        assert (decision.admitted, decision.chain_index) == (
            d2.admitted,
            d2.chain_index,
        )
        assert oracle.perf_snapshot()["chains_probed"] == 3


class TestMaxQualityShortCircuit:
    def test_lower_quality_tail_not_probed(self):
        """Once the best quality tier admits, lower tiers are skipped."""
        job = Job.tunable_of(
            [
                chain(4, 2.0, 100.0, quality=0.6, label="fast"),
                chain(2, 8.0, 100.0, quality=1.0, label="slow"),
            ]
        )
        pruned = QoSArbitrator(4, objective=ArbitrationObjective.MAX_QUALITY)
        exhaustive = QoSArbitrator(
            4, objective=ArbitrationObjective.MAX_QUALITY, prune=False
        )
        d1, d2 = pruned.submit(job), exhaustive.submit(job)
        assert d1.admitted and d2.admitted
        assert d1.chain_index == d2.chain_index
        assert d1.placement.chain.label == "slow"
        assert pruned.perf_snapshot()["chains_pruned_quality"] == 1
        assert pruned.perf_snapshot()["chains_probed"] == 1
        assert exhaustive.perf_snapshot()["chains_probed"] == 2

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
        assert arb.perf_snapshot()["chains_pruned_quality"] == 0


@pytest.mark.parametrize(
    "axis,value",
    [("interval", 20.0), ("interval", 35.0), ("alpha", 1.0), ("laxity", 0.5)],
)
@pytest.mark.parametrize("system", ["tunable", "shape2"])
def test_sweep_decisions_identical_with_and_without_pruning(axis, value, system):
    """Fig. 5/6 points: pruning changes the work done, never the answer.

    ``RunMetrics.perf`` is excluded from equality, so ``==`` compares the
    actual simulation outcome (admissions, response times, utilization).
    The alpha=1.0 point makes the tunable job's chains identical, which is
    exactly the duplicate-collapse case.
    """
    base = SweepConfig(n_jobs=150).with_axis(axis, value)
    on = run_point(base, system)
    off = run_point(replace(base, prune=False), system)
    assert on == off
    if system == "tunable" and axis == "alpha":
        assert on.perf["chains_pruned_dominated"] > 0
    assert on.perf["chains_probed"] <= off.perf["chains_probed"]


def test_malleable_sweep_identical_with_and_without_pruning():
    base = SweepConfig(n_jobs=120, malleable=True)
    on = run_point(base, "tunable")
    off = run_point(replace(base, prune=False), "tunable")
    assert on == off
