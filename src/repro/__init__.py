"""repro — tunable parallel resource management.

A production-quality reproduction of *"Exploiting Application Tunability
for Efficient, Predictable Parallel Resource Management"* (Chang,
Karamcheti, Kedem — IPPS 1999): the maximal-holes greedy scheduler for
parallel real-time task chains, the MILAN QoS agent/arbitrator
architecture, the Calypso tunability language extensions (as an embedded
DSL) and execution runtime, the synthetic Figure-4 task system, and the
junction-detection tunable application.

Quickstart::

    from repro import QoSArbitrator, SyntheticParams

    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    arbitrator = QoSArbitrator(capacity=16)
    decision = arbitrator.submit(params.tunable_job(release=0.0))
    print(decision.admitted, decision.chain_index)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.core import (
    AvailabilityProfile,
    GreedyScheduler,
    MalleableScheduler,
    MalleableStrategy,
    MaximalHole,
    ProcessorTimeRequest,
    QoSArbitrator,
    Schedule,
    TieBreakPolicy,
    earliest_fit,
    maximal_holes,
)
from repro.core.arbitrator import ArbitrationObjective
from repro.model import Job, TaskChain, TaskSpec
from repro.qos import QoSAgent, ResourceContract
from repro.sim import PoissonArrivals, RandomStreams, simulate_arrivals
from repro.workloads import SweepConfig, SyntheticParams, run_point, run_sweep
from repro.runner import ExperimentRunner

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ProcessorTimeRequest",
    "AvailabilityProfile",
    "MaximalHole",
    "maximal_holes",
    "earliest_fit",
    "Schedule",
    "GreedyScheduler",
    "MalleableScheduler",
    "MalleableStrategy",
    "TieBreakPolicy",
    "QoSArbitrator",
    "ArbitrationObjective",
    "TaskSpec",
    "TaskChain",
    "Job",
    "QoSAgent",
    "ResourceContract",
    "RandomStreams",
    "PoissonArrivals",
    "simulate_arrivals",
    "SyntheticParams",
    "SweepConfig",
    "run_point",
    "run_sweep",
    "ExperimentRunner",
]
