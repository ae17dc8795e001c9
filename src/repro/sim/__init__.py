"""Discrete-event simulation substrate.

The paper evaluates its heuristic on a synthetic task system with Poisson
arrivals over 10,000 jobs (Section 5.3).  This subpackage provides the
machinery: deterministic seeded randomness (:mod:`repro.sim.rng`), arrival
processes (:mod:`repro.sim.arrivals`), the arrival-driven scheduling
simulator (:mod:`repro.sim.simulator`), the best-effort EDF executor it is
compared against (:mod:`repro.sim.executor`), metrics
(:mod:`repro.sim.metrics`) and trace rendering (:mod:`repro.sim.trace`).
Each simulator is one loop over its own ``heapq`` of time-keyed tuples.

All performance numbers in this reproduction come from *virtual time* —
see DESIGN.md ("GIL substitution") for why.
"""

from repro.sim.rng import RandomStreams
from repro.sim.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
    BurstyArrivals,
)
from repro.sim.metrics import RunMetrics, MetricsCollector
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.sim.executor import BestEffortMetrics, EDFExecutor

__all__ = [
    "RandomStreams",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
    "BurstyArrivals",
    "RunMetrics",
    "MetricsCollector",
    "ArrivalSimulator",
    "simulate_arrivals",
    "EDFExecutor",
    "BestEffortMetrics",
]
