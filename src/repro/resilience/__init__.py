"""Fault-aware online simulation (the Section 3.1 monitoring loop).

The paper's arbitrator "monitors system resources, and triggers
renegotiation on detecting a significant change in resource levels"; this
package exercises that claim end to end:

* :mod:`repro.resilience.events` — deterministic, CRN-pairable
  perturbation traces (capacity changes, latent execution-time overruns,
  arrival bursts) drawn from named RNG substreams;
* :mod:`repro.resilience.driver` — the stateful multi-event
  renegotiation driver with degrade-don't-drop re-planning across a job's
  OR-graph paths;
* :mod:`repro.resilience.reconfig` — mid-execution malleability: the
  grow/shrink policy engine that resizes *running* jobs at
  capacity-freeing and capacity-pressure events under an explicit
  reconfiguration-cost model.

The discrete-event loop that applies a trace is the arrival simulator
itself: :class:`repro.sim.simulator.ArrivalSimulator` with ``trace=`` (and
optionally ``reconfig=``).
"""

from repro.resilience.driver import (
    RenegotiationDriver,
    ResilienceOutcome,
    ResizeTxn,
)
from repro.resilience.events import (
    BurstEvent,
    CapacityEvent,
    FaultModel,
    OverrunEvent,
    PerturbationTrace,
    generate_trace,
)
from repro.resilience.reconfig import (
    ReconfigCostModel,
    ReconfigEngine,
    ResizePolicy,
    ResizeRecord,
)

__all__ = [
    "BurstEvent",
    "CapacityEvent",
    "FaultModel",
    "OverrunEvent",
    "PerturbationTrace",
    "generate_trace",
    "ReconfigCostModel",
    "ReconfigEngine",
    "RenegotiationDriver",
    "ResilienceOutcome",
    "ResizePolicy",
    "ResizeRecord",
    "ResizeTxn",
]
