"""Core scheduling machinery — the paper's primary contribution.

This subpackage implements the QoS arbitrator's scheduling engine from
Section 5 of the paper:

* :mod:`repro.core.resources` — processor-time requests and the time range.
* :mod:`repro.core.profile` — the free-processor step function over time.
* :mod:`repro.core.holes` — maximal holes ``(t_b, t_e, m)`` (Section 5.2).
* :mod:`repro.core.first_fit` — earliest-feasible-start search for one task.
* :mod:`repro.core.greedy` — the greedy heuristic for chains and tunable jobs.
* :mod:`repro.core.malleable` — the malleable-task variant (Section 5.4).
* :mod:`repro.core.arbitrator` — the system-level QoS arbitrator and its
  admission control (Section 3); :mod:`repro.core.admission` — the
  decision it answers with.
* :mod:`repro.core.baselines` — EDF and conservative-reservation baselines.
"""

from repro.core.resources import TIME_LIMIT, TIME_STEP, ProcessorTimeRequest
from repro.core.profile import AvailabilityProfile
from repro.core.holes import MaximalHole, maximal_holes
from repro.core.placement import Placement, ChainPlacement
from repro.core.schedule import Schedule
from repro.core.first_fit import earliest_fit
from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler, MalleableStrategy
from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import QoSArbitrator
from repro.core.policies import TieBreakPolicy
from repro.core.assignment import AssignedSlice, assign_processors

__all__ = [
    "TIME_LIMIT",
    "TIME_STEP",
    "ProcessorTimeRequest",
    "AvailabilityProfile",
    "MaximalHole",
    "maximal_holes",
    "Placement",
    "ChainPlacement",
    "Schedule",
    "earliest_fit",
    "GreedyScheduler",
    "MalleableScheduler",
    "MalleableStrategy",
    "AdmissionDecision",
    "QoSArbitrator",
    "TieBreakPolicy",
    "AssignedSlice",
    "assign_processors",
]
