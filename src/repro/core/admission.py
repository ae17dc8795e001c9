"""The outcome of admission control (Section 3.1).

"Upon job arrival, the QoS arbitrator first performs admission control to
check whether or not application resource requirements can be satisfied.
Application tunability increases the likelihood that an application can be
admitted into the system."  :class:`~repro.core.arbitrator.QoSArbitrator`
decides and accounts; :class:`AdmissionDecision` is what it answers with,
what the service logs and what the simulators observe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.placement import ChainPlacement, slot_setters

__all__ = ["AdmissionDecision", "NO_FIT"]

#: The refusal reason of a job none of whose configurations is schedulable.
NO_FIT = "no schedulable configuration"


@dataclass(frozen=True, slots=True, init=False)
class AdmissionDecision:
    """Outcome of offering one job to admission control."""

    job_id: int
    admitted: bool
    placement: ChainPlacement | None
    reason: str = ""

    def __init__(
        self, job_id: int, admitted: bool, placement: ChainPlacement | None,
        reason: str = "",
    ) -> None:  # stores through the slots: see placement.slot_setters
        _set_job_id(self, job_id)
        _set_admitted(self, admitted)
        _set_placement(self, placement)
        _set_reason(self, reason)

    @property
    def chain_index(self) -> int | None:
        """Index of the configuration granted, or ``None`` if rejected."""
        return self.placement.chain_index if self.placement else None

    @property
    def finish(self) -> float | None:
        """Scheduled completion time, or ``None`` if rejected."""
        return self.placement.finish if self.placement else None


_set_job_id, _set_admitted, _set_placement, _set_reason = slot_setters(
    AdmissionDecision
)
