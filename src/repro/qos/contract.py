"""Resource contracts.

The outcome of a successful negotiation: "the QoS agent communicates all
the possible application execution paths and their resource requirements up
front, and receives in return (from the QoS arbitrator) a resource
allocation profile for one of these paths" (Section 3.1).  The contract
carries that allocation profile plus the control-parameter assignment the
application must adopt ("application configuration just requires setting
values for the sampling granularity and search distance parameters",
Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.core.placement import ChainPlacement
from repro.model.quality import chain_quality

__all__ = ["ResourceContract"]


@dataclass(frozen=True, slots=True)
class ResourceContract:
    """An admitted application's granted allocation profile.

    Attributes
    ----------
    job_id:
        Identity of the admitted job.
    placement:
        The committed :class:`~repro.core.placement.ChainPlacement` — which
        processors-over-time each task holds.
    params:
        Control-parameter assignment selecting the granted execution path
        (empty for programs without control parameters).
    """

    job_id: int
    placement: ChainPlacement
    params: Mapping[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def chain_index(self) -> int:
        """Which enumerated execution path was granted."""
        return self.placement.chain_index

    @property
    def start(self) -> float:
        """When the first task begins."""
        return self.placement.start

    @property
    def finish(self) -> float:
        """When the last task completes."""
        return self.placement.finish

    def quality(self) -> float:
        """Output quality of the granted path."""
        return chain_quality(self.placement.chain)

    def task_schedule(self) -> list[tuple[str, float, float, int]]:
        """Per-task ``(name, start, end, processors)`` rows, in order."""
        return [
            (pl.task.name, pl.start, pl.end, pl.processors)
            for pl in self.placement.placements
        ]
