"""The application-level QoS agent (Section 3.1).

"The QoS agent, automatically generated from the application's
specification by a preprocessing step, describes the application's
real-time constraints, its resource requirements, and more importantly its
tunability. ... The QoS agent acts on behalf of the application to
negotiate with the QoS arbitrator an appropriate level of resource
reservation/allocation for each task, maximizing the application output
quality."

A :class:`QoSAgent` holds the enumerated execution paths of one program
(built by hand or by :func:`repro.lang.preprocess.build_agent`) and drives
the negotiation round trip; on success it *configures* the application by
returning the control-parameter assignment of the granted path.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.arbitrator import QoSArbitrator
from repro.errors import NegotiationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import chain_quality
from repro.qos.contract import ResourceContract
from repro.qos.negotiation import (
    ReservationGrant,
    ReservationReject,
    ReservationRequest,
    negotiate,
)

__all__ = ["QoSAgent"]

#: Callback invoked with the granted parameter assignment; applications
#: register these to reconfigure themselves (set sampling granularity, ...).
ConfigureCallback = Callable[[Mapping[str, object]], None]


class QoSAgent:
    """Negotiates resources for one tunable application.

    Parameters
    ----------
    name:
        Application name (diagnostics only).
    chains:
        The enumerated execution paths, each optionally carrying the
        control-parameter assignment (``chain.params``) that selects it.
    """

    def __init__(self, name: str, chains: Sequence[TaskChain]) -> None:
        if not chains:
            raise NegotiationError(f"agent {name!r} has no execution paths")
        self.name = name
        self.chains = tuple(chains)
        self.contract: ResourceContract | None = None
        self._configure_callbacks: list[ConfigureCallback] = []

    # ------------------------------------------------------------------

    @property
    def tunable(self) -> bool:
        """True when the agent offers more than one path."""
        return len(self.chains) > 1

    def path_qualities(self) -> list[float]:
        """Quality of each enumerated path, in chain order."""
        return [chain_quality(c) for c in self.chains]

    def on_configure(self, callback: ConfigureCallback) -> None:
        """Register a callback run with the granted parameter assignment."""
        self._configure_callbacks.append(callback)

    def build_request(self, release: float) -> ReservationRequest:
        """The reservation request describing all paths, released at ``release``."""
        job = Job.tunable_of(self.chains, release=release, name=self.name)
        return ReservationRequest(job)

    # ------------------------------------------------------------------

    def negotiate(
        self, arbitrator: QoSArbitrator, release: float
    ) -> ResourceContract | None:
        """Run the static negotiation; configure the application on success.

        Returns the granted contract, or ``None`` on rejection.  The granted
        parameter assignment is pushed to every registered configure
        callback before returning — mirroring "the QoS agent then configures
        the application to execute along that path" (Section 3.2).
        """
        request = self.build_request(release)
        reply = negotiate(arbitrator, request)
        if isinstance(reply, ReservationReject):
            self.contract = None
            return None
        assert isinstance(reply, ReservationGrant)
        self.contract = reply.contract
        for cb in self._configure_callbacks:
            cb(reply.contract.params)
        return reply.contract

    def granted_params(self) -> Mapping[str, object]:
        """Parameter assignment of the current contract.

        Raises :class:`~repro.errors.NegotiationError` when no negotiation
        has succeeded yet.
        """
        if self.contract is None:
            raise NegotiationError(
                f"agent {self.name!r} holds no contract; negotiate first"
            )
        return self.contract.params
