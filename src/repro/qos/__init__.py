"""The MILAN resource-management architecture (Section 3).

* :mod:`repro.qos.agent` — the application-level QoS agent, generated from
  a tunable program, that negotiates with the system-level arbitrator.
* :mod:`repro.qos.negotiation` — the request/grant/reject message protocol.
* :mod:`repro.qos.contract` — the resource contract an admitted application
  holds (its allocation profile plus the control-parameter configuration).

Renegotiation on a resource-level change is
:class:`~repro.resilience.driver.RenegotiationDriver`'s.  Revision of a
running contract on changing *application* demands (the other half of
§3.1) is not implemented.
"""

from repro.qos.agent import QoSAgent
from repro.qos.contract import ResourceContract
from repro.qos.negotiation import (
    ReservationGrant,
    ReservationReject,
    ReservationRequest,
    negotiate,
)

__all__ = [
    "QoSAgent",
    "ResourceContract",
    "ReservationRequest",
    "ReservationGrant",
    "ReservationReject",
    "negotiate",
]
