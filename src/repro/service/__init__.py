"""Fault-tolerant arbitrator-as-a-service (ROADMAP: "long-running service").

The package turns the library :class:`~repro.core.arbitrator.QoSArbitrator`
into a durable admission pipeline:

* :mod:`repro.service.service` — the asyncio front-end: bounded ingress
  with backpressure, decision batching over ``admit_batch``, per-request
  deadlines, fail-stop on a decision-path error, QoS-class shedding and
  degraded-quality admission, append-before-ack durability;
* :mod:`repro.service.wal` — the CRC-framed, fsync'd write-ahead
  decision log with append-only delta checkpoints and torn-tail repair;
* :mod:`repro.service.recovery` — crash recovery that replays the log
  into a fresh arbitrator and *proves* (bit-identical replay + an
  independent audit) the result is the pre-crash schedule;
* :mod:`repro.service.chaos` — the seeded fault-injection harness that
  keeps all of the above honest.

Submodules are loaded lazily so ``python -m repro.service.chaos`` does
not double-import the module it is executing.
"""

from importlib import import_module
from typing import Any

_EXPORTS = {
    "AdmissionService": "repro.service.service",
    "ServiceConfig": "repro.service.service",
    "ServiceDecision": "repro.service.service",
    "ServiceOutcome": "repro.service.service",
    "degrade_job": "repro.service.service",
    "make_arbitrator": "repro.service.service",
    "LedgerEntry": "repro.service.wal",
    "WriteAheadLog": "repro.service.wal",
    "decision_to_tuple": "repro.service.wal",
    "read_wal": "repro.service.wal",
    "read_checkpoint": "repro.service.wal",
    "write_checkpoint": "repro.service.wal",
    "RecoveredState": "repro.service.recovery",
    "recover": "repro.service.recovery",
    "ChaosScenario": "repro.service.chaos",
    "ChaosResult": "repro.service.chaos",
    "SCENARIOS": "repro.service.chaos",
    "run_scenario": "repro.service.chaos",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
