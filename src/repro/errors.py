"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class.  Subsystem-specific bases (:class:`SchedulingError`,
:class:`ModelError`, :class:`CalypsoError`, ...) group related failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "InvalidTaskError",
    "InvalidChainError",
    "InvalidJobError",
    "SchedulingError",
    "InfeasibleRequestError",
    "CapacityExceededError",
    "AdmissionRejected",
    "ScheduleConsistencyError",
    "NegotiationError",
    "ConfigurationError",
    "LanguageError",
    "ControlParameterError",
    "ProgramStructureError",
    "CalypsoError",
    "ConcurrentWriteError",
    "StepStateError",
    "SimulationError",
    "WorkloadError",
    "VerificationError",
    "ServiceError",
    "ServiceUnavailableError",
    "WalCorruptionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Task / job model
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for task-model validation errors."""


class InvalidTaskError(ModelError):
    """A task specification is malformed (non-positive duration, etc.)."""


class InvalidChainError(ModelError):
    """A task chain is malformed (empty, non-monotone deadlines, ...)."""


class InvalidJobError(ModelError):
    """A job is malformed (no chains, inconsistent release times, ...)."""


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


class SchedulingError(ReproError):
    """Base class for scheduler errors."""


class InfeasibleRequestError(SchedulingError):
    """A request can never be satisfied (e.g. task wider than the machine)."""


class CapacityExceededError(SchedulingError):
    """A reservation would drive free-processor count negative."""


class AdmissionRejected(SchedulingError):
    """Raised (or reported) when admission control rejects a job.

    Carries the job id so batch callers can account for the rejection.
    """

    def __init__(self, job_id: object, reason: str = "no schedulable configuration"):
        super().__init__(f"job {job_id!r} rejected: {reason}")
        self.job_id = job_id
        self.reason = reason


class ScheduleConsistencyError(SchedulingError):
    """A committed schedule violates an invariant (overlap, deadline, order)."""


class NegotiationError(SchedulingError):
    """QoS agent/arbitrator negotiation protocol violation."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied to a component."""


# ---------------------------------------------------------------------------
# Language / DSL
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Base class for tunability-DSL errors."""


class ControlParameterError(LanguageError):
    """A control parameter is undeclared, re-declared, or mis-assigned."""


class ProgramStructureError(LanguageError):
    """Structural misuse of task/task_select/task_loop constructs."""


# ---------------------------------------------------------------------------
# Calypso runtime
# ---------------------------------------------------------------------------


class CalypsoError(ReproError):
    """Base class for Calypso runtime errors."""


class ConcurrentWriteError(CalypsoError):
    """Two routines in one parallel step wrote the same shared location.

    Calypso guarantees CREW (concurrent-read exclusive-write) semantics;
    violating writes are detected at step commit time.
    """


class StepStateError(CalypsoError):
    """A parallel step was used outside its lifecycle (e.g. commit twice)."""


# ---------------------------------------------------------------------------
# Simulation / workloads
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Discrete-event simulation engine misuse (time travel, etc.)."""


class WorkloadError(ReproError):
    """A workload generator was given inconsistent parameters."""


class VerificationError(ReproError):
    """An independent verification check (audit, differential, post-check)
    found the system lying about its own results."""


# ---------------------------------------------------------------------------
# Admission service
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for admission-service errors (:mod:`repro.service`)."""


class ServiceUnavailableError(ServiceError):
    """The admission service is stopped, failed, or crashing; resubmit
    after recovery (requests are idempotent by request id)."""


class WalCorruptionError(ServiceError):
    """The write-ahead decision log is damaged beyond the torn tail that
    a crash legitimately leaves (bad checksum *before* valid records, a
    corrupt checkpoint, an unsupported format version)."""
