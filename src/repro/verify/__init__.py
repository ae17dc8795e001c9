"""Independent verification tooling: auditor, oracle, fuzzer, checks.

This package is the repo's second opinion on its own scheduler.  Nothing in
here shares validation logic with :mod:`repro.core` — see
:doc:`docs/verification.md <../../../docs/verification>` for the invariant
catalogue and workflow, and ``python -m repro.verify --help`` for the CLI.

The package exports the auditor and the oracle, which depend only on the
model layer.  The fuzzer (:mod:`repro.verify.fuzz`), the end-to-end checks
(:mod:`repro.verify.checks`) and the corpus replay
(:mod:`repro.verify.corpus`) import the full simulation stack; import them
from their modules.
"""

from __future__ import annotations

from repro.verify.auditor import (
    AUDIT_EPS,
    AuditReport,
    ScheduleAuditor,
    Violation,
    audit_run,
)
from repro.verify.oracle import (
    OracleLimitError,
    OracleLimits,
    OraclePlacement,
    OracleSolution,
    exhaustive_best,
)

__all__ = [
    "AUDIT_EPS",
    "AuditReport",
    "ScheduleAuditor",
    "Violation",
    "audit_run",
    "OracleLimitError",
    "OracleLimits",
    "OraclePlacement",
    "OracleSolution",
    "exhaustive_best",
]

