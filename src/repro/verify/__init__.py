"""Independent verification tooling: auditor, oracle, fuzzer, checks.

This package is the repo's second opinion on its own scheduler.  Nothing in
here shares validation logic with :mod:`repro.core` — see
:doc:`docs/verification.md <../../../docs/verification>` for the invariant
catalogue and workflow, and ``python -m repro.verify --help`` for the CLI.

The auditor and oracle load eagerly (they depend only on the model layer);
the fuzzer and end-to-end checks import the full simulation stack, so they
load lazily on first attribute access to keep ``import repro.verify`` cheap
and cycle-free.
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
    # Lazy (simulation-stack) exports:
    "FuzzCase",
    "FuzzReport",
    "run_fuzz",
    "random_case",
    "run_case",
    "check_case",
    "shrink",
    "persist_failure",
    "load_case",
    "audited_point",
    "GapReport",
    "greedy_vs_oracle",
    "corpus_entry_failures",
    "replay_corpus_file",
    "corpus_files",
]

# name -> (module, attribute).  Note ``run_fuzz``: the campaign driver is
# ``repro.verify.fuzz.fuzz``, but a package attribute named ``fuzz`` is
# unreachable — ``from repro.verify import fuzz`` always binds the
# *submodule* (the import system sets it on the package before
# ``__getattr__`` could ever run), so the function gets a distinct name.
_LAZY = {
    "corpus_entry_failures": ("repro.verify.corpus", "corpus_entry_failures"),
    "replay_corpus_file": ("repro.verify.corpus", "replay_corpus_file"),
    "corpus_files": ("repro.verify.corpus", "corpus_files"),
    "FuzzCase": ("repro.verify.fuzz", "FuzzCase"),
    "FuzzReport": ("repro.verify.fuzz", "FuzzReport"),
    "run_fuzz": ("repro.verify.fuzz", "fuzz"),
    "random_case": ("repro.verify.fuzz", "random_case"),
    "run_case": ("repro.verify.fuzz", "run_case"),
    "check_case": ("repro.verify.fuzz", "check_case"),
    "shrink": ("repro.verify.fuzz", "shrink"),
    "persist_failure": ("repro.verify.fuzz", "persist_failure"),
    "load_case": ("repro.verify.fuzz", "load_case"),
    "audited_point": ("repro.verify.checks", "audited_point"),
    "GapReport": ("repro.verify.checks", "GapReport"),
    "greedy_vs_oracle": ("repro.verify.checks", "greedy_vs_oracle"),
}


def __getattr__(name: str) -> object:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_name, attr = target
    return getattr(importlib.import_module(module_name), attr)
