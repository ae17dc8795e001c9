"""The correctness gate: every run proves its decision stream.

A decision stream is digested as the canonical ledger tuples of
:func:`repro.service.wal.decision_to_tuple` — admit/reject, chain index
and every placement's start, width and duration — so two streams agree
exactly when every scheduling decision is bit-identical.

Three references, in order of strength:

* ``digests.json`` holds, per ``(stream, seed, size)``, the digest minted
  once through the **oracle path** (serial ``submit``, ``backend="scalar"``,
  Python kernels) by ``run.py --mint``;
* for a seed with no committed digest the first :data:`ORACLE_PREFIX`
  decisions are re-decided live through that same oracle path;
* within a run, every workload that has a second public path to the same
  decisions (service vs direct ``admit_batch``, serial vs batched) runs it
  after timing and compares — see ``workloads.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.model.job import Job
from repro.service.wal import DecisionTuple, decision_to_tuple

from e2e.streams import CAPACITY

__all__ = [
    "ORACLE_PREFIX",
    "DIGESTS_PATH",
    "digest",
    "oracle_decisions",
    "load_digests",
    "check_stream",
]

#: Decisions checked live against the oracle when no digest is committed.
ORACLE_PREFIX = 5_000

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest(decisions: Iterable[DecisionTuple]) -> str:
    """SHA-256 over the canonical tuples, in stream order."""
    h = hashlib.sha256()
    for tup in decisions:
        h.update(repr(tup).encode())
    return h.hexdigest()


def oracle_decisions(jobs: Sequence[Job]) -> list[DecisionTuple]:
    """Decide ``jobs`` through the slowest, simplest path the repo has."""
    with kernels.use("python"):
        arbitrator = QoSArbitrator(CAPACITY, backend="scalar")
        return [decision_to_tuple(arbitrator.submit(job)) for job in jobs]


def load_digests() -> dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def check_stream(
    key: str, jobs: Sequence[Job], decisions: Sequence[DecisionTuple]
) -> dict[str, object]:
    """Compare one run's decisions with the committed digest or the oracle.

    Returns ``{"ok", "reference", "detail"}``; ``reference`` says which of
    the two references judged the stream.
    """
    if len(decisions) != len(jobs):
        return {
            "ok": False,
            "reference": "count",
            "detail": f"{len(decisions)} decisions for {len(jobs)} jobs",
        }
    committed = load_digests().get(key)
    if committed is not None:
        got = digest(decisions)
        return {
            "ok": got == committed,
            "reference": "digests.json",
            "detail": f"{key}: got {got[:16]}, committed {committed[:16]}",
        }
    n = min(ORACLE_PREFIX, len(jobs))
    want = oracle_decisions(jobs[:n])
    bad = next((i for i in range(n) if want[i] != decisions[i]), None)
    return {
        "ok": bad is None,
        "reference": f"oracle-prefix-{n}",
        "detail": f"{key}: "
        + ("prefix identical" if bad is None else f"first mismatch at decision {bad}"),
    }
