"""The persisted failure/regression corpus: entry schema and replay.

``tests/corpus/`` holds small JSON files that encode verification
scenarios which must stay green forever.  Two kinds exist:

``workload``
    A :class:`~repro.verify.fuzz.FuzzCase` (capacity, model, explicit
    jobs).  Replay runs the *entire* check battery — differential matrix,
    metamorphic relations, auditor, oracle bound — and expects it clean.
    Shrunk fuzz reproducers are persisted in this shape, as are
    hand-minted cases that once exposed (or nearly exposed) a bug.

``sweep``
    One committed experiment point: a serialized
    :class:`~repro.workloads.sweep.SweepConfig` + system name + frozen
    expectations.  Replay re-runs the point with placements retained,
    audits the final schedule, and compares the persisted-form metrics
    against the expectations (exact for counts, 1e-9-relative for
    floats).  These pin the PR 4 figure-5/6 oracle axes and the
    P = 24–36 ``shape1`` deviation documented in EXPERIMENTS.md.

Both the CLI (``--replay-corpus``) and the parametrized
regression suite (``tests/verify/test_corpus.py``) replay through
:func:`corpus_entry_failures`, so the two can never drift apart.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

__all__ = ["corpus_entry_failures", "replay_corpus_file", "corpus_files"]


def corpus_files(corpus_dir: str | Path) -> list[Path]:
    """Every corpus entry under ``corpus_dir``, in stable (name) order."""
    return sorted(Path(corpus_dir).glob("*.json"))


def replay_corpus_file(path: str | Path) -> list[str]:
    """Load and replay one corpus file; returns failure descriptions."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable corpus entry ({exc})"]
    return corpus_entry_failures(payload)


def corpus_entry_failures(payload: Mapping[str, object]) -> list[str]:
    """Replay one parsed corpus entry; empty list means still green."""
    kind = payload.get("kind")
    if kind == "workload":
        return _replay_workload(payload)
    if kind == "sweep":
        return _replay_sweep(payload)
    return [f"unknown corpus kind {kind!r}"]


def _replay_workload(payload: Mapping[str, object]) -> list[str]:
    from repro.verify.fuzz import CORPUS_VERSION, FuzzCase, check_case

    if payload.get("version") != CORPUS_VERSION:
        return [f"unsupported workload version {payload.get('version')!r}"]
    try:
        case = FuzzCase.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed workload entry ({exc})"]
    return check_case(case)


def _replay_sweep(payload: Mapping[str, object]) -> list[str]:
    from repro.errors import ConfigurationError
    from repro.workloads.sweep import sweep_config_from_dict
    from repro.sim.persistence import metrics_to_dict
    from repro.verify.checks import audited_point

    try:
        config = sweep_config_from_dict(payload["config"])  # type: ignore[arg-type]
        system = str(payload["system"])
    except (KeyError, ConfigurationError) as exc:
        return [f"malformed sweep entry ({exc})"]
    metrics, report = audited_point(config, system)
    failures: list[str] = []
    if not report.ok:
        failures.append(f"audit dirty: {report.summary()}")
    got = metrics_to_dict(metrics)
    expect = payload.get("expect") or {}
    for key, want in expect.items():  # type: ignore[union-attr]
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, float):
            if not math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-12):
                failures.append(f"{key}: expected {want!r}, got {have!r}")
        elif have != want:
            failures.append(f"{key}: expected {want!r}, got {have!r}")
    return failures
