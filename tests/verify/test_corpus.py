"""Replay every committed corpus entry — one parametrized test per file.

A failure here means an admission/placement decision changed or a frozen
metric drifted.  If the change was intentional, re-mint with
``python tools/mint_corpus.py`` and say so in the PR; if not, you just
caught a regression — do not re-mint it away.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.corpus import corpus_entry_failures, corpus_files, replay_corpus_file

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ENTRIES = corpus_files(CORPUS_DIR)


def test_corpus_is_populated():
    """The committed corpus must never silently vanish."""
    names = {p.name for p in ENTRIES}
    assert len(ENTRIES) >= 10
    # The load-bearing frozen points: the P=32 deviation pair and the
    # alpha=1.0 coincidence pair from EXPERIMENTS.md.
    for required in (
        "sweep-fig5c-p32-tunable.json",
        "sweep-fig5c-p32-shape1.json",
        "sweep-fig5d-alpha1-tunable.json",
        "sweep-fig5d-alpha1-shape1.json",
    ):
        assert required in names


@pytest.mark.parametrize(
    "path", ENTRIES, ids=[p.stem for p in ENTRIES]
)
def test_corpus_entry_replays_clean(path):
    failures = replay_corpus_file(path)
    assert not failures, f"{path.name}:\n  " + "\n  ".join(failures)


def test_unknown_kind_is_reported_not_crashed():
    assert corpus_entry_failures({"kind": "mystery"}) == [
        "unknown corpus kind 'mystery'"
    ]


def test_unreadable_entry_is_reported_not_crashed(tmp_path):
    bad = tmp_path / "fuzz-bad.json"
    bad.write_text("{not json")
    failures = replay_corpus_file(bad)
    assert failures and "unreadable" in failures[0]


def test_cli_replays_through_the_same_functions(tmp_path, capsys):
    """``--replay-corpus`` reports what ``replay_corpus_file`` reports."""
    from repro.verify.__main__ import main

    bad = tmp_path / "fuzz-bad.json"
    bad.write_text("{not json")
    assert main(["--replay-corpus", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert f"replayed 1 entr(ies) from {tmp_path}" in out
    (why,) = replay_corpus_file(bad)
    assert f"  fuzz-bad.json: {why}" in err.splitlines()
    assert main(["--replay-corpus", str(tmp_path / "empty")]) == 1


def test_version_gate_rejects_future_workloads():
    failures = corpus_entry_failures(
        {"kind": "workload", "version": 999, "capacity": 4, "jobs": []}
    )
    assert failures == ["unsupported workload version 999"]
