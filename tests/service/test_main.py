"""The demo CLI (``python -m repro.service``): serve, optionally kill,
recover, finish, and audit clean each time."""

from __future__ import annotations

import pytest

from repro.service.__main__ import main
from repro.service.wal import read_checkpoint, read_wal, records_to_entries


@pytest.mark.parametrize(
    "argv",
    [[], ["--kill-after", "10"], ["--kill-after", "10", "--malleable"]],
    ids=["clean", "killed", "killed-malleable"],
)
def test_the_demo_recovers_and_audits_clean(tmp_path, capsys, argv):
    assert main(["--wal", str(tmp_path), *argv]) == 0
    out = capsys.readouterr().out
    assert f"crash={'killed' if argv else 'none'}" in out
    assert "audit=clean" in out and out.rstrip().endswith("audit clean")

    checkpointed, through = read_checkpoint(tmp_path)
    ledger = checkpointed + records_to_entries(
        read_wal(tmp_path / "wal.log")[0], min_seq=through
    )
    assert len(ledger) == 32 and all(e.decision is not None for e in ledger)
    # A malleable admission may run a task at another width and duration
    # than its chain asks for; those cells round-trip through the WAL.
    reshaped = [
        (width, duration) != (task.processors, task.duration)
        for e in ledger
        if e.decision[0]
        for task, (_, width, duration) in zip(
            e.job.chains[e.decision[1]].tasks, e.decision[2]
        )
    ]
    assert any(reshaped) == ("--malleable" in argv)
