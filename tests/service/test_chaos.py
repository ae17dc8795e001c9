"""The committed chaos scenario set is the contract: every scenario must
recover to a bit-identical, auditor-clean ledger."""

from __future__ import annotations

import pytest

from repro.service.chaos import (
    SCENARIOS,
    ChaosScenario,
    chaos_workload,
    main,
    rotate,
    run_scenario,
)


def test_committed_scenario_set_is_large_and_diverse():
    assert len(SCENARIOS) == 27
    assert len({s.name for s in SCENARIOS}) == len(SCENARIOS)
    assert any(s.partial_write_after is not None for s in SCENARIOS)
    assert any(s.crash_after_acks is not None for s in SCENARIOS)
    assert any(s.permanent_fail_after is not None for s in SCENARIOS)
    assert any(s.dup_prob > 0 for s in SCENARIOS)
    assert any(s.drop_prob > 0 for s in SCENARIOS)
    assert any(s.tight_deadline_share > 0 for s in SCENARIOS)
    assert any(s.malleable for s in SCENARIOS)
    assert any(s.checkpoint_every > 0 for s in SCENARIOS)
    torn_checkpoints = [s for s in SCENARIOS if s.checkpoint_tear_after is not None]
    assert {s.malleable for s in torn_checkpoints} == {False, True}
    assert all(s.checkpoint_every > 0 for s in torn_checkpoints)
    # The two lifecycle scenarios: a kill inside a retry backoff long enough
    # to hit, and a graceful stop with most callers still in backpressure.
    assert any(s.kill_in_backoff and s.backoff_base >= 0.05 for s in SCENARIOS)
    assert any(
        s.stop_under_backpressure and s.n_jobs > 2 * s.queue_limit for s in SCENARIOS
    )


def test_a_future_left_pending_fails_the_scenario(monkeypatch):
    """The bar every scenario is held to includes: no client waits for ever."""
    from repro.service.service import AdmissionService

    monkeypatch.setattr(AdmissionService, "_abandon", lambda self, batch, reason: None)
    result = run_scenario(next(s for s in SCENARIOS if s.name == "kill-in-backoff"))
    assert not result.ok
    assert any("left pending" in f for f in result.failures)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_recovers_clean(scenario):
    result = run_scenario(scenario)
    assert result.ok, result.summary()


def test_chaos_workload_is_deterministic():
    import random

    a = chaos_workload(random.Random(3), 9, False)
    b = chaos_workload(random.Random(3), 9, False)
    assert a[0] == b[0]
    assert [(j.release, j.chains) for j in a[1]] == [
        (j.release, j.chains) for j in b[1]
    ]


def test_rotate_reseeds_without_touching_fault_script():
    rotated = rotate(SCENARIOS, 7)
    assert [s.seed for s in rotated] != [s.seed for s in SCENARIOS]
    assert [s.partial_write_after for s in rotated] == [
        s.partial_write_after for s in SCENARIOS
    ]
    assert rotate(SCENARIOS, 0) == list(SCENARIOS)


def test_cli_list_and_unknown_scenario(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "kill-early" in out and "torn-decision-append" in out
    assert main(["--only", "no-such-scenario"]) == 2


def test_cli_runs_single_scenario_and_writes_no_reproducer(tmp_path, capsys):
    repro_dir = tmp_path / "repro"
    assert main(["--only", "baseline-small", "--reproducers", str(repro_dir)]) == 0
    assert not repro_dir.exists()  # only failures produce artifacts
    assert "1/1 scenarios clean" in capsys.readouterr().out


def test_failing_scenario_writes_reproducer(tmp_path, monkeypatch):
    import json

    import repro.service.chaos as chaos_mod

    broken = ChaosScenario(name="always-broken", seed=1)

    def fake_run(scenario, wal_dir=None):
        return chaos_mod.ChaosResult(
            scenario=scenario.name,
            seed=scenario.seed,
            ok=False,
            failures=("synthetic failure",),
            crash="none",
            entries=0,
            redecided=0,
            truncated_bytes=0,
        )

    monkeypatch.setattr(chaos_mod, "run_scenario", fake_run)
    results = chaos_mod.run_campaign(
        [broken], reproducers=tmp_path, verbose=False, salt=3
    )
    assert not results[0].ok
    payload = json.loads((tmp_path / "always-broken.json").read_text())
    assert payload["failures"] == ["synthetic failure"]
    assert "--rotate 3" in payload["repro"]
