"""Unit tests for the experiment registry and CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main


class TestRegistry:
    def test_all_figures_registered(self):
        for exp_id in ("fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig2"):
            assert exp_id in EXPERIMENTS

    def test_ablations_registered(self):
        assert any(k.startswith("ablation-") for k in EXPERIMENTS)

    def test_extensions_registered(self):
        for exp_id in ("best-effort", "quality", "survival"):
            assert exp_id in EXPERIMENTS

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("fig99")

    def test_fig2_runs(self):
        report = run_experiment("fig2")
        assert "granularity" in report
        assert "fine" in report and "coarse" in report


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out

    def test_run_one(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "=== fig2 ===" in out

    def test_unknown_id_clean_error(self, capsys):
        assert main(["fig99", "fig2"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment id(s): fig99" in captured.err
        assert "known ids:" in captured.err
        assert "fig5a" in captured.err
        # Nothing ran: ids are validated up front.
        assert "=== fig2 ===" not in captured.out

    def test_unknown_id_lists_all_bad_ids(self, capsys):
        assert main(["nope", "also-nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "also-nope" in err

    def test_full_scale_flag(self, monkeypatch, capsys):
        from repro.experiments import registry
        from repro.workloads import presets

        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        calls = {}

        def fake_runner():
            calls["full"] = presets.full_scale()
            return "ok"

        monkeypatch.setitem(registry.EXPERIMENTS, "fake", fake_runner)
        assert main(["--full-scale", "fake"]) == 0
        assert calls["full"] is True
        # The flag is scoped to the invocation, not leaked into the env.
        assert not presets.full_scale()

    def test_jobs_flag_and_every_invocation_runs_every_unit(
        self, capsys, monkeypatch
    ):
        from repro.experiments import registry
        from repro.runner import get_default_runner
        from repro.workloads.sweep import SweepConfig, run_sweep

        def tiny_sweep():
            sweep = run_sweep("interval", [25.0], SweepConfig(n_jobs=40))
            return f"units={len(sweep.values) * len(sweep.systems)}"

        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_sweep)
        assert main(["tiny", "--jobs", "2"]) == 0
        err = capsys.readouterr().err
        assert "[runner] units=3 reused=0" in err
        # All three units ran in the pool: a dying pool would fall back.
        assert "pool=3" in err and "inline=0" in err
        # Second invocation: nothing is remembered across invocations.
        assert main(["tiny"]) == 0
        assert "units=3 reused=0 pool=0 inline=3" in capsys.readouterr().err
        # The scoped runner was uninstalled afterwards.
        assert get_default_runner() is not get_default_runner()

    def test_runner_line_names_pool_failures_and_the_decider(
        self, capsys, monkeypatch
    ):
        import repro.runner.core as runner_core
        from repro.core import kernels
        from repro.experiments import registry
        from repro.runner.worker import _crashing_chunk
        from repro.workloads.sweep import SweepConfig, run_sweep

        def tiny_sweep():
            sweep = run_sweep("interval", [25.0], SweepConfig(n_jobs=40))
            return str(sweep.values)

        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_sweep)
        monkeypatch.setattr(runner_core, "run_unit_chunk", _crashing_chunk)
        assert main(["tiny", "--jobs", "2"]) == 0
        err = capsys.readouterr().err
        line = next(ln for ln in err.splitlines() if ln.startswith("[runner]"))
        assert "pool=0 inline=3" in line
        assert "pool_chunk_failures=" in line and "pool_fallback_units=3" in line
        assert "pool_chunk_failures=0" not in line
        assert line.endswith(f"kernel={kernels.kernel_backend()}")
        # A run whose pool held names no failure.
        monkeypatch.undo()
        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_sweep)
        assert main(["tiny"]) == 0
        assert "pool_chunk_failures" not in capsys.readouterr().err

    def test_a_run_writes_no_file(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.workloads.sweep import SweepConfig, run_sweep

        def tiny_sweep():
            # One experiment asking twice: the invocation's runner answers
            # the repeat from memory.
            for _ in range(2):
                sweep = run_sweep("interval", [25.0], SweepConfig(n_jobs=40))
            return str(sweep.values)

        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_sweep)
        monkeypatch.chdir(tmp_path)
        assert main(["tiny"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "units=6 reused=3" in capsys.readouterr().err
