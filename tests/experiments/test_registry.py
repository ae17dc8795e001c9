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

    def test_jobs_and_cache_flags(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.runner import get_default_runner
        from repro.workloads.sweep import SweepConfig, run_sweep

        def tiny_sweep():
            sweep = run_sweep("interval", [25.0], SweepConfig(n_jobs=40))
            return f"units={len(sweep.values) * len(sweep.systems)}"

        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_sweep)
        cache_dir = tmp_path / "cache"
        assert main(["tiny", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        assert cache_dir.exists()
        err = capsys.readouterr().err
        assert "[runner]" in err and "cache_misses=3" in err
        # All three units ran in the pool: a dying pool would fall back.
        assert "pool=3" in err and "inline=0" in err
        # Second invocation: warm cache.
        assert main(["tiny", "--cache-dir", str(cache_dir)]) == 0
        assert "cache_hits=3" in capsys.readouterr().err
        # The scoped default runner was restored afterwards.
        assert get_default_runner().cache is None

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.workloads.sweep import SweepConfig, run_sweep

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "tiny",
            lambda: str(
                run_sweep("interval", [25.0], SweepConfig(n_jobs=40)).values
            ),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["tiny", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "cache_hits=0" in err and "cache_misses=0" in err
        assert not (tmp_path / ".repro-cache").exists()
