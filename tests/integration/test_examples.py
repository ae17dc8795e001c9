"""Smoke tests: every shipped example must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "ADMITTED" in out
        assert "utilization" in out

    def test_tunable_vs_rigid(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        out = run_example("tunable_vs_rigid.py")
        assert "tunable" in out and "shape1" in out

    def test_junction_detection(self):
        out = run_example("junction_detection.py")
        assert "granted granularity" in out
        assert "idle machine" in out and "loaded machine" in out

    def test_video_pipeline(self):
        out = run_example("video_pipeline.py")
        assert "on-time" in out

    def test_calypso_fault_masking(self):
        out = run_example("calypso_fault_masking.py")
        assert out.count("True") >= 4  # every fault level commits correctly

    def test_renegotiation(self):
        out = run_example("renegotiation.py")
        assert "capacity drops" in out
        assert "switched" in out

    def test_adaptive_refinement(self):
        out = run_example("adaptive_refinement.py")
        assert "MAX_QUALITY" in out
        assert "granted grid 64^2" in out
        assert "granted grid 32^2" in out

    def test_gantt_export(self):
        out = run_example("gantt_export.py")
        assert "wrote" in out and "schedule.svg" in out
