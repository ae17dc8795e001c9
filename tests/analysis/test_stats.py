"""Unit tests for summary statistics."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.analysis.stats import bootstrap_ci, mean_ci, relative_benefit
from repro.errors import ConfigurationError


def test_service_and_runner_imports_load_no_scipy():
    """scipy is for confidence intervals only; a service process or a
    spawned runner worker must not pay for loading it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = "\n".join(
        [
            f"import sys; sys.path.insert(0, {src!r})",
            "import repro, repro.service.service, repro.service.recovery",
            "import repro.runner.worker, repro.workloads.sweep",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestMeanCI:
    def test_single_sample_degenerate(self):
        assert mean_ci([5.0]) == (5.0, 5.0, 5.0)

    def test_constant_samples(self):
        assert mean_ci([2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0)

    def test_interval_contains_mean(self):
        mean, lo, hi = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert lo <= mean <= hi
        assert mean == pytest.approx(2.5)

    def test_wider_at_higher_confidence(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        _, lo95, hi95 = mean_ci(data, 0.95)
        _, lo99, hi99 = mean_ci(data, 0.99)
        assert hi99 - lo99 > hi95 - lo95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_ci([])
        with pytest.raises(ConfigurationError):
            mean_ci([1.0], confidence=1.5)


class TestBootstrapCI:
    def test_single_sample(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0, 3.0)

    def test_contains_mean(self):
        mean, lo, hi = bootstrap_ci([1.0, 2.0, 3.0, 4.0, 5.0], seed=1)
        assert lo <= mean <= hi

    def test_reproducible(self):
        a = bootstrap_ci([1.0, 5.0, 3.0], seed=2)
        b = bootstrap_ci([1.0, 5.0, 3.0], seed=2)
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci([])


class TestRelativeBenefit:
    def test_improvement(self):
        assert relative_benefit(130.0, 100.0) == pytest.approx(0.3)

    def test_regression(self):
        assert relative_benefit(90.0, 100.0) == pytest.approx(-0.1)

    def test_zero_baseline(self):
        assert relative_benefit(0.0, 0.0) == 0.0
        assert math.isinf(relative_benefit(5.0, 0.0))

    @given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
    def test_sign_matches_comparison(self, a, b):
        r = relative_benefit(a, b)
        if a > b:
            assert r > 0
        elif a < b:
            assert r < 0
        else:
            assert r == 0
