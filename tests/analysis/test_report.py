"""Unit tests for the JSON archive of a sweep."""

import json

import pytest

from repro.analysis.report import sweep_from_json_summary, sweep_to_json
from repro.errors import ConfigurationError
from repro.workloads.sweep import SweepConfig, run_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_sweep("interval", [20.0, 50.0], SweepConfig(n_jobs=50, seed=5))


class TestJsonRoundTrip:
    def test_roundtrip_validates(self, sweep):
        text = sweep_to_json(sweep)
        payload = sweep_from_json_summary(text)
        assert payload["axis"] == "interval"
        assert payload["config"]["n_jobs"] == 50
        assert set(payload["systems"]) == set(sweep.systems)

    def test_metrics_content(self, sweep):
        payload = sweep_from_json_summary(sweep_to_json(sweep))
        bucket = payload["metrics"]["20"]
        assert bucket["tunable"]["offered"] == 50

    def test_missing_key_rejected(self, sweep):
        payload = json.loads(sweep_to_json(sweep))
        del payload["metrics"]
        with pytest.raises(ConfigurationError):
            sweep_from_json_summary(json.dumps(payload))

    def test_missing_system_rejected(self, sweep):
        payload = json.loads(sweep_to_json(sweep))
        del payload["metrics"]["20"]["shape1"]
        with pytest.raises(ConfigurationError):
            sweep_from_json_summary(json.dumps(payload))
