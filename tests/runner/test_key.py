"""Unit-key hashing: determinism, round-trips, field sensitivity."""

from dataclasses import replace

import pytest

from repro.core.malleable import MalleableStrategy
from repro.core.policies import TieBreakPolicy
from repro.errors import ConfigurationError
from repro.resilience.events import FaultModel
from repro.resilience.reconfig import ResizePolicy
from repro.runner import sweep_config_from_dict, sweep_config_to_dict, unit_key
from repro.workloads.sweep import SweepConfig


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = SweepConfig()
        assert sweep_config_from_dict(sweep_config_to_dict(cfg)) == cfg

    def test_nondefault_round_trip(self):
        cfg = SweepConfig(
            processors=48,
            interval=12.5,
            n_jobs=777,
            seed=31,
            malleable=True,
            strategy=MalleableStrategy.EARLIEST_FINISH,
            policy=TieBreakPolicy.PREFIX,
        )
        back = sweep_config_from_dict(sweep_config_to_dict(cfg))
        assert back == cfg
        assert back.strategy is MalleableStrategy.EARLIEST_FINISH
        assert back.policy is TieBreakPolicy.PREFIX

    def test_json_survives_params(self):
        cfg = replace(SweepConfig(), params=SweepConfig().params.with_alpha(0.25))
        assert sweep_config_from_dict(sweep_config_to_dict(cfg)) == cfg

    def test_faults_round_trip(self):
        cfg = replace(
            SweepConfig(),
            faults=FaultModel(
                fault_rate=3e-4,
                fault_severity=0.375,
                mean_repair=250.0,
                overrun_prob=0.1,
                overrun_excess=0.4,
                burst_rate=1e-4,
                burst_size=3,
            ),
        )
        back = sweep_config_from_dict(sweep_config_to_dict(cfg))
        assert back == cfg
        assert back.faults == cfg.faults

    def test_no_faults_round_trips_as_none(self):
        back = sweep_config_from_dict(sweep_config_to_dict(SweepConfig()))
        assert back.faults is None

    def test_malformed_payload_raises(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            sweep_config_from_dict({"processors": 4})

    def test_resize_fields_round_trip(self):
        cfg = SweepConfig(
            malleable=True,
            resize_policy=ResizePolicy.GROW_SHRINK,
            reconfig_cost=2.5,
        )
        back = sweep_config_from_dict(sweep_config_to_dict(cfg))
        assert back == cfg
        assert back.resize_policy is ResizePolicy.GROW_SHRINK
        assert back.reconfig_cost == 2.5

    def test_pre_v3_payload_defaults_resize_off(self):
        """Configs serialized before the resize fields still deserialize."""
        payload = sweep_config_to_dict(SweepConfig())
        for legacy_absent in ("resize_policy", "reconfig_cost"):
            del payload[legacy_absent]
        back = sweep_config_from_dict(payload)
        assert back == SweepConfig()
        assert back.resize_policy is ResizePolicy.OFF
        assert not back.resizing

    def test_keys_of_dropped_fields_are_ignored(self):
        """A v5 payload (the committed corpus) still names fields that left
        SweepConfig; it decodes to the config without them."""
        payload = sweep_config_to_dict(SweepConfig())
        payload.update(
            verify=True, reconfig_cost_per_proc=0.0, backend="auto", prune=True
        )
        assert sweep_config_from_dict(payload) == SweepConfig()


class TestUnitKey:
    def test_deterministic(self):
        cfg = SweepConfig()
        assert unit_key(cfg, "tunable") == unit_key(SweepConfig(), "tunable")

    def test_hex_sha256(self):
        key = unit_key(SweepConfig(), "shape1")
        assert len(key) == 64
        int(key, 16)  # hex

    def test_system_changes_key(self):
        cfg = SweepConfig()
        assert unit_key(cfg, "tunable") != unit_key(cfg, "shape1")

    @pytest.mark.parametrize(
        "change",
        [
            {"processors": 32},
            {"interval": 31.0},
            {"n_jobs": 123},
            {"seed": 7},
            {"malleable": True},
            {"strategy": MalleableStrategy.EARLIEST_FINISH},
            {"policy": TieBreakPolicy.FIRST},
            {"faults": FaultModel(fault_rate=1e-4)},
            {"faults": FaultModel(overrun_prob=0.2)},
            {"resize_policy": ResizePolicy.GROW_SHRINK},
            {"reconfig_cost": 2.0},
        ],
    )
    def test_every_config_field_changes_key(self, change):
        base = SweepConfig()
        assert unit_key(base, "tunable") != unit_key(
            replace(base, **change), "tunable"
        )

    @pytest.mark.parametrize(
        "axis,value", [("laxity", 0.3), ("alpha", 0.25), ("fault_rate", 1e-4)]
    )
    def test_params_fields_change_key(self, axis, value):
        base = SweepConfig()
        assert unit_key(base, "tunable") != unit_key(
            base.with_axis(axis, value), "tunable"
        )

    def test_fault_model_fields_change_key(self):
        base = replace(SweepConfig(), faults=FaultModel(fault_rate=1e-4))
        for change in (
            {"fault_severity": 0.5},
            {"mean_repair": 100.0},
            {"overrun_prob": 0.3},
            {"overrun_excess": 0.9},
            {"burst_rate": 2e-4},
            {"burst_size": 8},
        ):
            varied = replace(base, faults=replace(base.faults, **change))
            assert unit_key(base, "tunable") != unit_key(varied, "tunable"), change
