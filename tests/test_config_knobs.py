"""Knob regrowth guards: every config field and constructor option has a user.

Each of :class:`ServiceConfig` and :class:`SweepConfig` ends its
docstring with one bullet per field, ``* ``field``: <users>``, naming the
committed data point that sets the field off its default: a chaos
scenario, an e2e workload of ``BENCHMARK.json``, a committed table (an
experiment id), an option of ``python -m repro.experiments`` or a script
under ``tools/``.  A field without such a user is a knob to delete, not
to document.

The constructors on the decision path (:class:`QoSArbitrator`,
:class:`GreedyScheduler`, :class:`MalleableScheduler`, :class:`QoSAgent`)
and :class:`ExperimentRunner` get the same rule from the call sites:
every optional parameter is passed by keyword somewhere in ``src/``,
``tools/``, ``examples/`` or ``benchmarks/``.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import repro.core.baselines  # noqa: F401 - defines scheduler subclasses
from repro.core.arbitrator import QoSArbitrator
from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler
from repro.experiments.__main__ import _build_parser
from repro.qos.agent import QoSAgent
from repro.experiments.registry import EXPERIMENTS
from repro.runner import ExperimentRunner
from repro.service.chaos import SCENARIOS
from repro.service.service import ServiceConfig
from repro.workloads.sweep import SweepConfig

ROOT = Path(__file__).resolve().parents[1]

_BULLET = re.compile(r"^\s*\* ``(\w+)``:(.*?)(?=^\s*\* ``|\Z)", re.M | re.S)


def _known_users() -> set[str]:
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    flags = {
        flag for action in _build_parser()._actions for flag in action.option_strings
    }
    tools = {f"tools/{p.name}" for p in (ROOT / "tools").glob("*.py")}
    return (
        {s.name for s in SCENARIOS}
        | {w["name"] for w in workloads}
        | set(EXPERIMENTS)
        | flags
        | tools
    )


def _bullets(cls) -> dict[str, list[str]]:
    return {
        name: re.findall(r"``([^`]+)``", body)
        for name, body in _BULLET.findall(cls.__doc__ or "")
    }


@pytest.mark.parametrize(
    "cls", [ServiceConfig, SweepConfig], ids=lambda c: c.__name__
)
def test_every_config_field_names_its_non_default_user(cls):
    bullets = _bullets(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    assert list(bullets) == list(fields), "one bullet per field, in field order"
    known = _known_users()
    for name, users in bullets.items():
        field = fields[name]
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        if required:
            continue
        assert users, f"{cls.__name__}.{name} names no user"
        unknown = [u for u in users if u not in known]
        assert not unknown, f"{cls.__name__}.{name} names unknown users {unknown}"


def test_a_chaos_scenario_named_for_a_service_field_sets_it():
    by_name = {s.name: s for s in SCENARIOS}
    defaults = ServiceConfig(capacity=8)
    for name, users in _bullets(ServiceConfig).items():
        for user in users:
            if user in by_name:
                config = by_name[user].config(8)
                assert getattr(config, name) != getattr(defaults, name), (name, user)


def _with_subclasses(cls) -> set[str]:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _with_subclasses(sub)
    return names


def _keywords_passed(class_names: set[str]) -> set[str]:
    """Every keyword passed by name to a call of one of ``class_names``."""
    passed: set[str] = set()
    for top in ("src", "tools", "examples", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in class_names:
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


@pytest.mark.parametrize(
    "cls",
    [QoSArbitrator, GreedyScheduler, MalleableScheduler, QoSAgent, ExperimentRunner],
    ids=lambda c: c.__name__,
)
def test_every_constructor_option_is_passed_by_some_caller(cls):
    params = inspect.signature(cls.__init__).parameters.values()
    optional = [p.name for p in params if p.default is not inspect.Parameter.empty]
    passed = _keywords_passed(_with_subclasses(cls))
    unused = [name for name in optional if name not in passed]
    assert not unused, f"{cls.__name__} options no caller passes: {unused}"
