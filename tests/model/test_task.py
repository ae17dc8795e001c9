"""Unit tests for TaskSpec."""

import math

import pytest

from repro.core.resources import TIME_LIMIT, ProcessorTimeRequest
from repro.errors import InvalidTaskError
from repro.model.task import TaskSpec


def spec(**kw):
    defaults = dict(
        name="t", request=ProcessorTimeRequest(4, 2.0), deadline=10.0
    )
    defaults.update(kw)
    return TaskSpec(**defaults)


class TestValidation:
    def test_basic(self):
        t = spec()
        assert t.processors == 4
        assert t.duration == 2.0
        assert t.area == 8.0
        assert t.max_concurrency == 4  # defaults to rigid width

    def test_empty_name(self):
        with pytest.raises(InvalidTaskError):
            spec(name="")

    def test_nonpositive_deadline(self):
        with pytest.raises(InvalidTaskError):
            spec(deadline=0.0)
        with pytest.raises(InvalidTaskError):
            spec(deadline=-5.0)

    def test_nan_deadline(self):
        with pytest.raises(InvalidTaskError):
            spec(deadline=math.nan)

    def test_infinite_deadline_allowed(self):
        assert spec(deadline=math.inf).deadline == math.inf

    @pytest.mark.parametrize("deadline", [-math.inf, TIME_LIMIT, 2.0**60])
    def test_deadline_outside_the_time_range(self, deadline):
        with pytest.raises(InvalidTaskError):
            spec(deadline=deadline)

    def test_negative_quality(self):
        with pytest.raises(InvalidTaskError):
            spec(quality=-0.1)

    def test_concurrency_below_width(self):
        with pytest.raises(InvalidTaskError):
            spec(max_concurrency=2)

    def test_concurrency_above_width(self):
        assert spec(max_concurrency=16).max_concurrency == 16


class TestTransforms:
    def test_with_deadline(self):
        t = spec().with_deadline(42.0)
        assert t.deadline == 42.0
        assert t.name == "t"

    def test_with_quality(self):
        assert spec().with_quality(0.5).quality == 0.5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            spec().name = "other"  # type: ignore[misc]

    def test_str(self):
        assert "t(" in str(spec())
