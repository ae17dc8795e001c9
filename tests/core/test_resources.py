"""Unit tests for repro.core.resources."""

import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import (
    TIME_EPS,
    ProcessorTimeRequest,
    time_eq,
    time_geq,
    time_leq,
    time_lt,
)
from repro.errors import InvalidTaskError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


class TestTimeComparisons:
    def test_equal_values(self):
        assert time_eq(1.0, 1.0)

    def test_within_epsilon(self):
        assert time_eq(1.0, 1.0 + TIME_EPS / 2)

    def test_beyond_epsilon(self):
        assert not time_eq(1.0, 1.0 + 10 * TIME_EPS)

    def test_infinities_equal(self):
        assert time_eq(math.inf, math.inf)

    def test_leq_strict(self):
        assert time_leq(1.0, 2.0)
        assert not time_leq(2.0, 1.0)

    def test_leq_tolerant(self):
        assert time_leq(1.0 + TIME_EPS / 2, 1.0)

    def test_lt_requires_gap(self):
        assert time_lt(1.0, 2.0)
        assert not time_lt(1.0, 1.0 + TIME_EPS / 2)

    def test_geq(self):
        assert time_geq(2.0, 1.0)
        assert time_geq(1.0, 1.0 + TIME_EPS / 2)
        assert not time_geq(1.0, 2.0)


class TestProcessorTimeRequest:
    def test_basic_construction(self):
        req = ProcessorTimeRequest(4, 2.5)
        assert req.processors == 4
        assert req.duration == 2.5

    def test_area(self):
        assert ProcessorTimeRequest(4, 2.5).area == 10.0

    def test_zero_processors_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(0, 1.0)

    def test_negative_processors_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(-2, 1.0)

    def test_bool_processors_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(True, 1.0)

    def test_float_processors_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(2.0, 1.0)  # type: ignore[arg-type]

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(1, 0.0)

    @pytest.mark.parametrize("duration", [1e-12, TIME_EPS])
    def test_duration_at_or_below_time_eps_rejected(self, duration):
        # The profile treats [t, t + TIME_EPS] as empty: such a request
        # could be accepted here and never reserved.
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(4, duration)

    def test_duration_just_above_time_eps_is_decided_by_both_paths(self):
        def job(duration):
            task = TaskSpec("t", ProcessorTimeRequest(4, duration), deadline=10.0)
            return Job(chains=(TaskChain((task,)),), release=0.0)

        runs = []
        for backend in ("auto", "scalar"):
            arb = QoSArbitrator(16, backend=backend)
            placed = [arb.submit(job(d)).placement for d in (2e-9, 1.0)]
            spans = [(p.start, p.end) for cp in placed for p in cp.placements]
            runs.append((spans, list(arb.schedule.profile.segments())))
        assert runs[0] == runs[1]
        assert runs[0][0] == [(0.0, 2e-9), (0.0, 1.0)]

    def test_infinite_duration_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(1, math.inf)

    def test_nan_duration_rejected(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(1, math.nan)

    def test_scaled_to_preserves_area(self):
        req = ProcessorTimeRequest(8, 3.0)
        for p in (1, 2, 4, 8, 16):
            scaled = req.scaled_to(p)
            assert scaled.processors == p
            assert scaled.area == pytest.approx(req.area)

    def test_scaled_to_invalid(self):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(4, 1.0).scaled_to(0)

    def test_frozen(self):
        req = ProcessorTimeRequest(1, 1.0)
        with pytest.raises(AttributeError):
            req.processors = 2  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert ProcessorTimeRequest(2, 3.0) == ProcessorTimeRequest(2, 3.0)
        assert hash(ProcessorTimeRequest(2, 3.0)) == hash(ProcessorTimeRequest(2, 3.0))
        assert ProcessorTimeRequest(2, 3.0) != ProcessorTimeRequest(3, 2.0)
