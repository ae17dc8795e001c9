"""Unit tests for repro.core.resources."""

import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import (
    TIME_LIMIT,
    TIME_STEP,
    ProcessorTimeRequest,
    checked_time,
)
from repro.errors import InvalidJobError, InvalidTaskError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


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

    @pytest.mark.parametrize("duration", [1e-12, TIME_STEP / 2])
    def test_duration_at_or_below_time_eps_rejected(self, duration):
        # Below one TIME_STEP, [t, t + duration) can round to an empty
        # interval near the range limit: such a request could be accepted
        # here and never reserved.
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(4, duration)

    def test_one_step_duration_reserves_a_non_empty_interval_at_the_limit(self):
        t = math.nextafter(TIME_LIMIT, 0.0)
        req = ProcessorTimeRequest(1, TIME_STEP)
        assert -t + req.duration > -t
        assert t - req.duration < t

    @pytest.mark.parametrize("duration", [TIME_LIMIT, 2 * TIME_LIMIT])
    def test_duration_beyond_the_range_rejected(self, duration):
        with pytest.raises(InvalidTaskError):
            ProcessorTimeRequest(1, duration)

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

    def test_frozen(self):
        req = ProcessorTimeRequest(1, 1.0)
        with pytest.raises(AttributeError):
            req.processors = 2  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert ProcessorTimeRequest(2, 3.0) == ProcessorTimeRequest(2, 3.0)
        assert hash(ProcessorTimeRequest(2, 3.0)) == hash(ProcessorTimeRequest(2, 3.0))
        assert ProcessorTimeRequest(2, 3.0) != ProcessorTimeRequest(3, 2.0)


class TestCheckedTime:
    """The one gate every model time passes where it enters the model."""

    def test_in_range_values_come_back_as_the_same_float(self):
        for t in (0.0, -0.0, 0.1, -3.5, math.nextafter(TIME_LIMIT, 0.0)):
            got = checked_time(t, "t", InvalidJobError)
            assert type(got) is float and got == t

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, TIME_LIMIT, -TIME_LIMIT]
    )
    def test_hostile_values_raise_the_named_error(self, value):
        with pytest.raises(InvalidJobError):
            checked_time(value, "t", InvalidJobError)

    def test_inf_only_where_allowed(self):
        assert checked_time(math.inf, "t", InvalidTaskError, allow_inf=True) == math.inf
        for value in (-math.inf, math.nan):
            with pytest.raises(InvalidTaskError):
                checked_time(value, "t", InvalidTaskError, allow_inf=True)

    def test_numpy_float32_becomes_binary64(self):
        np = pytest.importorskip("numpy")
        got = checked_time(np.float32(0.1), "t", InvalidJobError)
        assert type(got) is float and got == float(np.float32(0.1))
