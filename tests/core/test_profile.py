"""Unit tests for the availability profile."""

import math

import pytest

from repro.core.arbitrator import QoSArbitrator
from repro.core.profile import PROFILE_BACKENDS, AvailabilityProfile
from repro.errors import CapacityExceededError, ConfigurationError, SchedulingError


class TestConstruction:
    def test_fresh_profile_fully_available(self):
        p = AvailabilityProfile(4)
        assert p.capacity == 4
        assert p.available_at(0) == 4
        assert p.available_at(1e9) == 4

    def test_origin(self):
        p = AvailabilityProfile(2, origin=5.0)
        assert p.origin == 5.0
        assert p.available_at(5.0) == 2

    def test_query_before_origin_rejected(self):
        p = AvailabilityProfile(2, origin=5.0)
        with pytest.raises(SchedulingError):
            p.available_at(4.0)

    def test_invalid_capacity(self):
        for cap in (0, -1, 2.5, True):
            with pytest.raises(ConfigurationError):
                AvailabilityProfile(cap)  # type: ignore[arg-type]

    def test_invalid_origin(self):
        with pytest.raises(ConfigurationError):
            AvailabilityProfile(2, origin=math.inf)

    def test_from_segments(self):
        p = AvailabilityProfile.from_segments(4, [(0.0, 4), (5.0, 1), (10.0, 3)])
        assert p.available_at(2) == 4
        assert p.available_at(5) == 1
        assert p.available_at(12) == 3
        p.check_invariants()

    def test_from_segments_canonicalizes(self):
        p = AvailabilityProfile.from_segments(4, [(0.0, 2), (5.0, 2), (10.0, 3)])
        assert len(p) == 2  # the equal 2,2 segments merge

    def test_from_segments_rejects_disorder(self):
        with pytest.raises(ConfigurationError):
            AvailabilityProfile.from_segments(4, [(5.0, 1), (0.0, 2)])

    def test_from_segments_rejects_nan_breakpoint(self):
        # nan <= prev is false: a plain ordering test lets it through and
        # builds a profile bisect cannot search.
        with pytest.raises(ConfigurationError):
            AvailabilityProfile.from_segments(
                8, [(0, 8), (float("nan"), 3), (5, 2)]
            )

    def test_from_segments_rejects_infinite_breakpoint(self):
        with pytest.raises(ConfigurationError):
            AvailabilityProfile.from_segments(8, [(0, 8), (float("inf"), 3)])

    def test_from_segments_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            AvailabilityProfile.from_segments(4, [(0.0, 5)])


@pytest.mark.parametrize("name", ("vector", "tree", "adaptive", "kernel"))
@pytest.mark.parametrize(
    "build",
    (lambda name: QoSArbitrator(8, backend=name),),
    ids=("arbitrator",),
)
def test_deleted_backend_names_are_rejected_at_construction(build, name):
    """A stale name in a deployed config fails where the config is built,
    with a message that lists what is still valid."""
    with pytest.raises(ConfigurationError) as err:
        build(name)
    for valid in PROFILE_BACKENDS:
        assert repr(valid) in str(err.value)


class TestReserve:
    def test_basic_reserve(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 6.0, 3)
        assert p.available_at(0) == 4
        assert p.available_at(2) == 1
        assert p.available_at(5.999) == 1
        assert p.available_at(6) == 4
        p.check_invariants()

    def test_nested_reserves(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 1)
        p.reserve(2.0, 4.0, 2)
        assert p.available_at(1) == 3
        assert p.available_at(3) == 1
        assert p.available_at(5) == 3
        p.check_invariants()

    def test_overcommit_rejected_and_profile_unchanged(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 3)
        snapshot = p.copy()
        with pytest.raises(CapacityExceededError):
            p.reserve(5.0, 15.0, 2)
        assert p == snapshot

    def test_exact_fill(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 5.0, 4)
        assert p.available_at(2) == 0
        with pytest.raises(CapacityExceededError):
            p.reserve(4.0, 6.0, 1)

    def test_zero_length_interval_rejected(self):
        p = AvailabilityProfile(4)
        with pytest.raises(SchedulingError):
            p.reserve(1.0, 1.0, 1)

    def test_inverted_interval_rejected(self):
        p = AvailabilityProfile(4)
        with pytest.raises(SchedulingError):
            p.reserve(2.0, 1.0, 1)

    def test_infinite_end_rejected(self):
        p = AvailabilityProfile(4)
        with pytest.raises(SchedulingError):
            p.reserve(0.0, math.inf, 1)

    def test_nonpositive_processors_rejected(self):
        p = AvailabilityProfile(4)
        with pytest.raises(SchedulingError):
            p.reserve(0.0, 1.0, 0)

    def test_release_roundtrip(self):
        p = AvailabilityProfile(4)
        fresh = p.copy()
        p.reserve(1.0, 9.0, 2)
        p.reserve(3.0, 5.0, 1)
        p.release(3.0, 5.0, 1)
        p.release(1.0, 9.0, 2)
        assert p == fresh
        p.check_invariants()

    def test_release_beyond_capacity_rejected(self):
        p = AvailabilityProfile(4)
        with pytest.raises(CapacityExceededError):
            p.release(0.0, 1.0, 1)


class TestQueries:
    def test_min_available(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 4.0, 3)
        assert p.min_available(0.0, 2.0) == 4
        assert p.min_available(0.0, 3.0) == 1
        assert p.min_available(2.0, 4.0) == 1
        assert p.min_available(4.0, 10.0) == 4

    def test_min_available_right_open(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 4.0, 3)
        # [0, 2) excludes the reservation entirely.
        assert p.min_available(0.0, 2.0) == 4

    def test_min_available_degenerate(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 4.0, 1)
        assert p.min_available(3.0, 3.0) == 3

    def test_free_area(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 6.0, 3)
        assert p.free_area(0.0, 8.0) == pytest.approx(2 * 4 + 4 * 1 + 2 * 4)

    def test_free_area_empty_window(self):
        p = AvailabilityProfile(4)
        assert p.free_area(5.0, 5.0) == 0.0
        assert p.free_area(5.0, 3.0) == 0.0

    def test_free_area_requires_finite_bound(self):
        p = AvailabilityProfile(4)
        with pytest.raises(SchedulingError):
            p.free_area(0.0, math.inf)

    def test_busy_area(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 1)
        assert p.busy_area(0.0, 10.0) == pytest.approx(10.0)
        assert p.busy_area(0.0, 20.0) == pytest.approx(10.0)

    def test_segments_iteration(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 4.0, 2)
        segs = list(p.segments())
        assert segs[0] == (0.0, 2.0, 4)
        assert segs[1] == (2.0, 4.0, 2)
        assert segs[-1][1] == math.inf


class TestCompact:
    def test_compact_drops_history(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 2.0, 1)
        p.reserve(4.0, 8.0, 2)
        p.compact(5.0)
        assert p.origin == 5.0
        assert p.available_at(5.0) == 2
        assert p.available_at(8.0) == 4
        p.check_invariants()

    def test_compact_noop_before_origin(self):
        p = AvailabilityProfile(4)
        p.reserve(1.0, 2.0, 1)
        before = p.copy()
        p.compact(0.0)
        assert p == before

    def test_compact_preserves_future_availability(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 1)
        p.reserve(5.0, 15.0, 2)
        q = p.copy()
        p.compact(7.0)
        for t in (7.0, 9.0, 12.0, 20.0):
            assert p.available_at(t) == q.available_at(t)

    def test_compact_at_breakpoint(self):
        p = AvailabilityProfile(4)
        p.reserve(2.0, 4.0, 1)
        p.compact(4.0)
        assert p.origin == 4.0
        assert p.available_at(4.0) == 4


class TestDunder:
    def test_copy_independent(self):
        p = AvailabilityProfile(4)
        q = p.copy()
        q.reserve(0.0, 1.0, 1)
        assert p.available_at(0.5) == 4

    def test_eq_other_type(self):
        assert AvailabilityProfile(2).__eq__(42) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(AvailabilityProfile(2))

    def test_repr_contains_capacity(self):
        assert "capacity=3" in repr(AvailabilityProfile(3))
