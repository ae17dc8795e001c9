"""Unit tests for maximal-hole enumeration."""

import math

import pytest

from repro.core.first_fit import earliest_fit
from repro.core.holes import (
    MaximalHole,
    first_fit_via_holes,
    holes_containing,
    maximal_holes,
)
from repro.core.profile import AvailabilityProfile
from repro.core.resources import TIME_STEP


class TestMaximalHole:
    def test_duration_and_area(self):
        h = MaximalHole(2.0, 6.0, 3)
        assert h.duration == 4.0
        assert h.area == 12.0

    def test_infinite_hole(self):
        h = MaximalHole(0.0, math.inf, 2)
        assert math.isinf(h.duration)
        assert math.isinf(h.area)

    def test_contains(self):
        big = MaximalHole(0.0, 10.0, 4)
        assert big.contains(MaximalHole(2.0, 8.0, 2))
        assert big.contains(big)
        assert not big.contains(MaximalHole(2.0, 12.0, 2))
        assert not big.contains(MaximalHole(2.0, 8.0, 5))

    def test_fits(self):
        h = MaximalHole(5.0, 15.0, 3)
        assert h.fits(3, 10.0)
        assert not h.fits(4, 1.0)
        assert not h.fits(1, 11.0)
        assert h.fits(1, 5.0, release=8.0)
        assert not h.fits(1, 8.0, release=8.0)
        assert not h.fits(1, 5.0, release=8.0, deadline=12.0)


class TestEnumeration:
    def test_fresh_profile_single_hole(self):
        p = AvailabilityProfile(4)
        holes = maximal_holes(p)
        assert holes == [MaximalHole(0.0, math.inf, 4)]

    def test_single_reservation(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 2)
        holes = maximal_holes(p, horizon=20.0)
        assert MaximalHole(0.0, 20.0, 2) in holes
        assert MaximalHole(10.0, 20.0, 4) in holes
        assert len(holes) == 2

    def test_staircase(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 30.0, 1)  # avail 3 on [0,30)
        p.reserve(0.0, 20.0, 1)  # avail 2 on [0,20)
        p.reserve(0.0, 10.0, 1)  # avail 1 on [0,10)
        holes = maximal_holes(p, horizon=40.0)
        expected = {
            MaximalHole(0.0, 40.0, 1),
            MaximalHole(10.0, 40.0, 2),
            MaximalHole(20.0, 40.0, 3),
            MaximalHole(30.0, 40.0, 4),
        }
        assert set(holes) == expected

    def test_full_segment_creates_no_hole(self):
        p = AvailabilityProfile(2)
        p.reserve(5.0, 10.0, 2)
        holes = maximal_holes(p, horizon=20.0)
        assert all(not (h.t_b >= 5.0 and h.t_e <= 10.0) for h in holes)
        assert MaximalHole(0.0, 5.0, 2) in holes
        assert MaximalHole(10.0, 20.0, 2) in holes

    def test_no_nesting(self):
        p = AvailabilityProfile(6)
        p.reserve(0.0, 4.0, 3)
        p.reserve(8.0, 12.0, 5)
        p.reserve(2.0, 10.0, 1)
        holes = maximal_holes(p, horizon=30.0)
        for a in holes:
            for b in holes:
                assert a == b or not a.contains(b)

    def test_sorted_output(self):
        p = AvailabilityProfile(4)
        p.reserve(3.0, 7.0, 2)
        p.reserve(10.0, 11.0, 4)
        holes = maximal_holes(p, horizon=20.0)
        assert holes == sorted(holes)


class TestQueries:
    def test_holes_containing(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 2)
        holes = maximal_holes(p, horizon=20.0)
        at5 = holes_containing(holes, 5.0)
        assert all(h.t_b <= 5.0 < h.t_e for h in at5)
        assert holes_containing(holes, 5.0, processors=4) == []

    def test_first_fit_via_holes_matches_simple_case(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 10.0, 3)
        holes = maximal_holes(p)
        assert first_fit_via_holes(holes, 2, 5.0, 0.0) == 10.0
        assert first_fit_via_holes(holes, 1, 5.0, 0.0) == 0.0
        assert first_fit_via_holes(holes, 2, 5.0, 0.0, deadline=8.0) is None
        assert first_fit_via_holes(holes, 5, 1.0, 0.0) is None


class TestEpsilonBoundaries:
    """Pin the exact edges (see the holes module docstring).

    These are the boundaries a time tolerance used to blur.  Now one
    :data:`~repro.core.resources.TIME_STEP` past an edge is past it: a
    task may not overrun a hole's end or its deadline at all, and a query
    instant is inside ``[t_b, t_e)`` exactly when the comparison says so.
    """

    @staticmethod
    def hole_profile():
        # Segments [0,10):4, [10,20):2, [20,inf):4 -- a height-4 hole
        # ending exactly at t=10.
        p = AvailabilityProfile(4)
        p.reserve(10.0, 20.0, 2)
        return p

    def test_fits_at_hole_end(self):
        h = MaximalHole(0.0, 10.0, 4)
        assert h.fits(3, 10.0)  # finish lands exactly on t_e
        assert h.fits(3, 10.0 - TIME_STEP)
        assert not h.fits(3, 10.0 + TIME_STEP)  # one step beyond

    def test_earliest_fit_at_hole_end(self):
        p = self.hole_profile()
        assert earliest_fit(p, 3, 10.0, 0.0) == 0.0
        assert earliest_fit(p, 3, 10.0 - TIME_STEP, 0.0) == 0.0
        # One step past the edge: the placement slides to the next hole.
        assert earliest_fit(p, 3, 10.0 + TIME_STEP, 0.0) == 20.0

    def test_oracle_and_search_agree_at_the_edge(self):
        p = self.hole_profile()
        holes = maximal_holes(p)
        for duration in (10.0, 10.0 - TIME_STEP, 10.0 + TIME_STEP):
            assert first_fit_via_holes(holes, 3, duration, 0.0) == earliest_fit(
                p, 3, duration, 0.0
            )

    def test_deadline_at_hole_end(self):
        p = self.hole_profile()
        assert earliest_fit(p, 3, 10.0, 0.0, deadline=10.0) == 0.0
        assert earliest_fit(p, 3, 10.0, 0.0, deadline=10.0 + TIME_STEP) == 0.0
        # A deadline one step before the finish is late, and no later
        # start can help.
        assert earliest_fit(p, 3, 10.0, 0.0, deadline=10.0 - TIME_STEP) is None

    def test_holes_containing_right_edge(self):
        holes = [MaximalHole(0.0, 10.0, 4)]
        assert holes_containing(holes, 10.0) == []  # t_e itself (right-open)
        assert holes_containing(holes, 10.0 - TIME_STEP) == holes

    def test_holes_containing_left_edge(self):
        holes = [MaximalHole(0.0, 10.0, 4)]
        assert holes_containing(holes, 0.0) == holes  # t_b itself (inclusive)
        assert holes_containing(holes, -TIME_STEP) == []
