"""Unit tests for the hot-path instrumentation layer (:mod:`repro.perf`).

Includes the complexity regression the optimized profile must uphold: the
per-operation *touched-segment* window must track the operation's locality,
not the total segment count (satellite of the windowed-rewrite work).
"""

from __future__ import annotations

import math

import pytest

from repro.core.first_fit import earliest_fit
from repro.core.profile import AvailabilityProfile
from repro.core.schedule import Schedule
from repro.perf import PerfRecorder, ProfileStats, percentile


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_extremes(self):
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_nearest_rank_median(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_p95_of_hundred(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 95) == 95.0

    def test_rank_rounds_up_not_to_even(self):
        # ceil(q·n/100): 2.5 -> 3rd and 28.5 -> 29th, where round-half-even
        # picks the 2nd and the 28th.
        assert percentile([1, 2, 3, 4, 5], 50) == 3
        assert percentile(list(range(1, 31)), 95) == 29

    def test_rank_is_computed_from_q_times_n(self):
        # (7 / 100) * 100 is 7.000000000000001, which would ceil to the 8th.
        assert percentile(list(range(1, 101)), 7) == 7


class TestProfileStats:
    def test_reset_and_as_dict(self):
        stats = ProfileStats()
        stats.shift_ops += 3
        stats.probes += 1
        d = stats.as_dict()
        assert d["shift_ops"] == 3 and d["probes"] == 1
        stats.reset()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_profile_bumps_counters(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 5.0, 2)
        p.release(0.0, 5.0, 2)
        assert p.stats.shift_ops == 2
        assert p.stats.segments_touched >= 2
        earliest_fit(p, 2, 1.0, 0.0)
        assert p.stats.probes == 1
        assert p.stats.probe_segments >= 1

    def test_prefix_rebuilt_once_per_mutation(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 5.0, 2)
        for _ in range(5):
            p.free_area(0.0, 10.0)
        assert p.stats.prefix_rebuilds == 1  # burst served from the cache
        p.reserve(20.0, 25.0, 1)  # invalidates
        p.free_area(0.0, 30.0)
        assert p.stats.prefix_rebuilds == 2

    def test_copy_resets_stats(self):
        p = AvailabilityProfile(4)
        p.reserve(0.0, 5.0, 2)
        q = p.copy()
        assert q.stats.shift_ops == 0 and p.stats.shift_ops == 1


class TestTouchedSegmentsLocality:
    """The windowed rewrite touches O(window), not O(total segments)."""

    @staticmethod
    def fragmented(n_reservations: int) -> AvailabilityProfile:
        p = AvailabilityProfile(8)
        for k in range(n_reservations):
            p.reserve(3.0 * k, 3.0 * k + 1.0, 1 + k % 4)
        return p

    def test_touched_window_independent_of_profile_size(self):
        small = self.fragmented(20)
        large = self.fragmented(2_000)
        assert len(large) > 50 * len(small) / 2  # genuinely different scales
        # Identical op at each profile's frontier: same window, same touch
        # count, regardless of how much history sits to the left.
        for p, n_resv in ((small, 20), (large, 2_000)):
            p.stats.reset()
            frontier = 3.0 * n_resv
            p.reserve(frontier + 1.0, frontier + 2.0, 4)
        assert small.stats.last_touched == large.stats.last_touched
        assert large.stats.last_touched <= 3

    def test_mid_profile_touch_tracks_interval_width(self):
        p = self.fragmented(1_000)
        total = len(p)
        p.stats.reset()
        # An op spanning ~4 reservations touches ~a dozen segments at most.
        p.reserve(1500.0, 1512.0, 1)
        assert p.stats.last_touched <= 12
        assert p.stats.last_touched < total / 50


class TestPerfRecorder:
    def test_count_accumulates(self):
        rec = PerfRecorder()
        rec.count("x")
        rec.count("x", 4)
        assert rec.counters["x"] == 5

    def test_observe_and_snapshot_fields(self):
        rec = PerfRecorder()
        for ms in (1.0, 2.0, 3.0):
            rec.observe("decision", ms / 1000.0)
        snap = rec.snapshot()
        assert snap["decision_count"] == 3
        assert snap["decision_s"] == pytest.approx(0.006)
        assert snap["decision_p50_us"] == pytest.approx(2000.0)
        assert snap["decision_p95_us"] == pytest.approx(3000.0)

    def test_timed_context_manager(self):
        rec = PerfRecorder()
        with rec.timed("block"):
            pass
        assert rec.snapshot()["block_count"] == 1
        assert rec.snapshot()["block_s"] >= 0.0

    def test_reset(self):
        rec = PerfRecorder()
        rec.count("x")
        rec.observe("y", 0.5)
        rec.reset()
        assert rec.snapshot() == {}


class TestScheduleSnapshot:
    def test_snapshot_merges_profile_stats(self):
        s = Schedule(4)
        s.profile.reserve(0.0, 5.0, 2)
        snap = s.perf_snapshot()
        assert snap["profile_shift_ops"] == 1
        assert snap["profile_segments"] == len(s.profile)
        with s.perf.timed("decision"):
            pass
        assert s.perf_snapshot()["decision_count"] == 1
