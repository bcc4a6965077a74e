"""Tests for WT/AT/AN sequence extraction."""

import numpy as np
import pytest

from repro.core.sequences import extract_sequences


class TestPaperExample:
    """The worked example from §IV of the paper."""

    SERIES = (28, 0, 12, 1, 0, 0, 0, 7)

    def test_waiting_times(self):
        assert extract_sequences(self.SERIES).waiting_times == (1, 3)

    def test_active_times(self):
        assert extract_sequences(self.SERIES).active_times == (1, 2, 1)

    def test_active_numbers(self):
        assert extract_sequences(self.SERIES).active_numbers == (28, 13, 7)


class TestEdgeCases:
    def test_empty_series(self):
        summary = extract_sequences([])
        assert summary.waiting_times == ()
        assert summary.active_times == ()
        assert not summary.has_invocations
        assert summary.leading_idle == 0

    def test_all_zero_series(self):
        summary = extract_sequences([0, 0, 0])
        assert not summary.has_invocations
        assert summary.leading_idle == 3

    def test_single_invocation(self):
        summary = extract_sequences([0, 5, 0, 0])
        assert summary.waiting_times == ()
        assert summary.active_times == (1,)
        assert summary.active_numbers == (5,)
        assert summary.leading_idle == 1
        assert summary.trailing_idle == 2

    def test_every_slot_invoked(self):
        summary = extract_sequences([1, 2, 3])
        assert summary.invoked_every_slot
        assert summary.waiting_times == ()
        assert summary.active_times == (3,)

    def test_leading_and_trailing_idle_not_waiting_times(self):
        summary = extract_sequences([0, 0, 1, 0, 1, 0, 0, 0])
        assert summary.waiting_times == (1,)
        assert summary.leading_idle == 2
        assert summary.trailing_idle == 3

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            extract_sequences([1, -1])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            extract_sequences(np.zeros((2, 2)))


class TestStatistics:
    def test_totals(self):
        summary = extract_sequences([2, 0, 3, 0, 0, 1])
        assert summary.total_invocations == 6
        assert summary.invoked_slots == 3
        assert summary.idle_slots == 3
        assert summary.inter_invocation_idle == 3

    def test_waiting_time_modes(self):
        summary = extract_sequences([1, 0, 1, 0, 1, 0, 0, 1])
        # WTs = (1, 1, 2)
        modes = summary.waiting_time_modes(top_n=2)
        assert modes[0] == (1, 2)
        assert modes[1] == (2, 1)

    def test_waiting_time_modes_min_count_filter(self):
        summary = extract_sequences([1, 0, 1, 0, 1, 0, 0, 1])
        modes = summary.waiting_time_modes(top_n=3, min_count=2)
        assert modes == [(1, 2)]

    def test_waiting_time_modes_rejects_bad_top_n(self):
        with pytest.raises(ValueError):
            extract_sequences([1, 0, 1]).waiting_time_modes(0)

    def test_percentile_and_median(self):
        summary = extract_sequences([1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
        # WTs = (1, 2, 3)
        assert summary.waiting_time_median() == 2.0
        assert summary.waiting_time_percentile(100) == 3.0

    def test_cv_of_constant_wts_is_zero(self):
        series = np.zeros(50, dtype=int)
        series[::10] = 1
        assert extract_sequences(series).waiting_time_cv() == pytest.approx(0.0)

    def test_cv_of_varied_wts_positive(self):
        summary = extract_sequences([1, 0, 1, 0, 0, 0, 0, 0, 1])
        assert summary.waiting_time_cv() > 0.3


class TestLongSeries:
    def test_periodic_series_wt_equals_period_minus_one(self):
        series = np.zeros(600, dtype=int)
        series[::60] = 1
        summary = extract_sequences(series)
        assert set(summary.waiting_times) == {59}
        assert len(summary.waiting_times) == 9

    def test_consistency_invariant(self):
        rng = np.random.default_rng(3)
        series = (rng.random(500) < 0.1).astype(int)
        summary = extract_sequences(series)
        # Active times plus waiting times plus boundary idle cover the window.
        covered = (
            sum(summary.active_times)
            + sum(summary.waiting_times)
            + summary.leading_idle
            + summary.trailing_idle
        )
        assert covered == summary.total_slots
