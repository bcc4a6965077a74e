"""Tests for predictive values."""

import pytest

from repro.core.predictive import PredictiveValues


class TestConstruction:
    def test_none_is_empty(self):
        assert PredictiveValues.none().is_empty

    def test_from_discrete_deduplicates_and_sorts(self):
        values = PredictiveValues.from_discrete([30, 10, 30])
        assert values.discrete == (10, 30)

    def test_from_range(self):
        values = PredictiveValues.from_range(2, 5)
        assert values.window == (2, 5)

    def test_negative_discrete_rejected(self):
        with pytest.raises(ValueError):
            PredictiveValues(discrete=(-1,))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            PredictiveValues(window=(5, 2))

    def test_spread_rule_discrete_when_wide(self):
        values = PredictiveValues.from_values_with_spread_rule([10, 500], range_threshold=10)
        assert values.discrete == (10, 500)
        assert values.window is None

    def test_spread_rule_range_when_narrow(self):
        values = PredictiveValues.from_values_with_spread_rule([10, 14], range_threshold=10)
        assert values.window == (10, 14)

    def test_spread_rule_empty(self):
        assert PredictiveValues.from_values_with_spread_rule([], 10).is_empty


class TestPrediction:
    def test_predicted_times_discrete(self):
        values = PredictiveValues.from_discrete([10, 20])
        assert values.predicted_times(100) == [(110, 110), (120, 120)]

    def test_predicted_times_window(self):
        values = PredictiveValues.from_range(5, 8)
        assert values.predicted_times(100) == [(105, 108)]
