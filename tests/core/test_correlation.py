"""Tests for the co-occurrence-rate metrics."""

import numpy as np
import pytest
from correlation_reference import forward_trigger_rate_reference

from repro.core import SpesConfig
from repro.core.correlation import (
    best_lagged_cor,
    co_occurrence_rate,
    forward_trigger_rate,
    lagged_co_occurrence_rate,
    mean_pairwise_cor,
)


class TestCor:
    def test_identical_series_full_overlap(self):
        series = [1, 0, 1, 0, 1]
        assert co_occurrence_rate(series, series) == 1.0

    def test_disjoint_series_zero(self):
        assert co_occurrence_rate([1, 0, 1, 0], [0, 1, 0, 1]) == 0.0

    def test_partial_overlap(self):
        target = [1, 1, 0, 1, 0]
        candidate = [1, 0, 0, 1, 1]
        assert co_occurrence_rate(target, candidate) == pytest.approx(2 / 3)

    def test_no_target_invocations(self):
        assert co_occurrence_rate([0, 0, 0], [1, 1, 1]) == 0.0

    def test_asymmetric(self):
        target = [1, 0, 0, 0]
        candidate = [1, 1, 1, 1]
        assert co_occurrence_rate(target, candidate) == 1.0
        assert co_occurrence_rate(candidate, target) == 0.25

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            co_occurrence_rate([1, 0], [1, 0, 1])


class TestLaggedCor:
    def test_lag_zero_equals_plain_cor(self):
        target = [1, 0, 1, 0, 1]
        candidate = [1, 1, 0, 0, 1]
        assert lagged_co_occurrence_rate(target, candidate, 0) == co_occurrence_rate(
            target, candidate
        )

    def test_perfect_lagged_chain(self):
        candidate = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        target = [0, 0, 1, 0, 0, 1, 0, 0, 1]
        assert lagged_co_occurrence_rate(target, candidate, 2) == 1.0
        assert lagged_co_occurrence_rate(target, candidate, 1) == 0.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            lagged_co_occurrence_rate([1], [1], -1)

    def test_best_lagged_cor_finds_lag(self):
        candidate = np.zeros(60, dtype=int)
        candidate[::10] = 1
        target = np.zeros(60, dtype=int)
        target[3::10] = 1
        cor, lag = best_lagged_cor(target, candidate, max_lag=5)
        assert cor == 1.0
        assert lag == 3

    def test_best_lagged_cor_prefers_smallest_lag_on_tie(self):
        target = [1, 1, 1, 1]
        candidate = [1, 1, 1, 1]
        cor, lag = best_lagged_cor(target, candidate, max_lag=2)
        assert cor == 1.0
        assert lag == 0


class TestForwardTriggerRate:
    def test_perfect_chain(self):
        predictor = [1, 0, 0, 1, 0, 0]
        target = [0, 0, 1, 0, 0, 1]
        assert forward_trigger_rate(predictor, target, max_lag=3) == 1.0

    def test_frequent_predictor_low_precision(self):
        predictor = [1] * 100
        target = [0] * 99 + [1]
        assert forward_trigger_rate(predictor, target, max_lag=2) < 0.05

    def test_no_predictor_invocations(self):
        assert forward_trigger_rate([0, 0], [1, 1], max_lag=1) == 0.0

    def test_fire_at_last_minute(self):
        # The last minute's window is clipped to the series: only a target
        # invocation in that same minute can count.
        assert forward_trigger_rate([0, 0, 1], [0, 0, 1], max_lag=5) == 1.0
        assert forward_trigger_rate([0, 0, 1], [1, 1, 0], max_lag=5) == 0.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            forward_trigger_rate([1, 0], [0, 1], max_lag=-1)


class TestForwardTriggerRateMatchesReference:
    """The prefix-sum rate against the per-fire ``.any()`` loop, float for float."""

    @staticmethod
    def lags_for(length):
        tcor = SpesConfig().tcor_max_lag
        return sorted({0, 1, tcor, max(length - 1, 0), length, length + 1, 10 * length + 7})

    def assert_same(self, predictor, target):
        for lag in self.lags_for(len(predictor)):
            expected = forward_trigger_rate_reference(predictor, target, lag)
            assert forward_trigger_rate(predictor, target, lag) == expected, lag

    @pytest.mark.parametrize("seed", range(25))
    def test_random_series(self, seed):
        rng = np.random.default_rng(seed)
        for density in (0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0):
            length = int(rng.integers(1, 200))
            predictor = (rng.random(length) < density) * rng.integers(1, 4, size=length)
            target = (rng.random(length) < rng.random()) * rng.integers(1, 4, size=length)
            if rng.random() < 0.5:
                predictor[-1] = 1  # a fire at the last minute
            self.assert_same(predictor, target)
            self.assert_same(predictor.tolist(), target.tolist())

    @pytest.mark.parametrize("length", [1, 2, 11, 50])
    def test_all_zero_predictor(self, length):
        predictor = np.zeros(length, dtype=int)
        for target in (np.zeros(length, dtype=int), np.ones(length, dtype=int)):
            self.assert_same(predictor, target)
            assert forward_trigger_rate(predictor, target, 3) == 0.0

    @pytest.mark.parametrize("length", [1, 2, 11, 50])
    def test_last_minute_fire_and_dense_series(self, length):
        predictor = np.zeros(length, dtype=int)
        predictor[-1] = 2
        target = np.zeros(length, dtype=int)
        self.assert_same(predictor, target)
        target[-1] = 1
        self.assert_same(predictor, target)
        self.assert_same(np.ones(length, dtype=int), target)


class TestMeanPairwise:
    def test_empty_inputs(self):
        assert mean_pairwise_cor([], []) == 0.0

    def test_average_over_pairs(self):
        targets = [[1, 0, 1, 0]]
        candidates = [[1, 0, 1, 0], [0, 1, 0, 1]]
        assert mean_pairwise_cor(targets, candidates) == pytest.approx(0.5)
