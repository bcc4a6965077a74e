"""Tests for the co-occurrence kernel over sorted minute arrays."""

import numpy as np
import pytest
from correlation_reference import (
    best_lagged_cor as dense_best_lagged_cor,
    co_occurrence_rate as dense_co_occurrence_rate,
    forward_trigger_rate as dense_forward_trigger_rate,
    forward_trigger_rate_reference,
    lagged_co_occurrence_rate as dense_lagged_co_occurrence_rate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpesConfig
from repro.core.correlation import (
    best_lagged_cor,
    co_occurrence_rate,
    lagged_overlaps,
    window_hits,
)


def minutes_of(series):
    """The invoked minutes of a dense count series: what ``Trace.row`` yields."""
    return np.flatnonzero(np.asarray(series))


def precision(predictor, target, max_lag):
    """Share of predictor fires followed by the target within ``max_lag`` (link precision)."""
    if predictor.size == 0:
        return 0.0
    return int(np.count_nonzero(window_hits(predictor, target, 0, max_lag))) / predictor.size


def lagged_cor(target, candidate, lag):
    """T-lagged COR at one lag, read from the overlap counts."""
    if target.size == 0:
        return 0.0
    return int(lagged_overlaps(target, candidate, lag)[lag]) / target.size


class TestCor:
    def test_identical_series_full_overlap(self):
        minutes = np.array([0, 2, 4])
        assert co_occurrence_rate(minutes, minutes) == 1.0

    def test_disjoint_series_zero(self):
        assert co_occurrence_rate(np.array([0, 2]), np.array([1, 3])) == 0.0

    def test_partial_overlap(self):
        target = np.array([0, 1, 3])
        candidate = np.array([0, 3, 4])
        assert co_occurrence_rate(target, candidate) == pytest.approx(2 / 3)

    def test_no_target_invocations(self):
        assert co_occurrence_rate(np.array([], dtype=np.int64), np.array([0, 1, 2])) == 0.0

    def test_asymmetric(self):
        target = np.array([0])
        candidate = np.array([0, 1, 2, 3])
        assert co_occurrence_rate(target, candidate) == 1.0
        assert co_occurrence_rate(candidate, target) == 0.25

    def test_accepts_lists(self):
        assert co_occurrence_rate([0, 2, 4], [2]) == pytest.approx(1 / 3)


class TestLaggedCor:
    def test_lag_zero_equals_plain_cor(self):
        target = np.array([0, 2, 4])
        candidate = np.array([0, 1, 4])
        assert lagged_cor(target, candidate, 0) == co_occurrence_rate(target, candidate)

    def test_perfect_lagged_chain(self):
        candidate = np.array([0, 3, 6])
        target = np.array([2, 5, 8])
        assert lagged_cor(target, candidate, 2) == 1.0
        assert lagged_cor(target, candidate, 1) == 0.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            lagged_overlaps(np.array([1]), np.array([1]), -1)
        with pytest.raises(ValueError):
            best_lagged_cor(np.array([1]), np.array([1]), -1)

    def test_best_lagged_cor_finds_lag(self):
        candidate = np.arange(0, 60, 10)
        target = np.arange(3, 60, 10)
        cor, lag = best_lagged_cor(target, candidate, max_lag=5)
        assert cor == 1.0
        assert lag == 3

    def test_best_lagged_cor_prefers_smallest_lag_on_tie(self):
        target = np.arange(4)
        candidate = np.arange(4)
        cor, lag = best_lagged_cor(target, candidate, max_lag=2)
        assert cor == 1.0
        assert lag == 0

    def test_empty_target_scores_zero_at_lag_zero(self):
        empty = np.array([], dtype=np.int64)
        assert best_lagged_cor(empty, np.array([1, 2]), 5) == (0.0, 0)


class TestLaggedOverlaps:
    def test_every_lag_in_one_call(self):
        target = np.array([5, 6, 10])
        candidate = np.array([4, 5, 9])
        # lag 0: 5; lag 1: 5 (4), 6 (5), 10 (9); lag 2: 6 (4); lag 3: none.
        assert lagged_overlaps(target, candidate, 3).tolist() == [1, 3, 1, 0]

    def test_lag_beyond_every_minute(self):
        target = np.array([0, 1])
        assert lagged_overlaps(target, target, 10).tolist() == [2, 1] + [0] * 9

    def test_empty_rows(self):
        empty = np.array([], dtype=np.int64)
        assert lagged_overlaps(empty, np.array([1]), 2).tolist() == [0, 0, 0]
        assert lagged_overlaps(np.array([1]), empty, 2).tolist() == [0, 0, 0]


class TestWindowHits:
    def test_inclusive_window(self):
        fires = np.array([0, 5, 9])
        target = np.array([2, 9])
        assert window_hits(fires, target, 0, 2).tolist() == [True, False, True]
        assert window_hits(fires, target, 1, 2).tolist() == [True, False, False]

    def test_empty_window_never_hits(self):
        fires = np.array([0, 1])
        assert not window_hits(fires, np.array([0, 1, 2]), 1, 0).any()

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        assert window_hits(empty, np.array([1]), 0, 3).size == 0
        assert not window_hits(np.array([1, 2]), empty, 0, 3).any()


class TestForwardTriggerRate:
    """Link precision: the share of predictor fires the target follows."""

    def test_perfect_chain(self):
        predictor = np.array([0, 3])
        target = np.array([2, 5])
        assert precision(predictor, target, max_lag=3) == 1.0

    def test_frequent_predictor_low_precision(self):
        predictor = np.arange(100)
        target = np.array([99])
        assert precision(predictor, target, max_lag=2) < 0.05

    def test_no_predictor_invocations(self):
        assert precision(np.array([], dtype=np.int64), np.array([0, 1]), max_lag=1) == 0.0

    def test_fire_at_last_minute(self):
        # Minutes lie below the duration, so the last minute's window holds
        # only a target invocation in that same minute.
        assert precision(np.array([2]), np.array([2]), max_lag=5) == 1.0
        assert precision(np.array([2]), np.array([0, 1]), max_lag=5) == 0.0


class TestForwardTriggerRateMatchesReference:
    """Kernel precision against the per-fire ``.any()`` loop, float for float."""

    @staticmethod
    def lags_for(length):
        tcor = SpesConfig().tcor_max_lag
        return sorted({0, 1, tcor, max(length - 1, 0), length, length + 1, 10 * length + 7})

    def assert_same(self, predictor, target):
        fires, hits = minutes_of(predictor), minutes_of(target)
        for lag in self.lags_for(len(predictor)):
            expected = forward_trigger_rate_reference(predictor, target, lag)
            assert dense_forward_trigger_rate(predictor, target, lag) == expected, lag
            assert precision(fires, hits, lag) == expected, lag

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
            assert precision(minutes_of(predictor), minutes_of(target), 3) == 0.0

    @pytest.mark.parametrize("length", [1, 2, 11, 50])
    def test_last_minute_fire_and_dense_series(self, length):
        predictor = np.zeros(length, dtype=int)
        predictor[-1] = 2
        target = np.zeros(length, dtype=int)
        self.assert_same(predictor, target)
        target[-1] = 1
        self.assert_same(predictor, target)
        self.assert_same(np.ones(length, dtype=int), target)


@st.composite
def csr_row_pairs(draw):
    """A duration and two CSR rows (minutes, counts) inside it.

    Rows may be empty, and either may be forced to touch minute 0 and the
    last minute, where the dense code's shift and clipping act.
    """
    duration = draw(st.integers(1, 240))
    rows = []
    for _ in range(2):
        minutes = set(draw(st.lists(st.integers(0, duration - 1), max_size=duration)))
        if draw(st.booleans()):
            minutes |= {0, duration - 1}
        minutes = np.array(sorted(minutes), dtype=np.int64)
        counts = np.array(
            draw(st.lists(st.integers(1, 4), min_size=minutes.size, max_size=minutes.size)),
            dtype=np.int64,
        )
        rows.append((minutes, counts))
    return duration, rows


def dense(duration, row):
    series = np.zeros(duration, dtype=np.int64)
    series[row[0]] = row[1]
    return series


class TestKernelMatchesDenseOracle:
    """COR, best lag and precision over CSR rows equal the dense oracle's floats."""

    @settings(max_examples=300, deadline=None)
    @given(pair=csr_row_pairs(), max_lag=st.integers(0, 15))
    def test_random_csr_pairs(self, pair, max_lag):
        duration, (target_row, candidate_row) = pair
        target, candidate = target_row[0], candidate_row[0]
        target_series = dense(duration, target_row)
        candidate_series = dense(duration, candidate_row)

        assert co_occurrence_rate(target, candidate) == dense_co_occurrence_rate(
            target_series, candidate_series
        )
        assert best_lagged_cor(target, candidate, max_lag) == dense_best_lagged_cor(
            target_series, candidate_series, max_lag
        )
        for lag in range(max_lag + 1):
            assert lagged_cor(target, candidate, lag) == dense_lagged_co_occurrence_rate(
                target_series, candidate_series, lag
            )
        assert precision(candidate, target, max_lag) == dense_forward_trigger_rate(
            candidate_series, target_series, max_lag
        )
