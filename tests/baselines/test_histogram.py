"""Tests for the idle-time histogram."""

import numpy as np
import pytest

from repro.baselines import IdleTimeHistogram


class TestIdleTimeHistogram:
    def test_percentiles_of_constant_idle(self):
        histogram = IdleTimeHistogram(range_minutes=240)
        histogram.observe_many([60] * 20)
        assert histogram.percentile(5) == 60
        assert histogram.percentile(99) == 60
        assert histogram.prewarm_window == 60
        assert histogram.keep_alive_window == 60

    def test_percentiles_of_spread_idle(self):
        histogram = IdleTimeHistogram()
        histogram.observe_many(list(range(1, 101)))
        assert histogram.percentile(5) == pytest.approx(5, abs=1)
        assert histogram.percentile(99) == pytest.approx(99, abs=1)

    def test_out_of_bounds_counted_separately(self):
        histogram = IdleTimeHistogram(range_minutes=100)
        histogram.observe(50)
        histogram.observe(150)
        assert histogram.in_bounds_count == 1
        assert histogram.out_of_bounds_count == 1

    def test_representative_requires_min_samples(self):
        histogram = IdleTimeHistogram(min_samples=10)
        histogram.observe_many([5] * 9)
        assert not histogram.is_representative
        histogram.observe(5)
        assert histogram.is_representative

    def test_representative_rejects_mostly_oob(self):
        histogram = IdleTimeHistogram(range_minutes=10, min_samples=5, max_oob_fraction=0.5)
        histogram.observe_many([5] * 5)
        histogram.observe_many([100] * 20)
        assert not histogram.is_representative

    def test_empty_histogram_defaults(self):
        histogram = IdleTimeHistogram(range_minutes=240)
        assert histogram.percentile(50) == 240
        assert not histogram.is_representative

    def test_negative_idle_rejected(self):
        histogram = IdleTimeHistogram()
        with pytest.raises(ValueError):
            histogram.observe(-1)

    def test_keep_alive_window_at_least_one(self):
        histogram = IdleTimeHistogram()
        histogram.observe_many([0] * 20)
        assert histogram.keep_alive_window >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"range_minutes": 0},
            {"head_percentile": 50, "tail_percentile": 10},
            {"min_samples": 0},
            {"max_oob_fraction": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IdleTimeHistogram(**kwargs)

    def test_as_array_is_copy(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe(3)
        array = histogram.as_array()
        array[3] = 99
        assert histogram.as_array()[3] == 1


def reference_state(bins, oob, histogram):
    """Counts, trust flag and windows recomputed from scratch with ``cumsum``."""
    count = int(bins.sum())
    total = count + oob
    representative = (
        total > 0
        and count >= histogram.min_samples
        and oob / total <= histogram.max_oob_fraction
    )

    def percentile(p):
        if count == 0:
            return histogram.range_minutes
        target = max(np.ceil(count * p / 100.0), 1)
        index = int(np.searchsorted(np.cumsum(bins), target))
        return min(index, histogram.range_minutes)

    prewarm = percentile(histogram.head_percentile)
    keep_alive = max(percentile(histogram.tail_percentile), 1)
    return count, representative, prewarm, keep_alive


class TestRunningCountsMatchReference:
    """Running counts and one-cumsum windows against a from-scratch recount."""

    def assert_matches(self, histogram, bins, oob):
        count, representative, prewarm, keep_alive = reference_state(bins, oob, histogram)
        assert histogram.in_bounds_count == count
        assert histogram.out_of_bounds_count == oob
        assert histogram.total_count == count + oob
        assert histogram.is_representative == representative
        assert histogram.windows() == (prewarm, keep_alive)
        assert histogram.prewarm_window == prewarm
        assert histogram.keep_alive_window == keep_alive
        assert histogram.percentile(histogram.head_percentile) == prewarm
        np.testing.assert_array_equal(histogram.as_array(), bins)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_observation_sequences(self, seed):
        rng = np.random.default_rng(seed)
        range_minutes = int(rng.choice([1, 2, 10, 240]))
        head, tail = sorted(rng.choice([0.0, 5.0, 37.5, 50.0, 99.0, 100.0], size=2))
        histogram = IdleTimeHistogram(
            range_minutes=range_minutes,
            head_percentile=head,
            tail_percentile=tail,
            min_samples=int(rng.integers(1, 6)),
            max_oob_fraction=float(rng.choice([0.25, 0.5, 1.0])),
        )
        bins = np.zeros(range_minutes + 1, dtype=np.int64)
        oob = 0
        self.assert_matches(histogram, bins, oob)
        for _ in range(30):
            high = 2 * range_minutes + 2
            if rng.random() < 0.4:
                idle = int(rng.integers(0, high))
                histogram.observe(idle)
                idles = [idle]
            else:
                size = int(rng.integers(0, 8))
                low = range_minutes + 1 if rng.random() < 0.2 else 0  # OOB-only batches
                array = rng.integers(low, high, size=size)
                idles = array.tolist()
                kind = rng.integers(3)
                if kind == 0:
                    histogram.observe_many(array)
                elif kind == 1:
                    histogram.observe_many(idles)
                else:
                    histogram.observe_many(int(idle) for idle in idles)
            for idle in idles:
                if idle > range_minutes:
                    oob += 1
                else:
                    bins[idle] += 1
            self.assert_matches(histogram, bins, oob)

    def test_out_of_bounds_only(self):
        histogram = IdleTimeHistogram(range_minutes=5, min_samples=1)
        histogram.observe_many(np.array([6, 7, 100]))
        self.assert_matches(histogram, np.zeros(6, dtype=np.int64), 3)
        assert histogram.windows() == (5, 5)

    def test_empty_batches_change_nothing(self):
        histogram = IdleTimeHistogram(range_minutes=1)
        histogram.observe_many([])
        histogram.observe_many(np.array([], dtype=np.int64))
        self.assert_matches(histogram, np.zeros(2, dtype=np.int64), 0)

    def test_extreme_percentiles(self):
        histogram = IdleTimeHistogram(
            range_minutes=1, head_percentile=0, tail_percentile=100, min_samples=1
        )
        histogram.observe_many([0, 1, 1, 2])
        self.assert_matches(histogram, np.array([1, 2]), 1)
        assert histogram.windows() == (0, 1)

    def test_negative_idle_rejects_the_whole_batch(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe(3)
        with pytest.raises(ValueError):
            histogram.observe_many([4, -1, 5])
        expected = np.zeros(11, dtype=np.int64)
        expected[3] = 1
        self.assert_matches(histogram, expected, 0)
