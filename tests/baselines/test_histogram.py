"""Tests for the idle-time histogram."""

import numpy as np
import pytest

import repro.baselines.histogram as histogram_module
from repro.baselines import IdleTimeHistogram
from repro.baselines.histogram import batched_windows


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


def batched(histograms):
    windows = batched_windows(histograms)
    assert all(type(value) is int for pair in windows for value in pair)
    return windows


class TestBatchedWindows:
    """One stacked ``cumsum`` must give exactly ``[h.windows() for h in hs]``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        range_minutes = int(rng.choice([1, 2, 10, 240]))
        histograms = []
        for _ in range(int(rng.integers(1, 40))):
            head, tail = sorted(rng.choice([0.0, 1.0, 5.0, 37.5, 50.0, 99.0, 100.0], size=2))
            histogram = IdleTimeHistogram(
                range_minutes=range_minutes, head_percentile=head, tail_percentile=tail
            )
            size = int(rng.integers(0, 60))
            histogram.observe_many(rng.integers(0, 2 * range_minutes + 2, size=size))
            histograms.append(histogram)
        assert batched(histograms) == [h.windows() for h in histograms]

    def test_chunked_batches(self, monkeypatch):
        monkeypatch.setattr(histogram_module, "_BATCH_ROWS", 3)
        rng = np.random.default_rng(7)
        histograms = []
        for _ in range(10):
            histogram = IdleTimeHistogram(range_minutes=30)
            histogram.observe_many(rng.integers(0, 40, size=int(rng.integers(0, 25))))
            histograms.append(histogram)
        assert batched(histograms) == [h.windows() for h in histograms]

    def test_edge_cases(self):
        def make(idles, range_minutes=10, head=5.0, tail=99.0):
            histogram = IdleTimeHistogram(
                range_minutes=range_minutes, head_percentile=head, tail_percentile=tail
            )
            histogram.observe_many(idles)
            return histogram

        histograms = [
            make([]),  # zero in-bounds samples
            make([11, 50, 200]),  # all out of bounds
            make([10, 10, 10]),  # target in the last bin
            make([0, 0, 0, 0]),  # keep-alive clamped to one minute
            make([3, 4, 5], head=0.0, tail=0.0),
            make([3, 4, 5], head=100.0, tail=100.0),
            make([6] * 7, head=50.0, tail=50.0),  # head == tail
            make([1, 2, 2, 3, 9], head=37.5, tail=37.5),
        ]
        assert batched(histograms) == [h.windows() for h in histograms]

        # range_minutes=1: every rank sits in bin 0, bin 1 or past the last bin.
        narrow = [
            make(idles, range_minutes=1, head=head, tail=tail)
            for idles in ([], [0], [1], [0, 1, 1], [2, 3], [0, 5, 5, 5])
            for head, tail in ((0.0, 100.0), (5.0, 99.0), (50.0, 50.0))
        ]
        assert batched(narrow) == [h.windows() for h in narrow]

    @pytest.mark.parametrize("idles", [[], [4, 9], [4, 4, 4, 0]])
    def test_target_past_the_last_bin(self, idles):
        # With no in-bounds sample the rank target (1) exceeds every
        # cumulative count, so the search lands one past the last bin and is
        # clamped to the range -- also when other rows do have samples.
        empty = IdleTimeHistogram(range_minutes=3)
        empty.observe_many(idles)
        filled = IdleTimeHistogram(range_minutes=3)
        filled.observe_many([1, 2, 3])
        expected = [h.windows() for h in (empty, filled, empty)]
        assert batched([empty, filled, empty]) == expected
        if empty.in_bounds_count == 0:
            assert expected[0] == (3, 3)

    def test_empty_sequence(self):
        assert batched_windows([]) == []

    def test_mixed_ranges_rejected(self):
        with pytest.raises(ValueError):
            batched_windows([IdleTimeHistogram(range_minutes=r) for r in (5, 6)])
