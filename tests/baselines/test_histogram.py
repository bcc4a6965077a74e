"""Tests for the idle-time histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import IdleTimeHistogram
from repro.baselines.histogram import IncrementalHistogram


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


def pair(idles=(), range_minutes=10, head=5.0, tail=99.0, **kwargs):
    """The two histogram forms with the same parameters, fed ``idles`` in one batch."""
    forms = (
        IdleTimeHistogram(range_minutes, head, tail, **kwargs),
        IncrementalHistogram(range_minutes, head, tail, **kwargs),
    )
    for histogram in forms:
        histogram.observe_many(list(idles))
    return forms


def assert_same(reference, incremental):
    """Windows, trust and samples agree; windows are plain ints."""
    windows = incremental.windows()
    assert all(type(value) is int for value in windows)
    assert windows == reference.windows()
    assert incremental.is_representative == reference.is_representative
    snapshot = incremental.histogram()
    np.testing.assert_array_equal(snapshot.as_array(), reference.as_array())
    assert snapshot.in_bounds_count == reference.in_bounds_count
    assert snapshot.out_of_bounds_count == reference.out_of_bounds_count
    assert snapshot.windows() == reference.windows()


class TestIncrementalHistogram:
    """Two cursors must give exactly ``IdleTimeHistogram.windows()``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        range_minutes = int(rng.choice([1, 2, 10, 240]))
        for _ in range(int(rng.integers(1, 40))):
            head, tail = sorted(rng.choice([0.0, 1.0, 5.0, 37.5, 50.0, 99.0, 100.0], size=2))
            size = int(rng.integers(0, 60))
            idles = rng.integers(0, 2 * range_minutes + 2, size=size).tolist()
            # Half the samples seed the histogram in one batch (cursors
            # placed by cumsum); the rest arrive one by one (cursors walk).
            cut = size // 2
            reference, incremental = pair(idles[:cut], range_minutes, head, tail)
            assert_same(reference, incremental)
            for idle in idles[cut:]:
                reference.observe(idle)
                incremental.observe(idle)
                assert_same(reference, incremental)

    def test_batches_between_single_observations(self):
        # Every batch re-places both cursors; the single observations in
        # between walk them from there.
        rng = np.random.default_rng(7)
        reference, incremental = pair([], range_minutes=30)
        for _ in range(10):
            batch = rng.integers(0, 40, size=int(rng.integers(0, 25)))
            reference.observe_many(batch)
            incremental.observe_many(batch)
            assert_same(reference, incremental)
            for idle in rng.integers(0, 40, size=int(rng.integers(0, 5))).tolist():
                reference.observe(idle)
                incremental.observe(idle)
                assert_same(reference, incremental)

    def test_edge_cases(self):
        cases = [
            pair([]),  # zero in-bounds samples
            pair([11, 50, 200]),  # all out of bounds
            pair([10, 10, 10]),  # target in the last bin
            pair([0, 0, 0, 0]),  # keep-alive clamped to one minute
            pair([3, 4, 5], head=0.0, tail=0.0),
            pair([3, 4, 5], head=100.0, tail=100.0),
            pair([6] * 7, head=50.0, tail=50.0),  # head == tail
            pair([1, 2, 2, 3, 9], head=37.5, tail=37.5),
        ]
        # range_minutes=1: every rank sits in bin 0, bin 1 or past the last bin.
        cases += [
            pair(idles, range_minutes=1, head=head, tail=tail)
            for idles in ([], [0], [1], [0, 1, 1], [2, 3], [0, 5, 5, 5])
            for head, tail in ((0.0, 100.0), (5.0, 99.0), (50.0, 50.0))
        ]
        for reference, incremental in cases:
            assert_same(reference, incremental)
        # The same samples one at a time, from an empty histogram.
        for reference, _ in cases:
            incremental = IncrementalHistogram(
                reference.range_minutes, reference.head_percentile, reference.tail_percentile
            )
            for idle, count in enumerate(reference.as_array().tolist()):
                for _ in range(count):
                    incremental.observe(idle)
            for _ in range(reference.out_of_bounds_count):
                incremental.observe(reference.range_minutes + 1)
            assert_same(reference, incremental)

    @pytest.mark.parametrize("idles", [[], [4, 9], [4, 4, 4, 0]])
    def test_target_past_the_last_bin(self, idles):
        # With no in-bounds sample the rank target (1) exceeds every
        # cumulative count, so both cursors sit one past the last bin and
        # the windows are clamped to the range; the first in-bounds sample
        # walks them back onto its bin.
        reference, incremental = pair(idles, range_minutes=3)
        assert_same(reference, incremental)
        if reference.in_bounds_count == 0:
            assert incremental.windows() == (3, 3)
            reference.observe(1)
            incremental.observe(1)
            assert_same(reference, incremental)
            assert incremental.windows() == (1, 1)

    def test_empty_histogram(self):
        incremental = IncrementalHistogram(range_minutes=240)
        assert incremental.windows() == (240, 240)
        assert not incremental.is_representative
        assert_same(IdleTimeHistogram(range_minutes=240), incremental)

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
            IncrementalHistogram(**kwargs)

    def test_negative_idle_rejected(self):
        reference, incremental = pair([2, 3])
        with pytest.raises(ValueError):
            incremental.observe(-1)
        with pytest.raises(ValueError):
            incremental.observe_many([4, -1, 5])
        assert_same(reference, incremental)

    def test_snapshot_is_a_copy(self):
        _, incremental = pair([3])
        snapshot = incremental.histogram()
        snapshot.observe(3)
        assert incremental.histogram().as_array()[3] == 1


#: Percentiles the hypothesis draws use, 0 and 100 included.
PERCENTILES = (0.0, 1.0, 5.0, 37.5, 50.0, 95.0, 99.0, 100.0)


@st.composite
def idle_streams(draw):
    """Histogram parameters and a stream of single observations and batches."""
    range_minutes = draw(st.one_of(st.integers(1, 10), st.just(240)))
    head, tail = sorted(draw(st.lists(st.sampled_from(PERCENTILES), min_size=2, max_size=2)))
    min_samples = draw(st.sampled_from((1, 2, 5, 10)))
    idle = st.one_of(
        st.just(0),
        st.integers(0, range_minutes),
        st.integers(range_minutes + 1, 2 * range_minutes + 2),
    )
    step = st.one_of(
        idle,
        st.lists(idle, max_size=6),  # a batch
        # A run of out-of-bounds idle times.
        st.integers(1, 8).map(lambda n: [range_minutes + 1] * n),
    )
    return range_minutes, head, tail, min_samples, draw(st.lists(step, max_size=40))


@settings(max_examples=200, deadline=None)
@given(idle_streams())
def test_cursors_match_a_fresh_histogram_after_every_observation(stream):
    range_minutes, head, tail, min_samples, steps = stream
    reference, incremental = pair(
        [], range_minutes, head, tail, min_samples=min_samples
    )
    assert_same(reference, incremental)
    for step in steps:
        if isinstance(step, list):
            reference.observe_many(step)
            incremental.observe_many(step)
        else:
            reference.observe(step)
            incremental.observe(step)
        assert_same(reference, incremental)
