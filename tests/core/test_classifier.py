"""Tests for deterministic function categorization (Table I)."""

import numpy as np

from repro.core import DeterministicClassifier, SpesConfig
from repro.core.categories import FunctionCategory
from repro.core.sequences import extract_sequences
from repro.traces import archetypes


def classify(series, config=None):
    classifier = DeterministicClassifier(config)
    return classifier.classify(extract_sequences(series))


class TestAlwaysWarm:
    def test_invoked_every_slot(self):
        series = np.ones(1000, dtype=int)
        decision = classify(series)
        assert decision.category is FunctionCategory.ALWAYS_WARM

    def test_tiny_idle_budget_accepted(self):
        series = np.ones(10000, dtype=int)
        series[5000] = 0  # 1 idle slot out of 10000 <= 0.1% budget
        decision = classify(series)
        assert decision.category is FunctionCategory.ALWAYS_WARM

    def test_larger_idle_not_always_warm(self):
        series = np.ones(1000, dtype=int)
        series[100:200] = 0
        decision = classify(series)
        assert decision is None or decision.category is not FunctionCategory.ALWAYS_WARM


class TestRegular:
    def test_perfect_periodic(self):
        series = np.zeros(1200, dtype=int)
        series[::60] = 1
        decision = classify(series)
        assert decision.category is FunctionCategory.REGULAR
        assert decision.predictive.discrete == (59,)

    def test_noisy_periodic_recovered_by_slacking(self, rng):
        series = archetypes.generate_periodic(
            rng, 14 * 1440, period=360, jitter_probability=0.0,
            extra_noise_rate=0.0003, phase=0,
        )
        decision = classify(series)
        assert decision is not None
        assert decision.category in (
            FunctionCategory.REGULAR,
            FunctionCategory.APPRO_REGULAR,
        )

    def test_priority_always_warm_over_regular(self):
        series = np.ones(500, dtype=int)
        assert classify(series).category is FunctionCategory.ALWAYS_WARM

    def test_spread_equals_two_percentile_calls(self):
        # _is_regular takes the 5th and 95th percentiles from one
        # np.percentile call.  With the CV test off, a spread bound at the
        # two-call spread must pass and one ulp below it must fail, so the
        # two forms agree bit for bit.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            size = int(rng.integers(2, 60))
            values = rng.integers(1, int(rng.choice([3, 60, 1440])), size=size)
            values[0] = values[1] + 1  # CV > 0, so only the spread decides
            waiting_times = tuple(values.tolist())
            floats = np.asarray(waiting_times, dtype=float)
            spread = float(np.percentile(floats, 95) - np.percentile(floats, 5))
            below = float(np.nextafter(spread, -np.inf))
            for bound, regular in ((spread, True), (max(below, 0.0), spread == 0.0)):
                config = SpesConfig(regular_percentile_spread=bound, regular_cv_threshold=0.0)
                assert DeterministicClassifier(config)._is_regular(waiting_times) is regular

    def test_too_few_waiting_times_not_categorized(self):
        series = np.zeros(100, dtype=int)
        series[[0, 50]] = 1
        assert classify(series) is None


class TestApproRegular:
    def test_quasi_periodic_with_two_modes(self, rng):
        series = archetypes.generate_quasi_periodic(rng, 5000, periods=(10, 12))
        decision = classify(series)
        assert decision.category in (
            FunctionCategory.REGULAR,
            FunctionCategory.APPRO_REGULAR,
        )
        assert not decision.predictive.is_empty

    def test_modes_must_cover_ninety_percent(self):
        # Half the waiting times are random, so the top modes cannot cover 90%.
        rng = np.random.default_rng(0)
        waiting_times = [10] * 10 + list(rng.integers(20, 300, size=10))
        series = np.zeros(5000, dtype=int)
        minute = 0
        for gap in waiting_times:
            series[minute] = 1
            minute += gap + 1
        series[minute] = 1
        decision = classify(series[: minute + 1])
        assert decision is None or decision.category is not FunctionCategory.APPRO_REGULAR


class TestDense:
    def test_poisson_like_arrivals_are_dense(self, rng):
        series = archetypes.generate_dense_poisson(rng, 5000, rate_per_minute=0.8, diurnal=False)
        decision = classify(series)
        assert decision.category in (FunctionCategory.DENSE, FunctionCategory.ALWAYS_WARM,
                                     FunctionCategory.REGULAR, FunctionCategory.APPRO_REGULAR)

    def test_dense_predictive_window(self):
        # Gaps of 1-5 minutes spread over five distinct values, so the top-3
        # modes cannot cover 90% and the function is dense rather than
        # appro-regular.
        gaps = [1, 3, 2, 5, 4, 2, 1, 3, 5, 4, 2, 3, 1, 4, 5] * 4
        series = np.zeros(500, dtype=int)
        minute = 0
        for gap in gaps:
            series[minute] = 1
            minute += gap + 1
        decision = classify(series[:minute])
        assert decision.category is FunctionCategory.DENSE
        low, high = decision.predictive.window
        assert 1 <= low <= high <= 5

    def test_sparse_function_not_dense(self):
        series = np.zeros(5000, dtype=int)
        series[::500] = 1
        decision = classify(series)
        assert decision is None or decision.category is not FunctionCategory.DENSE


class TestSuccessive:
    def test_long_bursts_are_successive(self, rng):
        series = archetypes.generate_bursty(
            rng, 20000, burst_count=5, burst_length_range=(20, 40), min_gap=2000
        )
        decision = classify(series)
        assert decision.category is FunctionCategory.SUCCESSIVE

    def test_single_burst_not_enough(self):
        series = np.zeros(100, dtype=int)
        series[10:20] = 1
        decision = classify(series)
        assert decision is None or decision.category is not FunctionCategory.SUCCESSIVE

    def test_short_pulses_not_successive(self, rng):
        series = archetypes.generate_pulsed(
            rng, 20000, pulse_count=8, pulse_length_range=(1, 2), min_gap=1500
        )
        decision = classify(series)
        assert decision is None


class TestGeneral:
    def test_no_invocations_returns_none(self):
        assert classify(np.zeros(100, dtype=int)) is None

    def test_min_invocations_respected(self):
        config = SpesConfig(min_invocations=5)
        series = np.zeros(100, dtype=int)
        series[[1, 10, 20]] = 1
        assert classify(series, config) is None

    def test_detail_is_informative(self):
        series = np.ones(100, dtype=int)
        assert classify(series).detail != ""
