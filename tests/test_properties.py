"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FixedKeepAlivePolicy, IdleTimeHistogram
from repro.core import SpesPolicy
from repro.core.correlation import best_lagged_cor, co_occurrence_rate, lagged_overlaps
from repro.core.indeterminate import evaluate_pulsed_strategy
from repro.core.predictive import PredictiveValues
from repro.core.sequences import extract_sequences
from repro.core.slacking import merge_small_waiting_times, trim_boundary_waiting_times
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata

from dict_policies import prediction_matches

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
invocation_series = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200)
waiting_time_sequences = st.lists(st.integers(min_value=1, max_value=2000), min_size=0, max_size=50)


# --------------------------------------------------------------------------- #
# Sequence extraction invariants
# --------------------------------------------------------------------------- #
class TestSequenceProperties:
    @given(series=invocation_series)
    def test_partition_of_time(self, series):
        summary = extract_sequences(series)
        covered = (
            sum(summary.active_times)
            + sum(summary.waiting_times)
            + summary.leading_idle
            + summary.trailing_idle
        )
        assert covered == len(series)

    @given(series=invocation_series)
    def test_active_numbers_sum_to_total_invocations(self, series):
        summary = extract_sequences(series)
        assert sum(summary.active_numbers) == sum(series)

    @given(series=invocation_series)
    def test_run_counts_consistent(self, series):
        summary = extract_sequences(series)
        assert len(summary.active_times) == len(summary.active_numbers)
        if summary.has_invocations:
            assert len(summary.waiting_times) == len(summary.active_times) - 1
        else:
            assert summary.waiting_times == ()

    @given(series=invocation_series)
    def test_all_waiting_and_active_times_positive(self, series):
        summary = extract_sequences(series)
        assert all(value >= 1 for value in summary.waiting_times)
        assert all(value >= 1 for value in summary.active_times)


# --------------------------------------------------------------------------- #
# Slacking invariants
# --------------------------------------------------------------------------- #
class TestSlackingProperties:
    @given(waiting_times=waiting_time_sequences)
    def test_merge_preserves_total_idle_or_reduces_count(self, waiting_times):
        merged = merge_small_waiting_times(tuple(waiting_times))
        assert len(merged) <= len(waiting_times)
        assert sum(merged) == sum(waiting_times)

    @given(waiting_times=waiting_time_sequences)
    def test_trim_removes_at_most_two(self, waiting_times):
        trimmed = trim_boundary_waiting_times(tuple(waiting_times))
        assert len(waiting_times) - len(trimmed) in (0, 2)

    @given(waiting_times=waiting_time_sequences)
    def test_merge_values_positive(self, waiting_times):
        merged = merge_small_waiting_times(tuple(waiting_times))
        assert all(value >= 1 for value in merged)


# --------------------------------------------------------------------------- #
# Correlation invariants
# --------------------------------------------------------------------------- #
class TestCorrelationProperties:
    """COR over the invoked minutes of two paired count series."""

    @staticmethod
    def rows(data):
        target = np.flatnonzero([pair[0] for pair in data])
        candidate = np.flatnonzero([pair[1] for pair in data])
        return target, candidate

    @staticmethod
    def lagged_cor(target, candidate, lag):
        if target.size == 0:
            return 0.0
        return int(lagged_overlaps(target, candidate, lag)[lag]) / target.size

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=100
        )
    )
    def test_cor_bounded(self, data):
        target, candidate = self.rows(data)
        value = co_occurrence_rate(target, candidate)
        assert 0.0 <= value <= 1.0

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=100
        ),
        lag=st.integers(0, 10),
    )
    def test_lagged_cor_bounded(self, data, lag):
        target, candidate = self.rows(data)
        value = self.lagged_cor(target, candidate, lag)
        assert 0.0 <= value <= 1.0

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60
        ),
        max_lag=st.integers(0, 5),
    )
    def test_best_lagged_cor_is_maximum(self, data, max_lag):
        target, candidate = self.rows(data)
        best, lag = best_lagged_cor(target, candidate, max_lag)
        assert lag <= max_lag
        for candidate_lag in range(max_lag + 1):
            assert best >= self.lagged_cor(target, candidate, candidate_lag)


# --------------------------------------------------------------------------- #
# Predictive values
# --------------------------------------------------------------------------- #
class TestPredictiveProperties:
    @given(
        values=st.lists(st.integers(1, 3000), min_size=1, max_size=10),
        threshold=st.integers(1, 100),
    )
    def test_spread_rule_produces_valid_predictions(self, values, threshold):
        predictive = PredictiveValues.from_values_with_spread_rule(values, threshold)
        assert not predictive.is_empty
        if predictive.window is not None:
            low, high = predictive.window
            assert low == min(values) and high == max(values)
        else:
            assert set(predictive.discrete) == set(values)

    @given(
        values=st.lists(st.integers(1, 500), min_size=1, max_size=5),
        last=st.integers(0, 1000),
        theta=st.integers(0, 10),
    )
    def test_predicted_time_always_matches_window(self, values, last, theta):
        predictive = PredictiveValues.from_discrete(values)
        for value in values:
            assert prediction_matches(predictive, last + value, last, theta)


# --------------------------------------------------------------------------- #
# Histogram invariants
# --------------------------------------------------------------------------- #
class TestHistogramProperties:
    @given(idles=st.lists(st.integers(0, 500), min_size=1, max_size=200))
    def test_percentiles_monotone_and_in_range(self, idles):
        histogram = IdleTimeHistogram(range_minutes=240)
        histogram.observe_many(idles)
        p5 = histogram.percentile(5)
        p99 = histogram.percentile(99)
        assert 0 <= p5 <= p99 <= 240

    @given(idles=st.lists(st.integers(0, 200), min_size=1, max_size=200))
    def test_counts_partition(self, idles):
        histogram = IdleTimeHistogram(range_minutes=100)
        histogram.observe_many(idles)
        assert histogram.in_bounds_count + histogram.out_of_bounds_count == len(idles)


# --------------------------------------------------------------------------- #
# Strategy evaluation invariants
# --------------------------------------------------------------------------- #
class TestStrategyEvaluationProperties:
    @given(series=invocation_series, givenup=st.integers(1, 20))
    def test_pulsed_outcome_bounds(self, series, givenup):
        outcome = evaluate_pulsed_strategy(series, givenup)
        invoked = sum(1 for count in series if count > 0)
        assert 0 <= outcome.cold_starts <= invoked
        assert 0 <= outcome.wasted_memory <= len(series)


# --------------------------------------------------------------------------- #
# End-to-end simulation invariants
# --------------------------------------------------------------------------- #
def _trace_from_matrix(matrix):
    records = [FunctionRecord(f"f{i}", f"a{i % 3}", f"o{i % 2}") for i in range(len(matrix))]
    counts = {f"f{i}": np.asarray(row, dtype=np.int64) for i, row in enumerate(matrix)}
    duration = len(matrix[0])
    return Trace(records, counts, TraceMetadata(name="prop", duration_minutes=duration))


small_matrices = st.integers(1, 4).flatmap(
    lambda n_functions: st.integers(20, 60).flatmap(
        lambda duration: st.lists(
            st.lists(st.integers(0, 2), min_size=duration, max_size=duration),
            min_size=n_functions,
            max_size=n_functions,
        )
    )
)


class TestSimulationProperties:
    @settings(max_examples=25, deadline=None)
    @given(matrix=small_matrices, keep_alive=st.integers(1, 15))
    def test_fixed_keepalive_invariants(self, matrix, keep_alive):
        trace = _trace_from_matrix(matrix)
        result = simulate_policy(FixedKeepAlivePolicy(keep_alive), trace, warmup_minutes=0)
        invoked_minutes = sum(
            int((trace.series(fid) > 0).sum()) for fid in trace.function_ids
        )
        assert result.total_invocations == invoked_minutes
        assert 0 <= result.total_cold_starts <= result.total_invocations
        assert result.total_wasted_memory_time >= 0
        assert 0.0 <= result.emcr <= 1.0
        assert result.peak_memory_usage <= len(trace)

    @settings(max_examples=15, deadline=None)
    @given(matrix=small_matrices)
    def test_spes_invariants_without_training(self, matrix):
        trace = _trace_from_matrix(matrix)
        result = simulate_policy(SpesPolicy(), trace, warmup_minutes=0)
        for stats in result.per_function.values():
            assert 0 <= stats.cold_starts <= stats.invocations
            assert stats.wasted_memory_time <= trace.duration_minutes
        assert 0.0 <= result.overall_cold_start_rate <= 1.0

    @settings(max_examples=10, deadline=None)
    @given(matrix=small_matrices, keep_alive=st.integers(1, 10))
    def test_longer_keepalive_never_increases_cold_starts(self, matrix, keep_alive):
        trace = _trace_from_matrix(matrix)
        short = simulate_policy(FixedKeepAlivePolicy(keep_alive), trace, warmup_minutes=0)
        long = simulate_policy(FixedKeepAlivePolicy(keep_alive + 10), trace, warmup_minutes=0)
        assert long.total_cold_starts <= short.total_cold_starts
        assert long.total_wasted_memory_time >= short.total_wasted_memory_time
