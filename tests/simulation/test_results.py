"""Tests for simulation result aggregation."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from repro.baselines import FixedKeepAlivePolicy
from repro.simulation import ClusterModel, ShardFallbackWarning, simulate_policy
from repro.simulation.results import (
    FunctionStats,
    LatencyStats,
    SimulationResult,
    compare_results,
)
from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace


def make_result(stats, memory=None, wmt=0, emcr=0.0):
    return SimulationResult(
        policy_name="test",
        duration_minutes=10,
        per_function={s.function_id: s for s in stats},
        memory_usage=np.asarray(memory if memory is not None else [], dtype=np.int64),
        total_wasted_memory_time=wmt,
        emcr=emcr,
    )


class TestFunctionStats:
    def test_cold_start_rate(self):
        stats = FunctionStats("f", invocations=4, cold_starts=1)
        assert stats.cold_start_rate == pytest.approx(0.25)

    def test_cold_start_rate_zero_invocations(self):
        assert FunctionStats("f").cold_start_rate == 0.0

    def test_always_and_never_cold(self):
        assert FunctionStats("f", invocations=3, cold_starts=3).always_cold
        assert FunctionStats("f", invocations=3, cold_starts=0).never_cold
        assert not FunctionStats("f", invocations=0, cold_starts=0).always_cold

    def test_wmt_ratio(self):
        assert FunctionStats("f", invocations=2, wasted_memory_time=6).wmt_ratio == 3.0
        assert FunctionStats("f", invocations=0, wasted_memory_time=6).wmt_ratio == 6.0


class TestSimulationResult:
    def test_totals(self):
        result = make_result(
            [
                FunctionStats("a", invocations=10, cold_starts=2),
                FunctionStats("b", invocations=5, cold_starts=5),
            ]
        )
        assert result.total_invocations == 15
        assert result.total_cold_starts == 7
        assert result.overall_cold_start_rate == pytest.approx(7 / 15)

    def test_percentiles_over_invoked_functions_only(self):
        result = make_result(
            [
                FunctionStats("a", invocations=10, cold_starts=0),
                FunctionStats("b", invocations=10, cold_starts=10),
                FunctionStats("idle", invocations=0, cold_starts=0, wasted_memory_time=5),
            ]
        )
        rates = result.cold_start_rates()
        assert sorted(rates) == [0.0, 1.0]
        assert result.cold_start_rate_percentile(50.0) == pytest.approx(0.5)

    def test_q3_property_matches_percentile(self):
        result = make_result(
            [FunctionStats(f"f{i}", invocations=1, cold_starts=i % 2) for i in range(20)]
        )
        assert result.q3_cold_start_rate == result.cold_start_rate_percentile(75.0)

    def test_always_and_never_cold_fractions(self):
        result = make_result(
            [
                FunctionStats("a", invocations=4, cold_starts=4),
                FunctionStats("b", invocations=4, cold_starts=0),
                FunctionStats("c", invocations=4, cold_starts=2),
            ]
        )
        assert result.always_cold_fraction == pytest.approx(1 / 3)
        assert result.never_cold_fraction == pytest.approx(1 / 3)

    def test_memory_aggregates(self):
        result = make_result([], memory=[1, 2, 3])
        assert result.average_memory_usage == pytest.approx(2.0)
        assert result.peak_memory_usage == 3

    def test_empty_result_safe(self):
        result = make_result([])
        assert result.overall_cold_start_rate == 0.0
        assert result.q3_cold_start_rate == 0.0
        assert result.always_cold_fraction == 0.0
        assert result.average_memory_usage == 0.0

    def test_summary_keys(self):
        result = make_result([FunctionStats("a", invocations=1, cold_starts=1)])
        summary = result.summary()
        for key in ("policy", "q3_csr", "wasted_memory_time", "emcr"):
            assert key in summary

    def test_compare_results(self):
        first = make_result([FunctionStats("a", invocations=1, cold_starts=0)])
        comparison = compare_results({"one": first})
        assert comparison["one"]["policy"] == "test"


def make_latency(waits, per_function=None, **counts):
    waits = np.asarray(waits, dtype=float)
    return LatencyStats(
        total_events=counts.get("total_events", waits.size),
        warm_events=counts.get("warm_events", 0),
        cold_start_events=counts.get("cold_start_events", waits.size),
        delayed_events=counts.get("delayed_events", 0),
        cold_wait_ms=waits,
        per_function_wait_ms={
            key: np.asarray(values, dtype=float)
            for key, values in (per_function or {}).items()
        },
    )


class TestLatencyStatsEdgeCases:
    """Zero-cold-event runs and merge with empty operands (PR 5 satellite).

    An all-warm streaming window produces a LatencyStats with an empty wait
    array; every percentile accessor must report 0.0 — never NaN, never an
    exception — and pooling such empties into a merge must neither poison
    the aggregates nor break associativity.
    """

    def test_zero_cold_events_percentiles_are_zero_not_nan(self):
        empty = make_latency([])
        for value in (
            empty.p50_ms,
            empty.p95_ms,
            empty.p99_ms,
            empty.mean_ms,
            empty.max_ms,
            empty.cold_event_fraction,
        ):
            assert value == 0.0
            assert not np.isnan(value)

    def test_zero_cold_events_summary_is_nan_free(self):
        summary = make_latency([]).summary()
        assert summary["lat_p50_ms"] == 0.0
        assert summary["lat_p99_ms"] == 0.0
        assert not any(np.isnan(value) for value in summary.values())

    def test_zero_cold_events_function_tail_is_empty(self):
        assert make_latency([]).function_tail() == {}

    def test_merge_of_nothing_is_the_empty_stats(self):
        merged = LatencyStats.merge([])
        assert merged.total_events == 0
        assert merged.cold_wait_ms.size == 0
        assert merged.p99_ms == 0.0 and not np.isnan(merged.p99_ms)

    def test_merge_with_empty_operand_is_identity(self):
        stats = make_latency([100.0, 300.0], per_function={"f": [100.0, 300.0]})
        merged = LatencyStats.merge([stats, LatencyStats()])
        assert merged.total_events == stats.total_events
        assert merged.cold_start_events == stats.cold_start_events
        np.testing.assert_array_equal(merged.cold_wait_ms, stats.cold_wait_ms)
        np.testing.assert_array_equal(
            merged.per_function_wait_ms["f"], stats.per_function_wait_ms["f"]
        )
        # ... regardless of operand order.
        flipped = LatencyStats.merge([LatencyStats(), stats])
        assert flipped.p99_ms == merged.p99_ms
        assert flipped.total_events == merged.total_events

    def test_merge_stays_associative_with_empty_operands(self):
        a = make_latency([100.0], per_function={"f": [100.0]})
        b = LatencyStats()  # the all-warm seed
        c = make_latency([900.0, 50.0], per_function={"g": [900.0, 50.0]})
        left = LatencyStats.merge([LatencyStats.merge([a, b]), c])
        right = LatencyStats.merge([a, LatencyStats.merge([b, c])])
        flat = LatencyStats.merge([a, b, c])
        for merged in (left, right):
            assert merged.total_events == flat.total_events
            assert merged.cold_start_events == flat.cold_start_events
            assert merged.p50_ms == flat.p50_ms
            assert merged.p99_ms == flat.p99_ms
            assert set(merged.per_function_wait_ms) == set(flat.per_function_wait_ms)
            for key, values in flat.per_function_wait_ms.items():
                np.testing.assert_array_equal(
                    np.sort(merged.per_function_wait_ms[key]), np.sort(values)
                )


def make_cpu_latency(
    slowdowns,
    cpu_waits=(),
    slo_ms=None,
    slo_checked=0,
    slo_violations=0,
    **counts,
):
    slowdowns = np.asarray(slowdowns, dtype=float)
    cpu_waits = np.asarray(cpu_waits, dtype=float)
    return LatencyStats(
        total_events=counts.get("total_events", slowdowns.size),
        warm_events=counts.get("warm_events", slowdowns.size),
        cpu_scheduled_events=counts.get("cpu_scheduled_events", slowdowns.size),
        cpu_delayed_events=counts.get("cpu_delayed_events", cpu_waits.size),
        cpu_wait_ms=cpu_waits,
        slowdown=slowdowns,
        slo_ms=slo_ms,
        slo_checked_events=slo_checked,
        slo_violations=slo_violations,
    )


class TestLatencyStatsCpuMerge:
    """Merge laws for the PR 8 CPU/slowdown/SLO fields.

    Sharded runs pool per-shard LatencyStats in arbitrary grouping and
    order, so the new counters and sample arrays must merge associatively
    and commutatively, stay NaN-free across empty shards, and survive
    operands pickled before the fields existed (simulated by old-style
    stats built without them).
    """

    def _shards(self):
        a = make_cpu_latency(
            [1.0, 2.5, 4.0],
            cpu_waits=[120.0, 900.0],
            slo_ms=500.0,
            slo_checked=3,
            slo_violations=1,
        )
        b = LatencyStats()  # an all-quiet shard
        c = make_cpu_latency(
            [1.0, 1.0],
            cpu_waits=[],
            slo_ms=500.0,
            slo_checked=2,
            slo_violations=0,
        )
        return a, b, c

    def _assert_equivalent(self, first, second):
        assert first.cpu_scheduled_events == second.cpu_scheduled_events
        assert first.cpu_delayed_events == second.cpu_delayed_events
        assert first.slo_ms == second.slo_ms
        assert first.slo_checked_events == second.slo_checked_events
        assert first.slo_violations == second.slo_violations
        np.testing.assert_array_equal(
            np.sort(first.cpu_wait_ms), np.sort(second.cpu_wait_ms)
        )
        np.testing.assert_array_equal(
            np.sort(first.slowdown), np.sort(second.slowdown)
        )

    def test_merge_is_associative(self):
        a, b, c = self._shards()
        left = LatencyStats.merge([LatencyStats.merge([a, b]), c])
        right = LatencyStats.merge([a, LatencyStats.merge([b, c])])
        flat = LatencyStats.merge([a, b, c])
        self._assert_equivalent(left, flat)
        self._assert_equivalent(right, flat)

    def test_merge_is_commutative(self):
        a, b, c = self._shards()
        self._assert_equivalent(
            LatencyStats.merge([a, b, c]), LatencyStats.merge([c, a, b])
        )

    def test_merge_totals(self):
        a, _, c = self._shards()
        merged = LatencyStats.merge(self._shards())
        assert merged.cpu_scheduled_events == 5
        assert merged.cpu_delayed_events == 2
        assert merged.slo_checked_events == 5
        assert merged.slo_violations == 1
        assert merged.slo_ms == 500.0
        assert merged.slowdown.size == a.slowdown.size + c.slowdown.size

    def test_empty_merge_is_nan_free(self):
        merged = LatencyStats.merge([LatencyStats(), LatencyStats()])
        for value in (
            merged.slowdown_p50,
            merged.slowdown_p99,
            merged.slowdown_mean,
            merged.cpu_wait_p99_ms,
            merged.cpu_delayed_fraction,
            merged.slo_violation_rate,
        ):
            assert value == 0.0
            assert not np.isnan(value)
        assert merged.slo_ms is None

    def test_summary_is_nan_free_with_and_without_cpu(self):
        for stats in (LatencyStats(), LatencyStats.merge(self._shards())):
            summary = stats.summary()
            assert not any(np.isnan(value) for value in summary.values())
        merged = LatencyStats.merge(self._shards())
        summary = merged.summary()
        assert summary["slowdown_p99"] >= 1.0
        assert summary["slo_violation_rate"] == pytest.approx(1 / 5)

    def test_merge_tolerates_pre_cpu_operands(self):
        # Stats unpickled from a cache written before the CPU fields existed
        # lack the attributes entirely; merge must treat them as zeros.
        old = make_latency([250.0])
        for name in (
            "cpu_scheduled_events",
            "cpu_delayed_events",
            "cpu_wait_ms",
            "slowdown",
            "slo_ms",
            "slo_checked_events",
            "slo_violations",
        ):
            object.__delattr__(old, name)
        new = make_cpu_latency([2.0], cpu_waits=[40.0], slo_ms=100.0, slo_checked=1)
        merged = LatencyStats.merge([old, new])
        assert merged.cpu_scheduled_events == 1
        assert merged.cpu_delayed_events == 1
        assert merged.slo_ms == 100.0
        np.testing.assert_array_equal(merged.cpu_wait_ms, [40.0])
        # Order must not matter for the guard either.
        flipped = LatencyStats.merge([new, old])
        assert flipped.cpu_scheduled_events == 1
        assert flipped.slo_ms == 100.0


# --------------------------------------------------------------------------- #
# Pickling: per-function statistics travel as columns
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_split():
    profile = GeneratorProfile(
        n_functions=30, duration_days=2.0, unseen_window_days=0.5, seed=17
    )
    return split_trace(AzureTraceGenerator(profile).generate(), training_days=1.5)


def _simulate(split, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ShardFallbackWarning)
        return simulate_policy(
            FixedKeepAlivePolicy(10),
            split.simulation,
            split.training,
            warmup_minutes=60,
            **options,
        )


ROUND_TRIP_CASES = {
    "vectorized": {},
    "event": {"engine": "event"},
    "cluster": {"cluster": ClusterModel(memory_capacity=6, n_nodes=2)},
    "mb": {"memory_mode": "mb"},
    "merged-shards": {"shards": 2},
}


def assert_same_value(first, second, path="result"):
    """Recursive equality over arrays, dicts, dataclasses and plain values."""
    assert type(first) is type(second), path
    if isinstance(first, np.ndarray):
        assert first.dtype == second.dtype, path
        np.testing.assert_array_equal(first, second, err_msg=path)
    elif isinstance(first, dict):
        assert list(first) == list(second), path
        for key in first:
            assert_same_value(first[key], second[key], f"{path}[{key!r}]")
    elif dataclasses.is_dataclass(first):
        assert_same_value(vars(first), vars(second), path)
    elif isinstance(first, float) and math.isnan(first):
        assert math.isnan(second), path
    else:
        assert first == second, path


ROUND_TRIPS = {
    "pickle": lambda result: pickle.loads(pickle.dumps(result)),
    "deepcopy": copy.deepcopy,
}


class TestColumnarPickle:
    @pytest.fixture(
        scope="class", params=sorted(ROUND_TRIP_CASES) + ["empty", "unsorted-ids"]
    )
    def result(self, request, small_split):
        if request.param == "empty":
            return make_result([], memory=[0] * 10)
        if request.param == "unsorted-ids":
            return make_result(
                [
                    FunctionStats("c", 4, 1, 3),
                    FunctionStats("a", 0, 0, 9),
                    FunctionStats("b", 2, 2),
                ],
                memory=[1] * 10,
                wmt=12,
                emcr=0.25,
            )
        result = _simulate(small_split, **ROUND_TRIP_CASES[request.param])
        assert result.per_function
        if request.param == "event":
            assert result.latency is not None
        if request.param == "cluster":
            assert result.cluster is not None
        if request.param == "mb":
            assert result.memory_usage_kb is not None
        return result

    @pytest.mark.parametrize("round_trip", sorted(ROUND_TRIPS))
    def test_round_trip_keeps_every_field(self, result, round_trip):
        fingerprint = result.deterministic_fingerprint()
        back = ROUND_TRIPS[round_trip](result)
        # Every field, with per_function's key order and each FunctionStats.
        assert_same_value(result, back)
        for stats in back.per_function.values():
            assert type(stats.invocations) is int
            assert type(stats.cold_starts) is int
            assert type(stats.wasted_memory_time) is int
        assert back.deterministic_fingerprint() == fingerprint

    def test_keys_and_ids_travel_separately(self):
        result = make_result([])
        result.per_function = {"key": FunctionStats("id", 5, 2, 7)}
        back = pickle.loads(pickle.dumps(result))
        assert back.per_function == {"key": FunctionStats("id", 5, 2, 7)}

    def test_numpy_counts_come_back_as_python_ints(self):
        stats = FunctionStats("a", np.int64(4), np.int32(1), np.uint16(9))
        back = pickle.loads(pickle.dumps(make_result([stats])))
        assert back.per_function["a"] == FunctionStats("a", 4, 1, 9)
        assert type(back.per_function["a"].cold_starts) is int

    @pytest.mark.parametrize("count", [1.5, 2.0, np.float64(3.0)])
    def test_float_count_raises_instead_of_truncating(self, count):
        result = make_result([FunctionStats("a", invocations=count)])
        with pytest.raises(TypeError):
            pickle.dumps(result)

    @pytest.mark.parametrize("count", [2**63, -(2**63) - 1])
    def test_count_beyond_int64_raises(self, count):
        result = make_result([FunctionStats("a", wasted_memory_time=count)])
        with pytest.raises(OverflowError):
            pickle.dumps(result)
