"""Tests for the hybrid histogram policies (function and application grained)."""

import numpy as np

from repro.baselines import HybridApplicationPolicy, HybridFunctionPolicy
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import TraceMetadata


def build_trace(counts, records, name="t"):
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


def periodic_series(duration, period, phase=0):
    series = np.zeros(duration, dtype=np.int64)
    series[phase::period] = 1
    return series


class TestHybridFunction:
    def test_histogram_seeded_from_training(self):
        records = [FunctionRecord("f", "a", "o", TriggerType.TIMER)]
        training = build_trace({"f": periodic_series(600, 30)}, records, "train")
        policy = HybridFunctionPolicy()
        policy.prepare(records, training)
        histogram = policy.unit_histogram("f")
        assert histogram is not None
        assert histogram.percentile(50) == 30

    def test_periodic_function_prewarmed_not_kept(self):
        # With a sharp idle-time histogram, the policy unloads after execution
        # and re-loads shortly before the next predicted invocation, so a
        # periodic function sees warm starts with little wasted memory.
        records = [FunctionRecord("f", "a", "o", TriggerType.TIMER)]
        duration = 1200
        series = periodic_series(duration, 60)
        training = build_trace({"f": series}, records, "train")
        simulation = build_trace({"f": series}, records, "sim")
        result = simulate_policy(HybridFunctionPolicy(), simulation, training, warmup_minutes=120)
        stats = result.per_function["f"]
        assert stats.cold_start_rate < 0.1
        assert stats.wasted_memory_time < duration * 0.2

    def test_uncertain_function_uses_fallback_keepalive(self):
        records = [FunctionRecord("f", "a", "o", TriggerType.HTTP)]
        duration = 500
        series = np.zeros(duration, dtype=np.int64)
        series[[10, 400]] = 1
        simulation = build_trace({"f": series}, records, "sim")
        policy = HybridFunctionPolicy(uncertain_keep_alive_minutes=50)
        result = simulate_policy(policy, simulation, None, warmup_minutes=0)
        stats = result.per_function["f"]
        # Second invocation is 390 minutes later, beyond the 50-minute
        # fallback, so both invocations are cold; memory is bounded by the
        # fallback window.
        assert stats.cold_starts == 2
        assert stats.wasted_memory_time <= 100

    def test_unknown_function_handled_online(self):
        records = [FunctionRecord("f", "a", "o")]
        simulation = build_trace({"f": periodic_series(100, 10)}, records, "sim")
        policy = HybridFunctionPolicy()
        result = simulate_policy(policy, simulation, None, warmup_minutes=0)
        assert result.per_function["f"].invocations == 10


class TestHybridApplication:
    def test_unit_is_application(self):
        records = [
            FunctionRecord("f1", "app", "o", TriggerType.TIMER),
            FunctionRecord("f2", "app", "o", TriggerType.QUEUE),
        ]
        policy = HybridApplicationPolicy()
        policy.prepare(records, None)
        assert policy.unit_members("app") == {"f1", "f2"}

    def test_sibling_invocation_keeps_whole_app_resident(self):
        records = [
            FunctionRecord("f1", "app", "o", TriggerType.TIMER),
            FunctionRecord("f2", "app", "o", TriggerType.QUEUE),
        ]
        idle = {record.function_id: np.zeros(4, dtype=np.int64) for record in records}
        policy = HybridApplicationPolicy()
        policy.prepare(records, None)
        policy.bind_index(build_trace(idle, records).invocation_index())
        resident = policy.on_minute(0, {"f1": 1})
        assert resident == {"f1", "f2"}

    def test_application_grouping_avoids_sibling_cold_starts(self):
        duration = 600
        f1 = periodic_series(duration, 20, phase=0)
        f2 = periodic_series(duration, 20, phase=2)
        records = [
            FunctionRecord("f1", "app", "o", TriggerType.TIMER),
            FunctionRecord("f2", "app", "o", TriggerType.QUEUE),
        ]
        training = build_trace({"f1": f1, "f2": f2}, records, "train")
        simulation = build_trace({"f1": f1, "f2": f2}, records, "sim")
        ha_result = simulate_policy(HybridApplicationPolicy(), simulation, training, warmup_minutes=60)
        assert ha_result.per_function["f2"].cold_start_rate < 0.2

    def test_application_grouping_helps_rare_sibling_cold_starts(self):
        duration = 600
        f1 = periodic_series(duration, 10)
        f2 = np.zeros(duration, dtype=np.int64)
        f2[[5, 300]] = 1
        records = [
            FunctionRecord("f1", "app", "o", TriggerType.TIMER),
            FunctionRecord("f2", "app", "o", TriggerType.HTTP),
        ]
        training = build_trace({"f1": f1, "f2": f2}, records, "train")
        simulation = build_trace({"f1": f1, "f2": f2}, records, "sim")
        hf = simulate_policy(HybridFunctionPolicy(), simulation, training, warmup_minutes=60)
        ha = simulate_policy(HybridApplicationPolicy(), simulation, training, warmup_minutes=60)
        # Grouping lets the rare sibling ride on the frequent function's
        # residency, so it sees no more cold starts than under HF.
        assert (
            ha.per_function["f2"].cold_starts <= hf.per_function["f2"].cold_starts
        )
