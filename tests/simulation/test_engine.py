"""Tests for the simulation engine, including warm-up and degenerate policies."""

import numpy as np
import pytest

from reference_engine import ReferenceSimulator

from repro.simulation import (
    AlwaysWarmPolicy,
    NoKeepAlivePolicy,
    Simulator,
    simulate_policy,
)
from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


def single_function_trace(counts, name="t"):
    records = [FunctionRecord("f", "a", "o")]
    return Trace(records, {"f": np.asarray(counts)}, TraceMetadata(name=name, duration_minutes=len(counts)))


class TestDegeneratePolicies:
    def test_no_keepalive_every_invocation_cold(self):
        trace = single_function_trace([1, 0, 1, 0, 1])
        result = simulate_policy(NoKeepAlivePolicy(), trace, warmup_minutes=0)
        stats = result.per_function["f"]
        assert stats.invocations == 3
        assert stats.cold_starts == 3
        assert result.total_wasted_memory_time == 0

    def test_always_warm_only_first_invocation_cold(self):
        trace = single_function_trace([1, 0, 1, 0, 1])
        result = simulate_policy(AlwaysWarmPolicy(), trace, warmup_minutes=0)
        stats = result.per_function["f"]
        assert stats.cold_starts == 1
        # Loaded every minute after the first, idle on minutes 1 and 3.
        assert stats.wasted_memory_time == 2

    def test_always_warm_memory_usage_counts_all_functions(self):
        records = [FunctionRecord(f"f{i}", "a", "o") for i in range(3)]
        counts = {"f0": [1, 0, 0], "f1": [0, 0, 0], "f2": [0, 1, 0]}
        trace = Trace(records, counts, TraceMetadata(name="t", duration_minutes=3))
        result = simulate_policy(AlwaysWarmPolicy(), trace, warmup_minutes=0)
        assert result.peak_memory_usage == 3


class TestAccountingRules:
    def test_cold_start_charged_against_entering_resident_set(self):
        # Function invoked at minutes 0 and 2; a 1-minute keep-alive policy
        # evicts it before minute 2, so both invocations are cold.
        class OneMinutePolicy(ProvisioningPolicy):
            name = "one-minute"

            def on_minute(self, minute, invocations):
                return set(invocations)

        trace = single_function_trace([1, 0, 1])
        result = simulate_policy(OneMinutePolicy(), trace, warmup_minutes=0)
        assert result.per_function["f"].cold_starts == 2

    def test_warm_start_when_policy_keeps_resident(self):
        class KeepForeverPolicy(ProvisioningPolicy):
            name = "keep-forever"

            def __init__(self):
                self._seen = set()

            def on_minute(self, minute, invocations):
                self._seen |= set(invocations)
                return set(self._seen)

        trace = single_function_trace([1, 0, 1])
        result = simulate_policy(KeepForeverPolicy(), trace, warmup_minutes=0)
        assert result.per_function["f"].cold_starts == 1

    def test_wmt_charged_for_resident_idle_minutes(self):
        class KeepForeverPolicy(ProvisioningPolicy):
            name = "keep-forever"

            def __init__(self):
                self._seen = set()

            def on_minute(self, minute, invocations):
                self._seen |= set(invocations)
                return set(self._seen)

        trace = single_function_trace([1, 0, 0, 0, 1])
        result = simulate_policy(KeepForeverPolicy(), trace, warmup_minutes=0)
        assert result.per_function["f"].wasted_memory_time == 3

    def test_memory_usage_includes_on_demand_loads(self):
        trace = single_function_trace([0, 1, 0])
        result = simulate_policy(NoKeepAlivePolicy(), trace, warmup_minutes=0)
        np.testing.assert_array_equal(result.memory_usage, [0, 1, 0])

    def test_overhead_is_measured(self):
        trace = single_function_trace([1, 1, 1])
        result = simulate_policy(NoKeepAlivePolicy(), trace, warmup_minutes=0)
        assert result.overhead_seconds >= 0.0
        assert result.overhead_per_minute >= 0.0


class TestWarmup:
    def test_warmup_carries_residency_across_boundary(self):
        # Training ends with an invocation at its last minute; a 10-minute
        # keep-alive policy should still hold the instance when the
        # simulation window starts, so the first invocation is warm.
        from dict_policies import DictFixedKeepAlivePolicy

        training = single_function_trace([0] * 5 + [1], name="train")
        simulation = single_function_trace([0, 0, 1], name="sim")
        result = simulate_policy(
            DictFixedKeepAlivePolicy(10), simulation, training, warmup_minutes=6
        )
        assert result.per_function["f"].cold_starts == 0

    def test_zero_warmup_starts_cold(self):
        from dict_policies import DictFixedKeepAlivePolicy

        training = single_function_trace([0] * 5 + [1], name="train")
        simulation = single_function_trace([0, 0, 1], name="sim")
        result = simulate_policy(
            DictFixedKeepAlivePolicy(10), simulation, training, warmup_minutes=0
        )
        assert result.per_function["f"].cold_starts == 1

    def test_warmup_minutes_validation(self):
        trace = single_function_trace([1])
        with pytest.raises(ValueError):
            Simulator(trace, warmup_minutes=-1)

    def test_warmup_does_not_charge_metrics(self):
        from dict_policies import DictFixedKeepAlivePolicy

        training = single_function_trace([1] * 10, name="train")
        simulation = single_function_trace([0, 0, 0], name="sim")
        result = simulate_policy(
            DictFixedKeepAlivePolicy(2), simulation, training, warmup_minutes=10
        )
        # The function was never invoked during the simulation window.
        assert result.total_invocations == 0


class TestEngineEquivalence:
    """The vectorized engine must reproduce the reference loop exactly."""

    @staticmethod
    def assert_identical(policy_factory, simulation, training=None, warmup=0, resident=None):
        results = {}
        for engine, simulator_type in (
            ("reference", ReferenceSimulator),
            ("vectorized", Simulator),
        ):
            simulator = simulator_type(
                simulation,
                training,
                initially_resident=resident,
                warmup_minutes=warmup,
            )
            results[engine] = simulator.run(policy_factory())
        reference, vectorized = results["reference"], results["vectorized"]
        assert set(reference.per_function) == set(vectorized.per_function)
        for function_id, expected in reference.per_function.items():
            actual = vectorized.per_function[function_id]
            assert actual.invocations == expected.invocations, function_id
            assert actual.cold_starts == expected.cold_starts, function_id
            assert actual.wasted_memory_time == expected.wasted_memory_time, function_id
        np.testing.assert_array_equal(reference.memory_usage, vectorized.memory_usage)
        assert reference.total_wasted_memory_time == vectorized.total_wasted_memory_time
        assert reference.emcr == vectorized.emcr
        assert (
            reference.deterministic_fingerprint()
            == vectorized.deterministic_fingerprint()
        )

    def test_single_function_degenerate_policies(self):
        trace = single_function_trace([1, 0, 1, 0, 1])
        self.assert_identical(NoKeepAlivePolicy, trace)
        self.assert_identical(AlwaysWarmPolicy, trace)

    def test_small_fixed_trace_with_keepalive(self):
        from dict_policies import DictFixedKeepAlivePolicy

        records = [FunctionRecord(f"f{i}", "a", "o") for i in range(4)]
        counts = {
            "f0": [1, 0, 0, 1, 0, 0, 0, 1],
            "f1": [0, 2, 0, 0, 0, 0, 0, 0],
            "f2": [0, 0, 0, 0, 0, 0, 0, 0],
            "f3": [1, 1, 1, 1, 1, 1, 1, 1],
        }
        trace = Trace(records, counts, TraceMetadata(name="t", duration_minutes=8))
        self.assert_identical(lambda: DictFixedKeepAlivePolicy(2), trace)

    def test_with_warmup_and_training(self):
        from dict_policies import DictFixedKeepAlivePolicy

        training = single_function_trace([0, 1, 0, 1, 1], name="train")
        simulation = single_function_trace([1, 0, 1], name="sim")
        self.assert_identical(
            lambda: DictFixedKeepAlivePolicy(3), simulation, training, warmup=4
        )

    def test_initially_resident_unknown_to_trace(self):
        # Ids never appearing in the trace must still be charged (usage, idle
        # minutes, wasted memory time) identically by both implementations.
        trace = single_function_trace([1, 0, 1])
        self.assert_identical(NoKeepAlivePolicy, trace, resident={"ghost", "f"})

    def test_synthetic_workload_suite(self):
        from dict_policies import DictFixedKeepAlivePolicy, DictHybridFunctionPolicy
        from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace

        profile = GeneratorProfile(n_functions=25, duration_days=2.0, seed=11,
                                   unseen_window_days=0.5)
        split = split_trace(AzureTraceGenerator(profile).generate(), training_days=1.5)
        for factory in (NoKeepAlivePolicy, AlwaysWarmPolicy,
                        lambda: DictFixedKeepAlivePolicy(10), DictHybridFunctionPolicy):
            self.assert_identical(factory, split.simulation, split.training, warmup=120)

    def test_synthetic_workload_paper_policies(self):
        # The policies behind every headline number of the paper must also
        # round-trip through the vectorized fast paths (shared read-only
        # invocation mappings, set-diff residency updates) unchanged.
        from dict_policies import DictDefusePolicy, DictFaasCachePolicy, DictSpesPolicy
        from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace

        profile = GeneratorProfile(n_functions=20, duration_days=2.0, seed=23,
                                   unseen_window_days=0.5)
        split = split_trace(AzureTraceGenerator(profile).generate(), training_days=1.5)
        for factory in (
            DictSpesPolicy, DictDefusePolicy, lambda: DictFaasCachePolicy(capacity=5)
        ):
            self.assert_identical(factory, split.simulation, split.training, warmup=120)

    def test_unknown_engine_rejected(self):
        trace = single_function_trace([1])
        with pytest.raises(ValueError):
            Simulator(trace, engine="warp-drive")


class TestSimulatorReuse:
    def test_prepare_false_skips_offline_phase(self):
        calls = []

        class RecordingPolicy(NoKeepAlivePolicy):
            def prepare(self, functions, training=None):
                calls.append("prepare")
                super().prepare(functions, training)

        trace = single_function_trace([1, 0])
        simulator = Simulator(trace, warmup_minutes=0)
        policy = RecordingPolicy()
        policy.prepare(trace.records(), None)
        simulator.run(policy, prepare=False)
        assert calls == ["prepare"]
