"""Tests for the FaaSCache (GDSF) baseline and its dict-stepping oracle."""

import zlib

import numpy as np
import pytest
from dict_policies import DictFaasCachePolicy
from reference_engine import simulate_reference

from repro.baselines import FaasCachePolicy
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


def prepared_policy(capacity, n_functions=10):
    policy = DictFaasCachePolicy(capacity=capacity)
    records = [FunctionRecord(f"f{i}", "a", "o") for i in range(n_functions)]
    policy.prepare(records)
    return policy


def prepared_indexed_policy(capacity, n_functions=10, duration=20, **kwargs):
    """A FaasCachePolicy prepared *and bound* to a tiny trace.

    The indexed contract needs a function-index space; the dict-API bridge
    (``on_minute``) then drives it exactly like the dict oracle in the unit
    tests below.
    """
    records = [FunctionRecord(f"f{i}", "a", "o") for i in range(n_functions)]
    counts = {f"f{i}": np.zeros(duration, dtype=np.int64) for i in range(n_functions)}
    trace = Trace(records, counts, TraceMetadata(name="tiny", duration_minutes=duration))
    policy = FaasCachePolicy(capacity=capacity, **kwargs)
    policy.prepare(records)
    policy.bind_index(trace.invocation_index())
    return policy


class TestFaasCache:
    """GDSF semantics, pinned on the dict oracle the shipped class must match."""

    def test_everything_kept_until_capacity(self):
        policy = prepared_policy(capacity=3)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        resident = policy.on_minute(2, {"f2": 1})
        assert resident == {"f0", "f1", "f2"}

    def test_eviction_when_capacity_exceeded(self):
        policy = prepared_policy(capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        resident = policy.on_minute(2, {"f2": 1})
        assert len(resident) == 2
        assert "f2" in resident

    def test_frequency_protects_hot_functions(self):
        policy = prepared_policy(capacity=2)
        for minute in range(5):
            policy.on_minute(minute, {"hot": 1})
        policy.on_minute(5, {"cold1": 1})
        resident = policy.on_minute(6, {"cold2": 1})
        assert "hot" in resident

    def test_clock_advances_on_eviction(self):
        policy = prepared_policy(capacity=1)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        assert policy._clock > 0  # eviction happened and the clock moved

    def test_never_evicts_below_capacity(self):
        policy = prepared_policy(capacity=100)
        for minute in range(10):
            policy.on_minute(minute, {f"f{minute}": 1})
        assert len(policy.resident_functions) == 10

    def test_default_capacity_derived_from_population(self):
        policy = DictFaasCachePolicy()
        records = [FunctionRecord(f"f{i}", "a", "o") for i in range(50)]
        policy.prepare(records)
        assert policy.capacity == 5

    def test_custom_sizes_respected(self):
        policy = DictFaasCachePolicy(capacity=3, sizes={"big": 3.0})
        policy.prepare([FunctionRecord("big", "a", "o"), FunctionRecord("small", "a", "o")])
        policy.on_minute(0, {"big": 1})
        resident = policy.on_minute(1, {"small": 1})
        assert len(resident) <= 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DictFaasCachePolicy(capacity=0)

    def test_reset_clears_cache(self):
        policy = prepared_policy(capacity=5)
        policy.on_minute(0, {"f0": 1})
        policy.reset()
        assert policy.resident_functions == set()


class TestIndexedFaasCache:
    """The shipped index-native class behaves exactly like the dict oracle."""

    def test_shares_the_policy_name(self):
        assert FaasCachePolicy().name == DictFaasCachePolicy().name

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FaasCachePolicy(capacity=0)

    def test_default_capacity_derived_from_population(self):
        policy = prepared_indexed_policy(capacity=None, n_functions=50)
        assert policy.capacity == 5

    @pytest.mark.parametrize("scenario", ["basic", "hot", "sizes"])
    def test_minute_by_minute_lockstep_with_the_dict_twin(self, scenario):
        kwargs = {"sizes": {"f0": 3.0}} if scenario == "sizes" else {}
        capacity = {"basic": 2, "hot": 2, "sizes": 3}[scenario]
        dict_policy = DictFaasCachePolicy(capacity=capacity, **kwargs)
        dict_policy.prepare([FunctionRecord(f"f{i}", "a", "o") for i in range(10)])
        indexed = prepared_indexed_policy(capacity=capacity, **kwargs)

        # crc32, not hash(): PYTHONHASHSEED must not pick the workload.
        rng = np.random.default_rng(zlib.crc32(scenario.encode()))
        for minute in range(60):
            if scenario == "hot" and minute % 2 == 0:
                invocations = {"f0": 1}
            else:
                chosen = rng.choice(10, size=int(rng.integers(0, 4)), replace=False)
                invocations = {f"f{i}": int(rng.integers(1, 4)) for i in chosen}
            assert dict_policy.on_minute(minute, invocations) == indexed.on_minute(
                minute, invocations
            ), f"diverged at minute {minute}"

    def test_eviction_order_matches_heap_semantics(self):
        # Equal priorities break ties on push order: the earliest-updated
        # function is evicted first, exactly like the heap's counter.
        policy = prepared_indexed_policy(capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        resident = policy.on_minute(2, {"f2": 1})
        assert resident == {"f1", "f2"}  # f0 pushed first among the ties

    def test_reset_clears_cache(self):
        policy = prepared_indexed_policy(capacity=5)
        policy.on_minute(0, {"f0": 1})
        policy.reset()
        assert policy.resident_functions == set()

    def test_fingerprint_equivalence_with_custom_sizes_and_costs(self, small_split):
        function_ids = small_split.simulation.function_ids
        sizes = {fid: 2.0 for fid in function_ids[::3]}
        costs = {fid: 5.0 for fid in function_ids[::4]}
        results = [
            simulate(
                factory(capacity=20, sizes=sizes, costs=costs),
                small_split.simulation,
                small_split.training,
                warmup_minutes=120,
            ).deterministic_fingerprint()
            for factory in (DictFaasCachePolicy, FaasCachePolicy)
            for simulate in (simulate_policy, simulate_reference)
        ]
        assert len(set(results)) == 1
