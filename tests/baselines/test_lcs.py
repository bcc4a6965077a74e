"""Tests for the LCS (LRU warm container) baseline and its dict-stepping oracle."""

import numpy as np
import pytest
from dict_policies import DictLcsPolicy

from repro.baselines import LcsPolicy
from repro.traces import FunctionRecord, Trace


def prepared_policy(keep_alive=30, capacity=None, n_functions=10):
    policy = DictLcsPolicy(keep_alive_minutes=keep_alive, capacity=capacity)
    policy.prepare([FunctionRecord(f"f{i}", "a", "o") for i in range(n_functions)])
    return policy


class TestLcs:
    """LRU semantics, pinned on the dict oracle the shipped class must match."""

    def test_container_expires_after_keepalive(self):
        policy = prepared_policy(keep_alive=5, capacity=10)
        policy.on_minute(0, {"f0": 1})
        assert "f0" in policy.on_minute(4, {})
        assert "f0" not in policy.on_minute(5, {})

    def test_lru_eviction_when_over_capacity(self):
        policy = prepared_policy(keep_alive=100, capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        resident = policy.on_minute(2, {"f2": 1})
        assert resident == {"f1", "f2"}

    def test_recent_use_protects_from_lru(self):
        policy = prepared_policy(keep_alive=100, capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        policy.on_minute(2, {"f0": 1})
        resident = policy.on_minute(3, {"f2": 1})
        assert "f0" in resident
        assert "f1" not in resident

    def test_default_capacity_from_population(self):
        policy = prepared_policy(n_functions=50)
        assert policy.capacity == 10

    @pytest.mark.parametrize("kwargs", [{"keep_alive_minutes": 0}, {"capacity": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DictLcsPolicy(**kwargs)

    def test_reset(self):
        policy = prepared_policy()
        policy.on_minute(0, {"f0": 1})
        policy.reset()
        assert policy.on_minute(1, {}) == set()


class TestIndexedLcs:
    """Behavioural tests of the shipped class, driven via the dict bridge.

    The full (engines × placements × workloads) fingerprint equivalence runs
    through the harness catalog (`tests/simulation/harness.py`: the ``lcs``
    pair); here the port's own mechanics are pinned directly — in particular
    the capacity-eviction tombstone, the one piece of state the dict oracle
    gets for free by deleting map entries.
    """

    def _prepared(self, keep_alive=30, capacity=None, n_functions=10):
        records = [FunctionRecord(f"f{i}", "a", "o") for i in range(n_functions)]
        counts = {f"f{i}": np.zeros(8, dtype=np.int64) for i in range(n_functions)}
        policy = LcsPolicy(keep_alive_minutes=keep_alive, capacity=capacity)
        policy.prepare(records)
        policy.bind_index(Trace(records, counts).invocation_index())
        return policy

    def test_container_expires_after_keepalive(self):
        policy = self._prepared(keep_alive=5, capacity=10)
        policy.on_minute(0, {"f0": 1})
        assert "f0" in policy.on_minute(4, {})
        assert "f0" not in policy.on_minute(5, {})

    def test_lru_eviction_when_over_capacity(self):
        policy = self._prepared(keep_alive=100, capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        assert policy.on_minute(2, {"f2": 1}) == {"f1", "f2"}

    def test_capacity_eviction_is_a_tombstone_until_reinvocation(self):
        policy = self._prepared(keep_alive=100, capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        policy.on_minute(2, {"f2": 1})  # evicts f0 under capacity
        # f0's keep-alive window is far from over, but the eviction must
        # stick: the dict oracle deletes the entry outright.
        assert "f0" not in policy.on_minute(3, {})
        # A re-invocation (and f1 expendable) brings it back.
        assert "f0" in policy.on_minute(4, {"f0": 1})

    def test_default_capacity_from_population(self):
        policy = self._prepared(n_functions=10)
        assert policy.capacity == 2

    def test_shares_the_dict_twin_name(self):
        assert LcsPolicy().name == DictLcsPolicy().name == "lcs"

    @pytest.mark.parametrize(
        "kwargs", [dict(keep_alive_minutes=0), dict(capacity=0)]
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LcsPolicy(**kwargs)

    def test_reset_clears_recency_and_tombstones(self):
        policy = self._prepared(keep_alive=100, capacity=2)
        policy.on_minute(0, {"f0": 1})
        policy.on_minute(1, {"f1": 1})
        policy.on_minute(2, {"f2": 1})
        policy.reset()
        assert policy.on_minute(0, {}) == set()
        assert policy.on_minute(1, {"f0": 1}) == {"f0"}
