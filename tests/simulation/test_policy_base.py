"""Tests for the provisioning-policy base classes."""

import numpy as np

from repro.simulation import AlwaysWarmPolicy, NoKeepAlivePolicy
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


def bound(policy, records, function_ids):
    """``policy`` prepared on ``records`` and bound to a trace of ``function_ids``.

    The degenerate policies are index-native: their dict API is a bridge that
    needs the function-index space of the trace it runs over.
    """
    policy.prepare(records)
    trace = Trace(
        [FunctionRecord(fid, "a", "o") for fid in function_ids],
        {fid: np.zeros(2, dtype=np.int64) for fid in function_ids},
        TraceMetadata(name="t", duration_minutes=2),
    )
    policy.bind_index(trace.invocation_index())
    return policy


class TestNoKeepAlive:
    def test_returns_empty_set(self):
        policy = bound(NoKeepAlivePolicy(), [FunctionRecord("f", "a", "o")], ["f"])
        assert policy.on_minute(0, {"f": 1}) == set()

    def test_known_functions_recorded(self):
        policy = NoKeepAlivePolicy()
        records = [FunctionRecord("f", "a", "o"), FunctionRecord("g", "a", "o")]
        policy.prepare(records)
        assert set(policy.known_functions) == {"f", "g"}


class TestAlwaysWarm:
    def test_all_known_functions_resident(self):
        records = [FunctionRecord("f", "a", "o"), FunctionRecord("g", "a", "o")]
        policy = bound(AlwaysWarmPolicy(), records, ["f", "g"])
        assert policy.on_minute(0, {}) == {"f", "g"}

    def test_explicit_subset(self):
        records = [FunctionRecord("f", "a", "o"), FunctionRecord("g", "a", "o")]
        policy = bound(AlwaysWarmPolicy(function_ids=["f"]), records, ["f", "g"])
        assert policy.on_minute(0, {}) == {"f"}

    def test_newly_seen_functions_added(self):
        policy = bound(
            AlwaysWarmPolicy(function_ids=["f"]),
            [FunctionRecord("f", "a", "o")],
            ["f", "new"],
        )
        resident = policy.on_minute(0, {"new": 1})
        assert "new" in resident
        assert "new" in policy.on_minute(1, {})

    def test_explicit_ids_outside_the_index_are_extra_residents(self):
        policy = bound(
            AlwaysWarmPolicy(function_ids=["f", "ghost"]),
            [FunctionRecord("f", "a", "o")],
            ["f", "g"],
        )
        assert policy.extra_resident == {"ghost"}
        assert policy.on_minute(0, {"g": 1}) == {"f", "g", "ghost"}
