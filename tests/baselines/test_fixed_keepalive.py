"""Tests for the fixed keep-alive baseline and its dict-stepping oracle."""

import numpy as np
import pytest
from dict_policies import DictFixedKeepAlivePolicy

from repro.baselines import FixedKeepAlivePolicy
from repro.traces import FunctionRecord, Trace


def bound_policy(keep_alive_minutes):
    """A FixedKeepAlivePolicy bound to an idle trace over ``a``, ``b``, ``f``.

    The dict-API bridge (``on_minute``) then drives it exactly like the
    oracle in the tests below.
    """
    records = [FunctionRecord(fid, "app", "owner") for fid in ("a", "b", "f")]
    counts = {record.function_id: np.zeros(8, dtype=np.int64) for record in records}
    policy = FixedKeepAlivePolicy(keep_alive_minutes)
    policy.bind_index(Trace(records, counts).invocation_index())
    return policy


@pytest.fixture(params=["dict", "indexed"])
def make(request):
    """Build the oracle or the bound shipped policy for a given window."""
    return DictFixedKeepAlivePolicy if request.param == "dict" else bound_policy


class TestFixedKeepAlive:
    def test_name_reflects_window(self, make):
        assert make(10).name == "fixed-10min"

    def test_function_stays_resident_within_window(self, make):
        policy = make(3)
        assert "f" in policy.on_minute(0, {"f": 1})
        assert "f" in policy.on_minute(1, {})
        assert "f" in policy.on_minute(2, {})
        assert "f" not in policy.on_minute(3, {})

    def test_invocation_refreshes_expiry(self, make):
        policy = make(2)
        policy.on_minute(0, {"f": 1})
        policy.on_minute(1, {"f": 1})
        assert "f" in policy.on_minute(2, {})
        assert "f" not in policy.on_minute(3, {})

    def test_zero_window_evicts_immediately(self, make):
        policy = make(0)
        assert policy.on_minute(0, {"f": 1}) == set()

    def test_negative_window_rejected(self, make):
        with pytest.raises(ValueError):
            make(-1)

    def test_reset_clears_state(self, make):
        policy = make(5)
        policy.on_minute(0, {"f": 1})
        policy.reset()
        assert policy.on_minute(1, {}) == set()

    def test_multiple_functions_tracked_independently(self, make):
        policy = make(2)
        policy.on_minute(0, {"a": 1})
        resident = policy.on_minute(1, {"b": 1})
        assert resident == {"a", "b"}
        assert policy.on_minute(2, {}) == {"b"}
