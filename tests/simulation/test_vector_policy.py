"""Tests for the indexed policy contract and the dict-API adapter."""

import numpy as np
import pytest

from dict_policies import DictFixedKeepAlivePolicy
from reference_engine import simulate_reference
from repro.simulation import (
    DictPolicyAdapter,
    Simulator,
    VectorizedPolicy,
    simulate_policy,
)
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


def small_trace(series_by_id, name="t"):
    records = [FunctionRecord(fid, f"app-{fid}", f"owner-{fid}") for fid in series_by_id]
    duration = len(next(iter(series_by_id.values())))
    return Trace(
        records,
        {fid: np.asarray(series) for fid, series in series_by_id.items()},
        TraceMetadata(name=name, duration_minutes=duration),
    )


class CountdownPolicy(VectorizedPolicy):
    """Minimal index-native policy: keep invoked functions for k minutes."""

    name = "countdown"

    def __init__(self, keep: int = 2) -> None:
        self.keep = keep

    def on_bind(self, index):
        self._expiry = np.full(index.n_functions, -(2**62), dtype=np.int64)

    def on_minute_indexed(self, minute, invoked, counts):
        if invoked.size:
            self._expiry[invoked] = minute + self.keep
        return self._expiry > minute


class TestVectorizedPolicy:
    def test_unbound_policy_raises_a_clear_error(self):
        policy = CountdownPolicy()
        with pytest.raises(RuntimeError, match="not bound"):
            policy.on_minute(0, {"f": 1})

    def test_simulator_binds_automatically(self):
        trace = small_trace({"f": [1, 0, 0, 1]})
        result = simulate_policy(CountdownPolicy(2), trace, warmup_minutes=0)
        stats = result.per_function["f"]
        # Invoked at 0, kept through minutes 1-2, evicted before 3 -> warm at
        # nothing; minute 3 arrives after expiry (0+2 < 3) -> cold again.
        assert stats.invocations == 2
        assert stats.cold_starts == 2

    def test_dict_bridge_matches_indexed_run(self):
        trace = small_trace({"a": [1, 0, 1, 0, 1], "b": [0, 1, 0, 1, 0]})
        vectorized = simulate_policy(CountdownPolicy(2), trace, warmup_minutes=0)
        reference = simulate_reference(CountdownPolicy(2), trace, warmup_minutes=0)
        assert (
            vectorized.deterministic_fingerprint()
            == reference.deterministic_fingerprint()
        )

    def test_returned_mask_is_copied_by_the_engine(self):
        # The policy reuses one buffer; the engine must not alias it.
        trace = small_trace({"a": [1, 1, 1], "b": [1, 0, 0]})
        result = simulate_policy(CountdownPolicy(1), trace, warmup_minutes=0)
        assert result.per_function["a"].cold_starts == 1


class TestDictPolicyAdapter:
    def test_rejects_indexed_policies(self):
        with pytest.raises(TypeError, match="already implements"):
            DictPolicyAdapter(CountdownPolicy())

    def test_adapter_impersonates_the_wrapped_policy(self):
        wrapped = DictFixedKeepAlivePolicy(10)
        adapter = DictPolicyAdapter(wrapped)
        assert adapter.name == "fixed-10min"

    def test_adapter_tracks_extra_resident_ids(self):
        class ForeignPolicy(DictFixedKeepAlivePolicy):
            def on_minute(self, minute, invocations):
                return super().on_minute(minute, invocations) | {"ghost"}

        trace = small_trace({"f": [1, 0, 1, 0]})
        adapter = DictPolicyAdapter(ForeignPolicy(10))
        adapter.bind_index(trace.invocation_index())
        adapter.seed_resident(set())
        mask = adapter.on_minute_indexed(0, np.array([0]), np.array([1]))
        assert mask[0]
        assert "ghost" in adapter.extra_resident

    def test_extra_ids_are_charged_like_the_reference_engine(self):
        class ForeignPolicy(DictFixedKeepAlivePolicy):
            def on_minute(self, minute, invocations):
                return super().on_minute(minute, invocations) | {"ghost"}

        trace = small_trace({"f": [1, 0, 1, 0]})
        vectorized = simulate_policy(ForeignPolicy(10), trace, warmup_minutes=0)
        reference = simulate_reference(ForeignPolicy(10), trace, warmup_minutes=0)
        assert (
            vectorized.deterministic_fingerprint()
            == reference.deterministic_fingerprint()
        )
        assert vectorized.per_function["ghost"].wasted_memory_time > 0

    def test_warmup_reaches_indexed_policies(self):
        training = small_trace({"f": [0, 0, 0, 0, 1]}, name="train")
        simulation = small_trace({"f": [1, 0, 0]}, name="sim")
        simulator = Simulator(simulation, training, warmup_minutes=5)
        result = simulator.run(CountdownPolicy(3))
        # Training's last invocation at warm-up minute -1 keeps the instance
        # resident through simulation minute 0.
        assert result.per_function["f"].cold_starts == 0
