"""Tests for the hybrid histogram policies (function and application grained)."""

import numpy as np
import pytest

from repro.baselines import DefusePolicy, HybridApplicationPolicy, HybridFunctionPolicy
from repro.simulation import Simulator, simulate_policy
from repro.traces import FunctionRecord, Trace, TriggerType, split_trace
from repro.traces.schema import TraceMetadata
from repro.traces.synthetic import AzureTraceGenerator, GeneratorProfile


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


#: Fingerprints of (first run, second run without prepare, run rebound to a
#: half-length slice of every other function), pinned from the per-minute
#: from-scratch window derivation that the incremental histograms replaced.
PERSISTENCE_PINS = {
    HybridFunctionPolicy: (
        "8b40f5ef09041184cbcb0ff9076ac5dab63484a021e077418575e13108e723bd",
        "5159c78bac70f0546e5676534c4cbc81601999b112b0cc34f0b67030fab21e9a",
        "f5353ff83662a950a709f35b7cc975b9c0f7ab7342a0ecb26a86badd91a6e462",
    ),
    HybridApplicationPolicy: (
        "937b763a1cdfc76479cf1a16dde10a3d7bc68c853d2d5ca6245eaa6830da5bea",
        "76e259ae83293bdfa23c3fc5e5950c79aedbfa17d92681def67a816ca15ee8c8",
        "a049d50697e39219441767815177d3031a8a3399abf59d8adbdef0518dcb1ee7",
    ),
    DefusePolicy: (
        "739d93900bd3931ddf6653aab1be1e842873201e489d784754fb856e91b129f9",
        "8899d5e23f662231f05a4116107beb6d2972dbd35e7968b7189e596ab3f92460",
        "379acaff05fc903bb08ded7158a9e919b963b92f1150315a15102c44387cf149",
    ),
}


@pytest.mark.parametrize("policy_class", list(PERSISTENCE_PINS), ids=lambda c: c.name)
def test_histograms_persist_across_runs_and_binds(policy_class):
    # The idle times a run observes stay in the unit histograms: a second
    # run without prepare starts from them, and so does a run bound to
    # another index (other positions, other unit numbering).
    profile = GeneratorProfile(n_functions=24, duration_days=4, seed=11)
    trace = AzureTraceGenerator(profile).generate()
    split = split_trace(trace, training_days=2.0)
    simulation = split.simulation
    rebound = simulation.slice(0, simulation.duration_minutes // 2, name="half").shard(
        list(range(1, len(simulation), 2)), name="rebound"
    )
    policy = policy_class()
    results = (
        Simulator(simulation, split.training, warmup_minutes=720).run(policy),
        Simulator(simulation, split.training, warmup_minutes=720).run(policy, prepare=False),
        Simulator(rebound, split.training, warmup_minutes=0).run(policy, prepare=False),
    )
    assert tuple(r.deterministic_fingerprint() for r in results) == PERSISTENCE_PINS[policy_class]
    assert len(set(PERSISTENCE_PINS[policy_class])) == 3
    if policy_class is DefusePolicy:
        assert policy.dependencies


def test_unit_histogram_is_a_snapshot_of_the_live_state():
    records = [FunctionRecord("f", "a", "o", TriggerType.TIMER)]
    series = periodic_series(600, 30)
    policy = HybridFunctionPolicy()
    simulate_policy(policy, build_trace({"f": series}, records, "sim"), None, warmup_minutes=0)
    before = policy.unit_histogram("f")
    assert before.in_bounds_count == 19
    before.observe(5)
    assert policy.unit_histogram("f").in_bounds_count == 19
    assert policy.unit_histogram("missing") is None
