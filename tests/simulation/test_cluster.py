"""Tests for the capacity-constrained cluster mode."""

import numpy as np
import pytest

from dict_policies import DictFixedKeepAlivePolicy
from repro.baselines import FixedKeepAlivePolicy
from repro.simulation import (
    ENGINE_IMPLEMENTATIONS,
    AlwaysWarmPolicy,
    ClusterModel,
    Simulator,
    simulate_policy,
)
from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace
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


class TestClusterModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterModel(memory_capacity=0)
        with pytest.raises(ValueError):
            ClusterModel(memory_capacity=4, n_nodes=0)
        with pytest.raises(ValueError):
            ClusterModel(memory_capacity=2, n_nodes=4)

    def test_node_capacity_is_ceiling_division(self):
        assert ClusterModel(memory_capacity=10, n_nodes=4).node_capacity == 3
        assert ClusterModel(memory_capacity=8, n_nodes=4).node_capacity == 2

    def test_sharding_is_deterministic_and_in_range(self):
        model = ClusterModel(memory_capacity=16, n_nodes=4)
        nodes = [model.node_of(f"func-{i:05d}") for i in range(50)]
        assert nodes == [model.node_of(f"func-{i:05d}") for i in range(50)]
        assert all(0 <= node < 4 for node in nodes)
        assert len(set(nodes)) > 1  # the hash actually spreads functions

    def test_every_engine_accepts_cluster_mode(self):
        trace = small_trace({"f": [1, 0, 1]})
        for engine in ENGINE_IMPLEMENTATIONS:
            Simulator(trace, engine=engine, cluster=ClusterModel(memory_capacity=4))


class TestArbiter:
    def test_respects_the_cap_and_keeps_most_recently_invoked(self):
        model = ClusterModel(memory_capacity=2, n_nodes=1)
        arbiter = model.arbiter(("a", "b", "c"))
        arbiter.observe_invocations(0, np.array([0]))       # a at minute 0
        arbiter.observe_invocations(1, np.array([1]))       # b at minute 1
        arbiter.observe_invocations(2, np.array([2]))       # c at minute 2
        proposed = np.array([True, True, True])
        admitted, evicted = arbiter.admit(proposed)
        # b and c are the most recent; a (least recently invoked) is dropped.
        np.testing.assert_array_equal(admitted, [False, True, True])
        # Nothing was admitted before, so the drop is a denial, not an eviction.
        assert evicted == 0

    def test_forced_removal_counts_as_eviction(self):
        model = ClusterModel(memory_capacity=1, n_nodes=1)
        arbiter = model.arbiter(("a", "b"))
        arbiter.observe_invocations(0, np.array([0]))
        admitted, evicted = arbiter.admit(np.array([True, False]))
        assert evicted == 0 and admitted[0]
        arbiter.observe_invocations(1, np.array([1]))
        # Policy wants both; only the fresher b fits; a was resident -> evicted.
        admitted, evicted = arbiter.admit(np.array([True, True]))
        np.testing.assert_array_equal(admitted, [False, True])
        assert evicted == 1
        assert arbiter.evictions == 1

    def test_tie_break_prefers_the_lower_function_index(self):
        model = ClusterModel(memory_capacity=1, n_nodes=1)
        arbiter = model.arbiter(("a", "b"))
        # Both invoked at the same minute: the lower index survives.
        arbiter.observe_invocations(3, np.array([0, 1]))
        admitted, _ = arbiter.admit(np.array([True, True]))
        np.testing.assert_array_equal(admitted, [True, False])

    def test_global_capacity_holds_when_not_divisible_by_nodes(self):
        # ceil(10 / 3) = 4 per node: three full nodes would sum to 12.  The
        # cluster-wide bound must still cap the total at 10.
        model = ClusterModel(memory_capacity=10, n_nodes=3)
        ids = tuple(f"f{i}" for i in range(30))
        arbiter = model.arbiter(ids)
        arbiter.observe_invocations(0, np.arange(30))
        admitted, _ = arbiter.admit(np.ones(30, dtype=bool))
        assert int(admitted.sum()) <= model.memory_capacity
        per_node = arbiter.node_usage(admitted)
        assert (per_node <= model.node_capacity).all()

    def test_caller_mutations_do_not_pollute_admitted_state(self):
        # The engine marks on-demand loads on the returned mask; that must
        # not turn later admission *denials* into counted *evictions*.
        model = ClusterModel(memory_capacity=1, n_nodes=1)
        arbiter = model.arbiter(("a", "b"))
        arbiter.observe_invocations(0, np.array([0]))
        admitted, _ = arbiter.admit(np.array([True, False]))  # a admitted
        admitted[1] = True  # engine-style on-demand load of b
        arbiter.observe_invocations(1, np.array([0]))  # a stays most recent
        _, evicted = arbiter.admit(np.array([True, True]))  # b denied
        assert evicted == 0
        assert arbiter.evictions == 0


class TestCapacityConstrainedRuns:
    @pytest.fixture(scope="class")
    def split(self):
        trace = AzureTraceGenerator(GeneratorProfile.small(seed=3)).generate()
        return split_trace(trace, training_days=2.0)

    def test_huge_capacity_matches_the_uncapped_run(self, split):
        uncapped = simulate_policy(
            FixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=0,
        )
        capped = simulate_policy(
            FixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=0, cluster=ClusterModel(memory_capacity=100_000, n_nodes=4),
        )
        assert capped.cluster is not None
        assert capped.cluster.evictions == 0
        assert capped.cluster.capacity_cold_starts == 0
        assert {
            fid: (s.invocations, s.cold_starts, s.wasted_memory_time)
            for fid, s in capped.per_function.items()
        } == {
            fid: (s.invocations, s.cold_starts, s.wasted_memory_time)
            for fid, s in uncapped.per_function.items()
        }
        np.testing.assert_array_equal(capped.memory_usage, uncapped.memory_usage)

    def test_squeeze_produces_evictions_and_capacity_cold_starts(self, split):
        uncapped = simulate_policy(
            DictFixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=0,
        )
        squeeze = ClusterModel(
            memory_capacity=max(2, uncapped.peak_memory_usage // 3), n_nodes=2
        )
        capped = simulate_policy(
            DictFixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=0, cluster=squeeze,
        )
        stats = capped.cluster
        assert stats.evictions > 0
        assert stats.capacity_cold_starts > 0
        assert capped.total_cold_starts >= uncapped.total_cold_starts
        assert stats.node_usage.shape == (
            split.simulation.duration_minutes,
            squeeze.n_nodes,
        )
        # The *resident* set entering each minute respects the per-node cap;
        # only on-demand loads may exceed it, so per-node usage is bounded by
        # node_capacity plus that minute's invoked functions.
        summary = capped.summary()
        assert summary["evictions"] == float(stats.evictions)
        assert summary["capacity_cold_starts"] == float(stats.capacity_cold_starts)
        assert "mean_node_utilization" in summary

    def test_fingerprint_distinguishes_capacity_runs(self, split):
        capped = simulate_policy(
            AlwaysWarmPolicy(), split.simulation, split.training,
            warmup_minutes=0, cluster=ClusterModel(memory_capacity=5, n_nodes=1),
        )
        uncapped = simulate_policy(
            AlwaysWarmPolicy(), split.simulation, split.training, warmup_minutes=0,
        )
        assert (
            capped.deterministic_fingerprint() != uncapped.deterministic_fingerprint()
        )

    def test_cluster_runs_are_deterministic(self, split):
        model = ClusterModel(memory_capacity=8, n_nodes=2)
        first = simulate_policy(
            FixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=120, cluster=model,
        )
        second = simulate_policy(
            FixedKeepAlivePolicy(10), split.simulation, split.training,
            warmup_minutes=120, cluster=model,
        )
        assert (
            first.deterministic_fingerprint() == second.deterministic_fingerprint()
        )
        assert first.cluster.evictions == second.cluster.evictions
