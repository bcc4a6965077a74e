"""Sharded execution: partition/merge exactness, fallbacks, edge cases.

The tentpole property under test: for a shard-safe policy, splitting the
function population into per-node partitions, simulating each partition
independently and merging the per-shard results must reproduce the unsharded
run's ``deterministic_fingerprint`` bit for bit — across every registered
placement strategy and every shard-capable engine.  Configurations the
decomposition cannot serve must fall back to the unsharded loop with a
:class:`ShardFallbackWarning`, never silently change results.
"""

import warnings

import numpy as np
import pytest

from harness import (
    MASK_ENGINES,
    PLACEMENTS,
    SHARD_SAFE_POLICY_PAIRS,
    assert_shard_equivalence,
    random_split,
)
from dict_policies import DictFixedKeepAlivePolicy
from trace_builders import csr_built
from repro.baselines import FixedKeepAlivePolicy
from repro.core import SpesPolicy
from repro.simulation import (
    ClusterModel,
    CpuConfig,
    EventConfig,
    ShardFallbackWarning,
    Simulator,
    shard_assignment,
    simulate_policy,
)
from repro.simulation.results import SimulationResult
from repro.traces import AzureTraceGenerator, GeneratorProfile, SparseTrace, split_trace

SEED = 11


@pytest.fixture(scope="module")
def workload():
    return random_split(SEED)


@pytest.fixture(scope="module")
def tiny_split():
    """A 3-function workload — smaller than any useful shard count."""
    profile = GeneratorProfile(
        n_functions=3, duration_days=1.0, unseen_window_days=0.25, seed=5
    )
    return split_trace(AzureTraceGenerator(profile).generate(), training_days=0.5)


# --------------------------------------------------------------------------- #
# Partition assignment
# --------------------------------------------------------------------------- #
class TestShardAssignment:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_every_function_lands_on_exactly_one_shard(self, workload, placement):
        index = workload.simulation.invocation_index()
        assignment = shard_assignment(
            4, workload.simulation, placement, training_trace=workload.training
        )
        assert assignment.shape == (index.n_functions,)
        assert assignment.min() >= 0 and assignment.max() < 4
        pieces = [np.flatnonzero(assignment == shard) for shard in range(4)]
        np.testing.assert_array_equal(
            np.sort(np.concatenate(pieces)), np.arange(index.n_functions)
        )

    def test_assignment_is_deterministic(self, workload):
        first = shard_assignment(3, workload.simulation, "least-loaded")
        second = shard_assignment(3, workload.simulation, "least-loaded")
        np.testing.assert_array_equal(first, second)

    def test_invalid_shard_count_rejected(self, workload):
        with pytest.raises(ValueError):
            shard_assignment(0, workload.simulation)


# --------------------------------------------------------------------------- #
# Trace sharding (dense and CSR)
# --------------------------------------------------------------------------- #
class TestTraceShard:
    def test_dense_shard_keeps_series_and_records(self, workload):
        trace = workload.simulation
        ids = trace.function_ids
        positions = np.arange(0, len(ids), 2)
        shard = trace.shard(positions)
        assert shard.duration_minutes == trace.duration_minutes
        assert shard.function_ids == [ids[p] for p in positions.tolist()]
        for fid in shard.function_ids:
            np.testing.assert_array_equal(shard.series(fid), trace.series(fid))

    def test_sparse_shard_matches_dense_shard(self, workload):
        dense = workload.simulation
        sparse = csr_built(dense)
        positions = np.arange(1, len(dense.function_ids), 3)
        a, b = dense.shard(positions), sparse.shard(positions)
        assert isinstance(b, SparseTrace)
        assert a.function_ids == b.function_ids
        ia, ib = a.invocation_index(), b.invocation_index()
        np.testing.assert_array_equal(ia.indptr, ib.indptr)
        np.testing.assert_array_equal(ia.indices, ib.indices)
        np.testing.assert_array_equal(ia.counts, ib.counts)

    def test_shard_union_preserves_every_invocation(self, workload):
        trace = csr_built(workload.simulation)
        n = len(trace.function_ids)
        assignment = shard_assignment(3, trace, "hash")
        total = sum(
            int(trace.shard(np.flatnonzero(assignment == s)).invocation_index().counts.sum())
            for s in range(3)
            if np.flatnonzero(assignment == s).size
        )
        assert total == int(trace.invocation_index().counts.sum())
        assert sum(
            len(trace.shard(np.flatnonzero(assignment == s)).function_ids)
            for s in range(3)
            if np.flatnonzero(assignment == s).size
        ) == n

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_invalid_positions_rejected(self, workload, sparse):
        trace = workload.simulation
        if sparse:
            trace = csr_built(trace)
        n = len(trace.function_ids)
        with pytest.raises(ValueError):
            trace.shard(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            trace.shard([n])
        with pytest.raises(ValueError):
            trace.shard([-1])
        with pytest.raises(ValueError):
            trace.shard([2, 1])
        with pytest.raises(ValueError):
            trace.shard([1, 1])


# --------------------------------------------------------------------------- #
# Sharded vs unsharded fingerprints
# --------------------------------------------------------------------------- #
class TestShardedEquivalence:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize(
        "dict_factory,indexed_factory", SHARD_SAFE_POLICY_PAIRS
    )
    def test_matrix(self, workload, placement, dict_factory, indexed_factory):
        """Placements × engines × shard-safe pairs, shards=3."""
        indexed = assert_shard_equivalence(
            indexed_factory, workload, shards=3, shard_placement=placement
        )
        dict_fp = assert_shard_equivalence(
            dict_factory,
            workload,
            shards=3,
            shard_placement=placement,
            engines=("vectorized",),
        )
        assert indexed == dict_fp

    def test_empty_shards_contribute_nothing(self, tiny_split):
        """More shards than functions: empty partitions merge as zeros."""
        whole = simulate_policy(
            DictFixedKeepAlivePolicy(5),
            tiny_split.simulation,
            tiny_split.training,
            warmup_minutes=60,
        )
        sharded = simulate_policy(
            DictFixedKeepAlivePolicy(5),
            tiny_split.simulation,
            tiny_split.training,
            warmup_minutes=60,
            shards=6,
        )
        assert (
            sharded.deterministic_fingerprint() == whole.deterministic_fingerprint()
        )

    def test_cluster_sharded_equivalence(self, workload):
        """Shard-by-node: n_nodes == shards, hash placement, divisible capacity."""
        cluster = ClusterModel(memory_capacity=8, n_nodes=4, placement="hash")
        assert_shard_equivalence(
            lambda: FixedKeepAlivePolicy(10),
            workload,
            shards=4,
            cluster=cluster,
            engines=MASK_ENGINES,
        )

    def test_cpu_counts_survive_sharding(self, workload):
        """The CPU stage's *counts* are shard-exact; its *samples* are not.

        Each shard draws arrival jitter from its own seeded stream, so the
        per-event CPU waits (functions of the random arrival offsets) differ
        between the sharded and unsharded runs by design.  The count-based
        accounting must not: every event is scheduled exactly once, and with
        an SLO below every execution time the violation verdict is
        jitter-independent, so both totals must survive the partition/merge
        round trip exactly.
        """
        cluster = ClusterModel(memory_capacity=8, n_nodes=4, placement="hash")
        events = EventConfig(
            seed=7,
            cpu=CpuConfig(cores_per_node=1, scheduler="fifo"),
            slo_ms=1e-6,  # below every execution: violations == total events
        )
        runs = {}
        for shards in (0, 4):
            result = simulate_policy(
                FixedKeepAlivePolicy(10),
                workload.simulation,
                workload.training,
                warmup_minutes=60,
                engine="event",
                cluster=cluster,
                events=events,
                shards=shards,
            )
            runs[shards] = result
        whole, sharded = runs[0].latency, runs[4].latency
        assert (
            runs[4].deterministic_fingerprint()
            == runs[0].deterministic_fingerprint()
        )
        assert sharded.cpu_scheduled_events == whole.cpu_scheduled_events
        assert sharded.cpu_scheduled_events == whole.total_events
        assert sharded.slo_checked_events == whole.slo_checked_events
        assert sharded.slo_violations == whole.slo_violations
        assert sharded.slo_violations == whole.total_events
        assert sharded.slowdown.size == whole.slowdown.size
        # Independent per-shard jitter streams: the sample arrays diverge.
        assert not np.array_equal(
            np.sort(sharded.slowdown), np.sort(whole.slowdown)
        )


# --------------------------------------------------------------------------- #
# Fallback diagnostics
# --------------------------------------------------------------------------- #
class TestShardFallback:
    def _run(self, workload, policy, **kwargs):
        simulator = Simulator(
            workload.simulation,
            training_trace=workload.training,
            warmup_minutes=60,
            **kwargs,
        )
        return simulator.run(policy)

    def test_non_shard_safe_policy_warns_and_matches_unsharded(self, workload):
        whole = self._run(workload, SpesPolicy())
        with pytest.warns(ShardFallbackWarning, match="shard_safe"):
            sharded = self._run(workload, SpesPolicy(), shards=2)
        assert (
            sharded.deterministic_fingerprint() == whole.deterministic_fingerprint()
        )

    def test_migration_cluster_falls_back(self, workload):
        cluster = ClusterModel(
            memory_capacity=8, n_nodes=2, pressure_threshold=0.5
        )
        with pytest.warns(ShardFallbackWarning, match="migration"):
            self._run(workload, DictFixedKeepAlivePolicy(5), shards=2, cluster=cluster)

    def test_node_count_mismatch_falls_back(self, workload):
        cluster = ClusterModel(memory_capacity=9, n_nodes=3)
        with pytest.warns(ShardFallbackWarning):
            self._run(workload, DictFixedKeepAlivePolicy(5), shards=2, cluster=cluster)

    def test_indivisible_capacity_falls_back(self, workload):
        cluster = ClusterModel(memory_capacity=7, n_nodes=2)
        with pytest.warns(ShardFallbackWarning):
            self._run(workload, DictFixedKeepAlivePolicy(5), shards=2, cluster=cluster)

    def test_cpu_pool_without_cluster_falls_back(self, workload):
        # One node-wide pool shared by every function cannot be partitioned
        # without changing the contention each invocation sees.
        events = EventConfig(cpu=CpuConfig(cores_per_node=2))
        with pytest.warns(ShardFallbackWarning, match="CPU pool"):
            self._run(
                workload,
                DictFixedKeepAlivePolicy(5),
                shards=2,
                engine="event",
                events=events,
            )

    def test_single_shard_runs_unsharded_without_warning(self, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardFallbackWarning)
            self._run(workload, DictFixedKeepAlivePolicy(5), shards=1)

    def test_negative_shards_rejected(self, workload):
        with pytest.raises(ValueError):
            Simulator(workload.simulation, shards=-1)


# --------------------------------------------------------------------------- #
# Result merging
# --------------------------------------------------------------------------- #
class TestMergeShards:
    @pytest.fixture(scope="class")
    def halves(self, workload):
        simulator = Simulator(
            workload.simulation, training_trace=workload.training, warmup_minutes=60
        )
        n = len(workload.simulation.function_ids)
        first = simulator.shard_simulator(np.arange(0, n, 2))
        second = simulator.shard_simulator(np.arange(1, n, 2))
        return (
            first.run(DictFixedKeepAlivePolicy(5)),
            second.run(DictFixedKeepAlivePolicy(5)),
        )

    def test_merge_sums_exact_totals(self, workload, halves):
        merged = SimulationResult.merge_shards(halves)
        whole = simulate_policy(
            DictFixedKeepAlivePolicy(5),
            workload.simulation,
            workload.training,
            warmup_minutes=60,
        )
        assert (
            merged.deterministic_fingerprint() == whole.deterministic_fingerprint()
        )

    def test_none_shard_contributes_zeros(self, halves):
        first, _ = halves
        merged = SimulationResult.merge_shards([first, None])
        assert merged.deterministic_fingerprint() == first.deterministic_fingerprint()

    def test_all_none_rejected(self):
        with pytest.raises(ValueError):
            SimulationResult.merge_shards([None, None])

    def test_overlapping_partitions_rejected(self, halves):
        first, _ = halves
        with pytest.raises(ValueError, match="overlap"):
            SimulationResult.merge_shards([first, first])

    def test_duration_mismatch_rejected(self, workload, tiny_split, halves):
        first, _ = halves
        other = simulate_policy(
            DictFixedKeepAlivePolicy(5),
            tiny_split.simulation,
            tiny_split.training,
            warmup_minutes=60,
        )
        with pytest.raises(ValueError, match="duration"):
            SimulationResult.merge_shards([first, other])

    def test_policy_name_mismatch_rejected(self, workload, halves):
        first, _ = halves
        simulator = Simulator(
            workload.simulation, training_trace=workload.training, warmup_minutes=60
        )
        n = len(workload.simulation.function_ids)
        other = simulator.shard_simulator(np.arange(1, n, 2)).run(SpesPolicy())
        with pytest.raises(ValueError, match="polic"):
            SimulationResult.merge_shards([first, other])
