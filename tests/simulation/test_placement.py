"""Tests for the pluggable placement subsystem and per-node arbiters."""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.baselines import FixedKeepAlivePolicy
from repro.scenarios import build_scenario
from repro.simulation import (
    ClusterModel,
    PLACEMENT_REGISTRY,
    PlacementStrategy,
    get_placement,
    placement_names,
    register_placement,
    simulate_policy,
)
from repro.simulation.placement import UNPLACED
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


def ids_on_node(node: int, count: int, n_nodes: int, prefix: str = "f") -> list[str]:
    """Function ids whose CRC-32 hash maps them to ``node``."""
    ids = []
    i = 0
    while len(ids) < count:
        candidate = f"{prefix}{i}"
        if zlib.crc32(candidate.encode()) % n_nodes == node:
            ids.append(candidate)
        i += 1
    return ids


def small_trace(series_by_id, name="t"):
    records = [FunctionRecord(fid, f"app-{fid}", f"owner-{fid}") for fid in series_by_id]
    duration = len(next(iter(series_by_id.values())))
    return Trace(
        records,
        {fid: np.asarray(series) for fid, series in series_by_id.items()},
        TraceMetadata(name=name, duration_minutes=duration),
    )


class TestRegistry:
    def test_builtin_catalog(self):
        assert {"hash", "least-loaded", "correlation-aware"} <= set(placement_names())

    def test_unknown_strategy_raises_with_the_catalog(self):
        with pytest.raises(KeyError, match="unknown placement"):
            get_placement("quantum-annealing")

    def test_model_validates_the_strategy_name(self):
        with pytest.raises(KeyError, match="unknown placement"):
            ClusterModel(memory_capacity=4, placement="quantum-annealing")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_placement(PLACEMENT_REGISTRY["hash"])

    def test_custom_strategy_registration(self):
        class PinToZero(PlacementStrategy):
            name = "test-pin-to-zero"

            def bind(self, model, function_ids, trace=None):
                return np.zeros(len(function_ids), dtype=np.int64)

        register_placement(PinToZero)
        try:
            model = ClusterModel(memory_capacity=4, n_nodes=2, placement="test-pin-to-zero")
            arbiter = model.arbiter(("a", "b", "c"))
            assert arbiter.node_of.tolist() == [0, 0, 0]
        finally:
            del PLACEMENT_REGISTRY["test-pin-to-zero"]


class TestStrategies:
    def test_hash_matches_the_model_hash(self):
        model = ClusterModel(memory_capacity=16, n_nodes=4)
        ids = tuple(f"func-{i:05d}" for i in range(40))
        arbiter = model.arbiter(ids)
        assert arbiter.node_of.tolist() == [model.node_of(fid) for fid in ids]

    def test_least_loaded_places_lazily_and_spreads(self):
        model = ClusterModel(memory_capacity=8, n_nodes=4, placement="least-loaded")
        arbiter = model.arbiter(("a", "b", "c", "d", "e"))
        assert (arbiter.node_of == UNPLACED).all()
        # Five functions become active at once: the greedy spread puts at
        # most ceil(5/4) on any node.
        arbiter.ensure_placed(np.arange(5))
        assert (arbiter.node_of >= 0).all()
        usage = np.bincount(arbiter.node_of, minlength=4)
        assert usage.max() <= 2 and usage.min() >= 1

    def test_least_loaded_prefers_the_freest_node(self):
        model = ClusterModel(memory_capacity=8, n_nodes=2, placement="least-loaded")
        arbiter = model.arbiter(("a", "b", "c"))
        # a and b land on different nodes; with both resident, c must join
        # whichever node argmin picks when usage ties — then the next
        # placement after an imbalance goes to the lighter node.
        arbiter.ensure_placed(np.array([0]))
        assert arbiter.node_of[0] == 0  # empty cluster: lowest node id wins
        arbiter.admit(np.array([True, False, False]))
        arbiter.ensure_placed(np.array([1]))
        assert arbiter.node_of[1] == 1  # node 0 holds a; node 1 is freer

    def test_correlation_aware_colocates_cofiring_app_members(self):
        # Two functions of one app firing in lockstep, plus independent noise.
        duration = 120
        lockstep = np.zeros(duration, dtype=np.int64)
        lockstep[::5] = 1
        other = np.zeros(duration, dtype=np.int64)
        other[3::17] = 1
        records = [
            FunctionRecord("pair-a", "app-0", "owner-0"),
            FunctionRecord("pair-b", "app-0", "owner-0"),
            FunctionRecord("solo-c", "app-1", "owner-1"),
        ]
        trace = Trace(
            records,
            {"pair-a": lockstep, "pair-b": lockstep.copy(), "solo-c": other},
            TraceMetadata(name="cor", duration_minutes=duration),
        )
        model = ClusterModel(memory_capacity=8, n_nodes=2, placement="correlation-aware")
        arbiter = model.arbiter(tuple(trace.function_ids), trace=trace)
        nodes = arbiter.node_of
        assert nodes[0] == nodes[1] != UNPLACED  # the pair is co-located
        assert nodes[2] == UNPLACED  # uncorrelated functions place lazily

    def test_correlation_aware_without_a_trace_falls_back_to_lazy(self):
        model = ClusterModel(memory_capacity=8, n_nodes=2, placement="correlation-aware")
        arbiter = model.arbiter(("a", "b"))
        assert (arbiter.node_of == UNPLACED).all()

    def test_training_less_runs_leak_no_trace_into_placement(self, monkeypatch):
        """Zero-training runs (streaming mode) mine nothing for placement.

        The engine used to fall back to the *simulation* trace when no
        training window existed — future information no online system could
        have.  A training-less run must hand the arbiter no trace at all,
        so trace-hungry strategies take their lazy fallback.
        """
        seen = []
        original = ClusterModel.arbiter

        def spy(self, function_ids, trace=None, footprints_kb=None):
            seen.append(trace)
            return original(self, function_ids, trace=trace, footprints_kb=footprints_kb)

        monkeypatch.setattr(ClusterModel, "arbiter", spy)
        workload = build_scenario(
            "hot-shard", seed=9, n_functions=16, days=1.0, training_days=0.5
        )
        simulate_policy(
            FixedKeepAlivePolicy(10),
            workload.split.simulation,
            None,
            warmup_minutes=0,
            cluster=workload.cluster,
        )
        assert seen == [None]
        seen.clear()
        simulate_policy(
            FixedKeepAlivePolicy(10),
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=0,
            cluster=workload.cluster,
        )
        assert seen == [workload.split.training]


class TestModelValidation:
    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="memory_capacity"):
            ClusterModel(memory_capacity=0)

    def test_migration_knobs_are_validated(self):
        with pytest.raises(ValueError, match="pressure_threshold"):
            ClusterModel(memory_capacity=4, pressure_threshold=0.0)
        with pytest.raises(ValueError, match="pressure_minutes"):
            ClusterModel(memory_capacity=4, pressure_threshold=0.5, pressure_minutes=0)

    def test_migration_enabled_flag(self):
        assert not ClusterModel(memory_capacity=4).migration_enabled
        assert ClusterModel(memory_capacity=4, pressure_threshold=0.5).migration_enabled


class TestArbiterEdgeCases:
    def test_capacity_smaller_than_one_minutes_invoked_set(self):
        # Five functions fire every minute; the cluster holds two.  On-demand
        # loads must still serve every request (usage exceeds the cap
        # transiently) while the admitted set respects the cap.
        series = {f"f{i}": [1] * 10 for i in range(5)}
        trace = small_trace(series)
        model = ClusterModel(memory_capacity=2, n_nodes=1)
        result = simulate_policy(
            FixedKeepAlivePolicy(10), trace, warmup_minutes=0, cluster=model
        )
        assert result.peak_memory_usage == 5  # on-demand loads are uncapped
        assert result.cluster.peak_node_usage == 5
        # Only 2 of 5 survive each boundary, so 3 declared-resident functions
        # cold-start every minute after the first.
        assert result.cluster.capacity_cold_starts == 3 * 9
        assert result.total_cold_starts == 5 + 3 * 9

    @pytest.mark.parametrize("placement", ("hash", "least-loaded", "correlation-aware"))
    def test_more_nodes_than_functions(self, placement):
        series = {"a": [1, 0, 1, 0, 1], "b": [0, 1, 0, 1, 0]}
        trace = small_trace(series)
        model = ClusterModel(memory_capacity=8, n_nodes=8, placement=placement)
        result = simulate_policy(
            FixedKeepAlivePolicy(10), trace, warmup_minutes=0, cluster=model
        )
        assert result.cluster.node_usage.shape == (5, 8)
        assert result.cluster.evictions == 0
        assert result.total_cold_starts == 2  # first touch of each function

    def test_per_node_eviction_counts_sum_to_the_total(self):
        workload = build_scenario(
            "capacity-squeeze", seed=7, n_functions=40, days=2.0, training_days=1.0
        )
        result = simulate_policy(
            FixedKeepAlivePolicy(30),
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=60,
            cluster=workload.cluster,
        )
        stats = result.cluster
        assert stats.node_evictions is not None
        assert stats.node_evictions.shape == (stats.n_nodes,)
        assert int(stats.node_evictions.sum()) == stats.evictions

    def test_load_imbalance_of_single_node_cluster_is_zero(self):
        series = {"a": [1] * 5, "b": [1] * 5}
        trace = small_trace(series)
        result = simulate_policy(
            FixedKeepAlivePolicy(10), trace, warmup_minutes=0,
            cluster=ClusterModel(memory_capacity=4, n_nodes=1),
        )
        assert result.cluster.load_imbalance == 0.0


class TestMigration:
    def model(self, pressure_minutes: int) -> ClusterModel:
        # node_capacity = 2, threshold units = 0.5 * 2 = 1: a node holding
        # both its admitted slots is pressured.
        return ClusterModel(
            memory_capacity=4,
            n_nodes=2,
            pressure_threshold=0.5,
            pressure_minutes=pressure_minutes,
        )

    def arbiter(self, pressure_minutes: int):
        # Three functions hashed to node 0 and none to node 1, so keeping two
        # admitted pressures node 0 while node 1 stays free.
        ids = tuple(ids_on_node(0, 3, 2))
        return self.model(pressure_minutes).arbiter(ids)

    def run_pressured_passes(self, arbiter, passes: int) -> None:
        proposed = np.array([True, True, False])
        for minute in range(passes):
            arbiter.observe_invocations(minute, np.array([0, 1]))
            arbiter.admit(proposed)

    def test_k_minus_one_pressured_minutes_do_not_migrate(self):
        arbiter = self.arbiter(pressure_minutes=3)
        self.run_pressured_passes(arbiter, 2)
        assert arbiter.migrations == 0

    def test_kth_pressured_minute_migrates(self):
        arbiter = self.arbiter(pressure_minutes=3)
        self.run_pressured_passes(arbiter, 3)
        assert arbiter.migrations == 1
        # The victim is the least-recently . . . both invoked each minute, so
        # the tie-break drops the higher index to the free node.
        assert arbiter.node_of[1] == 1
        assert arbiter.migrated_last[1]

    def test_streak_resets_when_pressure_lifts(self):
        arbiter = self.arbiter(pressure_minutes=3)
        self.run_pressured_passes(arbiter, 2)
        arbiter.observe_invocations(2, np.array([0]))
        arbiter.admit(np.array([True, False, False]))  # under threshold
        self.run_pressured_passes(arbiter, 2)
        assert arbiter.migrations == 0  # the streak restarted from zero

    def test_no_migration_when_every_node_is_full(self):
        # One node, always pressured, but nowhere to go.
        model = ClusterModel(
            memory_capacity=2, n_nodes=1, pressure_threshold=0.5, pressure_minutes=1
        )
        arbiter = model.arbiter(("a", "b"))
        for minute in range(5):
            arbiter.observe_invocations(minute, np.array([0, 1]))
            arbiter.admit(np.array([True, True]))
        assert arbiter.migrations == 0

    def test_pressured_nodes_never_ping_pong_instances(self):
        # Both nodes above the threshold with one free unit each: migrating
        # between two hot nodes would bounce instances forever without
        # relieving anything, so no migration may fire.
        model = ClusterModel(
            memory_capacity=6, n_nodes=2, pressure_threshold=0.5, pressure_minutes=1
        )
        ids = tuple(ids_on_node(0, 2, 2) + ids_on_node(1, 2, 2))
        arbiter = model.arbiter(ids)
        proposed = np.ones(4, dtype=bool)  # 2 admitted per node > 0.5 * 3
        for minute in range(5):
            arbiter.observe_invocations(minute, np.arange(4))
            arbiter.admit(proposed)
        assert arbiter.migrations == 0

    def test_simultaneous_migrations_reserve_the_target_slot(self):
        # Regression: two nodes pressured in the same pass, with one node
        # holding a single free slot.  Before `_maybe_migrate` reserved the
        # inbound unit on the target, every source in the pass recomputed
        # `free` from the stale usage and dogpiled its migrant onto the same
        # nearly-full node, over-committing it and setting up mutual
        # evictions next minute.
        model = ClusterModel(
            memory_capacity=6, n_nodes=3, pressure_threshold=0.5, pressure_minutes=1
        )
        # node_capacity = 2, threshold units = 1.  Node 0 holds one admitted
        # instance (one free slot, not pressured); nodes 1 and 2 hold two
        # each (both pressured).  The target with a free slot deliberately
        # has the lowest node id so the buggy argmax tie-break would pick it
        # for both migrants.
        ids = tuple(
            ids_on_node(0, 1, 3) + ids_on_node(1, 2, 3) + ids_on_node(2, 2, 3)
        )
        arbiter = model.arbiter(ids)
        arbiter.observe_invocations(0, np.arange(5))
        arbiter.admit(np.ones(5, dtype=bool))
        assert arbiter.migrations == 2
        counts = np.bincount(arbiter.node_of, minlength=3)
        # Node 0 absorbed exactly one migrant — filled to capacity, not past
        # it; the second migrant went to the slot node 1 itself freed.
        assert counts[0] == model.node_capacity
        assert (counts <= model.node_capacity).all()

    def test_migration_forces_a_cold_start_and_is_attributed(self):
        workload = build_scenario(
            "capacity-squeeze", seed=5, n_functions=40, days=2.0, training_days=1.0
        )
        cluster = dataclasses.replace(
            workload.cluster, pressure_threshold=0.6, pressure_minutes=2
        )
        result = simulate_policy(
            FixedKeepAlivePolicy(10),
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=60,
            engine="event",
            cluster=cluster,
        )
        stats = result.cluster
        assert stats.migrations > 0
        assert 0 < stats.migration_cold_starts <= stats.capacity_cold_starts
        assert result.latency.migration_cold_events == stats.migration_cold_starts
        assert result.summary()["migrations"] == float(stats.migrations)


class TestHotShardScenario:
    SHAPE = dict(seed=9, n_functions=16, days=1.0, training_days=0.5)

    def test_hot_functions_all_hash_to_node_zero(self):
        workload = build_scenario("hot-shard", **self.SHAPE)
        model = workload.cluster
        hot = [fid for fid in workload.split.simulation.function_ids if fid.startswith("hot")]
        assert hot and all(model.node_of(fid) == 0 for fid in hot)
        # The background population spreads over the other nodes.
        rest = [fid for fid in workload.split.simulation.function_ids if not fid.startswith("hot")]
        assert len({model.node_of(fid) for fid in rest}) > 1

    def test_load_aware_placement_beats_hash_on_the_hot_shard(self):
        workload = build_scenario(
            "hot-shard", seed=5, n_functions=40, days=2.0, training_days=1.0
        )

        def run(placement):
            cluster = dataclasses.replace(workload.cluster, placement=placement)
            return simulate_policy(
                FixedKeepAlivePolicy(10),
                workload.split.simulation,
                workload.split.training,
                warmup_minutes=60,
                cluster=cluster,
            )

        hashed = run("hash")
        balanced = run("least-loaded")
        assert balanced.cluster.load_imbalance < hashed.cluster.load_imbalance
        assert (
            balanced.cluster.capacity_cold_starts
            <= hashed.cluster.capacity_cold_starts
        )


class TestGoldenFingerprints:
    """Per-strategy golden fingerprints on the hot-shard workload.

    The default (hash) strategy's bit-for-bit stability is already pinned by
    the scenario-catalog goldens (ENGINE_VERSION=4, pre-placement); these pin
    each *new* strategy — and the migration machinery — so any accidental
    change to placement order, trim rules or migration accounting fails
    loudly.
    """

    SHAPE = dict(seed=9, n_functions=16, days=1.0, training_days=0.5)

    # Regenerated (ENGINE_VERSION 6) when _maybe_migrate learned to reserve
    # inbound units on the migration target: runs where two pressured sources
    # previously dogpiled one node now spread their migrants.
    GOLDEN = {
        "hash": "940911e6874c4b565ca12beb604f9c2b7fe754f605f78e5fcc731f406cc3d1f6",
        "least-loaded": "c8e6898303b39994bbba74800021be024aacc4b1295f7506947c91de31e542b8",
        "correlation-aware": "21d1eefc037ea625c0c35e1c299e8cca69e2cbdac0486ecde9385e794b5945a2",
    }

    def _run(self, placement, engine="vectorized"):
        workload = build_scenario("hot-shard", **self.SHAPE)
        cluster = dataclasses.replace(
            workload.cluster,
            placement=placement,
            pressure_threshold=0.75,
            pressure_minutes=3,
        )
        return simulate_policy(
            FixedKeepAlivePolicy(10),
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=60,
            engine=engine,
            cluster=cluster,
            events=workload.events if engine == "event" else None,
        )

    def test_every_strategy_has_a_golden(self):
        assert set(self.GOLDEN) == set(placement_names())

    @pytest.mark.parametrize("placement", sorted(GOLDEN))
    def test_run_matches_the_golden_fingerprint(self, placement):
        assert self._run(placement).deterministic_fingerprint() == self.GOLDEN[placement]

    @pytest.mark.parametrize("placement", sorted(GOLDEN))
    def test_event_engine_matches_the_golden_too(self, placement):
        assert (
            self._run(placement, engine="event").deterministic_fingerprint()
            == self.GOLDEN[placement]
        )

    def test_strategies_produce_distinct_fingerprints(self):
        assert len(set(self.GOLDEN.values())) == len(self.GOLDEN)


class TestCacheKeys:
    def test_placement_is_part_of_the_sweep_cache_key(self):
        from repro.experiments import ParallelRunner, PolicySpec
        from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace

        trace = AzureTraceGenerator(GeneratorProfile.small(seed=3)).generate()
        split = split_trace(trace, training_days=2.0)
        spec = PolicySpec.of("fixed-10min")

        def key(cluster):
            runner = ParallelRunner({"t": split}, clusters={"t": cluster})
            return runner.cache_key(runner.cell("c", spec, "t"))

        base = ClusterModel(memory_capacity=8, n_nodes=2)
        assert key(base) == key(ClusterModel(memory_capacity=8, n_nodes=2))
        assert key(base) != key(dataclasses.replace(base, placement="least-loaded"))
        assert key(base) != key(dataclasses.replace(base, pressure_threshold=0.5))
