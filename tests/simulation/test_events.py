"""Tests for the sub-minute event engine (config, tracker, engine wiring)."""

import numpy as np
import pytest

from repro.baselines import FixedKeepAlivePolicy, IndexedFixedKeepAlivePolicy
from repro.simulation import (
    AlwaysWarmPolicy,
    ClusterModel,
    CpuConfig,
    EventConfig,
    NoKeepAlivePolicy,
    Simulator,
    simulate_policy,
)
from repro.simulation import events as events_module
from repro.simulation.events import SECONDS_PER_MINUTE, expand_minute_offsets
from repro.simulation.scheduling import InvocationScheduler, register_scheduler
from repro.traces import (
    DEFAULT_DURATION_PROFILE,
    split_trace,
    DurationProfile,
    FunctionRecord,
    Trace,
    TriggerType,
    duration_profile_for,
)
from repro.traces.schema import TraceMetadata
from scheduling_reference import reference_schedule


# --------------------------------------------------------------------- #
# Duration model
# --------------------------------------------------------------------- #
class TestDurationProfile:
    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            DurationProfile(cold_start_ms=-1.0)
        with pytest.raises(ValueError):
            DurationProfile(execution_ms=-1.0)

    def test_scaled(self):
        profile = DurationProfile(cold_start_ms=100.0, execution_ms=50.0)
        scaled = profile.scaled(cold_start=2.0, execution=0.5)
        assert scaled.cold_start_ms == 200.0
        assert scaled.execution_ms == 25.0
        with pytest.raises(ValueError):
            profile.scaled(cold_start=-1.0)

    def test_derivation_is_deterministic_per_function(self):
        record = FunctionRecord("f-1", "app", "owner", TriggerType.HTTP)
        assert duration_profile_for(record) == duration_profile_for(record)

    def test_derivation_spreads_across_functions(self):
        profiles = {
            duration_profile_for(
                FunctionRecord(f"f-{i}", "app", "owner", TriggerType.HTTP)
            ).cold_start_ms
            for i in range(20)
        }
        assert len(profiles) > 10  # a distribution, not a spike

    def test_archetype_beats_trigger_fallback(self):
        bursty = FunctionRecord(
            "f-x", "app", "owner", TriggerType.HTTP, archetype="bursty"
        )
        plain = FunctionRecord("f-x", "app", "owner", TriggerType.HTTP)
        # Same function id -> same spread factor, so the base must differ.
        assert duration_profile_for(bursty) != duration_profile_for(plain)


class TestEventConfig:
    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError):
            EventConfig(cold_start_scale=-0.1)

    def test_uniform_profiles_when_derivation_disabled(self):
        config = EventConfig(derive_profiles=False)
        record = FunctionRecord("f-1", "app", "owner", TriggerType.HTTP)
        assert config.profile_for(record) == DEFAULT_DURATION_PROFILE

    def test_scales_apply_on_top_of_profiles(self):
        config = EventConfig(derive_profiles=False, cold_start_scale=2.0)
        record = FunctionRecord("f-1", "app", "owner", TriggerType.HTTP)
        profile = config.profile_for(record)
        assert profile.cold_start_ms == 2 * DEFAULT_DURATION_PROFILE.cold_start_ms


def test_expand_minute_offsets_sorted_within_minute():
    rng = np.random.default_rng(9)
    offsets = expand_minute_offsets(rng, 50)
    assert offsets.size == 50
    assert (np.diff(offsets) >= 0).all()
    assert (offsets >= 0).all() and (offsets < SECONDS_PER_MINUTE).all()
    assert expand_minute_offsets(rng, 0).size == 0


# --------------------------------------------------------------------- #
# Engine wiring
# --------------------------------------------------------------------- #
def _dense_trace(count_per_minute: int = 20, duration: int = 30) -> Trace:
    series = np.full(duration, count_per_minute, dtype=np.int64)
    records = [FunctionRecord("dense", "app-1", "owner-1", TriggerType.HTTP)]
    metadata = TraceMetadata(name="dense", duration_minutes=duration)
    return Trace(records, {"dense": series}, metadata)


class TestEventEngine:
    def test_event_config_requires_event_engine(self, small_split):
        with pytest.raises(ValueError, match="requires an event engine"):
            Simulator(small_split.simulation, events=EventConfig())

    def test_reference_engine_rejects_cluster(self, small_split):
        with pytest.raises(ValueError, match="mask-based"):
            Simulator(
                small_split.simulation,
                engine="reference",
                cluster=ClusterModel(memory_capacity=10),
            )

    def test_minute_engines_carry_no_latency_block(self, small_split):
        result = simulate_policy(
            FixedKeepAlivePolicy(10), small_split.simulation, warmup_minutes=0
        )
        assert result.latency is None

    def test_event_totals_match_the_trace(self, small_split):
        result = simulate_policy(
            FixedKeepAlivePolicy(10),
            small_split.simulation,
            warmup_minutes=0,
            engine="event",
        )
        latency = result.latency
        assert latency.total_events == small_split.simulation.total_invocations()
        assert (
            latency.warm_events + latency.cold_start_events + latency.delayed_events
            == latency.total_events
        )
        assert latency.cold_start_events == result.total_cold_starts

    def test_same_config_reproduces_latencies_exactly(self, small_split):
        runs = [
            simulate_policy(
                IndexedFixedKeepAlivePolicy(10),
                small_split.simulation,
                warmup_minutes=0,
                engine="event",
                events=EventConfig(seed=13),
            ).latency
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].cold_wait_ms, runs[1].cold_wait_ms)
        assert runs[0].delayed_events == runs[1].delayed_events

    def test_different_jitter_seeds_change_latencies_not_counts(self, small_split):
        results = [
            simulate_policy(
                IndexedFixedKeepAlivePolicy(10),
                small_split.simulation,
                warmup_minutes=0,
                engine="event",
                events=EventConfig(seed=seed, cold_start_scale=40.0),
            )
            for seed in (1, 2)
        ]
        assert (
            results[0].deterministic_fingerprint()
            == results[1].deterministic_fingerprint()
        )
        assert (
            results[0].latency.cold_start_events
            == results[1].latency.cold_start_events
        )

    def test_delayed_events_queue_behind_provisioning(self):
        # One function, 20 invocations per minute, never kept alive: every
        # minute is an initiation, and with a 30-second provisioning latency
        # most of the minute's arrivals land inside the provisioning window.
        trace = _dense_trace()
        result = simulate_policy(
            NoKeepAlivePolicy(),
            trace,
            warmup_minutes=0,
            engine="event",
            events=EventConfig(
                seed=3,
                derive_profiles=False,
                default_profile=DurationProfile(cold_start_ms=30_000.0),
            ),
        )
        latency = result.latency
        assert latency.cold_start_events == trace.duration_minutes
        assert latency.delayed_events > 0
        # Queued waits are residuals: strictly below the full provisioning
        # latency, and the initiation wait is the distribution's maximum.
        assert latency.max_ms == pytest.approx(30_000.0)
        assert latency.p50_ms <= 30_000.0
        delayed_waits = np.sort(latency.cold_wait_ms)[: latency.delayed_events]
        assert (delayed_waits < 30_000.0).all()
        assert (delayed_waits > 0.0).all()

    def test_always_warm_policy_pays_only_the_cold_platform_start(self, small_split):
        # Always-warm declares everything resident from its first decision,
        # so on a cold platform only the functions invoked during minute 0
        # ever cold-start.
        result = simulate_policy(
            AlwaysWarmPolicy(),
            small_split.simulation,
            warmup_minutes=0,
            engine="event",
        )
        latency = result.latency
        minute_zero = set(small_split.simulation.invocations_at(0))
        assert latency.cold_start_events == len(minute_zero)
        assert set(latency.per_function_wait_ms) == minute_zero

    def test_per_function_waits_partition_the_global_distribution(self, small_split):
        latency = simulate_policy(
            FixedKeepAlivePolicy(10),
            small_split.simulation,
            warmup_minutes=0,
            engine="event",
        ).latency
        pooled = np.concatenate(list(latency.per_function_wait_ms.values()))
        assert pooled.size == latency.cold_wait_ms.size
        np.testing.assert_allclose(
            np.sort(pooled), np.sort(latency.cold_wait_ms)
        )

    def test_execution_time_accumulates(self, small_split):
        latency = simulate_policy(
            FixedKeepAlivePolicy(10),
            small_split.simulation,
            warmup_minutes=0,
            engine="event",
            events=EventConfig(derive_profiles=False),
        ).latency
        expected = latency.total_events * DEFAULT_DURATION_PROFILE.execution_ms
        assert latency.total_execution_ms == pytest.approx(expected)


class TestEventEngineWithCluster:
    def test_capacity_cold_events_match_cluster_stats(self, small_split):
        cluster = ClusterModel(memory_capacity=15, n_nodes=3)
        result = simulate_policy(
            IndexedFixedKeepAlivePolicy(30),
            small_split.simulation,
            small_split.training,
            warmup_minutes=180,
            engine="event",
            cluster=cluster,
        )
        assert result.cluster is not None
        assert result.cluster.capacity_cold_starts > 0  # the cap bites
        assert (
            result.latency.capacity_cold_events
            == result.cluster.capacity_cold_starts
        )
        assert result.latency.capacity_cold_events <= result.latency.cold_start_events

    def test_uncapped_runs_attribute_nothing_to_capacity(self, small_split):
        result = simulate_policy(
            IndexedFixedKeepAlivePolicy(10),
            small_split.simulation,
            warmup_minutes=0,
            engine="event",
        )
        assert result.latency.capacity_cold_events == 0


# --------------------------------------------------------------------- #
# Intra-node CPU scheduling stage
# --------------------------------------------------------------------- #
class TestCpuScheduling:
    def _run(self, split, events, **kwargs):
        return simulate_policy(
            IndexedFixedKeepAlivePolicy(10),
            split.simulation,
            warmup_minutes=0,
            engine="event",
            events=events,
            **kwargs,
        )

    def test_without_cpu_config_layer_is_inert(self, small_split):
        latency = self._run(small_split, EventConfig(seed=5)).latency
        assert latency.cpu_scheduled_events == 0
        assert latency.cpu_delayed_events == 0
        assert latency.cpu_wait_ms.size == 0
        assert latency.slowdown.size == 0
        assert latency.slo_ms is None
        assert latency.slo_checked_events == 0

    def test_cpu_stage_is_a_pure_observer(self, small_split):
        # Finite cores change latency accounting, never provisioning: the
        # fingerprinted minute aggregates match the CPU-free run exactly.
        plain = self._run(small_split, EventConfig(seed=5))
        contended = self._run(
            small_split,
            EventConfig(seed=5, cpu=CpuConfig(cores_per_node=1, scheduler="fifo")),
        )
        assert (
            plain.deterministic_fingerprint()
            == contended.deterministic_fingerprint()
        )
        # The cold jitter stream is drawn before the CPU stage's warm draws,
        # so provisioning waits are bit-identical too.
        np.testing.assert_array_equal(
            plain.latency.cold_wait_ms, contended.latency.cold_wait_ms
        )

    def test_cpu_run_schedules_every_event(self, small_split):
        latency = self._run(
            small_split,
            EventConfig(
                seed=5,
                execution_scale=20.0,
                cpu=CpuConfig(cores_per_node=1, scheduler="fifo"),
            ),
        ).latency
        assert latency.cpu_scheduled_events == latency.total_events
        # Wait samples are kept for delayed events only (mirroring
        # cold_wait_ms); slowdown is recorded for every scheduled event.
        assert latency.cpu_wait_ms.size == latency.cpu_delayed_events
        assert latency.slowdown.size == latency.total_events
        assert (latency.cpu_wait_ms > 0.0).all()
        assert (latency.slowdown >= 1.0).all()
        # Stretched executions on a single core must produce real contention.
        assert latency.cpu_delayed_events > 0
        assert latency.slowdown_p99 > 1.0
        assert latency.cpu_wait_p99_ms > 0.0

    @pytest.mark.parametrize("scheduler", ["fifo", "rr", "srtf", "las"])
    def test_every_discipline_runs_end_to_end(self, small_split, scheduler):
        latency = self._run(
            small_split,
            EventConfig(seed=5, cpu=CpuConfig(cores_per_node=2, scheduler=scheduler)),
        ).latency
        assert latency.cpu_scheduled_events == latency.total_events
        assert np.isfinite(latency.cpu_wait_ms).all()
        assert np.isfinite(latency.slowdown).all()

    def test_slo_without_cpu_uses_no_rng(self, small_split):
        # SLO accounting on an infinite-core run is draw-free arithmetic on
        # the existing waits, so it cannot perturb the jitter stream.
        plain = self._run(small_split, EventConfig(seed=5))
        checked = self._run(small_split, EventConfig(seed=5, slo_ms=150.0))
        assert (
            plain.deterministic_fingerprint()
            == checked.deterministic_fingerprint()
        )
        np.testing.assert_array_equal(
            plain.latency.cold_wait_ms, checked.latency.cold_wait_ms
        )
        latency = checked.latency
        assert latency.slo_ms == 150.0
        assert latency.slo_checked_events == latency.total_events
        assert 0 <= latency.slo_violations <= latency.total_events
        # The derived profile spread guarantees some executions above and
        # some below 150 ms in the small trace.
        assert 0.0 < latency.slo_violation_rate < 1.0

    def test_tight_slo_flags_everything(self, small_split):
        latency = self._run(
            small_split,
            EventConfig(
                seed=5,
                slo_ms=1e-6,
                cpu=CpuConfig(cores_per_node=2),
            ),
        ).latency
        assert latency.slo_checked_events == latency.total_events
        assert latency.slo_violations == latency.total_events
        assert latency.slo_violation_rate == pytest.approx(1.0)

    def test_cluster_splits_the_contention(self, small_split):
        # Per-node pools: the same workload on 3 single-core nodes waits less
        # for CPU than on one single-core node.
        shared = self._run(
            small_split,
            EventConfig(
                seed=5,
                execution_scale=20.0,
                cpu=CpuConfig(cores_per_node=1),
            ),
        ).latency
        spread = self._run(
            small_split,
            EventConfig(
                seed=5,
                execution_scale=20.0,
                cpu=CpuConfig(cores_per_node=1),
            ),
            cluster=ClusterModel(memory_capacity=400, n_nodes=3),
        ).latency
        assert spread.cpu_scheduled_events == shared.cpu_scheduled_events
        assert spread.cpu_wait_ms.sum() <= shared.cpu_wait_ms.sum()

    def test_event_config_validates_slo(self):
        with pytest.raises(ValueError, match="slo_ms"):
            EventConfig(slo_ms=0.0)
        with pytest.raises(ValueError, match="slo_ms"):
            EventConfig(slo_ms=-5.0)


# --------------------------------------------------------------------- #
# Batched CPU stage against the per-minute reference
# --------------------------------------------------------------------- #
class _ReferenceScheduler(InvocationScheduler):
    """The one-pool-per-call oracle behind the batched contract."""

    def __init__(self, discipline):
        self.discipline = discipline
        self.name = f"test-reference-{discipline}"

    def schedule(self, arrival_s, service_s, cores, pool):
        return reference_schedule(self.discipline, arrival_s, service_s, cores, pool)


@pytest.fixture(scope="module")
def short_split(small_trace):
    """The small trace's last six hours as the simulated window."""
    return split_trace(small_trace, training_days=2.75)


@pytest.fixture
def reference_schedulers():
    from repro.simulation import scheduling

    added = [
        register_scheduler(_ReferenceScheduler(name)).name
        for name in ("fifo", "rr", "srtf", "las")
    ]
    yield
    for name in added:
        scheduling._SCHEDULERS.pop(name, None)


class TestBatchedCpuStage:
    """Buffered, batched scheduling reproduces per-minute scheduling exactly.

    The reference runs flush after every minute (one scheduler call per
    minute, as before batching) through the per-pool oracle; the batched
    runs buffer whole minutes and schedule them together.
    """

    # Four nodes whose sustained pressure migrates instances mid-run, so
    # node_of changes between a minute's observation and its flush.
    CLUSTER = ClusterModel(
        memory_capacity=16,
        n_nodes=4,
        placement="least-loaded",
        pressure_threshold=0.6,
        pressure_minutes=2,
    )

    def _run(self, split, scheduler, cluster):
        return simulate_policy(
            IndexedFixedKeepAlivePolicy(10),
            split.simulation,
            warmup_minutes=0,
            engine="event",
            events=EventConfig(
                seed=5,
                execution_scale=10.0,
                cpu=CpuConfig(cores_per_node=2, scheduler=scheduler),
                slo_ms=2000.0,
            ),
            cluster=cluster,
        )

    def _reference(self, split, discipline, cluster, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(events_module, "_CPU_FLUSH_EVENTS", 1)
            return self._run(split, f"test-reference-{discipline}", cluster)

    @staticmethod
    def _assert_identical(batched, reference):
        assert batched.cpu_scheduled_events == reference.cpu_scheduled_events
        assert batched.cpu_delayed_events == reference.cpu_delayed_events
        assert batched.slo_checked_events == reference.slo_checked_events
        assert batched.slo_violations == reference.slo_violations
        for name in ("cpu_wait_ms", "slowdown", "cold_wait_ms"):
            got, want = getattr(batched, name), getattr(reference, name)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("clustered", [True, False], ids=["migrating-4-node", "no-cluster"])
    @pytest.mark.parametrize("discipline", ["fifo", "rr", "srtf", "las"])
    def test_matches_per_minute_reference(
        self, short_split, reference_schedulers, monkeypatch, discipline, clustered
    ):
        cluster = self.CLUSTER if clustered else None
        batched = self._run(short_split, discipline, cluster)
        reference = self._reference(short_split, discipline, cluster, monkeypatch)
        self._assert_identical(batched.latency, reference.latency)
        latency = batched.latency
        # Both the contended and the uncontended path carry events.
        assert latency.cpu_scheduled_events > events_module._CPU_FLUSH_EVENTS
        assert 0 < latency.cpu_delayed_events < latency.cpu_scheduled_events
        if clustered:
            assert batched.cluster.migrations > 0

    def test_many_small_flushes(self, short_split, reference_schedulers, monkeypatch):
        reference = self._reference(short_split, "srtf", self.CLUSTER, monkeypatch)
        monkeypatch.setattr(events_module, "_CPU_FLUSH_EVENTS", 50)
        batched = self._run(short_split, "srtf", self.CLUSTER)
        self._assert_identical(batched.latency, reference.latency)
