"""Tests for the scenario registry and its sweep/CLI integration."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)

TINY = dict(seed=5, n_functions=40, days=3.0, training_days=2.0)

EXPECTED = {
    "azure",
    "azure2019-fixture",
    "diurnal",
    "bursty",
    "drift",
    "flash-crowd",
    "capacity-squeeze",
    "hot-shard",
    "rotating-periods",
    "load-ramp",
    "seasonal-mix",
    "cpu-starved",
    "long-duration-mix",
}

#: Scenarios that prescribe an intra-node CPU config (event engines only).
CPU_SCENARIOS = {"cpu-starved", "long-duration-mix"}

#: The continuous-drift subset: built for streaming evaluation.
CONTINUOUS_DRIFT = {"rotating-periods", "load-ramp", "seasonal-mix"}


class TestRegistry:
    def test_builtin_catalog_is_registered(self):
        assert EXPECTED <= set(scenario_names())

    def test_unknown_scenario_raises_with_the_catalog(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("black-friday")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(SCENARIO_REGISTRY["azure"])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            build_scenario("drift", **TINY, gravity=9.81)

    def test_custom_scenario_registration(self):
        def build(seed, n_functions, days, training_days):
            return build_scenario("azure", seed=seed, n_functions=n_functions,
                                  days=days, training_days=training_days)

        name = "test-custom-scenario"
        register_scenario(Scenario(name=name, description="azure alias", builder=build))
        try:
            workload = build_scenario(name, **TINY)
            assert workload.split.simulation.duration_minutes == 1440
        finally:
            del SCENARIO_REGISTRY[name]


class TestBuiltinScenarios:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_builds_are_deterministic(self, name):
        first = build_scenario(name, **TINY)
        second = build_scenario(name, **TINY)
        assert (
            first.split.simulation.fingerprint()
            == second.split.simulation.fingerprint()
        )
        assert (
            first.split.training.fingerprint() == second.split.training.fingerprint()
        )
        assert first.cluster == second.cluster

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_split_matches_the_requested_shape(self, name):
        workload = build_scenario(name, **TINY)
        assert workload.split.training.duration_minutes == 2 * 1440
        assert workload.split.simulation.duration_minutes == 1440
        assert len(workload.split.simulation) == TINY["n_functions"]

    def test_seeds_produce_different_workloads(self):
        a = build_scenario("bursty", **{**TINY, "seed": 1})
        b = build_scenario("bursty", **{**TINY, "seed": 2})
        assert a.split.simulation.fingerprint() != b.split.simulation.fingerprint()

    def test_capacity_squeeze_prescribes_a_cluster(self):
        workload = build_scenario("capacity-squeeze", **TINY)
        assert workload.cluster is not None
        assert workload.cluster.n_nodes == 4
        assert workload.cluster.memory_capacity >= workload.cluster.n_nodes
        # Other scenarios run the paper's uncapped setting.
        assert build_scenario("azure", **TINY).cluster is None

    def test_flash_crowd_spikes_land_in_the_simulation_window(self):
        crowd = build_scenario("flash-crowd", **TINY)
        base = build_scenario("azure", **TINY)
        # The training windows are identical; only simulation traffic differs.
        assert crowd.split.training.fingerprint() == base.split.training.fingerprint()
        assert (
            crowd.split.simulation.total_invocations()
            > base.split.simulation.total_invocations()
        )

    def test_diurnal_traffic_is_day_night_modulated(self):
        workload = build_scenario("diurnal", **TINY)
        sim = workload.split.simulation
        per_minute = np.zeros(sim.duration_minutes, dtype=np.int64)
        for fid in sim.function_ids:
            per_minute += sim.series(fid)
        halves = per_minute.reshape(2, 720).sum(axis=1)
        ratio = halves.max() / max(halves.min(), 1)
        assert ratio > 1.5  # a pronounced daily swing, not flat Poisson


class TestContinuousDriftScenarios:
    """The streaming-mode companions must actually drift, continuously."""

    def test_rotating_periods_gaps_grow_over_the_trace(self):
        workload = build_scenario("rotating-periods", **TINY)
        sim, train = workload.split.simulation, workload.split.training
        # Frequencies shrink monotonically, so the early (training) window
        # carries denser timer traffic than the late (simulation) window.
        train_rate = train.total_invocations() / train.duration_minutes
        sim_rate = sim.total_invocations() / sim.duration_minutes
        assert sim_rate < train_rate

    def test_load_ramp_grows_load_across_the_trace(self):
        workload = build_scenario("load-ramp", **TINY)
        sim, train = workload.split.simulation, workload.split.training
        train_rate = train.total_invocations() / train.duration_minutes
        sim_rate = sim.total_invocations() / sim.duration_minutes
        assert sim_rate > 1.5 * train_rate

    def test_seasonal_mix_rotates_the_hot_subset(self):
        workload = build_scenario("seasonal-mix", **{**TINY, "days": 2.0,
                                                     "training_days": 1.0})
        sim = workload.split.simulation
        half = sim.duration_minutes // 2
        # Per-function activity concentrates in one half or the other: the
        # set of functions dominating the first half must differ from the
        # second half's.
        first, second = set(), set()
        for fid in sim.function_ids:
            series = sim.series(fid)
            a, b = int(series[:half].sum()), int(series[half:].sum())
            if a + b < 10:
                continue
            (first if a > b else second).add(fid)
        assert first and second

    def test_drift_scenarios_prescribe_no_cluster(self):
        for name in sorted(CONTINUOUS_DRIFT):
            assert build_scenario(name, **TINY).cluster is None

    def test_seasonal_mix_rejects_degenerate_seasons(self):
        with pytest.raises(ValueError, match="seasons"):
            build_scenario("seasonal-mix", **TINY, seasons=1)


class TestCpuScenarios:
    """The CPU-contention pair must prescribe finite cores and an SLO."""

    def test_cpu_scenarios_prescribe_a_core_pool(self):
        for name in sorted(CPU_SCENARIOS):
            workload = build_scenario(name, **TINY)
            assert workload.events is not None
            assert workload.events.cpu is not None
            assert workload.events.cpu.cores_per_node >= 1
            assert workload.events.slo_ms is not None
            assert workload.cluster is None  # one shared pool by default

    def test_cpu_parameters_reach_the_event_config(self):
        workload = build_scenario(
            "cpu-starved", **TINY, cores=4, scheduler="las", slo_ms=250.0
        )
        assert workload.events.cpu.cores_per_node == 4
        assert workload.events.cpu.scheduler == "las"
        assert workload.events.slo_ms == 250.0
        assert workload.events.seed == TINY["seed"]  # still rebased

    def test_cpu_starved_concentrates_load(self):
        workload = build_scenario("cpu-starved", **TINY)
        sim = workload.split.simulation
        totals = sorted(
            (int(sim.series(fid).sum()) for fid in sim.function_ids),
            reverse=True,
        )
        hot = sum(totals[: len(totals) // 2])
        assert hot > 5 * max(1, sum(totals[len(totals) // 2 :]))

    def test_long_duration_mix_is_bimodal(self):
        workload = build_scenario("long-duration-mix", **TINY)
        records = workload.split.simulation.records()
        measured = [
            record.duration.execution_ms
            for record in records
            if record.duration is not None
        ]
        assert len(measured) == len(records)
        assert min(measured) < 100.0 < 1000.0 < max(measured)

    def test_invalid_cpu_parameters_fail_fast(self):
        with pytest.raises(ValueError, match="cores_per_node"):
            build_scenario("cpu-starved", **TINY, cores=0)
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_scenario("long-duration-mix", **TINY, scheduler="lottery")


class TestAzure2019Scenarios:
    """The real-trace scenario family: fixture-backed and dataset-backed."""

    def test_real_scenario_requires_the_dataset_directory(self):
        with pytest.raises(ValueError, match="azure fetch"):
            build_scenario("azure2019", **TINY)

    def test_real_scenario_builds_from_a_fixture_directory(self, tmp_path):
        from repro.traces import SparseTrace, write_azure2019_fixture

        write_azure2019_fixture(tmp_path, n_functions=20, days=3, seed=5)
        workload = build_scenario(
            "azure2019", **TINY, azure_dir=str(tmp_path)
        )
        assert isinstance(workload.split.simulation, SparseTrace)
        assert len(workload.split.simulation) == 20  # capped by the population
        assert workload.split.training.duration_minutes == 2 * 1440
        assert workload.split.simulation.duration_minutes == 1440

    def test_real_scenario_day_start_slices_the_range(self, tmp_path):
        from repro.traces import write_azure2019_fixture

        write_azure2019_fixture(tmp_path, n_functions=10, days=3, seed=5)
        shape = dict(seed=5, n_functions=10, days=1.0, training_days=0.5)
        workload = build_scenario(
            "azure2019", **shape, azure_dir=str(tmp_path), day_start=3
        )
        assert workload.split.simulation.metadata.name.startswith(
            "azure2019-d03-d03"
        )

    def test_fixture_scenario_population_enables_real_selection(self):
        shape = dict(seed=5, n_functions=8, days=1.0, training_days=0.5)
        top = build_scenario(
            "azure2019-fixture", **shape, population=24, selection="top"
        )
        subset = build_scenario("azure2019-fixture", **shape)
        assert len(top.split.simulation) == 8
        assert len(subset.split.simulation) == 8
        # Drawing the top 8 of 24 picks a different (busier) population than
        # generating exactly 8.
        assert (
            top.split.simulation.fingerprint()
            != subset.split.simulation.fingerprint()
        )

    def test_fixture_scenario_sweeps_through_the_suite(self):
        config = ExperimentConfig(
            n_functions=12, seed=5, duration_days=1.0, training_days=0.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="azure2019-fixture", engine="event",
        )
        outcome = suite.run()
        result = outcome.results[5]["fixed-10min"]
        assert result.latency is not None
        assert "lat_p50_ms" in outcome.seed_table(5).render()

    def test_real_scenario_params_flow_through_the_suite(self, tmp_path):
        from repro.traces import write_azure2019_fixture

        write_azure2019_fixture(tmp_path, n_functions=12, days=2, seed=3)
        config = ExperimentConfig(
            n_functions=10, seed=3, duration_days=2.0, training_days=1.0,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[3], policies=("fixed-10min",),
            scenario="azure2019",
            scenario_params={"azure_dir": str(tmp_path)},
        )
        outcome = suite.run()
        assert outcome.results[3]["fixed-10min"] is not None


class TestEventEngineRegression:
    """Every registered scenario must run under the sub-minute event engine.

    The shape is tiny (16 functions, one day) so the whole catalog stays
    cheap; the golden fingerprints pin the *minute-granular* outputs of an
    event run — equal to the vectorized engine's by construction — so any
    accidental semantic change to a scenario builder, the duration model's
    wiring, or the event layer's observer property fails loudly here.
    """

    SHAPE = dict(seed=9, n_functions=16, days=1.0, training_days=0.5)

    GOLDEN_FINGERPRINTS = {
        "azure": "06c3895a0cb14917d5a6055aa5765fa783533159d8bf99c513d88062d9374e04",
        "azure2019-fixture": "3f4f58ce396d12d7b5be2f950eff5e37072c85b4f0aef76926cd0ebceb0929a1",
        "bursty": "58b3a617bf0fa2ea9a1e69c1d9f44f06bd6bc7bfe99bbd0cda8edb969425f8f8",
        "capacity-squeeze": "be901884c517a240d7a23b2d042c0b8fb6d993176e29e728aed946330e79e626",
        "diurnal": "b2d5aaa21c97b0822a54f8e7863e38008e52c512d7fd573ae2169e343a5c2c8d",
        "drift": "52fbd6ed56397f97127213783b8bf6e1190096fce351c145a7ab2377406f608c",
        "flash-crowd": "cc6ecbbeca57c973a5d14b1c1aa2aa57a80d7da119ea9d70a1c01f16bd59ff8d",
        "hot-shard": "8656e8346e83b5760681c9fabb459d56801627d775d74772ef14b049186359b0",
        "load-ramp": "d9ec855613ed520bbf84f9eb995a1f801b5f0e39d3657b96c0abbeb2f41172f6",
        "rotating-periods": "91ed2dc55c0ba3d541c83619c5e997396eb6a6f12d5676583d0e222c66730fc1",
        "seasonal-mix": "35a7f603153b19043783564887b6f78c93eec31b1bd7be5ed6de31ae3fbb00ab",
        "cpu-starved": "c513548717f733107217be41f38b064f63ad3da5ef82d2d6fd45a641ac5917d6",
        "long-duration-mix": "a2c26456c0133882b70929be935a82e85b675805f101fbc5d54c121f8d660d20",
    }

    def _run(self, name, engine="event"):
        from repro.baselines import FixedKeepAlivePolicy
        from repro.simulation import simulate_policy

        workload = build_scenario(name, **self.SHAPE)
        return simulate_policy(
            FixedKeepAlivePolicy(10),
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=60,
            engine=engine,
            cluster=workload.cluster,
            events=workload.events if engine == "event" else None,
        )

    def test_every_builtin_scenario_has_a_golden(self):
        assert set(self.GOLDEN_FINGERPRINTS) == EXPECTED

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_event_run_matches_the_golden_fingerprint(self, name):
        result = self._run(name)
        assert result.deterministic_fingerprint() == self.GOLDEN_FINGERPRINTS[name]
        assert result.latency is not None
        assert result.latency.cold_start_events == result.total_cold_starts

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_event_and_vectorized_runs_are_fingerprint_identical(self, name):
        assert (
            self._run(name, engine="event").deterministic_fingerprint()
            == self._run(name, engine="vectorized").deterministic_fingerprint()
        )

    def test_event_latencies_are_reproducible(self):
        first = self._run("bursty").latency
        second = self._run("bursty").latency
        np.testing.assert_array_equal(first.cold_wait_ms, second.cold_wait_ms)

    def test_workload_events_are_seeded_by_the_build(self):
        workload = build_scenario("azure", **self.SHAPE)
        assert workload.events.seed == self.SHAPE["seed"]

    def test_builder_provided_event_config_is_preserved(self):
        from repro.simulation import EventConfig

        def build(seed, n_functions, days, training_days, boot_scale):
            base = build_scenario("azure", seed=seed, n_functions=n_functions,
                                  days=days, training_days=training_days)
            # A parameter-dependent duration model set by the builder itself.
            import dataclasses
            return dataclasses.replace(
                base, events=EventConfig(cold_start_scale=boot_scale)
            )

        name = "test-builder-events"
        register_scenario(Scenario(
            name=name, description="builder-owned event config", builder=build,
            defaults={"boot_scale": 3.5},
            events=EventConfig(cold_start_scale=9.9),  # must NOT win
        ))
        try:
            workload = build_scenario(name, **self.SHAPE)
            assert workload.events.cold_start_scale == 3.5
            assert workload.events.seed == self.SHAPE["seed"]  # still rebased
        finally:
            del SCENARIO_REGISTRY[name]

    def test_scenarios_prescribe_their_duration_models(self):
        squeeze = build_scenario("capacity-squeeze", **self.SHAPE)
        diurnal = build_scenario("diurnal", **self.SHAPE)
        # Thrashing image caches vs light request/response handlers.
        assert squeeze.events.cold_start_scale > 1.0 > diurnal.events.cold_start_scale

    def test_scenario_duration_model_shifts_the_latency_distribution(self):
        scaled = self._run("capacity-squeeze").latency  # cold_start_scale 2.0
        base = build_scenario("capacity-squeeze", **self.SHAPE)
        from repro.baselines import FixedKeepAlivePolicy
        from repro.simulation import EventConfig, simulate_policy

        unscaled = simulate_policy(
            FixedKeepAlivePolicy(10),
            base.split.simulation,
            base.split.training,
            warmup_minutes=60,
            engine="event",
            cluster=base.cluster,
            events=EventConfig(seed=self.SHAPE["seed"]),
        ).latency
        assert scaled.p50_ms > unscaled.p50_ms


class TestSuiteIntegration:
    def test_capacity_squeeze_sweep_reports_evictions(self, tmp_path):
        config = ExperimentConfig(
            n_functions=30, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config,
            seeds=[5],
            policies=("spes", "fixed-10min"),
            scenario="capacity-squeeze",
        )
        outcome = suite.run()
        for result in outcome.results[5].values():
            assert result.cluster is not None
        table = outcome.seed_table(5).render()
        assert "evictions" in table and "cap_cold_starts" in table
        cluster_table = outcome.cluster_table(5)
        assert cluster_table is not None
        assert "Capacity effects" in cluster_table.render()

    def test_uncapped_sweep_has_no_cluster_table(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",), scenario="bursty"
        )
        outcome = suite.run()
        assert outcome.cluster_table(5) is None
        assert "evictions" not in outcome.seed_table(5).render()

    def test_scenario_cells_hit_the_cache_across_sweeps(self, tmp_path):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="capacity-squeeze", cache_dir=tmp_path,
        )
        first = ExperimentSuite(**kwargs).run()
        second = ExperimentSuite(**kwargs).run()
        assert first.cache_misses > 0
        assert second.cache_misses == 0 and second.cache_hits > 0
        assert (
            first.results[5]["fixed-10min"].deterministic_fingerprint()
            == second.results[5]["fixed-10min"].deterministic_fingerprint()
        )

    def test_event_engine_sweep_reports_latency_tables(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="bursty", engine="event",
        )
        outcome = suite.run()
        result = outcome.results[5]["fixed-10min"]
        assert result.latency is not None
        table = outcome.seed_table(5).render()
        assert "lat_p50_ms" in table and "lat_p99_ms" in table
        latency_table = outcome.latency_table(5)
        assert latency_table is not None
        assert "Cold-start latency" in latency_table.render()
        merged = outcome.merged_latency("fixed-10min")
        assert merged is not None
        assert merged.total_events == result.latency.total_events

    def test_cores_override_adds_slowdown_columns(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="bursty", engine="event",
            cores=1, scheduler="srtf", slo_ms=400.0,
        )
        outcome = suite.run()
        latency = outcome.results[5]["fixed-10min"].latency
        assert latency.cpu_scheduled_events == latency.total_events
        assert latency.slo_ms == 400.0
        seed_table = outcome.seed_table(5).render()
        assert "slowdown_p50" in seed_table and "slo_viol_pct" in seed_table
        latency_table = outcome.latency_table(5).render()
        assert "slowdown_p99" in latency_table
        assert "cpu_wait_p99_ms" in latency_table

    def test_scenario_cpu_config_flows_without_overrides(self):
        # A CPU scenario brings its own CpuConfig: no suite-level cores
        # needed for the slowdown columns to appear.
        config = ExperimentConfig(
            n_functions=16, seed=9, duration_days=1.0, training_days=0.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[9], policies=("fixed-10min",),
            scenario="cpu-starved", engine="event",
        )
        outcome = suite.run()
        latency = outcome.results[9]["fixed-10min"].latency
        assert latency.cpu_scheduled_events == latency.total_events
        assert latency.slo_ms == 1000.0  # the scenario default
        assert "slowdown_p50" in outcome.seed_table(9).render()

    def test_cores_require_an_event_engine(self):
        with pytest.raises(ValueError, match="event"):
            ExperimentSuite(policies=("fixed-10min",), cores=2)
        with pytest.raises(ValueError, match="event"):
            ExperimentSuite(policies=("fixed-10min",), slo_ms=100.0)

    def test_scheduler_requires_cores(self):
        with pytest.raises(ValueError, match="cores"):
            ExperimentSuite(
                policies=("fixed-10min",), engine="event", scheduler="srtf"
            )

    def test_unknown_scheduler_fails_fast(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            ExperimentSuite(
                policies=("fixed-10min",), engine="event",
                cores=2, scheduler="lottery",
            )

    def test_cpu_cells_cache_separately(self, tmp_path):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="bursty", engine="event", cache_dir=tmp_path,
        )
        plain = ExperimentSuite(**kwargs).run()
        contended = ExperimentSuite(**kwargs, cores=1, scheduler="srtf").run()
        # The CpuConfig is part of the cache key: the contended run may not
        # be served the CPU-free entry.
        assert contended.cache_misses > 0
        latency = contended.results[5]["fixed-10min"].latency
        assert latency.cpu_scheduled_events == latency.total_events
        assert plain.results[5]["fixed-10min"].latency.cpu_scheduled_events == 0
        # Re-running the contended sweep hits its own entry, CPU stats intact.
        cached = ExperimentSuite(**kwargs, cores=1, scheduler="srtf").run()
        assert cached.cache_hits > 0 and cached.cache_misses == 0
        cached_latency = cached.results[5]["fixed-10min"].latency
        assert cached_latency.cpu_scheduled_events == latency.total_events

    def test_event_engine_cells_cache_separately_from_vectorized(self, tmp_path):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("fixed-10min",),
            cache_dir=tmp_path,
        )
        vectorized = ExperimentSuite(**kwargs, engine="vectorized").run()
        event = ExperimentSuite(**kwargs, engine="event").run()
        # Different engines never share cache entries (the event result must
        # carry its latency block) ...
        assert event.cache_misses > 0
        assert event.results[5]["fixed-10min"].latency is not None
        # ... yet their minute aggregates are fingerprint-identical, and a
        # re-run of the event sweep is served from cache latency included.
        assert (
            vectorized.results[5]["fixed-10min"].deterministic_fingerprint()
            == event.results[5]["fixed-10min"].deterministic_fingerprint()
        )
        cached = ExperimentSuite(**kwargs, engine="event").run()
        assert cached.cache_hits > 0 and cached.cache_misses == 0
        assert cached.results[5]["fixed-10min"].latency is not None

    def test_placement_override_reaches_every_cell(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="hot-shard", placement="least-loaded",
        )
        outcome = suite.run()
        cluster = outcome.results[5]["fixed-10min"].cluster
        assert cluster is not None
        assert cluster.placement == "least-loaded"
        table = outcome.cluster_table(5)
        assert "placement least-loaded" in table.render()
        assert "migrations" in table.render()

    def test_unknown_placement_fails_fast(self):
        with pytest.raises(ValueError, match="unknown placement"):
            ExperimentSuite(scenario="hot-shard", placement="quantum")

    def test_placement_requires_a_scenario(self):
        with pytest.raises(ValueError, match="requires a scenario"):
            ExperimentSuite(placement="least-loaded")

    def test_placement_requires_a_cluster_scenario(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        suite = ExperimentSuite(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="bursty", placement="least-loaded",
        )
        with pytest.raises(ValueError, match="prescribes no cluster"):
            suite.run()

    def test_streaming_sweep_is_deterministic_across_runs(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="load-ramp", engine="event", streaming=True,
        )
        first = ExperimentSuite(**kwargs).run()
        second = ExperimentSuite(**kwargs).run()
        assert (
            first.results[5]["fixed-10min"].deterministic_fingerprint()
            == second.results[5]["fixed-10min"].deterministic_fingerprint()
        )

    def test_streaming_mode_withholds_the_training_window(self):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("hybrid-function",),
            scenario="load-ramp",
        )
        trained = ExperimentSuite(**kwargs).run()
        streaming = ExperimentSuite(**kwargs, streaming=True).run()
        # The histogram policy's offline phase (and warm-up replay) must be
        # gone: a policy entering cold produces different decisions.
        assert (
            trained.results[5]["hybrid-function"].deterministic_fingerprint()
            != streaming.results[5]["hybrid-function"].deterministic_fingerprint()
        )

    def test_streaming_cells_cache_separately(self, tmp_path):
        config = ExperimentConfig(
            n_functions=25, seed=5, duration_days=2.0, training_days=1.5,
            warmup_minutes=60,
        )
        kwargs = dict(
            config=config, seeds=[5], policies=("fixed-10min",),
            scenario="load-ramp", cache_dir=tmp_path,
        )
        ExperimentSuite(**kwargs).run()
        streaming = ExperimentSuite(**kwargs, streaming=True).run()
        assert streaming.cache_misses > 0  # never served a trained cell
        cached = ExperimentSuite(**kwargs, streaming=True).run()
        assert cached.cache_hits > 0 and cached.cache_misses == 0

    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSuite(engine="quantum")

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            ExperimentSuite(scenario="warp-speed")

    def test_scenario_params_require_a_scenario(self):
        with pytest.raises(ValueError, match="requires a scenario"):
            ExperimentSuite(scenario_params={"squeeze": 2.0})


class TestRq6Report:
    """The slowdown report must render across a scheduler × cores grid —
    including on the real-shaped ``azure2019-fixture`` trace, which brings no
    CPU config of its own and relies entirely on the suite-level override."""

    def test_rq6_renders_on_the_azure_fixture(self):
        from repro.experiments.rq6_slowdown import slowdown_rq_table

        config = ExperimentConfig(
            n_functions=12, seed=5, duration_days=1.0, training_days=0.5,
            warmup_minutes=60,
        )
        cells = {}
        for scheduler in ("fifo", "srtf"):
            outcome = ExperimentSuite(
                config=config,
                seeds=(5,),
                policies=("fixed-10min",),
                scenario="azure2019-fixture",
                engine="event",
                cores=1,
                scheduler=scheduler,
                slo_ms=500.0,
            ).run()
            cells[("fixed-10min", scheduler, 1)] = outcome.merged_latency("fixed-10min")
        for stats in cells.values():
            assert stats.cpu_scheduled_events > 0
            assert stats.slo_checked_events == stats.cpu_scheduled_events
        rendered = slowdown_rq_table("azure2019-fixture", cells).render(
            float_format="{:.2f}"
        )
        assert "RQ6" in rendered
        assert "azure2019-fixture" in rendered
        assert "srtf" in rendered
        assert "slowdown_p99" in rendered

    def test_rq6_default_grid_pairs_fifo_against_srtf(self):
        from repro.experiments.rq6_slowdown import (
            DEFAULT_RQ6_CORES,
            DEFAULT_RQ6_POLICIES,
            DEFAULT_RQ6_SCHEDULERS,
        )

        # The results book sweeps exactly this grid for its RQ6 section.
        assert DEFAULT_RQ6_SCHEDULERS == ("fifo", "srtf")
        assert DEFAULT_RQ6_CORES == (2,)
        assert DEFAULT_RQ6_POLICIES == ("fixed-10min", "spes")

    def test_rq5_table_has_one_row_per_policy_in_order(self):
        from repro.experiments.rq5_latency import latency_rq_table
        from repro.simulation import LatencyStats

        per_policy = {
            "latency-keepalive": LatencyStats(
                total_events=10, warm_events=7, cold_start_events=2,
                delayed_events=1, cold_wait_ms=np.array([10.0, 20.0, 30.0]),
            ),
            "fixed-10min": LatencyStats(
                total_events=10, warm_events=9, cold_start_events=1,
                cold_wait_ms=np.array([50.0]),
            ),
        }
        table = latency_rq_table("seasonal-mix", per_policy)
        assert [row["policy"] for row in table.rows] == [
            "latency-keepalive",
            "fixed-10min",
        ]
        assert {row["scenario"] for row in table.rows} == {"seasonal-mix"}
        first, second = table.rows
        assert first["cold_events"] == 3.0
        assert first["max_ms"] == 30.0
        assert second["p99_ms"] == 50.0
