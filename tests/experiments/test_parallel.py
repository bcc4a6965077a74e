"""Tests for the parallel experiment subsystem: specs, caching, determinism."""

import pickle

import pytest
from dict_policies import (
    DictDefusePolicy,
    DictFaasCachePolicy,
    DictFixedKeepAlivePolicy,
    DictHybridApplicationPolicy,
    DictHybridFunctionPolicy,
    DictLcsPolicy,
    DictSpesPolicy,
)
from trace_builders import csr_built

from repro.core import SpesConfig
from repro.experiments import ExperimentConfig, default_policy_specs
from repro.experiments.parallel import (
    POLICY_REGISTRY,
    ParallelRunner,
    PolicySpec,
    ResultCache,
    derive_cell_seed,
    register_policy,
)
from repro.experiments.suite import ExperimentSuite
from repro.simulation.results import SimulationResult
from repro.traces import (
    AzureTraceGenerator,
    GeneratorProfile,
    Trace,
    split_trace,
)


@pytest.fixture(scope="module")
def split():
    profile = GeneratorProfile(
        n_functions=30, duration_days=2.0, unseen_window_days=0.5, seed=13
    )
    return split_trace(AzureTraceGenerator(profile).generate(), training_days=1.5)


@pytest.fixture(scope="module")
def suite_specs():
    return {
        "no-keepalive": PolicySpec.of("no-keepalive"),
        "fixed-5min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=5),
        "hybrid-function": PolicySpec.of("hybrid-function"),
    }


class TestPolicySpec:
    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            PolicySpec.of("definitely-not-registered")

    def test_build_applies_params(self):
        policy = PolicySpec.of("fixed-keepalive", keep_alive_minutes=7).build()
        assert policy.keep_alive_minutes == 7

    def test_spes_spec_carries_config(self):
        config = SpesConfig(theta_prewarm=4)
        policy = PolicySpec.of("spes", config=config).build()
        assert policy.config.theta_prewarm == 4

    def test_specs_are_picklable(self):
        spec = PolicySpec.of("spes", config=SpesConfig())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_register_policy_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_policy("spes", POLICY_REGISTRY["spes"])


class TestRegistryCoverage:
    #: One key per policy: the paper's policies, the two degenerate bounds and
    #: the latency-aware keep-alive.
    BUILTIN_KEYS = {
        "spes",
        "fixed-keepalive",
        "fixed-10min",
        "hybrid-function",
        "hybrid-application",
        "defuse",
        "faascache",
        "lcs",
        "no-keepalive",
        "always-warm",
        "latency-keepalive",
    }

    def test_one_key_per_policy(self):
        assert set(POLICY_REGISTRY) == self.BUILTIN_KEYS
        assert not [name for name in POLICY_REGISTRY if name.endswith("-indexed")]

    def test_every_registry_factory_builds_an_indexed_policy(self):
        """No registered policy steps through the DictPolicyAdapter."""
        from repro.simulation import VectorizedPolicy

        for name, factory in POLICY_REGISTRY.items():
            assert isinstance(factory(), VectorizedPolicy), name

    def test_registry_classes_are_the_only_concrete_policies(self):
        """One class per policy: every concrete ``repro`` policy is registered.

        Walks ``ProvisioningPolicy.__subclasses__()`` after importing the
        policy packages.  The one concrete class no registry key builds is
        the DictPolicyAdapter, and no class inherits dict stepping: only the
        abstract contract and the indexed bridge define ``on_minute``.
        """
        import inspect

        import repro.baselines  # noqa: F401  (defines the baseline classes)
        import repro.core  # noqa: F401  (defines SpesPolicy)
        from repro.simulation.policy_base import ProvisioningPolicy
        from repro.simulation.vector_policy import DictPolicyAdapter, VectorizedPolicy

        found, pending = set(), [ProvisioningPolicy]
        while pending:
            cls = pending.pop()
            if cls not in found:
                found.add(cls)
                pending.extend(cls.__subclasses__())
        concrete = {
            cls
            for cls in found
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls)
        }
        registered = {type(factory()) for factory in POLICY_REGISTRY.values()}
        assert concrete - registered == {DictPolicyAdapter}
        for cls in concrete:
            assert issubclass(cls, VectorizedPolicy), cls
            stepping = {base for base in cls.__mro__ if "on_minute" in vars(base)}
            assert stepping <= {ProvisioningPolicy, VectorizedPolicy}, cls

    #: Bare paper names -> their dict-stepping oracles (tests/dict_policies.py).
    PAPER_TWINS = {
        "spes": DictSpesPolicy,
        "fixed-keepalive": DictFixedKeepAlivePolicy,
        "fixed-10min": lambda: DictFixedKeepAlivePolicy(keep_alive_minutes=10),
        "hybrid-function": DictHybridFunctionPolicy,
        "hybrid-application": DictHybridApplicationPolicy,
        "defuse": DictDefusePolicy,
        "faascache": DictFaasCachePolicy,
        "lcs": DictLcsPolicy,
    }

    def test_bare_paper_names_run_index_native(self):
        from repro.simulation import VectorizedPolicy

        for name, dict_factory in self.PAPER_TWINS.items():
            policy = POLICY_REGISTRY[name]()
            twin = dict_factory()
            assert isinstance(policy, VectorizedPolicy), name
            assert not isinstance(twin, VectorizedPolicy), name
            assert policy.name == twin.name, name
            assert policy.shard_safe == twin.shard_safe, name


class TestCellSeeds:
    def test_seeds_are_deterministic(self):
        spec = PolicySpec.of("no-keepalive")
        assert derive_cell_seed(1, spec) == derive_cell_seed(1, spec)

    def test_seeds_differ_per_base_seed_and_spec(self):
        spec_a = PolicySpec.of("no-keepalive")
        spec_b = PolicySpec.of("always-warm")
        seeds = {
            derive_cell_seed(1, spec_a),
            derive_cell_seed(2, spec_a),
            derive_cell_seed(1, spec_b),
        }
        assert len(seeds) == 3

    def test_seeds_fit_legacy_numpy_range(self):
        seed = derive_cell_seed(2024, PolicySpec.of("spes"))
        assert 0 <= seed < 2**32


class TestParallelRunner:
    def test_serial_and_parallel_results_identical(self, split, suite_specs):
        serial = ParallelRunner({"w": split}, workers=0, warmup_minutes=60)
        parallel = ParallelRunner({"w": split}, workers=2, warmup_minutes=60)
        serial_results = serial.run_policies(suite_specs, trace_key="w", base_seed=3)
        parallel_results = parallel.run_policies(suite_specs, trace_key="w", base_seed=3)
        assert list(serial_results) == list(parallel_results) == list(suite_specs)
        for name in suite_specs:
            assert (
                serial_results[name].deterministic_fingerprint()
                == parallel_results[name].deterministic_fingerprint()
            ), name

    def test_cache_miss_then_hit(self, split, suite_specs, tmp_path):
        first = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=60)
        first_results = first.run_policies(suite_specs, trace_key="w")
        assert first.cache.hits == 0
        assert first.cache.misses == len(suite_specs)

        second = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=60)
        second_results = second.run_policies(suite_specs, trace_key="w")
        assert second.cache.hits == len(suite_specs)
        assert second.cache.misses == 0
        for name in suite_specs:
            assert (
                first_results[name].deterministic_fingerprint()
                == second_results[name].deterministic_fingerprint()
            )

    def test_cache_keys_depend_on_simulator_settings(self, split, suite_specs, tmp_path):
        spec = suite_specs["no-keepalive"]
        short = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=30)
        long = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=90)
        key_short = short.cache_key(short.cell("c", spec, "w"))
        key_long = long.cache_key(long.cell("c", spec, "w"))
        assert key_short != key_long

    def test_cache_keys_depend_on_streaming_and_engine(self, split, suite_specs, tmp_path):
        spec = suite_specs["no-keepalive"]
        keys = set()
        for engine, streaming in (
            ("vectorized", False),
            ("vectorized", True),
            ("event", False),
            ("event", True),
        ):
            runner = ParallelRunner(
                {"w": split}, cache_dir=tmp_path, warmup_minutes=30,
                engine=engine, streaming=streaming,
            )
            keys.add(runner.cache_key(runner.cell("c", spec, "w")))
        assert len(keys) == 4

    def test_cache_keys_depend_on_shards_and_shard_placement(
        self, split, suite_specs, tmp_path
    ):
        """Sharded and unsharded runs must never share a cache entry.

        Latency observations draw from per-shard jitter streams and a
        fallback run is not the run that was asked for, so the key covers
        both the shard count and the partition strategy.
        """
        spec = suite_specs["no-keepalive"]
        keys = set()
        for shards, shard_placement in (
            (0, "hash"),
            (3, "hash"),
            (3, "least-loaded"),
            (4, "hash"),
        ):
            runner = ParallelRunner(
                {"w": split},
                cache_dir=tmp_path,
                warmup_minutes=30,
                shards=shards,
                shard_placement=shard_placement,
            )
            keys.add(runner.cache_key(runner.cell("c", spec, "w")))
        assert len(keys) == 4

    def test_cache_keys_depend_on_memory_mode(self, split, suite_specs, tmp_path):
        """MB-mode cells carry extra fields, so they must never hit a
        unit-mode entry — while explicit unit mode keeps the historical key
        (pre-MB caches stay warm)."""
        spec = suite_specs["no-keepalive"]
        legacy = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=30)
        unit = ParallelRunner(
            {"w": split}, cache_dir=tmp_path, warmup_minutes=30, memory_mode="unit"
        )
        mb = ParallelRunner(
            {"w": split}, cache_dir=tmp_path, warmup_minutes=30, memory_mode="mb"
        )
        legacy_key = legacy.cache_key(legacy.cell("c", spec, "w"))
        assert unit.cache_key(unit.cell("c", spec, "w")) == legacy_key
        assert mb.cache_key(mb.cell("c", spec, "w")) != legacy_key

    def test_sharded_pool_serial_and_unsharded_agree(self, split):
        """One fingerprint across unsharded, serial-sharded and pool-sharded."""
        specs = {"fixed-5min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=5)}
        fingerprints = {
            label: runner.run_policies(specs, trace_key="w", base_seed=3)[
                "fixed-5min"
            ].deterministic_fingerprint()
            for label, runner in {
                "unsharded": ParallelRunner({"w": split}, warmup_minutes=60),
                "serial": ParallelRunner({"w": split}, warmup_minutes=60, shards=3),
                "pool": ParallelRunner(
                    {"w": split}, warmup_minutes=60, shards=3, workers=2
                ),
            }.items()
        }
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_pooled_shards_keep_the_serial_function_order(self, split):
        """The fingerprint sorts ids, so it cannot see a reordered dict."""
        specs = {"fixed-5min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=5)}
        serial = ParallelRunner({"w": split}, warmup_minutes=60, shards=2)
        pool = ParallelRunner({"w": split}, warmup_minutes=60, shards=2, workers=2)
        serial_result = serial.run_policies(specs, trace_key="w")["fixed-5min"]
        pool_result = pool.run_policies(specs, trace_key="w")["fixed-5min"]
        assert list(pool_result.per_function) == list(serial_result.per_function)
        assert pool_result.per_function == serial_result.per_function

    @pytest.mark.parametrize("layout", ["dense", "dense-reordered", "sparse"])
    @pytest.mark.parametrize("prebuilt", [False, True], ids=["cold", "indexed"])
    def test_one_cell_agrees_whoever_built_the_index(self, prebuilt, layout):
        """Pool-sharded, serial-sharded and unsharded runs of one cell agree,
        whether or not the split arrives with its indexes already built.
        ``dense-reordered`` passes the counts in reverse record order; the
        trace still numbers its rows, and so its index, in record order."""

        def fresh_split():
            trace = AzureTraceGenerator(
                GeneratorProfile(
                    n_functions=30, duration_days=2.0, unseen_window_days=0.5, seed=13
                )
            ).generate()
            if layout == "sparse":
                trace = csr_built(trace)
            elif layout == "dense-reordered":
                ids = [record.function_id for record in trace.records()]
                trace = Trace(
                    trace.records(),
                    {fid: trace.series(fid) for fid in reversed(ids)},
                    trace.metadata,
                )
            fresh = split_trace(trace, 1.5)
            if prebuilt:
                fresh.simulation.invocation_index()
                fresh.training.invocation_index(fresh.training.duration_minutes - 60)
            return fresh

        spec = {"fixed-5min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=5)}
        fingerprints = {
            label: ParallelRunner({"w": fresh_split()}, warmup_minutes=60, **knobs)
            .run_policies(spec, trace_key="w", base_seed=3)["fixed-5min"]
            .deterministic_fingerprint()
            for label, knobs in {
                "unsharded": {},
                "serial": {"shards": 2},
                "pool": {"shards": 2, "workers": 2},
            }.items()
        }
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_spawn_pool_agrees_and_leaves_the_parent_unindexed(self, monkeypatch):
        """A spawn pool pickles the traces without their indexes, so the
        parent builds none for it; its results equal the serial run's."""
        import multiprocessing

        from repro.experiments import parallel

        def fresh_split():
            profile = GeneratorProfile(
                n_functions=30, duration_days=2.0, unseen_window_days=0.5, seed=13
            )
            return split_trace(AzureTraceGenerator(profile).generate(), 1.5)

        specs = {
            "fixed-5min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=5),
            "no-keepalive": PolicySpec.of("no-keepalive"),
        }
        serial = ParallelRunner({"w": fresh_split()}, warmup_minutes=60)
        expected = serial.run_policies(specs, trace_key="w", base_seed=3)

        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda: spawn)
        pooled_split = fresh_split()
        pooled = ParallelRunner({"w": pooled_split}, warmup_minutes=60, workers=2)
        results = pooled.run_policies(specs, trace_key="w", base_seed=3)
        assert pooled_split.simulation._invocation_index is None
        assert {k: r.deterministic_fingerprint() for k, r in results.items()} == {
            k: r.deterministic_fingerprint() for k, r in expected.items()
        }

    def test_shard_assignment_runs_once_per_trace_key(self, split, monkeypatch):
        from repro.experiments import parallel
        from repro.simulation import ShardFallbackWarning

        calls = []
        original = parallel.shard_assignment

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(parallel, "shard_assignment", counting)
        runner = ParallelRunner({"w": split}, warmup_minutes=60, shards=2, workers=2)
        cells = [
            runner.cell(name, PolicySpec.of(name), "w")
            for name in ("fixed-10min", "no-keepalive", "spes")
        ]
        # The fallback reason stays per cell: only the unsafe cell warns.
        with pytest.warns(ShardFallbackWarning, match="'spes'") as caught:
            results = runner.run_cells(cells)
        assert len(caught) == 1
        assert len(calls) == 1
        assert sorted(results) == ["fixed-10min", "no-keepalive", "spes"]

    def test_sharded_runner_falls_back_for_unsafe_policy(self, split):
        from repro.simulation import ShardFallbackWarning

        runner = ParallelRunner({"w": split}, warmup_minutes=60, shards=2)
        cell = runner.cell("c", PolicySpec.of("spes"), "w")
        with pytest.warns(ShardFallbackWarning, match="shard_safe"):
            results = runner.run_cells([cell])
        assert results["c"].total_invocations > 0

    def test_streaming_runner_withholds_training(self, split):
        from repro.experiments.parallel import PolicySpec

        spec = PolicySpec.of("hybrid-function")
        trained = ParallelRunner({"w": split}, warmup_minutes=60)
        streaming = ParallelRunner({"w": split}, warmup_minutes=60, streaming=True)
        trained_result = trained.run_cells([trained.cell("c", spec, "w")])["c"]
        streaming_result = streaming.run_cells([streaming.cell("c", spec, "w")])["c"]
        assert (
            trained_result.deterministic_fingerprint()
            != streaming_result.deterministic_fingerprint()
        )

    def test_corrupt_cache_entry_is_a_miss(self, split, suite_specs, tmp_path):
        runner = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=60)
        cell = runner.cell("c", suite_specs["no-keepalive"], "w")
        runner.run_cells([cell])
        (tmp_path / f"{runner.cache_key(cell)}.pkl").write_bytes(b"not a pickle")
        rerun = ParallelRunner({"w": split}, cache_dir=tmp_path, warmup_minutes=60)
        results = rerun.run_cells([cell])
        assert rerun.cache.misses == 1
        assert results["c"].total_invocations > 0

    def test_duplicate_cell_names_rejected(self, split, suite_specs):
        runner = ParallelRunner({"w": split}, warmup_minutes=60)
        cell = runner.cell("same", suite_specs["no-keepalive"], "w")
        with pytest.raises(ValueError):
            runner.run_cells([cell, cell])

    def test_unknown_trace_key_rejected(self, split, suite_specs):
        runner = ParallelRunner({"w": split})
        with pytest.raises(KeyError):
            runner.cell("c", suite_specs["no-keepalive"], "nope")


class TestResultCache:
    def test_get_on_empty_directory_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_entry_written_before_the_columnar_layout_loads(
        self, split, suite_specs, tmp_path, monkeypatch
    ):
        """An entry whose ``per_function`` was pickled as a dict still loads."""
        runner = ParallelRunner({"w": split}, warmup_minutes=60)
        cell = runner.cell("c", suite_specs["fixed-5min"], "w")
        result = runner.run_cells([cell])["c"]
        cache = ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(SimulationResult, "__getstate__", lambda self: dict(self.__dict__))
            cache.put("old", result)
        # The old layout pickles one FunctionStats object per function.
        assert b"FunctionStats" in (tmp_path / "old.pkl").read_bytes()
        loaded = cache.get("old")
        assert cache.hits == 1
        assert loaded.deterministic_fingerprint() == result.deterministic_fingerprint()
        assert list(loaded.per_function) == list(result.per_function)
        assert loaded.per_function == result.per_function


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        n_functions=30, seed=17, duration_days=2.0, training_days=1.5, warmup_minutes=60
    )


class TestExperimentSuiteVariants:
    VARIANTS = {"prewarm-1": SpesConfig(theta_prewarm=1), "prewarm-5": SpesConfig(theta_prewarm=5)}

    def test_parallel_variant_batch_matches_serial(self, tiny_config):
        serial = ExperimentSuite(tiny_config).run_spes_variants(self.VARIANTS)
        parallel = ExperimentSuite(tiny_config, workers=2).run_spes_variants(self.VARIANTS)
        assert list(serial) == list(parallel) == list(self.VARIANTS)
        for name, result in serial.items():
            assert (
                result.deterministic_fingerprint()
                == parallel[name].deterministic_fingerprint()
            ), name

    def test_run_spes_variants_batch_is_memoized(self, tiny_config):
        suite = ExperimentSuite(tiny_config)
        variants = {"variant-a": SpesConfig(theta_prewarm=1)}
        first = suite.run_spes_variants(variants)
        second = suite.run_spes_variants(variants)
        assert first["variant-a"] is second["variant-a"]

    def test_memo_is_keyed_by_content_not_name(self, tiny_config):
        suite = ExperimentSuite(tiny_config)
        first = suite.run_spes_variants({"x": SpesConfig(theta_prewarm=1)})["x"]
        # The same name bound to a different config is that config's result,
        # never the other config's memoized one.
        second = suite.run_spes_variants({"x": SpesConfig(theta_prewarm=10)})["x"]
        assert second is not first
        fresh = ExperimentSuite(tiny_config).run_spes_variants(
            {"y": SpesConfig(theta_prewarm=10)}
        )["y"]
        assert second.deterministic_fingerprint() == fresh.deterministic_fingerprint()
        # Two names for one config in one batch share one simulation.
        both = suite.run_spes_variants({"a": SpesConfig(), "b": SpesConfig()})
        assert both["a"] is both["b"]

    def test_default_specs_build_the_paper_baselines(self):
        specs = default_policy_specs(faascache_capacity=4)
        assert specs["fixed-10min"].build().keep_alive_minutes == 10
        assert specs["faascache"].build().capacity == 4

    def test_suite_disk_cache(self, tiny_config, tmp_path):
        first = ExperimentSuite(tiny_config, cache_dir=tmp_path)
        first.run_spes_variants({"v": SpesConfig(theta_prewarm=1)})
        second = ExperimentSuite(tiny_config, cache_dir=tmp_path)
        second.run_spes_variants({"v": SpesConfig(theta_prewarm=1)})
        assert second.parallel_runner().cache.hits == 1


class TestExperimentSuite:
    def test_serial_and_parallel_suite_identical(self, tiny_config):
        serial = ExperimentSuite(
            tiny_config, seeds=[21], policies=("spes", "fixed-10min", "faascache")
        ).run()
        parallel = ExperimentSuite(
            tiny_config,
            seeds=[21],
            policies=("spes", "fixed-10min", "faascache"),
            workers=2,
        ).run()
        for name, result in serial.results[21].items():
            assert (
                result.deterministic_fingerprint()
                == parallel.results[21][name].deterministic_fingerprint()
            ), name

    def test_policy_order_preserved(self, tiny_config):
        policies = ("spes", "defuse", "fixed-10min")
        outcome = ExperimentSuite(tiny_config, seeds=[21], policies=policies).run()
        assert tuple(outcome.results[21]) == policies

    def test_faascache_requires_spes(self, tiny_config):
        with pytest.raises(ValueError):
            ExperimentSuite(tiny_config, policies=("faascache",))

    def test_duplicate_seeds_deduplicated(self, tiny_config):
        suite = ExperimentSuite(tiny_config, seeds=[21, 21, 22])
        assert suite.seeds == (21, 22)

    def test_tables_render(self, tiny_config):
        outcome = ExperimentSuite(
            tiny_config, seeds=[21, 22], policies=("spes", "fixed-10min")
        ).run()
        assert "seed 21" in outcome.seed_table(21).render()
        aggregate = outcome.aggregate_table()
        assert {row["policy"] for row in aggregate.rows} == {"spes", "fixed-10min"}
