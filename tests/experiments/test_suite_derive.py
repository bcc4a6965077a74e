"""``ExperimentSuite.derive``: other run settings on the same built workloads.

The results book runs RQ5 and RQ6 on suites derived from its RQ1/RQ2 suite,
so every seed's workload is built once per book.  A derived suite must be
indistinguishable from the same suite built on its own (cells, cache keys,
fingerprints), must share the split objects, and must keep its CPU/SLO
overlay and its memoized results to itself.
"""

import pytest

from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.scenarios import Scenario
from repro.simulation.spec import RunSpec

SEEDS = (3, 4)
CONFIG = ExperimentConfig(
    n_functions=8, seed=SEEDS[0], duration_days=1.5, training_days=1.0, warmup_minutes=60
)
WORKLOAD = dict(
    config=CONFIG,
    seeds=SEEDS,
    scenario="azure2019-fixture",
    scenario_params={"population": 12},
)
#: The book's RQ6 cell shape and its RQ5 cell shape.
RQ6 = dict(
    policies=("fixed-10min", "spes"), engine="event", cores=2, scheduler="srtf", slo_ms=1000.0
)
RQ5 = dict(policies=("fixed-10min", "latency-keepalive"), engine="event", streaming=True)


def source_suite() -> ExperimentSuite:
    """The book's RQ1/RQ2 suite shape: MB accounting on the vectorized engine."""
    return ExperimentSuite(**WORKLOAD, spec=RunSpec.build(memory_mode="mb"))


@pytest.fixture(scope="module")
def source():
    return source_suite()


def cell_fingerprints(suite: ExperimentSuite) -> dict:
    return {
        (seed, name): result.deterministic_fingerprint()
        for seed, per_policy in suite.run().results.items()
        for name, result in per_policy.items()
    }


class TestSharing:
    def test_shares_the_split_objects(self, source):
        derived = source.derive(**RQ6)
        for key, split in source.traces().items():
            assert derived.traces()[key] is split

    def test_has_its_own_runner_and_memo(self, source):
        derived = source.derive(**RQ5)
        assert derived.parallel_runner() is not source.parallel_runner()
        assert derived._memo is not source._memo

    def test_builds_each_workload_once(self, monkeypatch):
        builds = []
        original = Scenario.build

        def counting_build(self, *args, **kwargs):
            builds.append(kwargs["seed"])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "build", counting_build)
        suite = source_suite()
        # Deriving before the source ran builds the source's workloads.
        suite.derive(**RQ6).run()
        suite.derive(**RQ5).parallel_runner()
        suite.parallel_runner()
        assert sorted(builds) == sorted(SEEDS)

    def test_rejects_changes_to_the_workload(self, source):
        for changes in ({"seeds": (9,)}, {"config": CONFIG}, {"scenario": "azure"}):
            with pytest.raises(TypeError, match="derive"):
                source.derive(**changes)

    def test_validates_like_the_constructor(self, source):
        with pytest.raises(ValueError, match="require the event engine"):
            source.derive(cores=2)


class TestOverlays:
    @staticmethod
    def assert_no_cpu_stage(events):
        assert events
        for config in events.values():
            assert config.cpu is None
            assert config.slo_ms is None

    def test_rq6_overlay_stays_in_the_derived_suite(self, source):
        derived = source.derive(**RQ6)
        for config in derived.parallel_runner().events.values():
            assert config.cpu.cores_per_node == 2
            assert config.cpu.scheduler == "srtf"
            assert config.slo_ms == 1000.0
        self.assert_no_cpu_stage(source._workload_events)
        self.assert_no_cpu_stage(source._events)

    def test_rq5_suite_derived_after_rq6_has_no_cpu_stage(self, source):
        source.derive(**RQ6).parallel_runner()
        self.assert_no_cpu_stage(source.derive(**RQ5).parallel_runner().events)

    @pytest.mark.parametrize("changes", [RQ6, RQ5], ids=["rq6", "rq5"])
    def test_cells_match_the_suite_built_on_its_own(self, source, changes):
        derived = source.derive(**changes)
        standalone = ExperimentSuite(**WORKLOAD, **changes)
        assert derived.static_cache_keys() == standalone.static_cache_keys()
        assert cell_fingerprints(derived) == cell_fingerprints(standalone)


class TestMemo:
    def test_event_suite_does_not_serve_the_vectorized_memo(self):
        source = source_suite()
        variants = {"base": CONFIG.spes_config}
        vectorized = source.run_spes_variants(variants)["base"]
        assert vectorized.latency is None
        event = source.derive(engine="event").run_spes_variants(variants)["base"]
        assert event is not vectorized
        assert event.latency is not None
        # The source's memo still serves its own cell.
        assert source.run_spes_variants(variants)["base"] is vectorized
