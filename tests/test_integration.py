"""End-to-end integration tests: full pipeline on a small synthetic workload.

These tests assert the *comparative shape* of the paper's headline results on
a small (fast) workload: SPES should beat the function-grained baselines on
the 75th-percentile cold-start rate while using the least (or close to the
least) memory.  Exact magnitudes are workload-dependent and are exercised by
the benchmark harness instead.
"""

import pytest

from repro.core import SpesConfig, SpesPolicy
from repro.core.categories import FunctionCategory
from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.simulation import simulate_policy

SEED = 2024


@pytest.fixture(scope="module")
def suite():
    config = ExperimentConfig(
        n_functions=150,
        seed=SEED,
        duration_days=6.0,
        training_days=5.0,
        warmup_minutes=720,
    )
    return ExperimentSuite(config)


@pytest.fixture(scope="module")
def results(suite):
    return suite.run().results[SEED]


@pytest.fixture(scope="module")
def spes_policy(suite):
    """A SPES instance prepared by a direct run over the suite's workload."""
    split = suite.traces()[suite.trace_key(SEED)]
    policy = SpesPolicy(suite.config.spes_config)
    simulate_policy(
        policy, split.simulation, split.training, warmup_minutes=suite.config.warmup_minutes
    )
    return policy


class TestHeadlineShape:
    def test_spes_beats_fixed_keepalive_on_q3_csr(self, results):
        assert results["spes"].q3_cold_start_rate < results["fixed-10min"].q3_cold_start_rate

    def test_spes_competitive_with_function_grained_baselines(self, results):
        spes_q3 = results["spes"].q3_cold_start_rate
        assert spes_q3 <= results["hybrid-function"].q3_cold_start_rate * 1.1
        assert spes_q3 <= results["faascache"].q3_cold_start_rate * 1.1

    def test_spes_memory_close_to_fixed_keepalive(self, results):
        spes_memory = results["spes"].average_memory_usage
        fixed_memory = results["fixed-10min"].average_memory_usage
        assert spes_memory <= fixed_memory * 1.3

    def test_spes_wmt_among_the_lowest(self, results):
        spes_wmt = results["spes"].total_wasted_memory_time
        others = [
            result.total_wasted_memory_time
            for name, result in results.items()
            if name != "spes"
        ]
        # SPES must not waste more than any baseline by a noticeable margin.
        assert spes_wmt <= min(others) * 1.2

    def test_hybrid_application_uses_much_more_memory_than_spes(self, results):
        assert (
            results["hybrid-application"].average_memory_usage
            > results["spes"].average_memory_usage
        )

    def test_every_policy_produces_valid_metrics(self, results):
        for result in results.values():
            assert 0.0 <= result.overall_cold_start_rate <= 1.0
            assert 0.0 <= result.emcr <= 1.0
            assert result.total_wasted_memory_time >= 0


class TestCategorizationCoverage:
    def test_most_functions_categorized(self, spes_policy):
        assignments = spes_policy.category_assignments()
        unknown = sum(
            1 for category in assignments.values() if category is FunctionCategory.UNKNOWN
        )
        assert unknown / len(assignments) < 0.25

    def test_multiple_categories_present(self, spes_policy):
        categories = set(spes_policy.category_assignments().values())
        assert len(categories) >= 4


class TestAblationShape:
    def test_disabling_correlation_does_not_improve_cold_starts(self, suite, results):
        without = suite.run_spes_variants(
            {
                "no-corr": suite.config.spes_config.replace(
                    enable_correlation=False, enable_online_correlation=False
                )
            }
        )["no-corr"]
        assert results["spes"].q3_cold_start_rate <= without.q3_cold_start_rate + 0.05


class TestTradeoffShape:
    def test_larger_prewarm_window_trades_memory_for_cold_starts(self, suite):
        base = suite.config.spes_config
        variants = suite.run_spes_variants(
            {
                "pre1": base.replace(theta_prewarm=1),
                "pre10": base.replace(theta_prewarm=10),
            }
        )
        small, large = variants["pre1"], variants["pre10"]
        assert large.average_memory_usage >= small.average_memory_usage
        assert large.q3_cold_start_rate <= small.q3_cold_start_rate + 0.05


class TestSmallScaleSanity:
    def test_spes_runs_without_training_data(self, small_split):
        result = simulate_policy(
            SpesPolicy(SpesConfig()), small_split.simulation, None, warmup_minutes=0
        )
        assert result.total_invocations > 0
