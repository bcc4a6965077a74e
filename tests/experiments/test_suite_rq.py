"""Tests for the experiment suite's single-workload use and the RQ modules."""

import numpy as np
import pytest

from repro.core import SpesPolicy, SpesConfig
from repro.experiments import (
    ExperimentConfig,
    ExperimentSuite,
    default_policy_specs,
    rq1_coldstart,
    rq2_memory,
)
from repro.experiments.rq3_tradeoff import givenup_sweep, linear_fit, prewarm_sweep, sweep_table
from repro.experiments.rq4_ablation import (
    ablation_table,
    adaptivity_ablation,
    correlation_ablation,
)
from repro.simulation import simulate_policy

SEED = 41


@pytest.fixture(scope="module")
def suite():
    config = ExperimentConfig(
        n_functions=60,
        seed=SEED,
        duration_days=4.0,
        training_days=3.0,
        warmup_minutes=360,
    )
    return ExperimentSuite(config)


@pytest.fixture(scope="module")
def all_results(suite):
    return suite.run().results[SEED]


@pytest.fixture(scope="module")
def spes_run(suite):
    """A prepared SPES instance and its result, simulated directly."""
    split = suite.traces()[suite.trace_key(SEED)]
    policy = SpesPolicy(suite.config.spes_config)
    result = simulate_policy(
        policy, split.simulation, split.training, warmup_minutes=suite.config.warmup_minutes
    )
    return policy, result


class TestSuite:
    def test_workload_built_once(self, suite):
        assert suite.traces() is suite.traces()

    def test_split_matches_config(self, suite):
        split = suite.traces()[suite.trace_key(SEED)]
        assert split.training.duration_minutes == 3 * 1440
        assert split.simulation.duration_minutes == 1440

    def test_run_contains_spes_and_baselines(self, all_results):
        assert "spes" in all_results
        assert "fixed-10min" in all_results
        assert "hybrid-application" in all_results
        assert "faascache" in all_results

    def test_direct_spes_run_matches_suite_cell(self, all_results, spes_run):
        _, result = spes_run
        assert (
            result.deterministic_fingerprint()
            == all_results["spes"].deterministic_fingerprint()
        )

    def test_base_config_variant_is_the_run_result(self, suite, all_results):
        base = suite.run_spes_variants({"base": suite.config.spes_config})
        assert base["base"] is all_results["spes"]

    def test_variant_run_with_custom_config(self, suite):
        first = suite.run_spes_variants({"variant-test": SpesConfig(theta_prewarm=1)})
        assert first["variant-test"].policy_name == "spes"
        # Memoized by content: a repeated or renamed request is the same object.
        again = suite.run_spes_variants({"renamed": SpesConfig(theta_prewarm=1)})
        assert again["renamed"] is first["variant-test"]

    def test_lcs_in_default_specs(self):
        specs = default_policy_specs()
        assert "lcs" in specs
        assert "faascache" not in specs
        assert "faascache" in default_policy_specs(faascache_capacity=3)


class TestRq1(object):
    def test_cdf_table_has_policy_columns(self, all_results):
        table = rq1_coldstart.csr_cdf_table(all_results)
        assert set(all_results).issubset(set(table.columns))
        assert len(table.rows) == 21

    def test_headline_improvements_table(self, all_results):
        table = rq1_coldstart.headline_improvements(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["q3_reduction_by_spes"] is None

    def test_memory_and_always_cold_normalized_to_spes(self, all_results):
        table = rq1_coldstart.memory_and_always_cold(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["normalized_memory"] == pytest.approx(1.0)

    def test_per_category_csr(self, spes_run):
        rates = rq1_coldstart.per_category_csr(*spes_run)
        assert rates
        assert all(0.0 <= value <= 1.0 for value in rates.values())

    def test_per_category_table_renders(self, spes_run):
        table = rq1_coldstart.per_category_csr_table(*spes_run)
        assert table.rows


class TestRq2:
    def test_wmt_emcr_table(self, all_results):
        table = rq2_memory.wmt_and_emcr_table(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["normalized_wmt"] == pytest.approx(1.0)

    def test_wmt_ratio_per_type(self, spes_run):
        ratios = rq2_memory.wmt_ratio_per_type(*spes_run)
        assert all(value >= 0.0 for value in ratios.values())

    def test_overhead_table(self, all_results):
        table = rq2_memory.overhead_comparison(all_results)
        assert len(table.rows) == len(all_results)


class TestRq3:
    def test_prewarm_sweep_points(self, suite):
        points = prewarm_sweep(suite, values=(1, 2))
        assert len(points) == 2
        assert all(point.normalized_memory > 0 for point in points)

    def test_givenup_sweep_memory_monotonic_trend(self, suite):
        points = givenup_sweep(suite, scales=(1, 5))
        assert points[1].normalized_memory >= points[0].normalized_memory

    def test_linear_fit_and_table(self, suite):
        points = prewarm_sweep(suite, values=(1, 2, 3))
        slope, intercept = linear_fit(points)
        assert np.isfinite(slope) and np.isfinite(intercept)
        table = sweep_table(points, "theta_prewarm", "sweep")
        assert len(table.rows) == 3

    def test_linear_fit_requires_two_points(self, suite):
        points = prewarm_sweep(suite, values=(2,))
        with pytest.raises(ValueError):
            linear_fit(points)


class TestRq4:
    def test_correlation_ablation_variants(self, suite):
        results = correlation_ablation(suite)
        assert set(results) == {"spes", "w/o-corr", "w/o-online-corr"}

    def test_adaptivity_ablation_variants(self, suite):
        results = adaptivity_ablation(suite)
        assert set(results) == {"spes", "w/o-forgetting", "w/o-adjusting"}

    def test_ablation_table_normalized_to_full_spes(self, suite):
        results = correlation_ablation(suite)
        table = ablation_table(results, "ablation")
        spes_row = next(row for row in table.rows if row["variant"] == "spes")
        assert spes_row["normalized_memory"] == pytest.approx(1.0)
        assert spes_row["normalized_wmt"] == pytest.approx(1.0)


class TestReferenceReuse:
    """RQ3/RQ4 take their SPES reference from the suite's own run()."""

    @pytest.fixture()
    def fresh(self):
        config = ExperimentConfig(
            n_functions=30, seed=SEED, duration_days=2.0, training_days=1.5, warmup_minutes=60
        )
        suite = ExperimentSuite(config, policies=("spes",))
        return suite, suite.run().results[SEED]["spes"]

    def test_ablations_reuse_run_spes_result(self, fresh):
        suite, spes = fresh
        assert correlation_ablation(suite)["spes"] is spes
        assert adaptivity_ablation(suite)["spes"] is spes

    def test_sweeps_do_not_resimulate_the_base_config(self, fresh, monkeypatch):
        suite, spes = fresh
        runner = suite.parallel_runner()
        executed = []
        run_cells = runner.run_cells

        def spy(cells):
            executed.extend(cell.spec for cell in cells)
            return run_cells(cells)

        monkeypatch.setattr(runner, "run_cells", spy)
        points = prewarm_sweep(suite, values=(1, 2))
        base = suite.run_spes_variants({"base": suite.config.spes_config})["base"]
        assert base is spes
        assert len(executed) == 1  # only theta_prewarm=1; 2 is the default
        assert points[1].normalized_memory == 1.0
