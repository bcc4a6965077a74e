"""Measured-memory (MB-mode) accounting: invariance, exactness, fallbacks.

Three contracts guard the measured-memory mode:

* **Unit-mode invariance** — attaching footprints to a trace must not move a
  single bit of a unit-mode run, on any engine: the default accounting never
  reads ``FunctionRecord.memory_mb``.
* **MB-mode exactness** — MB mode adds KB-denominated series/aggregates on
  top of the count-based numbers without changing them; both engines
  agree on one fingerprint; sharded runs merge to the unsharded
  fingerprint bit for bit (integer-KB sums decompose exactly).
* **Graceful degradation** — an empty join (no footprints anywhere) falls
  back to :data:`DEFAULT_MEMORY_MB` with finite, NaN-free MB statistics;
  an MB-denominated cluster without MB accounting is rejected loudly
  instead of silently mis-accounting.
"""

from dataclasses import replace
from typing import Dict

import numpy as np
import pytest

from harness import ALL_ENGINES, MASK_ENGINES, random_split, simulate_column
from repro.baselines import FixedKeepAlivePolicy
from repro.core import SpesPolicy
from repro.simulation import ClusterModel, simulate_policy
from repro.simulation.memory import DEFAULT_MEMORY_MB, footprint_kb_vector
from repro.traces import Trace, TraceSplit

SEED = 23


def footprinted_split(
    split: TraceSplit, seed: int = 7, coverage: float = 0.75
) -> TraceSplit:
    """The same split with seeded measured footprints on ``coverage`` of it.

    Footprints are assigned per function id (identical across the training
    and simulation traces, like a real ingestion join); the rest keep
    ``memory_mb=None`` to exercise the default-footprint fallback alongside
    measured values.
    """
    rng = np.random.default_rng(seed)
    footprints: Dict[str, float | None] = {
        fid: float(rng.uniform(64.0, 512.0)) if rng.random() < coverage else None
        for fid in split.simulation.function_ids
    }

    def apply(trace):
        records = [
            replace(record, memory_mb=footprints.get(record.function_id))
            for record in trace.records()
        ]
        counts = {fid: trace.series(fid) for fid in trace.function_ids}
        return Trace(records, counts, trace.metadata)

    return TraceSplit(training=apply(split.training), simulation=apply(split.simulation))


@pytest.fixture(scope="module")
def plain_split():
    return random_split(SEED)


@pytest.fixture(scope="module")
def measured_split(plain_split):
    return footprinted_split(plain_split)


def run(split, *, engine="vectorized", memory_mode="unit", shards=0, cluster=None):
    return simulate_column(
        FixedKeepAlivePolicy(10),
        split.simulation,
        split.training,
        warmup_minutes=60,
        engine=engine,
        memory_mode=memory_mode,
        shards=shards,
        cluster=cluster,
    )


# --------------------------------------------------------------------------- #
# Unit-mode invariance
# --------------------------------------------------------------------------- #
class TestUnitModeInvariance:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_footprints_do_not_move_unit_mode(
        self, plain_split, measured_split, engine
    ):
        bare = run(plain_split, engine=engine)
        measured = run(measured_split, engine=engine)
        assert (
            bare.deterministic_fingerprint() == measured.deterministic_fingerprint()
        )

    def test_unit_mode_results_carry_no_kb_series(self, measured_split):
        result = run(measured_split)
        assert result.memory_mode == "unit"
        assert result.memory_usage_kb is None
        assert result.total_wasted_memory_kb == 0


# --------------------------------------------------------------------------- #
# MB-mode exactness
# --------------------------------------------------------------------------- #
class TestMbMode:
    def test_count_based_numbers_are_untouched(self, measured_split):
        unit = run(measured_split, memory_mode="unit")
        mb = run(measured_split, memory_mode="mb")
        np.testing.assert_array_equal(mb.memory_usage, unit.memory_usage)
        assert mb.total_wasted_memory_time == unit.total_wasted_memory_time
        assert mb.emcr == unit.emcr
        for fid, stats in unit.per_function.items():
            assert mb.per_function[fid].cold_starts == stats.cold_starts
            assert mb.per_function[fid].invocations == stats.invocations

    def test_kb_series_matches_the_footprint_vector(self, measured_split):
        """Loaded KB per minute is exactly the sum of resident footprints."""
        mb = run(measured_split, memory_mode="mb")
        kb = footprint_kb_vector(measured_split.simulation.records())
        assert mb.memory_usage_kb is not None
        assert mb.memory_usage_kb.dtype == np.int64
        # Bounded by everything loaded at once; positive whenever anything is.
        assert mb.memory_usage_kb.max() <= kb.sum()
        assert ((mb.memory_usage_kb > 0) == (mb.memory_usage > 0)).all()

    @pytest.mark.parametrize("engine", MASK_ENGINES)
    def test_mask_engines_agree(self, measured_split, engine):
        baseline = run(measured_split, engine="vectorized", memory_mode="mb")
        other = run(measured_split, engine=engine, memory_mode="mb")
        assert (
            other.deterministic_fingerprint() == baseline.deterministic_fingerprint()
        )

    @pytest.mark.parametrize("engine", ("vectorized", "event"))
    def test_sharded_merge_is_exact(self, measured_split, engine):
        whole = run(measured_split, engine=engine, memory_mode="mb")
        sharded = run(measured_split, engine=engine, memory_mode="mb", shards=3)
        assert (
            sharded.deterministic_fingerprint() == whole.deterministic_fingerprint()
        )
        np.testing.assert_array_equal(sharded.memory_usage_kb, whole.memory_usage_kb)
        assert sharded.total_wasted_memory_kb == whole.total_wasted_memory_kb

    def test_mb_fingerprint_differs_from_unit(self, measured_split):
        """MB results must never collide with unit results in a cache."""
        unit = run(measured_split, memory_mode="unit")
        mb = run(measured_split, memory_mode="mb")
        assert unit.deterministic_fingerprint() != mb.deterministic_fingerprint()

    def test_spes_under_mb_capacity_cluster(self, measured_split):
        """An MB-denominated cluster admits by footprint without NaNs."""
        kb = footprint_kb_vector(measured_split.simulation.records())
        capacity_mb = int(kb.sum() // 1024 // 3) or 1
        cluster = ClusterModel(
            memory_capacity=capacity_mb, n_nodes=2, capacity_unit="mb"
        )
        result = simulate_policy(
            SpesPolicy(),
            measured_split.simulation,
            measured_split.training,
            warmup_minutes=60,
            engine="vectorized",
            memory_mode="mb",
            cluster=cluster,
        )
        assert result.cluster is not None
        assert np.isfinite(result.emcr_mb)
        assert result.total_wasted_memory_kb >= 0


# --------------------------------------------------------------------------- #
# Fallbacks and rejections
# --------------------------------------------------------------------------- #
class TestFallbacks:
    def test_empty_join_falls_back_to_default_footprint(self, plain_split):
        """No footprints anywhere: every function weighs DEFAULT_MEMORY_MB."""
        default_kb = round(DEFAULT_MEMORY_MB * 1024)
        result = run(plain_split, memory_mode="mb")
        np.testing.assert_array_equal(
            result.memory_usage_kb, result.memory_usage * default_kb
        )
        assert result.total_wasted_memory_kb == (
            result.total_wasted_memory_time * default_kb
        )
        # Uniform weights: the weighted ratio collapses to the count ratio.
        assert result.emcr_mb == result.emcr
        assert np.isfinite(result.emcr_mb)
        assert np.isfinite(result.average_memory_usage_mb)
        assert np.isfinite(result.wasted_memory_mb_minutes)

    def test_mb_cluster_requires_mb_mode(self, measured_split):
        cluster = ClusterModel(memory_capacity=512, n_nodes=2, capacity_unit="mb")
        with pytest.raises(ValueError, match="memory_mode='mb'"):
            run(measured_split, memory_mode="unit", cluster=cluster)

    def test_unknown_memory_mode_rejected(self, measured_split):
        with pytest.raises(ValueError, match="memory_mode"):
            run(measured_split, memory_mode="megabytes")
