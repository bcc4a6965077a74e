"""Unit tests of :class:`repro.simulation.spec.RunSpec`.

The spec is the single home of run-shape defaults, cross-field validation
and canonical serialization; these tests pin each of those contracts
directly (the cross-*layer* guarantees are covered by
``tests/experiments/test_validation_parity.py`` and the golden cache-key
pins).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.simulation import ClusterModel, EventConfig
from repro.simulation.spec import (
    DEFAULT_WARMUP_MINUTES,
    ENGINE_IMPLEMENTATIONS,
    ENGINE_VERSION,
    MEMORY_MODES,
    RunSpec,
    canonical_value,
    content_digest,
)


class TestConstruction:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.engine == "vectorized"
        assert spec.streaming is False
        assert spec.warmup_minutes == DEFAULT_WARMUP_MINUTES
        assert spec.shards == 0
        assert spec.shard_placement == "hash"
        assert spec.memory_mode == "unit"
        assert spec.cluster is None
        assert spec.events is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunSpec().engine = "event"

    def test_build_drops_none_overrides(self):
        # None means "use the field default" — that is the whole point of
        # the entry points' keyword shims defaulting their knobs to None.
        assert RunSpec.build(engine=None, shards=None) == RunSpec()
        assert RunSpec.build(engine="event").engine == "event"

    def test_build_keeps_falsy_non_none_overrides(self):
        assert RunSpec.build(warmup_minutes=0).warmup_minutes == 0
        assert RunSpec.build(streaming=False).streaming is False

    def test_override_returns_new_validated_spec(self):
        base = RunSpec()
        changed = base.override(engine="event")
        assert changed.engine == "event"
        assert base.engine == "vectorized"

    def test_override_revalidates(self):
        spec = RunSpec(engine="event", events=EventConfig())
        with pytest.raises(ValueError, match="requires an event engine"):
            spec.override(engine="vectorized")


class TestResolve:
    """``RunSpec.resolve`` is the spec-or-keywords rule every entry point shares."""

    def test_without_spec_builds_from_the_knobs(self):
        assert RunSpec.resolve(None, engine="event", shards=None) == RunSpec(
            engine="event"
        )

    def test_without_spec_or_knobs_is_the_default(self):
        assert RunSpec.resolve(None) == RunSpec()

    def test_spec_with_unset_knobs_is_returned(self):
        spec = RunSpec(engine="event", shards=2)
        assert RunSpec.resolve(spec, engine=None, cores=None) is spec

    def test_spec_with_any_knob_is_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            RunSpec.resolve(RunSpec(), engine=None, warmup_minutes=0)

    def test_knob_values_are_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec.resolve(None, engine="warp")


class TestValidation:
    def test_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup_minutes must be non-negative"):
            RunSpec(warmup_minutes=-1)

    def test_negative_shards(self):
        with pytest.raises(ValueError, match="shards must be non-negative"):
            RunSpec(shards=-2)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(engine="quantum")

    def test_unknown_memory_mode(self):
        with pytest.raises(ValueError, match="unknown memory_mode"):
            RunSpec(memory_mode="gb")

    def test_unknown_shard_placement(self):
        with pytest.raises(KeyError):
            RunSpec(shard_placement="no-such-strategy")

    def test_every_engine_accepts_mb_mode_and_clusters(self):
        cluster = ClusterModel(memory_capacity=8, n_nodes=2)
        for engine in ENGINE_IMPLEMENTATIONS:
            RunSpec(engine=engine, memory_mode="mb")
            RunSpec(engine=engine, cluster=cluster)

    def test_mb_cluster_requires_mb_mode(self):
        cluster = ClusterModel(memory_capacity=4096, n_nodes=2, capacity_unit="mb")
        with pytest.raises(ValueError, match="MB-denominated"):
            RunSpec(cluster=cluster)
        RunSpec(cluster=cluster, memory_mode="mb")

    def test_events_require_event_engine(self):
        with pytest.raises(ValueError, match="requires an event engine"):
            RunSpec(events=EventConfig(seed=1))
        RunSpec(engine="event", events=EventConfig(seed=1))

    def test_validate_returns_self(self):
        spec = RunSpec()
        assert spec.validate() is spec


class TestCanonical:
    def test_canonical_is_plain_json_data(self):
        import json

        doc = RunSpec().canonical()
        assert doc["engine"] == "vectorized"
        assert doc["cluster"] is None
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_canonical_embeds_nested_configs(self):
        spec = RunSpec(
            engine="event",
            events=EventConfig(seed=7),
            cluster=ClusterModel(memory_capacity=8, n_nodes=2),
        )
        doc = spec.canonical()
        assert doc["events"]["seed"] == 7
        assert doc["cluster"]["memory_capacity"] == 8

    def test_spec_digest_is_stable_and_distinguishing(self):
        assert RunSpec().spec_digest() == RunSpec().spec_digest()
        assert RunSpec().spec_digest() != RunSpec(engine="event").spec_digest()
        assert RunSpec().spec_digest() == content_digest(RunSpec())

    def test_equal_specs_from_different_constructors(self):
        assert RunSpec.build(engine="event") == RunSpec(engine="event")
        assert (
            RunSpec.build(engine="event").spec_digest()
            == RunSpec(engine="event").spec_digest()
        )


class TestCacheKeyParts:
    """The legacy part order is a compatibility contract — pin it exactly."""

    def test_default_spec_part_order(self):
        parts = RunSpec().cache_key_parts("trace-fp", "policy", 42)
        assert parts == [
            ENGINE_VERSION,
            "vectorized",
            False,
            0,
            "hash",
            "trace-fp",
            DEFAULT_WARMUP_MINUTES,
            None,
            None,
            "policy",
            42,
        ]

    def test_memory_mode_appended_only_off_default(self):
        unit = RunSpec().cache_key_parts("fp", "p", 0)
        assert ("memory_mode", "unit") not in unit
        mb = RunSpec(memory_mode="mb").cache_key_parts("fp", "p", 0)
        assert mb[-1] == ("memory_mode", "mb")
        assert mb[:-1] == unit

    def test_cache_key_is_digest_of_parts(self):
        spec = RunSpec(engine="event", events=EventConfig(seed=3))
        assert spec.cache_key("fp", "p", 1) == content_digest(
            *spec.cache_key_parts("fp", "p", 1)
        )


def test_spec_names_reexported_from_the_package():
    import repro.simulation as simulation

    assert simulation.ENGINE_IMPLEMENTATIONS == ENGINE_IMPLEMENTATIONS
    assert simulation.MEMORY_MODES == MEMORY_MODES
    assert simulation.ENGINE_VERSION == ENGINE_VERSION
    assert simulation.Simulator.DEFAULT_WARMUP_MINUTES == DEFAULT_WARMUP_MINUTES
    assert simulation.RunSpec is RunSpec
    assert simulation.canonical_value is canonical_value
    assert simulation.content_digest is content_digest
