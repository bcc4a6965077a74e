"""The index-native warm-up replay against the dict loop it replaced.

``Simulator._warm_up`` reads the training trace's cached tail index and
steps index-native policies on index arrays; :mod:`warmup_reference` keeps
the per-minute dict replay.  Both must hand the simulation the same
entering resident set, so every run keeps its fingerprint.
"""

from __future__ import annotations

import pickle
from typing import Mapping, Set

import numpy as np
import pytest

from degenerate_reference import DictAlwaysWarmPolicy, DictNoKeepAlivePolicy
from warmup_reference import reference_warm_up, reference_warm_up_installed

from repro.experiments.parallel import POLICY_REGISTRY
from repro.simulation import (
    AlwaysWarmPolicy,
    NoKeepAlivePolicy,
    Simulator,
    VectorizedPolicy,
    simulate_policy,
)
from repro.simulation.engine import ShardFallbackWarning
from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces import (
    AzureTraceGenerator,
    FunctionRecord,
    GeneratorProfile,
    SparseTrace,
    Trace,
    TraceSplit,
    split_trace,
)
from repro.traces.schema import TraceMetadata

pytestmark = pytest.mark.filterwarnings(
    f"ignore::{ShardFallbackWarning.__module__}.{ShardFallbackWarning.__name__}"
)


class RecentDictPolicy(ProvisioningPolicy):
    """A third-party dict policy: keeps the last five minutes' ids plus a ghost."""

    name = "recent-dict"

    def prepare(self, functions, training=None) -> None:
        super().prepare(functions, training)
        self._last_seen: dict[str, int] = {}

    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        for function_id in invocations:
            self._last_seen[function_id] = minute
        recent = {f for f, seen in self._last_seen.items() if minute - seen < 5}
        return recent | {"ghost"}


def _registry_factories() -> dict:
    """Every distinct registry factory (the ``-indexed`` aliases share one)."""
    unique: dict = {}
    for name, factory in POLICY_REGISTRY.items():
        if all(factory is not seen for seen in unique.values()):
            unique[name] = factory
    return unique


POLICIES = {**_registry_factories(), "third-party-dict": RecentDictPolicy}
#: 1440 is the default horizon; 3000 exceeds the 2160-minute training window.
WARMUPS = (1, 120, 1440, 3000)


def _sparse(split: TraceSplit) -> TraceSplit:
    return TraceSplit(
        training=SparseTrace.from_dense(split.training),
        simulation=SparseTrace.from_dense(split.simulation),
    )


def _foreign_training(split: TraceSplit) -> TraceSplit:
    """Training ids reversed, two simulation functions missing, two strangers.

    Drives the remap path: the training index's function order differs from
    the simulation index's, and some training ids are unknown to it.
    """
    training = split.training
    kept = training.function_ids[2:][::-1]
    records = [training.record(fid) for fid in kept]
    counts = {fid: np.array(training.series(fid)) for fid in kept}
    for number in range(2):
        stranger = f"stranger-{number}"
        records.insert(number * 3, FunctionRecord(stranger, "s", "s"))
        series = np.zeros(training.duration_minutes, dtype=np.int64)
        series[number::7] = 1
        counts[stranger] = series
    foreign = Trace(
        records,
        counts,
        TraceMetadata(name="foreign", duration_minutes=training.duration_minutes),
    )
    return TraceSplit(training=foreign, simulation=split.simulation)


@pytest.fixture(scope="module")
def dense_split() -> TraceSplit:
    profile = GeneratorProfile(
        n_functions=20, duration_days=2.25, seed=31, unseen_window_days=0.25
    )
    return split_trace(AzureTraceGenerator(profile).generate(), training_days=1.5)


@pytest.fixture(scope="module", params=["dense", "sparse", "foreign", "foreign-sparse"])
def split(request, dense_split) -> TraceSplit:
    return {
        "dense": lambda: dense_split,
        "sparse": lambda: _sparse(dense_split),
        "foreign": lambda: _foreign_training(dense_split),
        "foreign-sparse": lambda: _sparse(_foreign_training(dense_split)),
    }[request.param]()


def _entering(split: TraceSplit, factory, warmup: int, warm_up) -> Set[str]:
    """Prepare and bind a fresh policy as ``Simulator.run`` does, then warm it up."""
    simulator = Simulator(split.simulation, split.training, warmup_minutes=warmup)
    policy = factory()
    policy.prepare(split.simulation.records(), split.training)
    if isinstance(policy, VectorizedPolicy):
        policy.bind_index(split.simulation.invocation_index())
    return warm_up(simulator, policy)


def _fingerprint(split: TraceSplit, factory, **knobs) -> str:
    result = simulate_policy(factory(), split.simulation, split.training, **knobs)
    return result.deterministic_fingerprint()


@pytest.mark.parametrize("warmup", WARMUPS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_warm_up_matches_dict_replay(split, name, warmup):
    factory = POLICIES[name]
    entering = _entering(split, factory, warmup, Simulator._warm_up)
    assert entering == _entering(split, factory, warmup, reference_warm_up)
    fingerprint = _fingerprint(split, factory, warmup_minutes=warmup)
    with reference_warm_up_installed():
        assert fingerprint == _fingerprint(split, factory, warmup_minutes=warmup)


@pytest.mark.parametrize("engine", ["reference", "event"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_warm_up_matches_dict_replay_per_engine(dense_split, name, engine):
    factory = POLICIES[name]
    fingerprint = _fingerprint(dense_split, factory, warmup_minutes=120, engine=engine)
    with reference_warm_up_installed():
        expected = _fingerprint(dense_split, factory, warmup_minutes=120, engine=engine)
    assert fingerprint == expected


@pytest.mark.parametrize("container", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_sharded_warm_up_matches_dict_replay(dense_split, name, container):
    split = dense_split if container == "dense" else _sparse(dense_split)
    factory = POLICIES[name]
    fingerprint = _fingerprint(split, factory, warmup_minutes=1440, shards=2)
    with reference_warm_up_installed():
        expected = _fingerprint(split, factory, warmup_minutes=1440, shards=2)
    assert fingerprint == expected


class TestTailIndex:
    def test_tail_is_the_full_index_sliced(self, split):
        training = split.training
        full = training.invocation_index()
        for start in (1, 700, training.duration_minutes - 1):
            tail = training.invocation_index(start)
            assert tail.function_ids == full.function_ids
            assert tail.duration_minutes == training.duration_minutes - start
            lo = full.indptr[start]
            np.testing.assert_array_equal(tail.indptr, full.indptr[start:] - lo)
            np.testing.assert_array_equal(tail.indices, full.indices[lo:])
            np.testing.assert_array_equal(tail.counts, full.counts[lo:])

    def test_tail_is_cached_per_start_and_dropped_from_pickles(self, dense_split):
        training = _sparse(dense_split).training
        payload = pickle.dumps(training)
        tail = training.invocation_index(600)
        assert training.invocation_index(600) is tail
        assert training.invocation_index(601) is not tail
        assert training.invocation_index(0) is training.invocation_index()
        assert pickle.dumps(training) == payload
        restored = pickle.loads(payload)
        assert restored.invocation_index(600).indptr.tolist() == tail.indptr.tolist()

    def test_start_outside_the_trace_rejected(self, dense_split):
        training = dense_split.training
        with pytest.raises(IndexError):
            training.invocation_index(training.duration_minutes + 1)
        with pytest.raises(IndexError):
            training.invocation_index(-1)

    def test_warm_up_never_builds_per_minute_dicts(self, dense_split, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("warm-up must not iterate per-minute dicts")

        sparse = _sparse(dense_split)
        for trace_type in (Trace, SparseTrace):
            monkeypatch.setattr(trace_type, "iter_minutes", forbidden)
        for factory in (POLICIES["fixed-10min"], NoKeepAlivePolicy, RecentDictPolicy):
            simulate_policy(factory(), sparse.simulation, sparse.training)


#: ``(index-native, dict oracle)`` factories of the degenerate bounds; the
#: explicit-id variants name a real function and one the trace never carries.
TRIVIAL_PAIRS = {
    "no-keepalive": (NoKeepAlivePolicy, DictNoKeepAlivePolicy),
    "always-warm": (AlwaysWarmPolicy, DictAlwaysWarmPolicy),
    "always-warm-explicit": (
        lambda: AlwaysWarmPolicy(function_ids=["func-00000", "ghost"]),
        lambda: DictAlwaysWarmPolicy(function_ids=["func-00000", "ghost"]),
    ),
}


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("engine", ["vectorized", "event", "reference"])
@pytest.mark.parametrize("pair", sorted(TRIVIAL_PAIRS))
def test_degenerate_policies_match_dict_oracle(dense_split, pair, engine, shards):
    indexed, oracle = TRIVIAL_PAIRS[pair]
    resident = {"ghost-entering", dense_split.simulation.function_ids[1]}
    knobs = dict(warmup_minutes=120, engine=engine, shards=shards)
    for initially_resident in (None, resident):
        knobs["initially_resident"] = initially_resident
        assert _fingerprint(dense_split, indexed, **knobs) == _fingerprint(
            dense_split, oracle, **knobs
        )


def test_bridge_charges_extra_residents_like_the_mask_engines(dense_split):
    # The reference engine reaches an index-native policy through its
    # on_minute bridge; ids outside the index must come back from it.
    def factory():
        return AlwaysWarmPolicy(function_ids={"func-00000", "func-00003", "ghost"})

    fingerprints = {
        engine: _fingerprint(dense_split, factory, warmup_minutes=60, engine=engine)
        for engine in ("reference", "vectorized")
    }
    assert fingerprints["reference"] == fingerprints["vectorized"]
    result = simulate_policy(factory(), dense_split.simulation, dense_split.training)
    assert result.per_function["ghost"].wasted_memory_time == result.duration_minutes
