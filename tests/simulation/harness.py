"""Property-based equivalence harness for the engine/policy matrix.

The repository carries two engines (``vectorized``, ``event``), the
reference loop they replaced (``tests/reference_engine.py``, the
:data:`ORACLE` column) and a family of index-native policy ports that must
be *decision-identical* to their dict-based twins.  Rather than each test file
hand-rolling its own workload and comparison loop, this module centralizes:

* **randomized workload generation** — seeded, structurally diverse
  train/simulation splits drawn from randomized generator profiles
  (:func:`random_split`), plus seeded capacity models derived from the
  workload itself (:func:`random_cluster`);
* **the policy-pair catalog** — every shipped paper policy paired with its
  dict-stepping oracle from ``tests/dict_policies.py`` (:data:`POLICY_PAIRS`);
* **fingerprint comparison** — :func:`collect_fingerprints` /
  :func:`assert_cross_engine_equivalence` run one policy through every
  (implementation × engine) combination and compare
  :meth:`~repro.simulation.results.SimulationResult.deterministic_fingerprint`,
  the strongest equality the result type offers (per-function statistics,
  the full memory series, WMT, EMCR, cluster stats).

The property under test: for any seeded workload, any registered policy pair
and any capacity model, all engine/implementation combinations produce one
fingerprint — the event engine's sub-minute expansion changes *observations*
(latency), never minute-granular *state*.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

import numpy as np
import pytest

from reference_engine import ORACLE, simulate_reference
from dict_policies import (
    DictDefusePolicy,
    DictFaasCachePolicy,
    DictFixedKeepAlivePolicy,
    DictHybridApplicationPolicy,
    DictHybridFunctionPolicy,
    DictLcsPolicy,
    DictSpesPolicy,
)

from repro.experiments.parallel import POLICY_REGISTRY
from repro.simulation import (
    ClusterModel,
    EventConfig,
    placement_names,
    simulate_policy,
)
from repro.simulation.vector_policy import VectorizedPolicy
from repro.traces import AzureTraceGenerator, GeneratorProfile, TraceSplit, split_trace

#: The "listening no-op" column: the policy re-typed as a subclass whose
#: ``on_feedback`` override does nothing, run under ``event``.  The override
#: makes the engine maintain and stream the latency window, so fingerprints
#: must still match the other engines' — the window bookkeeping may never
#: touch minute-granular state.
LISTENING = "event+listening"
#: Engine columns that support the uncapped setting (all of them).
ALL_ENGINES = ("vectorized", ORACLE, "event", LISTENING)
#: Engine columns that support the capacity-constrained cluster mode — the
#: oracle specifies the uncapped loop only.
MASK_ENGINES = ("vectorized", "event", LISTENING)
#: Engine columns that support sharded execution: the oracle shards through
#: the simulator's own decomposition, each shard on the reference loop.
SHARD_ENGINES = ALL_ENGINES
#: Every registered placement strategy, for the placement × pairs matrix —
#: derived from the registry so a newly registered strategy joins the
#: equivalence matrix automatically.
PLACEMENTS = tuple(placement_names())


_LISTENING_TYPES: Dict[type, type] = {}


def listening(policy):
    """``policy`` re-typed as a subclass whose ``on_feedback`` does nothing."""
    base = type(policy)
    if base not in _LISTENING_TYPES:
        _LISTENING_TYPES[base] = type(
            f"Listening{base.__name__}",
            (base,),
            {"on_feedback": lambda self, minute, latency_window: None},
        )
    policy.__class__ = _LISTENING_TYPES[base]
    return policy


def simulate_column(policy, simulation, training=None, engine="vectorized", **options):
    """:func:`simulate_policy` for one engine column (:data:`ORACLE`, :data:`LISTENING`)."""
    if engine == ORACLE:
        return simulate_reference(policy, simulation, training, **options)
    if engine == LISTENING:
        policy, engine = listening(policy), "event"
    return simulate_policy(policy, simulation, training, engine=engine, **options)


def _oracle_pair(oracle, name, **params):
    """``pytest.param(dict_factory, indexed_factory, id=name)`` for one policy.

    The indexed side is built by the registry under ``name``, so the pair
    checks the class a sweep actually runs.  Both sides are checked to be
    two different types, the oracle outside the indexed contract: a pair of
    one class with itself would pass every comparison vacuously.
    """
    registered = POLICY_REGISTRY[name]
    dict_type, indexed_type = type(oracle(**params)), type(registered(**params))
    assert not issubclass(dict_type, VectorizedPolicy), dict_type
    assert issubclass(indexed_type, VectorizedPolicy), indexed_type
    assert dict_type is not indexed_type
    return pytest.param(
        lambda: oracle(**params), lambda: registered(**params), id=name
    )


#: Every shipped paper policy against its dict-stepping oracle, as
#: ``pytest.param`` entries of ``(dict_factory, indexed_factory)``.  A policy
#: joins the whole equivalence matrix by adding one line here.
POLICY_PAIRS = [
    _oracle_pair(lambda: DictFixedKeepAlivePolicy(10), "fixed-10min"),
    _oracle_pair(DictHybridFunctionPolicy, "hybrid-function"),
    _oracle_pair(DictHybridApplicationPolicy, "hybrid-application"),
    _oracle_pair(DictSpesPolicy, "spes"),
    _oracle_pair(DictFaasCachePolicy, "faascache", capacity=15),
    _oracle_pair(DictDefusePolicy, "defuse"),
    _oracle_pair(DictLcsPolicy, "lcs"),
]

#: The pairs whose members declare the function-local (``shard_safe``)
#: contract — derived from the policies themselves so a pair joins the
#: sharded equivalence matrix the moment its twins set the flag.
SHARD_SAFE_POLICY_PAIRS = [
    param
    for param in POLICY_PAIRS
    if all(getattr(factory(), "shard_safe", False) for factory in param.values)
]

#: Archetypes the randomized mixes draw from (chained archetypes need parent
#: wiring that the generator handles internally).
_MIX_ARCHETYPES = (
    "always_warm",
    "periodic",
    "quasi_periodic",
    "dense_poisson",
    "bursty",
    "pulsed",
    "chained",
    "rare_possible",
    "rare_unknown",
)


def random_profile(seed: int) -> GeneratorProfile:
    """A randomized (but seed-deterministic) synthetic workload profile.

    Population size, trace length, the archetype mix and the drifting
    fraction all vary with the seed, so repeated draws explore structurally
    different workloads — dense vs sparse, periodic-heavy vs bursty-heavy —
    instead of re-testing one shape with different noise.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(_MIX_ARCHETYPES)))
    mix = {name: float(weight) for name, weight in zip(_MIX_ARCHETYPES, weights)}
    return GeneratorProfile(
        n_functions=int(rng.integers(24, 56)),
        duration_days=float(rng.uniform(1.5, 3.0)),
        archetype_mix=mix,
        drifting_fraction=float(rng.uniform(0.0, 0.25)),
        unseen_fraction=float(rng.uniform(0.0, 0.08)),
        unseen_window_days=0.5,
        seed=seed,
    )


def random_split(seed: int, training_fraction: float = 0.5) -> TraceSplit:
    """Generate a randomized workload and split it for simulation."""
    profile = random_profile(seed)
    trace = AzureTraceGenerator(profile).generate()
    training_days = max(0.25, profile.duration_days * training_fraction)
    return split_trace(trace, training_days=training_days)


def random_cluster(
    seed: int,
    split: TraceSplit,
    placement: str = "hash",
    migration: bool = False,
) -> ClusterModel:
    """A seeded capacity model that actually pressures the given workload.

    Capacity is a small random multiple of the simulation window's mean
    per-minute active set (the ``capacity-squeeze`` recipe), sharded over a
    random number of nodes, so the arbiter evicts for real instead of
    rubber-stamping every declaration.  ``placement`` selects the
    function-to-node strategy, and ``migration=True`` additionally draws a
    seeded sustained-pressure threshold so re-placement fires for real.
    """
    rng = np.random.default_rng(seed ^ 0xC1A5)
    index = split.simulation.invocation_index()
    active_per_minute = np.diff(index.indptr)
    mean_active = float(active_per_minute.mean()) if active_per_minute.size else 1.0
    n_nodes = int(rng.integers(1, 5))
    squeeze = float(rng.uniform(1.5, 4.0))
    capacity = max(n_nodes, int(round(mean_active * squeeze)))
    pressure_threshold = float(rng.uniform(0.4, 0.8)) if migration else None
    pressure_minutes = int(rng.integers(2, 6))
    return ClusterModel(
        memory_capacity=capacity,
        n_nodes=n_nodes,
        placement=placement,
        pressure_threshold=pressure_threshold,
        pressure_minutes=pressure_minutes,
    )


def collect_fingerprints(
    factories: Dict[str, Callable[[], object]],
    split: TraceSplit,
    engines: Iterable[str] = ALL_ENGINES,
    cluster: ClusterModel | None = None,
    events: EventConfig | None = None,
    warmup_minutes: int = 180,
    shards: int = 0,
    shard_placement: str = "hash",
) -> Dict[str, str]:
    """Fingerprints of every (implementation × engine) combination.

    ``factories`` maps an implementation label to a zero-argument policy
    factory; each build is fresh, so no state leaks between runs.  The event
    config only applies to the event columns (the other engines reject it).
    ``shards``/``shard_placement`` select the sharded execution mode.
    """
    fingerprints: Dict[str, str] = {}
    for impl, factory in factories.items():
        for engine in engines:
            result = simulate_column(
                factory(),
                split.simulation,
                split.training,
                warmup_minutes=warmup_minutes,
                engine=engine,
                cluster=cluster,
                events=events if engine in ("event", LISTENING) else None,
                shards=shards,
                shard_placement=shard_placement,
            )
            fingerprints[f"{impl}/{engine}"] = result.deterministic_fingerprint()
    return fingerprints


def assert_cross_engine_equivalence(
    dict_factory: Callable[[], object],
    indexed_factory: Callable[[], object],
    split: TraceSplit,
    cluster: ClusterModel | None = None,
    events: EventConfig | None = None,
    warmup_minutes: int = 180,
) -> str:
    """Assert one fingerprint across twins × engines; return it.

    The oracle column runs only in the uncapped setting (it is the
    executable specification of exactly that), so capped comparisons run
    over the engines alone.
    """
    engines = ALL_ENGINES if cluster is None else MASK_ENGINES
    fingerprints = collect_fingerprints(
        {"dict": dict_factory, "indexed": indexed_factory},
        split,
        engines=engines,
        cluster=cluster,
        events=events,
        warmup_minutes=warmup_minutes,
    )
    distinct = set(fingerprints.values())
    assert len(distinct) == 1, f"fingerprints diverged: {fingerprints}"
    return distinct.pop()


def assert_shard_equivalence(
    factory: Callable[[], object],
    split: TraceSplit,
    shards: int,
    shard_placement: str = "hash",
    engines: Iterable[str] = SHARD_ENGINES,
    cluster: ClusterModel | None = None,
    warmup_minutes: int = 180,
) -> str:
    """Assert sharded == unsharded fingerprints per engine; return the hash.

    The core exactness claim of the sharded execution mode: for a shard-safe
    policy (and, when capped, a decomposable capacity model) partitioning the
    function population and merging the per-shard results must reproduce the
    unsharded run's :meth:`deterministic_fingerprint` bit for bit.
    """
    whole = collect_fingerprints(
        {"whole": factory},
        split,
        engines=engines,
        cluster=cluster,
        warmup_minutes=warmup_minutes,
    )
    sharded = collect_fingerprints(
        {"sharded": factory},
        split,
        engines=engines,
        cluster=cluster,
        warmup_minutes=warmup_minutes,
        shards=shards,
        shard_placement=shard_placement,
    )
    distinct = set(whole.values()) | set(sharded.values())
    assert len(distinct) == 1, (
        f"sharded/unsharded fingerprints diverged "
        f"(shards={shards}, placement={shard_placement}): {whole} vs {sharded}"
    )
    return distinct.pop()
