"""Randomized equivalence: engines × policy implementations.

Seeded randomized workloads (see :mod:`harness`) are driven through every
combination of

* engine:   ``vectorized`` vs the ``reference`` oracle (the executable
  specification, ``tests/reference_engine.py``) vs ``event`` (sub-minute
  expansion layered on the vectorized loop);
* policy:   the shipped index-native :class:`VectorizedPolicy` classes vs
  their dict-stepping oracles from ``dict_policies`` (adapted transparently
  by the engine).

All runs of a (workload, policy pair) cell must produce identical
``deterministic_fingerprint()``\\ s — the strongest equality the result type
offers (per-function stats, the whole memory series, WMT, EMCR, cluster
stats).  A base seed runs on every invocation; the extended seed matrix is
marked ``slow`` so CI covers it in full while ``-m "not slow"`` keeps the
local loop fast.
"""

import pytest

from harness import (
    PLACEMENTS,
    POLICY_PAIRS,
    assert_cross_engine_equivalence,
    random_cluster,
    random_split,
)
from dict_policies import DictFixedKeepAlivePolicy
from repro.baselines import FixedKeepAlivePolicy
from repro.simulation import EventConfig

FAST_SEEDS = (11,)
SLOW_SEEDS = (23, 47, 101)

SEEDS = [pytest.param(seed, id=f"seed{seed}") for seed in FAST_SEEDS] + [
    pytest.param(seed, id=f"seed{seed}", marks=pytest.mark.slow) for seed in SLOW_SEEDS
]


@pytest.fixture(scope="module", params=SEEDS)
def workload(request):
    """One randomized workload per seed, shared by every pair's cells."""
    seed = request.param
    return seed, random_split(seed)


@pytest.mark.parametrize("dict_factory, indexed_factory", POLICY_PAIRS)
def test_engines_and_implementations_are_fingerprint_identical(
    workload, dict_factory, indexed_factory
):
    _, split = workload
    assert_cross_engine_equivalence(dict_factory, indexed_factory, split)


@pytest.mark.parametrize("dict_factory, indexed_factory", POLICY_PAIRS)
def test_equivalence_holds_under_capacity_pressure(
    workload, dict_factory, indexed_factory
):
    """The cluster arbiter must not distinguish twin implementations either."""
    seed, split = workload
    cluster = random_cluster(seed, split)
    assert_cross_engine_equivalence(
        dict_factory, indexed_factory, split, cluster=cluster
    )


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("dict_factory, indexed_factory", POLICY_PAIRS)
def test_equivalence_holds_for_every_placement(
    workload, placement, dict_factory, indexed_factory
):
    """Placement strategies × policy pairs: fingerprints stay engine-independent.

    Migration is enabled (seeded threshold), so the matrix also proves that
    sustained-pressure re-placement — the most stateful part of the placement
    subsystem — is a pure function of minute-granular state: the vectorized
    and event engines, driving dict and indexed twins, must land on one
    fingerprint per (workload, placement, pair) cell.
    """
    seed, split = workload
    cluster = random_cluster(seed, split, placement=placement, migration=True)
    assert_cross_engine_equivalence(
        dict_factory, indexed_factory, split, cluster=cluster
    )


def test_jitter_seed_never_changes_minute_aggregates(workload):
    """Event arrival jitter affects latencies only — never the fingerprint."""
    _, split = workload
    baseline = assert_cross_engine_equivalence(
        lambda: DictFixedKeepAlivePolicy(10),
        lambda: FixedKeepAlivePolicy(10),
        split,
        events=EventConfig(seed=1),
    )
    rejittered = assert_cross_engine_equivalence(
        lambda: DictFixedKeepAlivePolicy(10),
        lambda: FixedKeepAlivePolicy(10),
        split,
        events=EventConfig(seed=2, cold_start_scale=3.0),
    )
    assert baseline == rejittered


@pytest.mark.parametrize("dict_factory, indexed_factory", POLICY_PAIRS)
def test_twins_share_the_policy_name(dict_factory, indexed_factory):
    # Fingerprints hash the policy name first, so twin pairs must agree on it
    # for the equality above to be meaningful rather than vacuous.
    assert dict_factory().name == indexed_factory().name

