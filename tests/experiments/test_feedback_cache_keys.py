"""Cache-key pins for policies that listen to the latency feedback loop.

A policy that overrides ``on_feedback`` closes the loop on the ``event``
engine.  Those runs were once selected by a separate engine name,
``"event-feedback"``, and their on-disk cache entries were keyed under it.
The digests below were computed with that engine name over the frozen
:mod:`pin_workload` split; the ``event`` cells of a listening policy must
reproduce them byte for byte, and must never collide with the open-loop
``event`` keys the same cells had under the old engine catalog.
"""

from __future__ import annotations

import pytest
from pin_workload import pin_split

from repro.experiments.parallel import ParallelRunner, PolicySpec

#: ``{config: (closed-loop key, former open-loop event key)}`` for the
#: ``latency-keepalive`` cell.
LISTENING_KEYS = {
    "event": (
        "42b6bedba79f33e1fbe0aa80a210026e17e087636c9d82c8add212a0f8b6e25e",
        "f1e87853c5edc666f95e6aa29f8cbf21b7b739a6b1cc613cb93508dea298c70f",
    ),
    "streaming": (
        "0761170dbd7be9c95608fc18a5bd8cf54fa528677c0928d086f7b0ddfdd93310",
        "39ce65501fb2ed2287184983edca70693d655f45fc18b9b10f68767b9ee60afd",
    ),
}

#: Keys the cache-key change must leave alone.
UNCHANGED_KEYS = {
    # A policy that keeps the default hook, on the event engine.
    "event/fixed-10min": "98988b6036d38f10f4e4ea52c6d19a281cc7bd1773851c85161c77941bc44fe2",
    # A listening policy off the event engine: no loop, no retired token.
    "vectorized/latency-keepalive": "c890d8558238bd718d234c4bc986c07b8268db38492a9cf60161b63f2de560c6",
}

RUNNER_OPTIONS = {
    "event": dict(engine="event", warmup_minutes=1440),
    "streaming": dict(engine="event", warmup_minutes=0, streaming=True),
    "vectorized": dict(engine="vectorized", warmup_minutes=1440),
}

POLICY_SPECS = {
    "latency-keepalive": PolicySpec.of("latency-keepalive"),
    "fixed-10min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=10),
}


def key_of(config: str, policy: str) -> str:
    runner = ParallelRunner({"t": pin_split()}, **RUNNER_OPTIONS[config])
    return runner.cache_key(runner.cell(policy, POLICY_SPECS[policy], "t", base_seed=0))


@pytest.mark.parametrize("config", sorted(LISTENING_KEYS))
def test_listening_event_cell_keeps_its_closed_loop_key(config):
    assert key_of(config, "latency-keepalive") == LISTENING_KEYS[config][0]


@pytest.mark.parametrize("config", sorted(LISTENING_KEYS))
def test_listening_event_cell_never_serves_an_open_loop_entry(config):
    assert key_of(config, "latency-keepalive") != LISTENING_KEYS[config][1]


@pytest.mark.parametrize("name", sorted(UNCHANGED_KEYS))
def test_other_cells_keep_their_keys(name):
    config, policy = name.split("/")
    assert key_of(config, policy) == UNCHANGED_KEYS[name]
