"""Reference warm-up replay: the dict loop over the trace's per-minute dicts.

``Simulator._warm_up`` replays the training tail from the trace's cached
tail index, steps index-native policies on remapped index arrays and turns
only the final mask into an id set.  This twin is the loop it replaced,
kept verbatim: every minute becomes a ``{function_id: count}`` dict, and
index-native policies are reached through the ``on_minute`` bridge.  Both
must hand the simulation the same entering resident set.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Set

from reference_engine import iter_minutes
from repro.simulation import Simulator
from repro.simulation.policy_base import ProvisioningPolicy


def reference_warm_up(self: Simulator, policy: ProvisioningPolicy) -> Set[str]:
    """The per-minute dict replay, as ``Simulator._warm_up`` ran it before."""
    if self.training_trace is None or self.warmup_minutes <= 0:
        return set()
    training = self.training_trace
    start = max(0, training.duration_minutes - self.warmup_minutes)
    offset = training.duration_minutes
    resident: Set[str] = set()
    for minute, invocations in iter_minutes(training, start=start):
        resident = set(policy.on_minute(minute - offset, invocations))
    return resident


@contextlib.contextmanager
def reference_warm_up_installed() -> Iterator[None]:
    """Run every :class:`Simulator` (shard sub-simulators too) on the oracle."""
    original = Simulator._warm_up
    Simulator._warm_up = reference_warm_up
    try:
        yield
    finally:
        Simulator._warm_up = original
