"""The reference engine: the original per-minute loop over sets and dicts.

``repro`` runs the minute loop on numpy masks over a trace's cached
invocation index (the ``vectorized`` and ``event`` engines).  This module
keeps the pure-Python loop they replaced as the executable specification
of the paper's uncapped, unit-denominated accounting (§II-B/§V-A): every
minute becomes a ``{function_id: count}`` dict, cold starts are charged
against a resident *set*, the policy is stepped through its dict API
(index-native policies through their ``on_minute`` bridge) and memory is
charged one minute at a time by :meth:`MinuteAccountant.observe_minute`.
Equivalence tests (``tests/simulation/harness.py``, column :data:`ORACLE`)
assert that it and the mask engines produce identical fingerprints.

A dense trace's minutes are built from its per-function series, never from
:meth:`~repro.traces.trace.Trace.invocation_index`, so the oracle checks
the index too.  A sparse trace has no dense series to build them from and
reads its index, as it always has.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Set

import numpy as np

from repro.simulation import Simulator
from repro.simulation.memory import MemoryAccountant
from repro.simulation.overhead import OverheadTimer
from repro.simulation.policy_base import ProvisioningPolicy
from repro.simulation.results import FunctionStats, SimulationResult
from repro.traces import SparseTrace, Trace

#: The equivalence harness's name for the oracle's engine column.
ORACLE = "reference"


def invocations_at(trace: Trace, minute: int) -> Dict[str, int]:
    """Return ``{function_id: count}`` for functions invoked at ``minute``.

    Functions with zero invocations at that minute are omitted, matching
    how the simulator and the provisioning policies consume the trace.
    """
    duration = trace.duration_minutes
    if not 0 <= minute < duration:
        raise IndexError(f"minute {minute} outside trace of {duration} minutes")
    if isinstance(trace, SparseTrace):
        index = trace.invocation_index()
        start, stop = index.indptr[minute], index.indptr[minute + 1]
        return {
            index.function_ids[index.indices[position]]: int(index.counts[position])
            for position in range(start, stop)
        }
    result: Dict[str, int] = {}
    for function_id in trace.invoked_function_ids():
        count = int(trace.series(function_id)[minute])
        if count > 0:
            result[function_id] = count
    return result


def iter_minutes(
    trace: Trace, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, Dict[str, int]]]:
    """Yield ``(minute, invocations)`` pairs over ``[start, stop)``.

    For a dense trace this pre-computes, per function, the minutes at which
    it is invoked, so iterating a long, sparse trace does not repeatedly
    scan every function's series.  Functions appear in the trace's series
    order (:meth:`~repro.traces.trace.Trace.invoked_function_ids`), which
    is the order its invocation index numbers them in.
    """
    duration = trace.duration_minutes
    stop = duration if stop is None else stop
    if not 0 <= start <= stop <= duration:
        raise IndexError("invalid minute range")

    if isinstance(trace, SparseTrace):
        index = trace.invocation_index()
        ids, indices, counts, indptr = (
            index.function_ids,
            index.indices,
            index.counts,
            index.indptr,
        )
        for minute in range(start, stop):
            yield minute, {
                ids[indices[position]]: int(counts[position])
                for position in range(indptr[minute], indptr[minute + 1])
            }
        return

    per_minute: Dict[int, Dict[str, int]] = {}
    for function_id in trace.invoked_function_ids():
        window = trace.series(function_id)[start:stop]
        for offset in np.nonzero(window)[0]:
            minute = start + int(offset)
            per_minute.setdefault(minute, {})[function_id] = int(window[offset])

    for minute in range(start, stop):
        yield minute, per_minute.get(minute, {})


class MinuteAccountant(MemoryAccountant):
    """A :class:`MemoryAccountant` charged one minute at a time."""

    def observe_minute(
        self,
        minute: int,
        loaded: Set[str] | Iterable[str],
        invocations: Mapping[str, int],
    ) -> None:
        """Charge one minute of memory usage.

        Parameters
        ----------
        minute:
            Simulation minute index.
        loaded:
            Function ids resident in memory during this minute (including
            instances loaded on demand to serve this minute's invocations).
        invocations:
            ``{function_id: count}`` invoked during this minute.
        """
        if not 0 <= minute < self._duration:
            raise IndexError(f"minute {minute} outside simulation of {self._duration} minutes")
        loaded_set = set(loaded)
        used = len(loaded_set)
        active = sum(1 for function_id in loaded_set if function_id in invocations)
        idle = used - active

        self._usage[minute] = used
        self._idle[minute] = idle
        self._loaded_instance_minutes += used
        self._active_instance_minutes += active
        for function_id in loaded_set:
            if function_id not in invocations:
                self._wmt_per_function[function_id] = (
                    self._wmt_per_function.get(function_id, 0) + 1
                )


class ReferenceSimulator(Simulator):
    """A :class:`~repro.simulation.Simulator` whose minute loop is the oracle's.

    Everything around the loop is the simulator's own: the offline phase,
    index binding, the warm-up replay, the sharded decomposition (each
    shard's sub-simulator is again a reference one) and the assembly of the
    result.  Only the uncapped, unit-denominated, minute-granular setting has
    a reference, so a cluster model, MB accounting and the event engine are
    rejected.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.engine != "vectorized" or self.cluster is not None:
            raise ValueError("the reference loop specifies the uncapped minute loop only")
        if self.memory_mode != "unit":
            raise ValueError("the reference loop specifies the paper's unit accounting only")

    def shard_simulator(self, positions: np.ndarray) -> "ReferenceSimulator":
        sub = super().shard_simulator(positions)
        return ReferenceSimulator(
            sub.simulation_trace,
            sub.training_trace,
            initially_resident=sub.initially_resident,
            spec=sub.spec,
        )

    def _run_vectorized(
        self, policy: ProvisioningPolicy, initial_resident: Set[str], tracker=None
    ) -> SimulationResult:
        """The original per-minute loop over Python sets and dicts."""
        assert tracker is None
        trace = self.simulation_trace
        duration = trace.duration_minutes

        accountant = MinuteAccountant(duration)
        timer = OverheadTimer()
        stats: Dict[str, FunctionStats] = {}
        resident: Set[str] = set(initial_resident)

        for minute, invocations in iter_minutes(trace):
            # 1-2. charge cold starts against the resident set entering the minute.
            for function_id in invocations:
                function_stats = stats.get(function_id)
                if function_stats is None:
                    function_stats = FunctionStats(function_id=function_id)
                    stats[function_id] = function_stats
                function_stats.invocations += 1
                if function_id not in resident:
                    function_stats.cold_starts += 1

            # 3. invoked functions are loaded on demand for this minute.
            loaded_this_minute = resident | set(invocations)

            # 4. policy decides the resident set for the next minute.
            with timer.measure():
                next_resident = set(policy.on_minute(minute, invocations))

            # 5. charge memory for this minute.
            accountant.observe_minute(minute, loaded_this_minute, invocations)
            resident = next_resident

        return self._finalize(policy, duration, stats, accountant, timer)


def simulate_reference(
    policy: ProvisioningPolicy,
    simulation_trace: Trace,
    training_trace: Trace | None = None,
    **knobs,
) -> SimulationResult:
    """:func:`~repro.simulation.simulate_policy` on the reference loop."""
    return ReferenceSimulator(simulation_trace, training_trace, **knobs).run(policy)
