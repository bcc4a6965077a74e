"""The index-based (vectorized) policy contract and the dict-API adapter.

PR 1 vectorized the engine's accounting, but policies still consumed
per-minute ``{function_id: count}`` dicts, leaving policy stepping as the
dominant cost of sweeps.  This module introduces the second half of the
contract: policies that operate directly on *function indices* over a trace's
:class:`~repro.traces.trace.InvocationIndex`.

Two classes define the boundary:

:class:`VectorizedPolicy`
    Base class for index-native policies.  The simulator binds the policy to
    the trace's invocation index once per run (:meth:`bind_index`), then calls
    :meth:`on_minute_indexed` with the invoked function indices of each
    minute — the warm-up replay included; the policy answers with a boolean
    residency mask over the whole function-index space.  A default
    :meth:`on_minute` bridge translates the dict API onto the indexed one, so
    the same policy instance also serves any caller that steps policies
    with ``{function_id: count}`` mappings.

:class:`DictPolicyAdapter`
    Wraps an unchanged dict-based :class:`ProvisioningPolicy` behind the
    indexed contract.  The adapter feeds the wrapped policy the prebuilt
    read-only per-minute mappings and converts the returned resident *set*
    into a mask by diffing consecutive declarations (two C-level set
    operations), so existing third-party policies keep their exact
    semantics — including declaring ids the trace has never heard of
    (tracked as :attr:`extra_resident` and charged by the engine exactly as
    before).

The engine (:mod:`repro.simulation.engine`) drives **only** this contract:
dict policies are wrapped automatically, so one loop serves both worlds.
The two degenerate bounds, :class:`NoKeepAlivePolicy` and
:class:`AlwaysWarmPolicy`, are index-native too.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping, Sequence, Set

import numpy as np

from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace

__all__ = [
    "NEVER_MINUTE",
    "VectorizedPolicy",
    "DictPolicyAdapter",
    "NoKeepAlivePolicy",
    "AlwaysWarmPolicy",
]

#: "Never invoked" minute for index-native policies' last-invocation and
#: expiry arrays: far below any warm-up minute, but safely away from int64
#: overflow when minutes are subtracted from it.
NEVER_MINUTE = -(2**62)


class VectorizedPolicy(ProvisioningPolicy):
    """Base class for policies that decide over function *indices*.

    Lifecycle (on top of :class:`ProvisioningPolicy`'s):

    1. :meth:`prepare` — unchanged offline phase over function metadata.
    2. :meth:`bind_index` — the simulator hands the policy the trace's
       :class:`~repro.traces.trace.InvocationIndex` before the run.  This is
       where subclasses allocate their per-function arrays
       (:meth:`on_bind`).  Binding happens *after* :meth:`prepare`, so the
       arrays can be initialized from the offline state.
    3. :meth:`on_minute_indexed` — once per minute with the invoked function
       indices; returns the residency mask for the start of the next minute.

    The inherited dict API keeps working: :meth:`on_minute` converts a
    ``{function_id: count}`` mapping into index arrays, delegates to
    :meth:`on_minute_indexed` and converts the mask back into an id set,
    so a dict-stepping caller sees exactly the residency the engine sees.
    """

    _index: InvocationIndex | None = None

    #: Ids declared resident that are unknown to the bound index, charged by
    #: the engine on top of the mask.  Most index-native policies cannot
    #: produce such ids, so this is empty; :class:`AlwaysWarmPolicy` (explicit
    #: ids) and the :class:`DictPolicyAdapter` override it.
    extra_resident: frozenset = frozenset()

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    @property
    def is_bound(self) -> bool:
        """Whether the policy is currently bound to a trace index."""
        return self._index is not None

    @property
    def index(self) -> InvocationIndex:
        """The bound invocation index (raises when unbound)."""
        if self._index is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a trace index; "
                "call bind_index() (the Simulator does this automatically)"
            )
        return self._index

    def bind_index(self, index: InvocationIndex) -> None:
        """Bind the policy to a trace's function-index space.

        Called by the simulator once per run, after :meth:`prepare`.
        Re-binding is allowed and resets any per-run indexed state.
        """
        self._index = index
        self._function_ids = index.function_ids
        self._index_of = index.index_of
        self.on_bind(index)

    def on_bind(self, index: InvocationIndex) -> None:
        """Hook for subclasses: allocate per-function arrays.

        The default implementation does nothing.
        """

    # ------------------------------------------------------------------ #
    # The indexed contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Decide the resident set for the start of the next minute.

        Parameters
        ----------
        minute:
            Index of the simulated minute (negative during warm-up).
        invoked:
            Integer indices (into the bound index's function space) of the
            functions invoked during this minute.
        counts:
            Invocation counts aligned with ``invoked``.

        Returns
        -------
        numpy.ndarray
            Boolean mask of shape ``(n_functions,)``: True for every function
            that should be resident at the start of the next minute.  The
            engine reads the mask before the next call, so policies may reuse
            (and mutate) one buffer across minutes.
        """

    # ------------------------------------------------------------------ #
    # Dict-API bridge
    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        """Adapt the dict API onto :meth:`on_minute_indexed`.

        Ids unknown to the bound index are ignored (they cannot be expressed
        in the index space; driving a policy with a foreign trace is a caller
        error that the equivalence tests would surface immediately).  The
        returned set is the mask's ids plus :attr:`extra_resident`, so a
        dict-stepping caller charges exactly what the engine charges.
        """
        index_of = self.index.index_of
        positions = [index_of[f] for f in invocations if f in index_of]
        invoked = np.asarray(positions, dtype=np.int64)
        counts = np.asarray(
            [count for f, count in invocations.items() if f in index_of],
            dtype=np.int64,
        )
        return self.resident_ids(self.on_minute_indexed(minute, invoked, counts))

    def resident_ids(self, mask: np.ndarray) -> Set[str]:
        """The id set a residency mask declares, :attr:`extra_resident` included."""
        ids = self._function_ids
        resident = {ids[position] for position in np.flatnonzero(mask)}
        resident.update(self.extra_resident)
        return resident


class DictPolicyAdapter(VectorizedPolicy):
    """Expose an unchanged dict-based policy through the indexed contract.

    The adapter owns the declared-set bookkeeping the engine used to do
    inline: it hands the wrapped policy the prebuilt read-only per-minute
    mappings, diffs consecutive declarations to update a persistent boolean
    mask, and tracks ids that are unknown to the trace index (possible when a
    policy was prepared against different metadata) in :attr:`extra_resident`
    so the engine can charge them like any other resident.

    The shipped policies are all index-native, so the adapter serves
    third-party dict policies only.

    Parameters
    ----------
    policy:
        The dict-based policy to adapt.  Its :meth:`on_minute` is called with
        the same mappings the previous engine handed it, so behaviour is
        bit-identical.
    """

    def __init__(self, policy: ProvisioningPolicy) -> None:
        if isinstance(policy, VectorizedPolicy):
            raise TypeError(
                "policy already implements the indexed contract; "
                "drive it directly instead of adapting it"
            )
        self.policy = policy
        self._extra: Set[str] = set()
        #: When set (the engine installs its run timer here), only the
        #: wrapped policy's ``on_minute`` is measured — the adapter's own
        #: mapping/diff bookkeeping is engine machinery, not policy decision
        #: time, and must stay out of the RQ2 scheduler-overhead metric.
        self.overhead_timer = None

    # The adapter impersonates the wrapped policy where it matters.
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.policy.name

    def prepare(self, functions, training=None) -> None:
        self.policy.prepare(functions, training)

    def reset(self) -> None:
        self.policy.reset()

    def on_feedback(self, minute: int, latency_window) -> None:
        # The feedback hook belongs to the wrapped policy's decision state,
        # not to the adapter's mask bookkeeping: forward it untouched.
        self.policy.on_feedback(minute, latency_window)

    @property
    def known_functions(self):
        return self.policy.known_functions

    @property
    def extra_resident(self) -> Set[str]:  # type: ignore[override]
        """Declared-resident ids that are unknown to the bound index."""
        return self._extra

    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        self._mask = np.zeros(index.n_functions, dtype=bool)
        self._declared: Set[str] = set()
        self._extra = set()
        self._minute_invocations = index.minute_invocations()
        self._duration = index.duration_minutes

    def seed_resident(self, resident: Set[str]) -> None:
        """Install the resident set entering the run (warm-up outcome).

        Mirrors how the engine used to seed ``declared_resident`` from the
        initial resident set, so the first diff is computed against the true
        entering state.
        """
        self._declared = set(resident)
        self._mask[:] = False
        self._extra = set()
        index_of = self._index_of
        for function_id in resident:
            position = index_of.get(function_id)
            if position is None:
                self._extra.add(function_id)
            else:
                self._mask[position] = True

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if 0 <= minute < self._duration:
            invocations: Mapping[str, int] = self._minute_invocations[minute]
        else:
            # Warm-up (negative minutes) or foreign minutes: build the
            # mapping from the index arrays.
            ids = self._function_ids
            invocations = {
                ids[position]: int(count)
                for position, count in zip(invoked.tolist(), counts.tolist())
            }

        if self.overhead_timer is not None:
            with self.overhead_timer.measure():
                next_resident = self.policy.on_minute(minute, invocations)
        else:
            next_resident = self.policy.on_minute(minute, invocations)

        if next_resident != self._declared:
            if not isinstance(next_resident, (set, frozenset)):
                next_resident = set(next_resident)
            index_of = self._index_of
            mask = self._mask
            added = next_resident - self._declared
            removed = self._declared - next_resident
            if removed:
                try:
                    mask[[index_of[f] for f in removed]] = False
                except KeyError:
                    for function_id in removed:
                        position = index_of.get(function_id)
                        if position is None:
                            self._extra.discard(function_id)
                        else:
                            mask[position] = False
            if added:
                try:
                    mask[[index_of[f] for f in added]] = True
                except KeyError:
                    for function_id in added:
                        position = index_of.get(function_id)
                        if position is None:
                            self._extra.add(function_id)
                        else:
                            mask[position] = True
            self._declared = set(next_resident)
        return self._mask


class NoKeepAlivePolicy(VectorizedPolicy):
    """Degenerate policy that never keeps anything warm (every invocation is cold).

    Useful as a lower bound for memory usage and an upper bound for cold
    starts in tests and sanity checks.
    """

    name = "no-keepalive"
    shard_safe = True

    def on_bind(self, index: InvocationIndex) -> None:
        self._mask = np.zeros(index.n_functions, dtype=bool)

    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        return self._mask


class AlwaysWarmPolicy(VectorizedPolicy):
    """Degenerate policy that keeps every known function warm at all times.

    Useful as an upper bound for memory usage and a lower bound for cold
    starts (only the very first invocation of a function never seen before
    can be cold).  Resident ids outside the bound index (explicit ids, or
    metadata of functions the trace does not carry) are exposed through
    :attr:`extra_resident` and charged by the engine.
    """

    name = "always-warm"

    def __init__(self, function_ids: Iterable[str] | None = None) -> None:
        self._explicit_ids = set(function_ids) if function_ids is not None else None

    @property
    def shard_safe(self) -> bool:  # type: ignore[override]
        # Prepare-derived residency restricts cleanly to any function subset;
        # an explicit id set does not (ids outside a shard's trace would be
        # double-charged as extra residents by every shard).
        return self._explicit_ids is None

    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self._explicit_ids is None:
            self._resident = {record.function_id for record in functions}
        else:
            self._resident = set(self._explicit_ids)

    def on_bind(self, index: InvocationIndex) -> None:
        resident = getattr(self, "_resident", set())
        index_of = index.index_of
        self._mask = np.zeros(index.n_functions, dtype=bool)
        self._mask[[index_of[f] for f in resident if f in index_of]] = True
        self.extra_resident = frozenset(f for f in resident if f not in index_of)

    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        self._mask[invoked] = True
        return self._mask
