"""Index-native ports of the baseline policies.

Each class here is the :class:`~repro.simulation.vector_policy
.VectorizedPolicy` twin of a dict-based baseline: same offline phase, same
decision rules, same *name* (so
:meth:`~repro.simulation.results.SimulationResult.deterministic_fingerprint`
of a run is identical to its dict counterpart's — the equivalence tests rely
on this), but the per-minute stepping runs on numpy arrays over the trace's
function-index space instead of Python dict/set churn.

* :class:`IndexedFixedKeepAlivePolicy` — the whole online state is one
  expiry array; a minute costs one scatter and one vectorized comparison.
* :class:`IndexedHybridFunctionPolicy` / :class:`IndexedHybridApplicationPolicy`
  — reuse the histogram machinery of
  :class:`~repro.baselines.hybrid_base.HybridHistogramPolicyBase` (offline
  seeding included) but cache each unit's pre-warm/keep-alive windows in
  arrays, refreshing once per minute -- one stacked ``cumsum`` -- only the
  units whose histograms observed a new idle time.
  The per-minute scan over *all* units (the dominant cost of the dict
  version) becomes a handful of vectorized comparisons plus a gather from
  unit space to function space.
* :class:`IndexedFaasCachePolicy` — Greedy-Dual-Size-Frequency caching
  (:class:`~repro.baselines.faascache.FaasCachePolicy`) with the priority
  heap replaced by vectorized scoring over function arrays: one scatter per
  minute to refresh invoked priorities, and a single lexsort over the
  resident set on the (rare) minutes the capacity is exceeded.
* :class:`IndexedDefusePolicy` — dependency-guided pre-warming
  (:class:`~repro.baselines.defuse.DefusePolicy`) on top of the indexed
  hybrid histogram base: the mined dependency graph is compiled into a CSR
  successor table at bind time, and a minute costs one ``np.maximum.at``
  scatter of pre-warm horizons plus one mask comparison — no per-minute
  Python over the dependency dict.
* :class:`IndexedLcsPolicy` — LRU warm containers
  (:class:`~repro.baselines.lcs.LcsPolicy`) with the ``OrderedDict`` recency
  bookkeeping replaced by a monotone per-invocation sequence array; capacity
  eviction is an argsort of the (rarely oversized) live set by that
  sequence, and an explicit tombstone mask reproduces the dict twin's
  "evicted stays evicted until re-invoked" semantics.

The policy registry (:data:`~repro.experiments.parallel.POLICY_REGISTRY`)
builds these classes for the paper's policy names, so no paper policy steps
through the :class:`~repro.simulation.vector_policy.DictPolicyAdapter`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.baselines.defuse import Dependency, mine_dependencies
from repro.baselines.histogram import batched_windows
from repro.baselines.hybrid_base import HybridHistogramPolicyBase
from repro.simulation.vector_policy import VectorizedPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace

__all__ = [
    "IndexedFixedKeepAlivePolicy",
    "IndexedHybridFunctionPolicy",
    "IndexedHybridApplicationPolicy",
    "IndexedFaasCachePolicy",
    "IndexedDefusePolicy",
    "IndexedLcsPolicy",
]

#: "Never invoked" sentinel: far below any warm-up minute, but safely away
#: from int64 overflow when minutes are subtracted from it.
_NEVER = -(2**62)


class IndexedFixedKeepAlivePolicy(VectorizedPolicy):
    """Index-native fixed keep-alive (twin of :class:`FixedKeepAlivePolicy`).

    Parameters
    ----------
    keep_alive_minutes:
        Number of minutes an instance stays resident after its last
        invocation.  The paper's fixed baseline uses 10 minutes.
    """

    shard_safe = True

    def __init__(self, keep_alive_minutes: int = 10) -> None:
        if keep_alive_minutes < 0:
            raise ValueError("keep_alive_minutes must be non-negative")
        self.keep_alive_minutes = keep_alive_minutes
        self.name = f"fixed-{keep_alive_minutes}min"

    def on_bind(self, index: InvocationIndex) -> None:
        self._expiry = np.full(index.n_functions, _NEVER, dtype=np.int64)
        self._mask = np.zeros(index.n_functions, dtype=bool)

    def reset(self) -> None:
        if self.is_bound:
            self._expiry.fill(_NEVER)
            self._mask.fill(False)

    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            self._expiry[invoked] = minute + self.keep_alive_minutes
        np.greater(self._expiry, minute, out=self._mask)
        return self._mask


class _IndexedHybridBase(VectorizedPolicy, HybridHistogramPolicyBase):
    """Shared indexed implementation of the hybrid histogram policies.

    The offline phase (unit mapping, histogram seeding from the training
    trace) is inherited unchanged from :class:`HybridHistogramPolicyBase`.
    Binding compiles the unit structure into arrays:

    * ``_function_unit`` maps every function index to a unit index;
    * per-unit arrays hold the last invocation minute and the *effective*
      windows: the histogram's pre-warm and keep-alive windows when it is
      representative, ``(0, uncertain_keep_alive_minutes)`` otherwise,
      refreshed only when a unit's histogram changes.

    A minute then costs: a Python loop over the (few) invoked units to
    observe idle times, one :func:`~repro.baselines.histogram.batched_windows`
    call refreshing the windows of every unit that observed one, one
    vectorized residency decision over unit space, and one gather from unit
    space to function space.
    """

    def on_bind(self, index: InvocationIndex) -> None:
        # Deterministic unit indexing: first appearance order over the
        # trace's function-index space.
        unit_index: dict[str, int] = {}
        function_unit = np.zeros(index.n_functions, dtype=np.int64)
        unit_states = []
        for position, function_id in enumerate(index.function_ids):
            unit = self._unit_of_function.get(function_id)
            if unit is None:
                # Function unseen at prepare time: its own unit (mirrors
                # ``_unit_for_id``).
                unit = function_id
                self._unit_of_function[function_id] = unit
            u = unit_index.get(unit)
            if u is None:
                u = len(unit_index)
                unit_index[unit] = u
                unit_states.append(self._state_for(unit))
            function_unit[position] = u

        n_units = len(unit_states)
        self._function_unit = function_unit
        self._unit_histograms = [state.histogram for state in unit_states]
        self._unit_last = np.full(n_units, _NEVER, dtype=np.int64)
        self._unit_prewarm = np.zeros(n_units, dtype=np.int64)
        self._unit_keepalive = np.zeros(n_units, dtype=np.int64)
        self._refresh_units(list(range(n_units)))

    def _refresh_units(self, units: List[int]) -> None:
        """Re-derive the effective windows of ``units`` from their histograms.

        The representative units' windows come from one
        :func:`~repro.baselines.histogram.batched_windows` call.
        """
        histograms = self._unit_histograms
        prewarm = self._unit_prewarm
        keep_alive = self._unit_keepalive
        trusted: List[int] = []
        for u in units:
            if histograms[u].is_representative:
                trusted.append(u)
            else:
                prewarm[u] = 0
                keep_alive[u] = self.uncertain_keep_alive_minutes
        if trusted:
            windows = batched_windows([histograms[u] for u in trusted])
            for u, (head, tail) in zip(trusted, windows):
                prewarm[u] = head
                keep_alive[u] = tail

    def reset(self) -> None:
        super().reset()
        if self.is_bound:
            self._unit_last.fill(_NEVER)

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            # The (few) invoked units, deduplicated in first-seen order.
            units = list(dict.fromkeys(self._function_unit[invoked].tolist()))
            last = self._unit_last
            histograms = self._unit_histograms
            observed = []
            for u in units:
                previous = int(last[u])
                if previous != _NEVER and previous < minute:
                    histograms[u].observe(minute - previous)
                    observed.append(u)
            last[units] = minute
            if observed:
                self._refresh_units(observed)

        # Vectorized form of ``_unit_resident_next_minute`` over all units.
        # At least one minute has elapsed since any invocation, so a pre-warm
        # window of 0 or 1 blocks nothing (the dict twin's ``prewarm > 1``),
        # and a never-invoked unit's elapsed time (about 2**62) exceeds every
        # keep-alive window.
        elapsed_next = (minute + 1) - self._unit_last
        resident_units = elapsed_next >= self._unit_prewarm
        resident_units &= elapsed_next <= self._unit_keepalive
        return resident_units[self._function_unit]


class IndexedFaasCachePolicy(VectorizedPolicy):
    """Index-native FaaSCache (twin of :class:`FaasCachePolicy`).

    The dict version keeps a lazy priority heap with stale-entry skipping;
    here the whole cache state is four arrays over the trace's function-index
    space (frequency, GDSF priority, residency, last-update sequence) plus
    the scalar eviction clock.  A minute costs one scatter to refresh the
    invoked functions' priorities; eviction — only on minutes the capacity is
    actually exceeded — is one lexsort of the resident set by
    ``(priority, last-update sequence)``, which reproduces the heap's exact
    pop order: GDSF priorities are strictly increasing per function update
    (frequency grows on every invocation), so the heap's only *valid* entry
    for a function is its most recent push, and ties between functions break
    on push order.  The equivalence tests assert fingerprint-identity against
    the dict twin under every engine.

    Parameters
    ----------
    capacity / sizes / costs:
        As for :class:`FaasCachePolicy`.  ``sizes`` must be positive (the
        GDSF priority divides by them, exactly as the dict twin does).
    """

    name = "faascache"

    def __init__(
        self,
        capacity: int | None = None,
        sizes: Mapping[str, float] | None = None,
        costs: Mapping[str, float] | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when given")
        self.capacity = capacity
        self._size_overrides = dict(sizes or {})
        self._cost_overrides = dict(costs or {})
        self._clock = 0.0
        self._sequence = 0

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self.capacity is None:
            self.capacity = max(1, len(functions) // 10)
        self.reset()

    def on_bind(self, index: InvocationIndex) -> None:
        n = index.n_functions
        self._sizes = np.ones(n, dtype=float)
        self._costs = np.ones(n, dtype=float)
        for function_id, size in self._size_overrides.items():
            position = index.index_of.get(function_id)
            if position is not None:
                self._sizes[position] = float(size)
        for function_id, cost in self._cost_overrides.items():
            position = index.index_of.get(function_id)
            if position is not None:
                self._costs[position] = float(cost)
        self._frequency = np.zeros(n, dtype=np.int64)
        self._priority = np.zeros(n, dtype=float)
        self._resident = np.zeros(n, dtype=bool)
        self._updated = np.zeros(n, dtype=np.int64)
        self._clock = 0.0
        self._sequence = 0

    def reset(self) -> None:
        self._clock = 0.0
        self._sequence = 0
        if self.is_bound:
            self._frequency.fill(0)
            self._priority.fill(0.0)
            self._resident.fill(False)
            self._updated.fill(0)

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            self._frequency[invoked] += counts
            # Same operation order as the dict twin's `clock + freq * cost /
            # size`: multiplying by a precomputed cost/size ratio rounds
            # differently for non-dyadic ratios and can flip eviction order.
            self._priority[invoked] = (
                self._clock
                + self._frequency[invoked] * self._costs[invoked] / self._sizes[invoked]
            )
            self._resident[invoked] = True
            self._updated[invoked] = np.arange(
                self._sequence, self._sequence + invoked.size, dtype=np.int64
            )
            self._sequence += invoked.size
        self._evict_if_needed()
        return self._resident

    def _evict_if_needed(self) -> None:
        resident = np.flatnonzero(self._resident)
        if resident.size == 0:
            return
        capacity = float(self.capacity) if self.capacity is not None else resident.size
        used = float(self._sizes[resident].sum())
        if used <= capacity:
            return
        # Heap pop order: lowest priority first, push order breaking ties.
        order = np.lexsort((self._updated[resident], self._priority[resident]))
        victims = resident[order]
        freed = np.cumsum(self._sizes[victims])
        evict_count = int(np.searchsorted(freed, used - capacity, side="left")) + 1
        evicted = victims[:evict_count]
        self._resident[evicted] = False
        self._clock = max(self._clock, float(self._priority[evicted].max()))

    # ------------------------------------------------------------------ #
    @property
    def resident_functions(self) -> set[str]:
        """Currently warm function ids (for inspection and tests)."""
        if not self.is_bound:
            return set()
        ids = self._function_ids
        return {ids[position] for position in np.flatnonzero(self._resident)}


class IndexedLcsPolicy(VectorizedPolicy):
    """Index-native LCS (twin of :class:`~repro.baselines.lcs.LcsPolicy`).

    The dict twin's ``OrderedDict`` encodes recency as insertion order:
    every invocation moves a function to the end, expiry deletes idle
    entries, and capacity pressure pops from the front.  Here recency is a
    strictly increasing sequence number assigned per invocation — within a
    minute, in the invocation mapping's iteration order, which is exactly
    the order the prebuilt per-minute mappings (and the dict bridge) iterate
    — so "least recently used" is simply the smallest sequence among live
    functions.

    Two subtleties carry over from the dict semantics:

    * expiry (``idle >= keep_alive_minutes``) is monotone between
      invocations, so it needs no bookkeeping — it is recomputed from the
      last-invocation array each minute;
    * capacity eviction is *not* monotone: an evicted function would pass
      the expiry test again next minute, so evictions are recorded in a
      tombstone mask that only a re-invocation clears (the dict twin deletes
      the entry, forgetting the function until it fires again).

    Parameters are those of :class:`~repro.baselines.lcs.LcsPolicy`,
    including the prepare-time default capacity of one fifth of the
    function population.
    """

    name = "lcs"

    def __init__(self, keep_alive_minutes: int = 30, capacity: int | None = None) -> None:
        if keep_alive_minutes < 1:
            raise ValueError("keep_alive_minutes must be >= 1")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when given")
        self.keep_alive_minutes = keep_alive_minutes
        self.capacity = capacity
        self._counter = 0

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self.capacity is None:
            self.capacity = max(1, len(functions) // 5)
        self.reset()

    def on_bind(self, index: InvocationIndex) -> None:
        n = index.n_functions
        self._last = np.full(n, _NEVER, dtype=np.int64)
        self._sequence = np.zeros(n, dtype=np.int64)
        self._evicted = np.zeros(n, dtype=bool)
        self._mask = np.zeros(n, dtype=bool)
        self._counter = 0

    def reset(self) -> None:
        self._counter = 0
        if self.is_bound:
            self._last.fill(_NEVER)
            self._sequence.fill(0)
            self._evicted.fill(False)
            self._mask.fill(False)

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            self._last[invoked] = minute
            self._sequence[invoked] = np.arange(
                self._counter, self._counter + invoked.size, dtype=np.int64
            )
            self._counter += invoked.size
            self._evicted[invoked] = False

        mask = self._mask
        # Warm = invoked at least once, idle for less than the keep-alive
        # window, and not tombstoned by a capacity eviction.
        np.less(minute - self._last, self.keep_alive_minutes, out=mask)
        mask &= self._last != _NEVER
        mask &= ~self._evicted

        if self.capacity is not None:
            live = np.flatnonzero(mask)
            overflow = live.size - self.capacity
            if overflow > 0:
                order = np.argsort(self._sequence[live])
                victims = live[order[:overflow]]
                mask[victims] = False
                self._evicted[victims] = True
        return mask

    # ------------------------------------------------------------------ #
    @property
    def resident_functions(self) -> set[str]:
        """Currently warm function ids (for inspection and tests)."""
        if not self.is_bound:
            return set()
        ids = self._function_ids
        return {ids[position] for position in np.flatnonzero(self._mask)}


class IndexedHybridFunctionPolicy(_IndexedHybridBase):
    """Index-native hybrid histogram policy, one unit per function."""

    name = "hybrid-function"
    #: Unit == function: every histogram and clock is function-local.
    shard_safe = True

    def unit_of(self, record: FunctionRecord) -> str:
        return record.function_id


class IndexedHybridApplicationPolicy(_IndexedHybridBase):
    """Index-native hybrid histogram policy, one unit per application."""

    name = "hybrid-application"

    def unit_of(self, record: FunctionRecord) -> str:
        return record.app_id


class IndexedDefusePolicy(IndexedHybridFunctionPolicy):
    """Index-native Defuse (twin of :class:`~repro.baselines.defuse.DefusePolicy`).

    The offline phase is identical to the dict twin's: histogram seeding via
    the hybrid base, then :func:`~repro.baselines.defuse.mine_dependencies`
    over the same app-scoped candidate groups, so both twins derive the same
    dependency set.  Binding compiles that set into a CSR successor table
    (``indptr`` over predecessor positions, successor positions + pre-warm
    lags as data); a minute then costs the hybrid base's vectorized decision
    plus one ``np.maximum.at`` scatter pushing ``minute + lag`` horizons to
    the invoked predecessors' successors and one ``horizon > minute``
    comparison OR-ed into the residency mask — exactly the dict twin's
    "extend, expire, union" semantics without its per-minute dict churn.

    Parameters are those of :class:`~repro.baselines.defuse.DefusePolicy`.
    """

    name = "defuse"
    #: Dependencies pre-warm *other* functions; a partition can separate
    #: successors from their predecessors, so the hybrid base's shard
    #: safety does not carry over.
    shard_safe = False

    def __init__(
        self,
        histogram_range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        uncertain_keep_alive_minutes: int = 10,
        min_samples: int = 10,
        strong_lag: int = 2,
        weak_lag: int = 10,
        strong_confidence: float = 0.8,
        weak_confidence: float = 0.5,
        min_support: int = 3,
    ) -> None:
        super().__init__(
            histogram_range_minutes=histogram_range_minutes,
            head_percentile=head_percentile,
            tail_percentile=tail_percentile,
            uncertain_keep_alive_minutes=uncertain_keep_alive_minutes,
            min_samples=min_samples,
        )
        self.strong_lag = strong_lag
        self.weak_lag = weak_lag
        self.strong_confidence = strong_confidence
        self.weak_confidence = weak_confidence
        self.min_support = min_support
        self._mined: List[Dependency] = []

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        self._mined = []
        if training is None:
            return
        groups: Dict[str, List[str]] = {}
        for record in functions:
            groups.setdefault(record.app_id, []).append(record.function_id)
        self._mined = mine_dependencies(
            training,
            groups,
            strong_lag=self.strong_lag,
            weak_lag=self.weak_lag,
            strong_confidence=self.strong_confidence,
            weak_confidence=self.weak_confidence,
            min_support=self.min_support,
        )

    @property
    def dependencies(self) -> List[Dependency]:
        """All mined dependencies (same introspection as the dict twin)."""
        return list(self._mined)

    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        super().on_bind(index)
        n = index.n_functions
        by_predecessor: Dict[int, List[tuple[int, int]]] = {}
        for dependency in self._mined:
            predecessor = index.index_of.get(dependency.predecessor)
            successor = index.index_of.get(dependency.successor)
            if predecessor is None or successor is None:
                # Mined against metadata the simulated trace doesn't carry;
                # the dict twin's pre-warm of such ids would surface as
                # extra_resident, which a training/simulation split of one
                # trace never produces.
                continue
            by_predecessor.setdefault(predecessor, []).append(
                (successor, dependency.lag_window)
            )
        counts = np.zeros(n, dtype=np.int64)
        predecessors: List[int] = []
        successors: List[int] = []
        lags: List[int] = []
        for predecessor in range(n):
            for successor, lag in by_predecessor.get(predecessor, ()):
                predecessors.append(predecessor)
                successors.append(successor)
                lags.append(lag)
            counts[predecessor] = len(by_predecessor.get(predecessor, ()))
        self._edge_predecessors = np.asarray(predecessors, dtype=np.int64)
        self._succ_positions = np.asarray(successors, dtype=np.int64)
        self._succ_lags = np.asarray(lags, dtype=np.int64)
        self._succ_counts = counts
        self._has_dependencies = bool(self._succ_positions.size)
        # Scratch flags over predecessor positions, reused every minute so
        # edge selection is one vectorized gather, no per-edge Python.
        self._predecessor_invoked = np.zeros(n, dtype=bool)
        self._prewarm_until = np.full(n, _NEVER, dtype=np.int64)

    def reset(self) -> None:
        super().reset()
        if self.is_bound:
            self._prewarm_until.fill(_NEVER)

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        mask = super().on_minute_indexed(minute, invoked, counts)
        if self._has_dependencies and invoked.size:
            with_successors = invoked[self._succ_counts[invoked] > 0]
            if with_successors.size:
                flags = self._predecessor_invoked
                flags[with_successors] = True
                edges = np.flatnonzero(flags[self._edge_predecessors])
                flags[with_successors] = False
                np.maximum.at(
                    self._prewarm_until,
                    self._succ_positions[edges],
                    minute + self._succ_lags[edges],
                )
        if self._has_dependencies:
            # Same expiry rule as the dict twin: a horizon of `minute` is
            # already expired, strictly-later horizons pre-warm.
            mask |= self._prewarm_until > minute
        return mask
