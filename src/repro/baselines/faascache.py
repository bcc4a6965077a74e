"""FaaSCache: keep-alive as Greedy-Dual-Size-Frequency caching (ASPLOS'21).

FaaSCache treats warm function instances like objects in a cache: everything
stays resident until a memory capacity is hit, at which point the instance
with the lowest Greedy-Dual-Size-Frequency (GDSF) priority is evicted.  The
priority of a function is

``priority = clock + frequency * cost / size``

where ``clock`` is a monotonically increasing eviction clock (set to the
priority of the last evicted item), ``frequency`` counts the function's
invocations, and ``cost``/``size`` are the warm-up cost and memory footprint.
The paper's simulation assumes uniform cold-start latency and uniform memory
per instance, so cost and size default to one; both remain configurable per
function for completeness.

The capacity is expressed in memory units (instances, with unit sizes).  The
paper sets it to the maximum memory SPES used during the simulation; the
experiment harness does the same.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.simulation.vector_policy import VectorizedPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace


class FaasCachePolicy(VectorizedPolicy):
    """Greedy-Dual-Size-Frequency keep-alive under a memory capacity.

    The whole cache state is four arrays over the trace's function-index
    space (frequency, GDSF priority, residency, last-update sequence) plus
    the scalar eviction clock.  A minute costs one scatter to refresh the
    invoked functions' priorities; eviction — only on minutes the capacity is
    actually exceeded — is one lexsort of the resident set by
    ``(priority, last-update sequence)``.  That is a priority heap's exact
    pop order: GDSF priorities are strictly increasing per function update
    (frequency grows on every invocation), so a lazy heap's only *valid*
    entry for a function is its most recent push, and ties between functions
    break on push order.

    Parameters
    ----------
    capacity:
        Maximum number of memory units kept warm.  If ``None``, a capacity of
        one tenth of the function population (at least one) is chosen during
        :meth:`prepare`; the experiment harness overrides this with SPES's
        peak memory usage, as the paper does.
    sizes:
        Optional per-function memory footprint (defaults to 1 unit each).
        Sizes must be positive: the GDSF priority divides by them.
    costs:
        Optional per-function warm-up cost (defaults to 1 each).
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
            # Evaluated as `clock + freq * cost / size`, in that order:
            # multiplying by a precomputed cost/size ratio rounds differently
            # for non-dyadic ratios and can flip eviction order.
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
        return self.resident_ids(self._resident) if self.is_bound else set()
