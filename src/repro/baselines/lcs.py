"""LCS: least-recently-used warm containers with a long keep-alive (ICDCN'23).

LCS keeps containers warm for an extended period and, when the number of warm
containers exceeds a budget, evicts the least recently used one.  It is not
part of the paper's baseline set (the paper discusses it in related work) but
is included as an additional comparator for the benchmark harness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation.vector_policy import NEVER_MINUTE, VectorizedPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace


class LcsPolicy(VectorizedPolicy):
    """LRU warm-container policy with a fixed time-to-live and capacity.

    Recency is a strictly increasing sequence number assigned per invocation
    — within a minute, in the order of the invoked function indices — so
    "least recently used" is simply the smallest sequence among live
    functions.  Two rules define residency:

    * expiry (``idle >= keep_alive_minutes``) is monotone between
      invocations, so it needs no bookkeeping — it is recomputed from the
      last-invocation array each minute;
    * capacity eviction is *not* monotone: an evicted function would pass
      the expiry test again next minute, so evictions are recorded in a
      tombstone mask that only a re-invocation clears (an evicted container
      stays gone until its function fires again).

    Parameters
    ----------
    keep_alive_minutes:
        How long a container may stay warm without invocations (default 30,
        i.e. longer than the fixed 10-minute baseline, per the LCS idea of
        "keeping containers alive for a longer period").
    capacity:
        Maximum number of simultaneously warm containers.  ``None`` means the
        capacity is set to one fifth of the function population at prepare
        time.
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
        self._last = np.full(n, NEVER_MINUTE, dtype=np.int64)
        self._sequence = np.zeros(n, dtype=np.int64)
        self._evicted = np.zeros(n, dtype=bool)
        self._mask = np.zeros(n, dtype=bool)
        self._counter = 0

    def reset(self) -> None:
        self._counter = 0
        if self.is_bound:
            self._last.fill(NEVER_MINUTE)
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
        mask &= self._last != NEVER_MINUTE
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
        return self.resident_ids(self._mask) if self.is_bound else set()
