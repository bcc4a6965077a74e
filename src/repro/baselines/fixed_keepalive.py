"""Fixed keep-alive baseline.

The simplest and most widely deployed cold-start mitigation: after serving an
invocation, keep the instance resident for a fixed number of minutes before
evicting it.  OpenWhisk and several commercial platforms historically used a
10-minute window, which is the configuration the paper evaluates.

The whole online state is one expiry array over the trace's function-index
space; a minute costs one scatter and one vectorized comparison.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.vector_policy import NEVER_MINUTE, VectorizedPolicy
from repro.traces.trace import InvocationIndex


class FixedKeepAlivePolicy(VectorizedPolicy):
    """Keep every invoked function warm for a fixed window.

    Parameters
    ----------
    keep_alive_minutes:
        Number of minutes an instance stays resident after its last
        invocation.  The paper's fixed baseline uses 10 minutes.
    """

    #: Per-function expiry clocks only — restricts cleanly to any shard.
    shard_safe = True

    def __init__(self, keep_alive_minutes: int = 10) -> None:
        if keep_alive_minutes < 0:
            raise ValueError("keep_alive_minutes must be non-negative")
        self.keep_alive_minutes = keep_alive_minutes
        self.name = f"fixed-{keep_alive_minutes}min"

    def on_bind(self, index: InvocationIndex) -> None:
        self._expiry = np.full(index.n_functions, NEVER_MINUTE, dtype=np.int64)
        self._mask = np.zeros(index.n_functions, dtype=bool)

    def reset(self) -> None:
        if self.is_bound:
            self._expiry.fill(NEVER_MINUTE)
            self._mask.fill(False)

    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            self._expiry[invoked] = minute + self.keep_alive_minutes
        np.greater(self._expiry, minute, out=self._mask)
        return self._mask
