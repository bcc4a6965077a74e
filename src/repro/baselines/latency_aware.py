"""Latency-aware keep-alive: the first consumer of the latency feedback loop.

Every policy shipped before this module decides from invocation *counts*;
the cost of being wrong — how long a cold start actually stalls requests —
never reaches it.  The ``event`` engine closes that loop by streaming a
rolling per-function latency window (:class:`~repro.simulation.events.LatencyWindow`)
between minutes into every policy that overrides
:meth:`~repro.simulation.policy_base.ProvisioningPolicy.on_feedback`, and
:class:`LatencyAwareKeepAlivePolicy` is the reference consumer: a fixed
keep-alive whose horizon is no longer fixed, but proportional to each
function's *observed* cold-start cost.

The adaptation rule targets the *tail* of the per-event cold-start-wait
distribution, which is a composition metric: its p99 sits wherever the most
expensive functions' waits sit, so it improves from both directions at once.
A function whose recent cold starts cost ``w`` milliseconds gets a
keep-alive horizon of

    clip(round(base * (w / pivot) ** cost_exponent), min, max)

where ``pivot`` is the window's overall mean wait (or a fixed
``reference_cold_start_ms`` when configured).  Functions with
above-average boot cost (heavy runtimes, congested registries) are held warm
far longer — removing exactly the expensive samples that define the tail —
while functions that restart cheaply release their memory almost
immediately, adding only cheap mass to the distribution.  The relative pivot
makes the rule self-calibrating: a scenario that scales *every* boot up
(say, a congested image registry) shifts the pivot with it instead of
inflating every horizon.  Functions without a latency-affected event in the
current window keep their last learned horizon — resetting them to the base
would re-expose exactly the functions the extended horizon just made warm,
oscillating between cold and warm.

Off the event engine the hook never fires and the policy degrades to an
exact fixed keep-alive at the base horizon, which the no-op equivalence
tests pin down.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.events import LatencyWindow
from repro.simulation.vector_policy import NEVER_MINUTE, VectorizedPolicy
from repro.traces.trace import InvocationIndex

__all__ = ["LatencyAwareKeepAlivePolicy"]


class LatencyAwareKeepAlivePolicy(VectorizedPolicy):
    """Keep-alive horizons scaled by observed per-function cold-start cost.

    Parameters
    ----------
    base_keep_alive_minutes:
        Horizon used before any feedback arrives (and forever, on engines
        without a feedback loop).  Matches the paper's fixed baseline default.
    min_keep_alive_minutes / max_keep_alive_minutes:
        Clamp of the adapted horizon.  The floor is the immediate-release
        end for the cheapest functions; the ceiling bounds the memory a
        single expensive function can pin.
    cost_exponent:
        How sharply horizons react to relative cost.  1.0 is proportional;
        the default of 3.0 concentrates the memory budget on the top of the
        cost distribution, which is where the tail percentiles live.
    reference_cold_start_ms:
        Optional fixed pivot: the cold-start cost at which the adapted
        horizon equals the base horizon.  ``None`` (default) pivots on the
        window's overall mean wait, making the rule self-calibrating under
        scenario-level duration scaling.
    """

    name = "latency-keepalive"

    def __init__(
        self,
        base_keep_alive_minutes: int = 10,
        min_keep_alive_minutes: int = 1,
        max_keep_alive_minutes: int = 240,
        cost_exponent: float = 3.0,
        reference_cold_start_ms: float | None = None,
    ) -> None:
        if base_keep_alive_minutes < 1:
            raise ValueError("base_keep_alive_minutes must be >= 1")
        if not 1 <= min_keep_alive_minutes <= max_keep_alive_minutes:
            raise ValueError(
                "need 1 <= min_keep_alive_minutes <= max_keep_alive_minutes"
            )
        if cost_exponent <= 0:
            raise ValueError("cost_exponent must be positive")
        if reference_cold_start_ms is not None and reference_cold_start_ms <= 0:
            raise ValueError("reference_cold_start_ms must be positive when given")
        self.base_keep_alive_minutes = base_keep_alive_minutes
        self.min_keep_alive_minutes = min_keep_alive_minutes
        self.max_keep_alive_minutes = max_keep_alive_minutes
        self.cost_exponent = float(cost_exponent)
        self.reference_cold_start_ms = (
            float(reference_cold_start_ms)
            if reference_cold_start_ms is not None
            else None
        )

    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        n = index.n_functions
        self._expiry = np.full(n, NEVER_MINUTE, dtype=np.int64)
        self._keep_alive = np.full(n, self.base_keep_alive_minutes, dtype=np.int64)
        self._mask = np.zeros(n, dtype=bool)

    def reset(self) -> None:
        if self.is_bound:
            self._expiry.fill(NEVER_MINUTE)
            self._keep_alive.fill(self.base_keep_alive_minutes)
            self._mask.fill(False)

    # ------------------------------------------------------------------ #
    def on_feedback(self, minute: int, latency_window: LatencyWindow) -> None:
        observed = latency_window.cold_events > 0
        if not observed.any():
            return
        mean_wait = latency_window.mean_wait_ms()[observed]
        if self.reference_cold_start_ms is not None:
            pivot = self.reference_cold_start_ms
        else:
            # Overall mean wait of the window.  A zero-cost duration model
            # (cold_start_scale=0) yields cold events with all-zero waits;
            # there is no cost signal to scale by, so keep current horizons.
            pivot = float(
                latency_window.total_wait_ms.sum()
                / latency_window.cold_events.sum()
            )
            if pivot <= 0.0:
                return
        scaled = np.round(
            self.base_keep_alive_minutes
            * (mean_wait / pivot) ** self.cost_exponent
        ).astype(np.int64)
        self._keep_alive[observed] = np.clip(
            scaled, self.min_keep_alive_minutes, self.max_keep_alive_minutes
        )

    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            self._expiry[invoked] = minute + self._keep_alive[invoked]
        np.greater(self._expiry, minute, out=self._mask)
        return self._mask

    # ------------------------------------------------------------------ #
    @property
    def keep_alive_minutes(self) -> np.ndarray:
        """Current per-function horizons (for inspection and tests)."""
        return self._keep_alive.copy()
