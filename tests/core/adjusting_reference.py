"""Reference adjusting strategy: re-sorts the waiting times for every median.

``repro.core.adaptive.AdjustingStrategy`` reads the running median from the
``FunctionState``'s sorted view of its waiting times; this twin calls
``statistics.median`` on the whole arrival-order list, as the strategy did
before the view existed.  Both must leave every state field identical.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro.core.adaptive import AdjustingStrategy
from repro.core.predictive import PredictiveValues
from repro.core.state import FunctionState


class ReferenceAdjustingStrategy(AdjustingStrategy):
    """:class:`AdjustingStrategy` with the ``statistics.median`` adjusting step."""

    def _adjust_predictive_values(self, state: FunctionState) -> bool:
        """The pre-view adjusting step, kept verbatim as the oracle."""
        new_median = float(median(state.online_waiting_times))
        drift = abs(new_median - state.offline_wt_median)
        tolerance = max(state.offline_wt_std, 1.0)
        if drift <= tolerance:
            return False

        blended = max(1, int(round((state.offline_wt_median + new_median) / 2.0)))
        if state.predictive.window is not None:
            low, high = state.predictive.window
            shift = blended - int(round(state.offline_wt_median)) if state.offline_wt_median else 0
            new_low = max(1, low + shift)
            new_high = max(new_low, high + shift)
            state.predictive = PredictiveValues.from_range(new_low, new_high)
        else:
            values = set(state.predictive.discrete)
            values.add(blended)
            ranked = sorted(values, key=lambda value: abs(value - new_median))
            state.predictive = PredictiveValues.from_discrete(ranked[:3])
        online = np.asarray(state.online_waiting_times, dtype=float)
        state.offline_wt_median = blended
        state.offline_wt_std = float(online.std(ddof=0))
        state.adjusted = True
        self.adjusted_functions.add(state.function_id)
        return True
