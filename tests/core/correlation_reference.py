"""Reference forward trigger rate: the per-minute loop the prefix sum replaced.

``repro.core.correlation.forward_trigger_rate`` counts hits with one integer
prefix sum over the target mask; this loop scans each predictor fire's window
with ``.any()``.  The hit counts are integers either way, so both must return
the identical float.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def forward_trigger_rate_reference(
    predictor: Sequence[int] | np.ndarray,
    target: Sequence[int] | np.ndarray,
    max_lag: int,
) -> float:
    """Per-fire window scan (the pre-vectorization code).

    Kept verbatim as the oracle for :func:`repro.core.correlation.forward_trigger_rate`.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    predictor_mask = np.asarray(predictor) > 0
    target_mask = np.asarray(target) > 0
    if predictor_mask.shape != target_mask.shape:
        raise ValueError("predictor and target series must have the same length")
    fires = np.nonzero(predictor_mask)[0]
    if fires.size == 0:
        return 0.0
    duration = target_mask.shape[0]
    hits = 0
    for minute in fires:
        end = min(duration, int(minute) + max_lag + 1)
        if target_mask[int(minute) : end].any():
            hits += 1
    return hits / fires.size
