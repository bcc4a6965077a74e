"""Reference dependency miner: the per-minute loop Defuse mining replaced.

``repro.baselines.defuse.mine_dependencies`` counts window hits with
``repro.core.correlation.window_hits`` over sorted minute arrays; this loop
scans each predecessor invocation's windows with ``.any()``.  The hit counts are integers either way, so both must mine
identical ``Dependency`` lists (same order, same confidences).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.baselines.defuse import Dependency
from repro.traces.trace import Trace


def mine_dependencies_reference(
    training: Trace,
    candidate_groups: Mapping[str, Sequence[str]],
    strong_lag: int = 2,
    weak_lag: int = 10,
    strong_confidence: float = 0.8,
    weak_confidence: float = 0.5,
    min_support: int = 3,
) -> List[Dependency]:
    """Per-predecessor-minute mining loop (the pre-vectorization code).

    Kept verbatim as the oracle for :func:`repro.baselines.defuse.mine_dependencies`.
    """
    dependencies: List[Dependency] = []
    duration = training.duration_minutes
    minute_cache: Dict[str, np.ndarray] = {}

    def invoked_minutes(function_id: str) -> np.ndarray:
        minutes = minute_cache.get(function_id)
        if minutes is None:
            minutes = np.nonzero(training.series(function_id))[0]
            minute_cache[function_id] = minutes
        return minutes

    for members in candidate_groups.values():
        members = [fid for fid in members if fid in training]
        if len(members) < 2:
            continue
        for predecessor in members:
            pred_minutes = invoked_minutes(predecessor)
            if pred_minutes.size < min_support:
                continue
            for successor in members:
                if successor == predecessor:
                    continue
                succ_minutes = invoked_minutes(successor)
                if succ_minutes.size == 0:
                    continue
                succ_mask = np.zeros(duration + weak_lag + 1, dtype=bool)
                succ_mask[succ_minutes] = True

                strong_hits = 0
                weak_hits = 0
                for minute in pred_minutes:
                    strong_end = min(minute + strong_lag, duration - 1)
                    weak_end = min(minute + weak_lag, duration - 1)
                    if minute + 1 <= strong_end and succ_mask[minute + 1 : strong_end + 1].any():
                        strong_hits += 1
                        weak_hits += 1
                    elif minute + 1 <= weak_end and succ_mask[minute + 1 : weak_end + 1].any():
                        weak_hits += 1

                support = pred_minutes.size
                strong_conf = strong_hits / support
                weak_conf = weak_hits / support
                if strong_conf >= strong_confidence:
                    dependencies.append(
                        Dependency(predecessor, successor, strong_conf, strong_lag, True)
                    )
                elif weak_conf >= weak_confidence:
                    dependencies.append(
                        Dependency(predecessor, successor, weak_conf, weak_lag, False)
                    )
    return dependencies
