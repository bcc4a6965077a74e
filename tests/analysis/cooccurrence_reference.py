"""Reference correlated groups: the dense-series code the CSR kernel replaced.

``repro.analysis.cooccurrence.correlated_groups`` reads each function's
invoked minutes and takes both directions' COR from one lag-0 overlap.  This
is the earlier version: it densifies every row through ``Trace.series`` and
measures each direction with the dense ``co_occurrence_rate`` oracle.  The
overlaps are integers either way, so both must return identical groups.
"""

from __future__ import annotations

from typing import List

import numpy as np

from core.correlation_reference import co_occurrence_rate
from repro.traces.trace import Trace


def correlated_groups_reference(
    trace: Trace,
    min_cor: float = 0.5,
    min_invocations: int = 2,
) -> List[List[str]]:
    """Dense-series grouping (the code the CSR kernel replaced).

    Kept verbatim apart from the name and this docstring as the oracle for
    :func:`repro.analysis.cooccurrence.correlated_groups`.
    """
    order = {fid: position for position, fid in enumerate(trace.function_ids)}
    series_cache: dict[str, np.ndarray] = {}

    def series(function_id: str) -> np.ndarray:
        cached = series_cache.get(function_id)
        if cached is None:
            cached = np.asarray(trace.series(function_id))
            series_cache[function_id] = cached
        return cached

    eligible = [
        fid
        for fid in trace.function_ids
        if int((series(fid) > 0).sum()) >= min_invocations
    ]
    eligible_set = set(eligible)

    # Union-find over candidate pairs that clear the COR bar.
    parent: dict[str, str] = {fid: fid for fid in eligible}

    def find(fid: str) -> str:
        while parent[fid] != fid:
            parent[fid] = parent[parent[fid]]
            fid = parent[fid]
        return fid

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # Deterministic root: the earlier trace position wins.
            if order[ra] <= order[rb]:
                parent[rb] = ra
            else:
                parent[ra] = rb

    # Pairs sharing both an app and an owner appear in both groupings; the
    # seen set keeps each pair's COR from being measured twice.
    seen_pairs: set[tuple[str, str]] = set()
    for grouping in (trace.functions_by_app(), trace.functions_by_owner()):
        for members in grouping.values():
            members = [fid for fid in members if fid in eligible_set]
            if len(members) < 2:
                continue
            members.sort(key=order.__getitem__)
            for i, target_id in enumerate(members):
                target_series = series(target_id)
                for candidate_id in members[i + 1 :]:
                    pair = (target_id, candidate_id)
                    if pair in seen_pairs or find(target_id) == find(candidate_id):
                        continue
                    seen_pairs.add(pair)
                    forward = co_occurrence_rate(target_series, series(candidate_id))
                    backward = co_occurrence_rate(series(candidate_id), target_series)
                    if max(forward, backward) >= min_cor:
                        union(target_id, candidate_id)

    components: dict[str, List[str]] = {}
    for fid in eligible:
        components.setdefault(find(fid), []).append(fid)
    groups = [sorted(members, key=order.__getitem__) for members in components.values()]
    groups = [members for members in groups if len(members) >= 2]
    groups.sort(key=lambda members: order[members[0]])
    return groups
