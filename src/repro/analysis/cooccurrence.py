"""Co-occurrence rate study (§III-B2).

For every function that shares an application or owner with at least one
other function ("candidate" pairs), the study compares its mean co-occurrence
rate with candidates against its mean COR with negatively sampled functions
that share neither an application nor an owner.  The paper reports a ~4.6x
gap (0.2312 vs 0.0504) and a further gap between same-trigger and
different-trigger candidates (0.2710 vs 0.1307).

Both the study and :func:`correlated_groups` read each function's invoked
minutes from :meth:`~repro.traces.trace.Trace.row` and measure COR with the
kernel of :mod:`repro.core.correlation`; no row is densified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.correlation import co_occurrence_rate, lagged_overlaps
from repro.traces.trace import Trace


@dataclass
class CooccurrenceReport:
    """Mean co-occurrence rates for candidate and negative-sample pairs.

    Attributes
    ----------
    candidate_cor:
        Mean COR between functions sharing an application or owner.
    negative_cor:
        Mean COR against randomly sampled unrelated functions.
    same_trigger_cor:
        Mean COR restricted to candidate pairs sharing the trigger type.
    different_trigger_cor:
        Mean COR restricted to candidate pairs with different trigger types.
    pairs_evaluated:
        Number of candidate pairs contributing to the averages.
    """

    candidate_cor: float
    negative_cor: float
    same_trigger_cor: float
    different_trigger_cor: float
    pairs_evaluated: int

    @property
    def candidate_to_negative_ratio(self) -> float:
        """How many times larger the candidate COR is than the negative-sample COR."""
        if self.negative_cor == 0:
            return float("inf") if self.candidate_cor > 0 else 0.0
        return self.candidate_cor / self.negative_cor


def correlated_groups(
    trace: Trace,
    min_cor: float = 0.5,
    min_invocations: int = 2,
) -> List[List[str]]:
    """Groups of functions whose invocations fire together (§III-B2 signal).

    Candidate pairs are functions sharing an application or owner — the
    relation the co-occurrence study shows carries a ~4.6x COR gap over
    unrelated pairs.  A pair joins a group when the co-occurrence rate in
    *either* direction reaches ``min_cor``; groups are the connected
    components of the resulting pair graph, so transitively correlated
    functions land in one group.

    The output is deterministic in the trace: groups are ordered by their
    first member's position in ``trace.function_ids`` and members are listed
    in that same trace order.  This is the signal the ``correlation-aware``
    placement strategy co-locates by, so determinism here is what keeps
    placed simulations cacheable and fingerprint-stable.

    Parameters
    ----------
    trace:
        Trace supplying both the grouping metadata and the series the CORs
        are measured on (placement uses the *training* window: no oracle
        knowledge of the simulated traffic).
    min_cor:
        Minimum co-occurrence rate for a pair to be linked.
    min_invocations:
        Minimum invoked minutes for a function to participate at all.
    """
    order = {fid: position for position, fid in enumerate(trace.function_ids)}
    minutes = {fid: trace.row(fid)[0] for fid in trace.function_ids}
    eligible = [fid for fid in trace.function_ids if minutes[fid].size >= min_invocations]
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
                target = minutes[target_id]
                for candidate_id in members[i + 1 :]:
                    pair = (target_id, candidate_id)
                    if pair in seen_pairs or find(target_id) == find(candidate_id):
                        continue
                    seen_pairs.add(pair)
                    # The larger of the two directions' CORs (overlap / |t|
                    # and overlap / |c|) divides by the smaller row.
                    candidate = minutes[candidate_id]
                    overlap = int(lagged_overlaps(target, candidate, 0)[0])
                    cor = overlap / min(target.size, candidate.size) if overlap else 0.0
                    if cor >= min_cor:
                        union(target_id, candidate_id)

    components: dict[str, List[str]] = {}
    for fid in eligible:
        components.setdefault(find(fid), []).append(fid)
    groups = [sorted(members, key=order.__getitem__) for members in components.values()]
    groups = [members for members in groups if len(members) >= 2]
    groups.sort(key=lambda members: order[members[0]])
    return groups


def cooccurrence_study(
    trace: Trace,
    negative_samples_per_function: int = 50,
    max_functions: int | None = 500,
    min_invocations: int = 5,
    seed: int = 0,
) -> CooccurrenceReport:
    """Run the §III-B2 co-occurrence study on ``trace``.

    Parameters
    ----------
    trace:
        Trace to analyse.
    negative_samples_per_function:
        Number of unrelated functions sampled per target (50 in the paper).
    max_functions:
        Optional cap on the number of target functions, to keep the study
        tractable on large traces; targets are the most-invoked eligible
        functions.
    min_invocations:
        Minimum invoked minutes for a function to participate.
    seed:
        Seed for the negative sampling.
    """
    rng = np.random.default_rng(seed)
    records = {record.function_id: record for record in trace.records()}

    eligible = [
        function_id
        for function_id in trace.function_ids
        if trace.row(function_id)[0].size >= min_invocations
    ]
    if max_functions is not None and len(eligible) > max_functions:
        eligible = sorted(
            eligible, key=lambda fid: trace.total_invocations(fid), reverse=True
        )[:max_functions]
    eligible_set = set(eligible)

    by_app = trace.functions_by_app()
    by_owner = trace.functions_by_owner()

    candidate_values: List[float] = []
    negative_values: List[float] = []
    same_trigger_values: List[float] = []
    different_trigger_values: List[float] = []
    pairs = 0

    all_ids = list(trace.function_ids)
    for target_id in eligible:
        target_record = records[target_id]
        related = set(by_app.get(target_record.app_id, ()))
        related.update(by_owner.get(target_record.owner_id, ()))
        related.discard(target_id)
        candidates = [fid for fid in related if fid in eligible_set]
        if not candidates:
            continue

        target = trace.row(target_id)[0]
        for candidate_id in candidates:
            value = co_occurrence_rate(target, trace.row(candidate_id)[0])
            candidate_values.append(value)
            if records[candidate_id].trigger == target_record.trigger:
                same_trigger_values.append(value)
            else:
                different_trigger_values.append(value)
            pairs += 1

        unrelated_pool = [fid for fid in all_ids if fid not in related and fid != target_id]
        if unrelated_pool:
            sample_size = min(negative_samples_per_function, len(unrelated_pool))
            sampled = rng.choice(unrelated_pool, size=sample_size, replace=False)
            for negative_id in sampled:
                negative_values.append(
                    co_occurrence_rate(target, trace.row(str(negative_id))[0])
                )

    def mean_or_zero(values: List[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    return CooccurrenceReport(
        candidate_cor=mean_or_zero(candidate_values),
        negative_cor=mean_or_zero(negative_values),
        same_trigger_cor=mean_or_zero(same_trigger_values),
        different_trigger_cor=mean_or_zero(different_trigger_values),
        pairs_evaluated=pairs,
    )
