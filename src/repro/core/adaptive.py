"""Adaptive online strategies (§IV-C): adjusting and online correlation.

*Adjusting* keeps the predictive values honest as behaviour drifts: when
enough waiting times have been observed online and their statistics deviate
from the training-window statistics by more than the training standard
deviation, the predictive value is moved to the mean of the old and new
estimates.  Unknown or unseen functions whose online waiting times start
showing repeated values are promoted to the *newly possible* category.

*Online correlation* links functions that never appeared during training
("unseen") to known functions sharing the same trigger: at first, any
candidate invocation pre-warms the target; candidates whose co-occurrence
rate falls well below the best candidate's are gradually pruned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

import numpy as np

from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.predictive import PredictiveValues
from repro.core.state import FunctionState


class AdjustingStrategy:
    """Online adjustment of predictive values and promotion of unknown functions."""

    #: Categories whose predictive values are re-estimated online (§IV-C1 S2).
    ADJUSTABLE = (
        FunctionCategory.REGULAR,
        FunctionCategory.APPRO_REGULAR,
        FunctionCategory.DENSE,
        FunctionCategory.POSSIBLE,
        FunctionCategory.NEWLY_POSSIBLE,
    )

    def __init__(self, config: SpesConfig) -> None:
        self.config = config
        self.adjusted_functions: Set[str] = set()
        self.promoted_functions: Set[str] = set()

    # ------------------------------------------------------------------ #
    def maybe_update(self, state: FunctionState) -> bool:
        """Apply S2 (adjust values) and S3 (promote unknown/unseen) to ``state``.

        Returns True when the state was modified (predictive values adjusted
        or the category promoted), so callers caching derived per-function
        data — e.g. SpesPolicy's prediction windows — can refresh
        only when something actually changed.
        """
        observed = len(state.online_waiting_times)
        if observed < self.config.adjusting_min_new_wts:
            return False
        # A no-change evaluation is a pure function of the waiting-time list
        # (plus state fields only *this* strategy mutates), so until a new
        # waiting time arrives the answer stays False — skip the statistics.
        if observed == state.adjust_checked_wts:
            return False
        if state.category in self.ADJUSTABLE:
            changed = self._adjust_predictive_values(state)
        elif state.category == FunctionCategory.UNKNOWN or not state.seen_in_training:
            changed = self._maybe_promote(state)
        else:
            return False
        state.adjust_checked_wts = -1 if changed else observed
        return changed

    # ------------------------------------------------------------------ #
    def _adjust_predictive_values(self, state: FunctionState) -> bool:
        # The running median of the state's sorted view, computed exactly as
        # statistics.median does (middle element, or (a + b) / 2 for an even
        # count) and bit-identical to np.median of the float64 array for
        # these integer waiting times -- without a sort per waiting time.
        new_median = float(_median_of_sorted(state.sorted_waiting_times))
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
            # Keep the prediction set small: retain the blended value plus the
            # values closest to the new online median.
            ranked = sorted(values, key=lambda value: abs(value - new_median))
            state.predictive = PredictiveValues.from_discrete(ranked[:3])
        online = np.asarray(state.online_waiting_times, dtype=float)
        state.offline_wt_median = blended
        state.offline_wt_std = float(online.std(ddof=0))
        state.adjusted = True
        self.adjusted_functions.add(state.function_id)
        return True

    def _maybe_promote(self, state: FunctionState) -> bool:
        counter = Counter(state.online_waiting_times)
        repeated = [
            value
            for value, count in counter.items()
            if count >= self.config.possible_min_mode_count
        ]
        if not repeated:
            return False
        state.category = FunctionCategory.NEWLY_POSSIBLE
        state.predictive = PredictiveValues.from_values_with_spread_rule(
            sorted(repeated), self.config.possible_range_threshold
        )
        state.theta_givenup = self.config.theta_givenup(FunctionCategory.NEWLY_POSSIBLE)
        online = np.asarray(state.online_waiting_times, dtype=float)
        state.offline_wt_median = float(np.median(online))
        state.offline_wt_std = float(online.std(ddof=0))
        self.promoted_functions.add(state.function_id)
        return True


def _median_of_sorted(values: List[int]) -> float:
    """Median of an ascending, non-empty list (``statistics.median``'s rule)."""
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2


# --------------------------------------------------------------------------- #
# Online correlation for unseen functions
# --------------------------------------------------------------------------- #
@dataclass
class _TargetTracker:
    """Candidate bookkeeping for one unseen target function."""

    candidates: Dict[str, int] = field(default_factory=dict)  # candidate -> hit count
    fires: Dict[str, int] = field(default_factory=dict)  # candidate -> fire count
    last_candidate_fire: Dict[str, int] = field(default_factory=dict)
    observations: int = 0
    active: Set[str] = field(default_factory=set)


class OnlineCorrelationTracker:
    """Links unseen functions to same-trigger known functions during provisioning."""

    def __init__(self, config: SpesConfig) -> None:
        self.config = config
        self._targets: Dict[str, _TargetTracker] = {}
        # candidate id -> set of target ids it may pre-warm
        self._reverse: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------ #
    @property
    def tracked_targets(self) -> List[str]:
        """Ids of unseen functions currently being tracked."""
        return list(self._targets)

    def register_target(self, target_id: str, candidate_ids: Iterable[str]) -> None:
        """Start tracking an unseen ``target_id`` against the given candidates."""
        candidates = [cid for cid in candidate_ids if cid != target_id]
        candidates = candidates[: self.config.online_corr_max_candidates]
        if not candidates:
            return
        tracker = _TargetTracker(
            candidates={cid: 0 for cid in candidates},
            fires={cid: 0 for cid in candidates},
            active=set(candidates),
        )
        self._targets[target_id] = tracker
        for candidate_id in candidates:
            self._reverse.setdefault(candidate_id, set()).add(target_id)

    def is_tracked(self, target_id: str) -> bool:
        """True when ``target_id`` already has a candidate tracker."""
        return target_id in self._targets

    # ------------------------------------------------------------------ #
    def on_candidate_invoked(self, candidate_id: str, minute: int) -> List[str]:
        """Record a candidate invocation; return targets that should be pre-warmed."""
        targets = self._reverse.get(candidate_id)
        if not targets:
            return []
        prewarm: List[str] = []
        for target_id in targets:
            tracker = self._targets.get(target_id)
            if tracker is None or candidate_id not in tracker.candidates:
                continue
            tracker.last_candidate_fire[candidate_id] = minute
            tracker.fires[candidate_id] = tracker.fires.get(candidate_id, 0) + 1
            if candidate_id not in tracker.active:
                continue
            # Futility rule: a candidate that keeps firing without the target
            # ever following is not a predictive indicator -- stop letting it
            # keep the target warm.
            if (
                tracker.candidates[candidate_id] == 0
                and tracker.fires[candidate_id] >= self.config.online_corr_futility_fires
            ):
                tracker.active.discard(candidate_id)
                continue
            prewarm.append(target_id)
        return prewarm

    def on_target_invoked(self, target_id: str, minute: int) -> None:
        """Record a target invocation, update candidate CORs, prune weak candidates."""
        tracker = self._targets.get(target_id)
        if tracker is None:
            return
        tracker.observations += 1
        window = self.config.tcor_max_lag
        for candidate_id, last_fire in tracker.last_candidate_fire.items():
            if minute - window <= last_fire <= minute:
                tracker.candidates[candidate_id] += 1

        if tracker.observations < self.config.online_corr_min_observations:
            return
        cors = {
            candidate_id: hits / tracker.observations
            for candidate_id, hits in tracker.candidates.items()
        }
        best = max(cors.values(), default=0.0)
        margin = self.config.online_corr_drop_margin
        tracker.active = {
            candidate_id
            for candidate_id, cor in cors.items()
            if cor >= best - margin and cor > 0
        }

    # ------------------------------------------------------------------ #
    def candidate_cor(self, target_id: str, candidate_id: str) -> float:
        """Current COR estimate of ``candidate_id`` for ``target_id`` (0 if unknown)."""
        tracker = self._targets.get(target_id)
        if tracker is None or tracker.observations == 0:
            return 0.0
        return tracker.candidates.get(candidate_id, 0) / tracker.observations

    def active_candidates(self, target_id: str) -> Set[str]:
        """Candidates still allowed to pre-warm ``target_id``."""
        tracker = self._targets.get(target_id)
        return set(tracker.active) if tracker is not None else set()
