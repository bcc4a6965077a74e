"""SPES online provisioning (Algorithm 1) as an index-native policy.

The offline phase (:class:`~repro.core.offline.OfflineCategorizer`) assigns a
category and predictive values to every function.  Online, the policy

* records invocations, waiting times and cold starts per function;
* schedules pre-warm triggers from the predictive values, so a function is
  loaded shortly before its predicted next invocation;
* pre-warms *correlated* functions when their linked predictors fire;
* keeps an invoked function resident until it has been idle for its
  category's give-up threshold (unless a prediction justifies keeping it);
* applies the adaptive strategies: predictive-value adjusting, promotion of
  unknown/unseen functions, and online correlation for unseen functions.

The per-invocation state machine (:class:`~repro.core.state.FunctionState`)
and the adaptive strategies work on function ids; the per-minute bookkeeping
runs on numpy arrays over the trace's function-index space:

* residency is a boolean mask;
* the give-up thresholds, hold-until horizons (prediction, offline
  correlation, online correlation) and always-warm flags live in per-function
  arrays, refreshed only when a state actually changes (the
  :meth:`~repro.core.adaptive.AdjustingStrategy.maybe_update` change flag);
* the eviction scan is a handful of vectorized comparisons; only candidates
  with live predictive values fall back to a per-function ``preload_due``
  check.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

import numpy as np

from repro.core.adaptive import AdjustingStrategy, OnlineCorrelationTracker
from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.offline import CategorizationResult, OfflineCategorizer
from repro.core.state import FunctionState
from repro.simulation.vector_policy import VectorizedPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace

#: "Never invoked" marker for the last-invocation array.  Chosen as ``-1`` so
#: the vectorized idle time ``minute - last`` equals
#: :meth:`FunctionState.idle_minutes` for never-invoked functions
#: (``minute + 1``) — including during negatively-numbered warm-up minutes.
_NEVER_INVOKED = -1


class SpesPolicy(VectorizedPolicy):
    """The SPES differentiated provisioning scheduler.

    Parameters
    ----------
    config:
        SPES configuration; the paper's defaults are used when omitted.

    Examples
    --------
    >>> from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace
    >>> from repro.simulation import simulate_policy
    >>> trace = AzureTraceGenerator(GeneratorProfile.small(seed=1)).generate()
    >>> split = split_trace(trace, training_days=2.0)
    >>> result = simulate_policy(SpesPolicy(), split.simulation, split.training)
    >>> 0.0 <= result.overall_cold_start_rate <= 1.0
    True
    """

    name = "spes"

    def __init__(self, config: SpesConfig | None = None) -> None:
        self.config = config or SpesConfig()
        self.categorization: CategorizationResult | None = None
        self._states: Dict[str, FunctionState] = {}
        self._predictor_index: Dict[str, List[tuple[str, int]]] = {}
        self._training_invocations: Dict[str, int] = {}
        self._adjusting: AdjustingStrategy | None = None
        self._online_corr: OnlineCorrelationTracker | None = None

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        config = self.config

        self._states = {}
        self._predictor_index = {}
        self._training_invocations = {}
        self._adjusting = AdjustingStrategy(config) if config.enable_adjusting else None
        self._online_corr = (
            OnlineCorrelationTracker(config) if config.enable_online_correlation else None
        )

        if training is not None:
            self.categorization = OfflineCategorizer(config).categorize(training)
            self._predictor_index = self.categorization.predictor_index()
            for function_id in training.function_ids:
                self._training_invocations[function_id] = training.total_invocations(
                    function_id
                )
        else:
            self.categorization = None

        for record in functions:
            profile = (
                self.categorization.profiles.get(record.function_id)
                if self.categorization is not None
                else None
            )
            if profile is not None:
                category = profile.category
                state = FunctionState(
                    function_id=record.function_id,
                    category=category,
                    predictive=profile.predictive,
                    theta_prewarm=config.theta_prewarm,
                    theta_givenup=config.theta_givenup(category),
                    offline_wt_median=profile.offline_wt_median,
                    offline_wt_std=profile.offline_wt_std,
                    seen_in_training=self._training_invocations.get(record.function_id, 0) > 0,
                )
            else:
                state = FunctionState(
                    function_id=record.function_id,
                    category=FunctionCategory.UNKNOWN,
                    theta_prewarm=config.theta_prewarm,
                    theta_givenup=config.theta_givenup(FunctionCategory.UNKNOWN),
                    seen_in_training=False,
                )
            self._states[record.function_id] = state

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        n = index.n_functions
        self._mask = np.zeros(n, dtype=bool)
        self._invoked_scratch = np.zeros(n, dtype=bool)
        self._last_arr = np.full(n, _NEVER_INVOKED, dtype=np.int64)
        self._theta_arr = np.full(n, self.config.theta_givenup_default, dtype=np.int64)
        self._always_arr = np.zeros(n, dtype=bool)
        self._haspred_arr = np.zeros(n, dtype=bool)
        self._pred_hold_arr = np.zeros(n, dtype=np.int64)
        self._corr_hold_arr = np.zeros(n, dtype=np.int64)
        self._online_hold_arr = np.zeros(n, dtype=np.int64)
        # Position-keyed pre-warm calendar: ``minute -> (positions, holds)``
        # append-only lists.  Duplicates are resolved at apply time by
        # ``np.maximum.at`` — associative max, so append-now / dedup-later
        # yields the same holds as keeping the maximum on insertion.
        self._prewarm_due: dict[int, tuple[list, list]] = {}
        for position, function_id in enumerate(index.function_ids):
            self._sync_state_arrays(position, self._ensure_state(function_id))

    def _sync_state_arrays(self, position: int, state: FunctionState) -> None:
        """Refresh the cached decision inputs of one function."""
        self._theta_arr[position] = state.theta_givenup
        self._always_arr[position] = state.category == FunctionCategory.ALWAYS_WARM
        self._haspred_arr[position] = not state.predictive.is_empty

    # ------------------------------------------------------------------ #
    # Introspection used by experiments, analysis and tests
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> Mapping[str, FunctionState]:
        """Per-function online state (read-only view for analysis)."""
        return self._states

    def category_assignments(self) -> Dict[str, FunctionCategory]:
        """Current category of every known function, including online promotions."""
        return {function_id: state.category for function_id, state in self._states.items()}

    @property
    def resident_functions(self) -> Set[str]:
        """Functions currently kept resident by the policy."""
        return self.resident_ids(self._mask) if self.is_bound else set()

    # ------------------------------------------------------------------ #
    # Online phase (Algorithm 1)
    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        mask = self._mask
        scratch = self._invoked_scratch
        ids = self._function_ids
        states = self._states
        adjusting = self._adjusting

        if invoked.size:
            scratch[invoked] = True
        for position in invoked.tolist():
            function_id = ids[position]
            state = states.get(function_id)
            if state is None:
                state = self._ensure_state(function_id)
                self._sync_state_arrays(position, state)
            cold = not mask[position]
            state.record_invocation(minute, cold)
            if adjusting is not None and adjusting.maybe_update(state):
                self._sync_state_arrays(position, state)
            mask[position] = True
            self._last_arr[position] = minute
            self._schedule_prediction_prewarm(position, state, minute)
            self._fire_correlated_links(function_id, minute)
            self._update_online_correlation(state, minute)

        self._apply_due_prewarm(minute)
        self._evict_idle(minute)
        if invoked.size:
            scratch[invoked] = False
        return mask

    # ------------------------------------------------------------------ #
    # Invocation handling helpers
    # ------------------------------------------------------------------ #
    def _ensure_state(self, function_id: str) -> FunctionState:
        state = self._states.get(function_id)
        if state is None:
            state = FunctionState(
                function_id=function_id,
                category=FunctionCategory.UNKNOWN,
                theta_prewarm=self.config.theta_prewarm,
                theta_givenup=self.config.theta_givenup(FunctionCategory.UNKNOWN),
                seen_in_training=False,
            )
            self._states[function_id] = state
        return state

    def _schedule_prediction_prewarm(
        self, position: int, state: FunctionState, minute: int
    ) -> None:
        """Register future pre-warm triggers from the function's predictions.

        Each trigger carries the end of the prediction window it was derived
        from, so a prediction made now is still honoured even if an
        intervening (e.g. spurious) invocation later moves the function's
        "last invocation" anchor.  Triggers and holds are appended to flat
        parallel lists per trigger minute.
        """
        if state.predictive.is_empty:
            return
        theta = state.theta_prewarm
        calendar = self._prewarm_due
        for low, high in state.predictive.predicted_times(minute):
            trigger = low - theta
            if trigger <= minute:
                continue
            entry = calendar.get(trigger)
            if entry is None:
                entry = calendar[trigger] = ([], [])
            entry[0].append(position)
            entry[1].append(high + theta + 1)

    def _fire_correlated_links(self, predictor_id: str, minute: int) -> None:
        """Pre-warm correlated targets whose predictor just fired."""
        links = self._predictor_index.get(predictor_id)
        if not links:
            return
        config = self.config
        index_of = self._index_of
        for target_id, lag in links:
            position = index_of.get(target_id)
            if position is None:
                # A target outside the trace's function space cannot be
                # invoked in this simulation; skipping it cannot change any
                # charged metric.
                continue
            load_at = minute + max(0, lag - config.theta_prewarm)
            keep_until = minute + lag + config.theta_prewarm + 1
            if keep_until > self._corr_hold_arr[position]:
                self._corr_hold_arr[position] = keep_until
            if load_at <= minute:
                self._mask[position] = True
                if target_id not in self._states:
                    self._sync_state_arrays(position, self._ensure_state(target_id))
            else:
                entry = self._prewarm_due.get(load_at)
                if entry is None:
                    entry = self._prewarm_due[load_at] = ([], [])
                entry[0].append(position)
                entry[1].append(keep_until)

    def _update_online_correlation(self, state: FunctionState, minute: int) -> None:
        """Feed the online-correlation tracker (unseen targets and their candidates)."""
        if self._online_corr is None:
            return
        function_id = state.function_id
        if not state.seen_in_training:
            if not self._online_corr.is_tracked(function_id):
                self._online_corr.register_target(
                    function_id, self._candidate_ids_for(function_id)
                )
            self._online_corr.on_target_invoked(function_id, minute)

        targets = self._online_corr.on_candidate_invoked(function_id, minute)
        for target_id in targets:
            position = self._index_of.get(target_id)
            if position is None:
                continue
            keep_until = minute + self.config.correlated_prewarm_window + 1
            if keep_until > self._online_hold_arr[position]:
                self._online_hold_arr[position] = keep_until
            self._mask[position] = True
            if target_id not in self._states:
                self._sync_state_arrays(position, self._ensure_state(target_id))

    def _candidate_ids_for(self, function_id: str) -> List[str]:
        """Rank candidate predictors for an unseen function (same trigger first)."""
        record = self.known_functions.get(function_id)
        if record is None:
            return []
        candidates: List[tuple[int, int, str]] = []
        for other_id, other in self.known_functions.items():
            if other_id == function_id:
                continue
            if other.trigger != record.trigger:
                continue
            state = self._states.get(other_id)
            if state is None or state.category == FunctionCategory.UNKNOWN:
                continue
            same_app = 1 if other.app_id == record.app_id else 0
            same_owner = 1 if other.owner_id == record.owner_id else 0
            activity = self._training_invocations.get(other_id, 0)
            candidates.append((-(same_app * 2 + same_owner), -activity, other_id))
        candidates.sort()
        limit = self.config.online_corr_max_candidates
        return [function_id for _, _, function_id in candidates[:limit]]

    # ------------------------------------------------------------------ #
    # Pre-warming and eviction
    # ------------------------------------------------------------------ #
    def _apply_due_prewarm(self, minute: int) -> None:
        """Batch-apply every pre-warm due this minute with two array ops.

        Only positions of the bound index are ever scheduled (and
        :meth:`on_bind` materialized a state for each), so no position needs
        an unknown-id or unknown-state guard.  Functions invoked this minute
        keep the hold but are not re-marked resident here.
        """
        entry = self._prewarm_due.pop(minute, None)
        if entry is None:
            return
        positions = np.asarray(entry[0], dtype=np.int64)
        holds = np.asarray(entry[1], dtype=np.int64)
        np.maximum.at(self._pred_hold_arr, positions, holds)
        self._mask[positions[~self._invoked_scratch[positions]]] = True

    def _evict_idle(self, minute: int) -> None:
        """Evict idle residents, vectorized over the function-index space.

        A resident, non-invoked, non-always-warm function is evicted when its
        idle time has reached its give-up threshold and neither a hold-until
        horizon nor a live prediction justifies keeping it.
        """
        mask = self._mask
        candidates = mask & ~self._invoked_scratch & ~self._always_arr
        if not candidates.any():
            return
        next_minute = minute + 1
        idle = minute - self._last_arr
        held = (
            (self._pred_hold_arr > next_minute)
            | (self._corr_hold_arr > next_minute)
            | (self._online_hold_arr > next_minute)
        )
        evict = candidates & (idle >= self._theta_arr) & ~held

        # Only functions with live predictive values need the per-function
        # prediction check; everything else was decided by pure array math.
        check = np.flatnonzero(evict & self._haspred_arr)
        if check.size:
            ids = self._function_ids
            states = self._states
            for position in check.tolist():
                if states[ids[position]].preload_due(next_minute):
                    evict[position] = False
        mask[evict] = False
