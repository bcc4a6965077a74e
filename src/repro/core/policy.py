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
and the adaptive strategies work on function ids; residency is a boolean
mask over the trace's function-index space.  Nothing is scanned per minute:
a function's eviction inputs (its last invocation, give-up threshold,
predictions, hold-until horizon and category) change only when it is
invoked, loaded or held, so each change schedules the function's *eviction
deadline* -- the first minute at which the idle, hold and prediction checks
all pass -- into a ``minute -> positions`` calendar, and each minute evicts
the positions whose deadline it is.
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

#: Eviction deadline of an always-warm function: no hold ever reaches it.
_NEVER_EVICTED = 2**62


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
        self._state_at = [self._ensure_state(fid) for fid in index.function_ids]
        # Prediction windows relative to the last invocation, widened by
        # theta_prewarm and sorted by start: ``(v - theta, v + theta)``.
        self._windows: list[list[tuple[int, int]]] = [[]] * n
        # The latest hold-until horizon of any kind (prediction, offline or
        # online correlation): only the largest one decides eviction.
        self._hold_until = [0] * n
        self._deadline = [_NEVER_EVICTED] * n
        # ``minute -> positions`` whose eviction deadline was that minute
        # when scheduled; an entry whose deadline moved since is stale.
        self._evict_at: dict[int, list[int]] = {}
        # Position-keyed pre-warm calendar: ``minute -> [(position, hold)]``.
        self._prewarm_due: dict[int, list[tuple[int, int]]] = {}
        for position, state in enumerate(self._state_at):
            self._sync_state_arrays(position, state)

    def _sync_state_arrays(self, position: int, state: FunctionState) -> None:
        """Refresh the cached prediction windows of one function."""
        theta = state.theta_prewarm
        self._windows[position] = sorted(
            (low - theta, high + theta)
            for low, high in state.predictive.predicted_times(0)
        )

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
        state_at = self._state_at
        adjusting = self._adjusting

        for position in invoked.tolist():
            state = state_at[position]
            state.record_invocation(minute, not mask[position])
            if adjusting is not None and adjusting.maybe_update(state):
                self._sync_state_arrays(position, state)
            mask[position] = True
            self._schedule_eviction(position, minute)
            self._schedule_prediction_prewarm(position, minute)
            self._fire_correlated_links(state.function_id, minute)
            self._update_online_correlation(state, minute)

        self._apply_due_prewarm(minute)
        self._evict_due(minute)
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

    def _schedule_prediction_prewarm(self, position: int, minute: int) -> None:
        """Register future pre-warm triggers from the function's predictions.

        Each trigger carries the end of the prediction window it was derived
        from, so a prediction made now is still honoured even if an
        intervening (e.g. spurious) invocation later moves the function's
        "last invocation" anchor.
        """
        for low, high in self._windows[position]:
            if low > 0:
                self._prewarm_due.setdefault(minute + low, []).append(
                    (position, minute + high + 1)
                )

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
            self._hold(position, keep_until, minute, load=load_at <= minute)
            if load_at > minute:
                self._prewarm_due.setdefault(load_at, []).append((position, keep_until))

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
            self._hold(position, minute + self.config.correlated_prewarm_window + 1, minute)

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
        """Apply every pre-warm due this minute: raise its hold, load it."""
        due = self._prewarm_due.pop(minute, None)
        if due is None:
            return
        for position, keep_until in due:
            self._hold(position, keep_until, minute)

    def _hold(self, position: int, keep_until: int, minute: int, load: bool = True) -> None:
        """Keep ``position`` resident while ``minute + 1 < keep_until``.

        With ``load`` the function is made resident now; otherwise the hold
        only extends a residency it already has (or a later load gets).
        """
        raised = keep_until > self._hold_until[position]
        if raised:
            self._hold_until[position] = keep_until
        if self._mask[position]:
            if raised and keep_until - 1 > self._deadline[position]:
                self._schedule_eviction(position, minute)
        elif load:
            self._mask[position] = True
            self._schedule_eviction(position, minute)

    def _schedule_eviction(self, position: int, minute: int) -> None:
        """Schedule the eviction deadline of a resident function.

        The deadline is the first minute ``m >= minute`` at which the
        function would be released: idle for its give-up threshold
        (``m - last >= theta_givenup``, a never-invoked function counting
        from minute ``-1``), no hold reaching past ``m + 1``, and -- once it
        has been invoked -- ``m + 1`` outside every prediction window.
        Always-warm functions are never evicted.
        """
        state = self._state_at[position]
        if state.category == FunctionCategory.ALWAYS_WARM:
            self._deadline[position] = _NEVER_EVICTED
            return
        last = state.last_invocation
        deadline = max(
            minute,
            self._hold_until[position] - 1,
            (-1 if last is None else last) + state.theta_givenup,
        )
        if last is not None:
            # Windows are sorted by start, so one pass skips every window
            # that covers the candidate next minute.
            offset = deadline + 1 - last
            for low, high in self._windows[position]:
                if low <= offset <= high:
                    offset = high + 1
            deadline = last + offset - 1
        self._deadline[position] = deadline
        self._evict_at.setdefault(deadline, []).append(position)

    def _evict_due(self, minute: int) -> None:
        """Evict the functions whose eviction deadline is this minute."""
        due = self._evict_at.pop(minute, None)
        if due is None:
            return
        deadline = self._deadline
        mask = self._mask
        for position in due:
            if deadline[position] == minute:
                mask[position] = False
