"""Dict-stepping twins of the paper policies, kept as the equivalence oracle.

``repro`` ships each paper policy once, as an index-native
:class:`~repro.simulation.vector_policy.VectorizedPolicy`.  These are the
dict implementations they were ported from, verbatim apart from the class
names: each steps per-minute ``{function_id: count}`` mappings with Python
sets and dicts, and the engine drives it through the ``DictPolicyAdapter``.
They share each shipped policy's ``name``, so a run's
``deterministic_fingerprint`` must be identical for both members of a pair
(``tests/simulation/harness.py:POLICY_PAIRS``).

Only shared primitives come from ``repro`` (function state, offline
categorization, adaptive strategies, idle-time histograms, dependency
mining); the stepping is all here, as are the per-minute state queries
(:func:`idle_minutes`, :func:`preload_due`, :func:`prediction_matches`)
that ``SpesPolicy``'s eviction calendar and the closed-form offline
validation replaced.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set

import numpy as np

from repro.baselines.defuse import Dependency, mine_dependencies
from repro.baselines.histogram import IdleTimeHistogram
from repro.core.adaptive import AdjustingStrategy, OnlineCorrelationTracker
from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.offline import CategorizationResult, OfflineCategorizer
from repro.core.predictive import PredictiveValues
from repro.core.state import FunctionState
from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import Trace

__all__ = [
    "DictSpesPolicy",
    "DictFixedKeepAlivePolicy",
    "DictHybridFunctionPolicy",
    "DictHybridApplicationPolicy",
    "DictDefusePolicy",
    "DictFaasCachePolicy",
    "DictLcsPolicy",
    "idle_minutes",
    "preload_due",
    "prediction_matches",
]


def prediction_matches(
    predictive: PredictiveValues, minute: int, last_invocation: int, theta_prewarm: int
) -> bool:
    """True when a predicted invocation falls within ``theta_prewarm`` of ``minute``."""
    for low, high in predictive.predicted_times(last_invocation):
        if low - theta_prewarm <= minute <= high + theta_prewarm:
            return True
    return False


def idle_minutes(state: FunctionState, minute: int) -> int:
    """Idle minutes accumulated up to and including ``minute``."""
    if state.last_invocation is None:
        return minute + 1
    return max(0, minute - state.last_invocation)


def preload_due(state: FunctionState, minute: int) -> bool:
    """True when a predicted invocation justifies keeping/loading the instance."""
    if state.last_invocation is None or state.predictive.is_empty:
        return False
    return prediction_matches(
        state.predictive, minute, state.last_invocation, state.theta_prewarm
    )


class DictSpesPolicy(ProvisioningPolicy):
    """The SPES differentiated provisioning scheduler.

    Parameters
    ----------
    config:
        SPES configuration; the paper's defaults are used when omitted.
    """

    name = "spes"

    def __init__(self, config: SpesConfig | None = None) -> None:
        self.config = config or SpesConfig()
        self.categorization: CategorizationResult | None = None
        self._states: Dict[str, FunctionState] = {}
        self._resident: Set[str] = set()
        self._prewarm_calendar: Dict[int, Dict[str, int]] = {}
        self._prediction_hold_until: Dict[str, int] = {}
        self._correlated_prewarm_until: Dict[str, int] = {}
        self._online_prewarm_until: Dict[str, int] = {}
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
        self._resident = set()
        self._prewarm_calendar = {}
        self._prediction_hold_until = {}
        self._correlated_prewarm_until = {}
        self._online_prewarm_until = {}
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
        return set(self._resident)

    # ------------------------------------------------------------------ #
    # Online phase (Algorithm 1)
    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        config = self.config

        for function_id in invocations:
            state = self._ensure_state(function_id)
            cold = function_id not in self._resident
            state.record_invocation(minute, cold)
            if self._adjusting is not None:
                self._adjusting.maybe_update(state)
            self._resident.add(function_id)
            self._schedule_prediction_prewarm(state, minute)
            self._fire_correlated_links(function_id, minute)
            self._update_online_correlation(state, minute)

        self._apply_due_prewarm(minute, invocations)
        self._evict_idle(minute, invocations)
        return set(self._resident)

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

    def _schedule_prediction_prewarm(self, state: FunctionState, minute: int) -> None:
        """Register future pre-warm triggers from the function's predictions.

        Each trigger carries the end of the prediction window it was derived
        from, so a prediction made now is still honoured even if an
        intervening (e.g. spurious) invocation later moves the function's
        "last invocation" anchor.
        """
        if state.predictive.is_empty:
            return
        theta = state.theta_prewarm
        for low, high in state.predictive.predicted_times(minute):
            trigger = max(minute, low - theta)
            hold_until = high + theta + 1
            if trigger <= minute:
                continue
            entries = self._prewarm_calendar.setdefault(trigger, {})
            if hold_until > entries.get(state.function_id, 0):
                entries[state.function_id] = hold_until

    def _fire_correlated_links(self, predictor_id: str, minute: int) -> None:
        """Pre-warm correlated targets whose predictor just fired."""
        for target_id, lag in self._predictor_index.get(predictor_id, ()):
            load_at = minute + max(0, lag - self.config.theta_prewarm)
            keep_until = minute + lag + self.config.theta_prewarm + 1
            current = self._correlated_prewarm_until.get(target_id, 0)
            if keep_until > current:
                self._correlated_prewarm_until[target_id] = keep_until
            if load_at <= minute:
                self._resident.add(target_id)
                self._ensure_state(target_id)
            else:
                entries = self._prewarm_calendar.setdefault(load_at, {})
                if keep_until > entries.get(target_id, 0):
                    entries[target_id] = keep_until

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
            keep_until = minute + self.config.correlated_prewarm_window + 1
            current = self._online_prewarm_until.get(target_id, 0)
            if keep_until > current:
                self._online_prewarm_until[target_id] = keep_until
            self._resident.add(target_id)
            self._ensure_state(target_id)

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
        return [function_id for _, _, function_id in candidates[: self.config.online_corr_max_candidates]]

    # ------------------------------------------------------------------ #
    # Pre-warming and eviction
    # ------------------------------------------------------------------ #
    def _apply_due_prewarm(self, minute: int, invocations: Mapping[str, int]) -> None:
        due = self._prewarm_calendar.pop(minute, None)
        if not due:
            return
        for function_id, hold_until in due.items():
            state = self._states.get(function_id)
            if state is None:
                continue
            current_hold = self._prediction_hold_until.get(function_id, 0)
            if hold_until > current_hold:
                self._prediction_hold_until[function_id] = hold_until
            if function_id not in invocations:
                self._resident.add(function_id)

    def _evict_idle(self, minute: int, invocations: Mapping[str, int]) -> None:
        for function_id in list(self._resident):
            if function_id in invocations:
                continue
            state = self._states.get(function_id)
            if state is None:
                self._resident.discard(function_id)
                continue
            if state.category == FunctionCategory.ALWAYS_WARM:
                continue
            next_minute = minute + 1
            keep = (
                preload_due(state, next_minute)
                or next_minute < self._prediction_hold_until.get(function_id, 0)
                or next_minute < self._correlated_prewarm_until.get(function_id, 0)
                or next_minute < self._online_prewarm_until.get(function_id, 0)
            )
            if keep:
                continue
            if idle_minutes(state, minute) >= state.theta_givenup:
                self._resident.discard(function_id)


class DictFixedKeepAlivePolicy(ProvisioningPolicy):
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
        self._expiry: Dict[str, int] = {}

    def reset(self) -> None:
        self._expiry = {}

    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        for function_id in invocations:
            self._expiry[function_id] = minute + self.keep_alive_minutes

        expired = [fid for fid, expiry in self._expiry.items() if expiry <= minute]
        for function_id in expired:
            del self._expiry[function_id]

        return set(self._expiry)


@dataclass
class _UnitState:
    """Online state tracked for one provisioning unit."""

    histogram: IdleTimeHistogram
    last_invocation: int | None = None
    members: Set[str] = field(default_factory=set)


class DictHybridHistogramPolicyBase(ProvisioningPolicy):
    """Common implementation of the hybrid histogram policy.

    Subclasses define the provisioning unit by overriding :meth:`unit_of`.

    Parameters
    ----------
    histogram_range_minutes:
        Bound of the idle-time histogram (4 hours in the original paper).
    head_percentile, tail_percentile:
        Percentiles defining the pre-warm and keep-alive windows.
    uncertain_keep_alive_minutes:
        Keep-alive applied to units whose histogram is not representative.
        The original policy keeps such units warm for the histogram range.
    min_samples:
        Minimum idle-time samples before a histogram is trusted.
    """

    name = "hybrid-base"

    def __init__(
        self,
        histogram_range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        uncertain_keep_alive_minutes: int | None = None,
        min_samples: int = 10,
    ) -> None:
        self.histogram_range_minutes = histogram_range_minutes
        self.head_percentile = head_percentile
        self.tail_percentile = tail_percentile
        self.uncertain_keep_alive_minutes = (
            histogram_range_minutes
            if uncertain_keep_alive_minutes is None
            else uncertain_keep_alive_minutes
        )
        self.min_samples = min_samples
        self._units: Dict[str, _UnitState] = {}
        self._unit_of_function: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Unit mapping
    # ------------------------------------------------------------------ #
    def unit_of(self, record: FunctionRecord) -> str:
        """Return the provisioning-unit key for a function (overridden by subclasses)."""
        raise NotImplementedError

    def _unit_for_id(self, function_id: str) -> str:
        unit = self._unit_of_function.get(function_id)
        if unit is None:
            # Function unseen at prepare time: treat it as its own unit.
            unit = function_id
            self._unit_of_function[function_id] = unit
        return unit

    def _state_for(self, unit: str) -> _UnitState:
        state = self._units.get(unit)
        if state is None:
            state = _UnitState(histogram=self._new_histogram())
            self._units[unit] = state
        return state

    def _new_histogram(self) -> IdleTimeHistogram:
        return IdleTimeHistogram(
            range_minutes=self.histogram_range_minutes,
            head_percentile=self.head_percentile,
            tail_percentile=self.tail_percentile,
            min_samples=self.min_samples,
        )

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        self._units = {}
        self._unit_of_function = {}
        for record in functions:
            unit = self.unit_of(record)
            self._unit_of_function[record.function_id] = unit
            state = self._state_for(unit)
            state.members.add(record.function_id)

        if training is None:
            return

        # Seed each unit's histogram with the idle times observed in training.
        unit_minutes: Dict[str, np.ndarray] = {}
        for record in functions:
            series = training.series(record.function_id) if record.function_id in training else None
            if series is None or not series.any():
                continue
            unit = self._unit_of_function[record.function_id]
            minutes = np.nonzero(series)[0]
            if unit in unit_minutes:
                unit_minutes[unit] = np.union1d(unit_minutes[unit], minutes)
            else:
                unit_minutes[unit] = minutes

        for unit, minutes in unit_minutes.items():
            if minutes.size < 2:
                continue
            self._units[unit].histogram.observe_many(np.diff(minutes))

    def reset(self) -> None:
        for state in self._units.values():
            state.last_invocation = None

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        invoked_units: Set[str] = set()
        for function_id in invocations:
            unit = self._unit_for_id(function_id)
            state = self._state_for(unit)
            state.members.add(function_id)
            invoked_units.add(unit)

        for unit in invoked_units:
            state = self._units[unit]
            if state.last_invocation is not None:
                idle = minute - state.last_invocation
                if idle > 0:
                    state.histogram.observe(idle)
            state.last_invocation = minute

        resident: Set[str] = set()
        for state in self._units.values():
            if state.last_invocation is None:
                continue
            if self._unit_resident_next_minute(minute, state):
                resident.update(state.members)
        return resident

    def _unit_resident_next_minute(self, minute: int, state: _UnitState) -> bool:
        """Decide whether the unit should be resident at the start of minute+1."""
        elapsed_next = (minute + 1) - state.last_invocation
        histogram = state.histogram
        if histogram.is_representative:
            prewarm, keep_alive = histogram.windows()
            if elapsed_next > keep_alive:
                return False
            if prewarm > 1 and elapsed_next < prewarm:
                return False
            return True
        return elapsed_next <= self.uncertain_keep_alive_minutes

    # ------------------------------------------------------------------ #
    # Introspection used by tests
    # ------------------------------------------------------------------ #
    def unit_histogram(self, unit: str) -> IdleTimeHistogram | None:
        """Return the histogram tracked for ``unit`` (or None if unknown)."""
        state = self._units.get(unit)
        return state.histogram if state is not None else None

    def unit_members(self, unit: str) -> Set[str]:
        """Return the function ids belonging to ``unit``."""
        state = self._units.get(unit)
        return set(state.members) if state is not None else set()


class DictHybridFunctionPolicy(DictHybridHistogramPolicyBase):
    """Hybrid histogram keep-alive / pre-warming, one unit per function."""

    name = "hybrid-function"
    #: Unit == function: every histogram and clock is function-local.
    shard_safe = True

    def unit_of(self, record: FunctionRecord) -> str:
        return record.function_id


class DictHybridApplicationPolicy(DictHybridHistogramPolicyBase):
    """Hybrid histogram keep-alive / pre-warming, one unit per application."""

    name = "hybrid-application"

    def unit_of(self, record: FunctionRecord) -> str:
        return record.app_id


class DictDefusePolicy(DictHybridFunctionPolicy):
    """Dependency-guided scheduling on top of a per-function histogram keep-alive.

    Not ``shard_safe`` despite the per-function histogram base: mined
    dependencies pre-warm *other* functions, which a partition can separate
    from their predecessors.

    Parameters
    ----------
    strong_lag, weak_lag:
        Pre-warm windows (minutes) applied to strong and weak successors.
    strong_confidence, weak_confidence, min_support:
        Dependency-mining thresholds (see :func:`mine_dependencies`).
    uncertain_keep_alive_minutes:
        Fallback keep-alive for functions without a representative histogram.
        Defuse's fallback is the fixed keep-alive policy, so the default is
        the paper's 10-minute window rather than the hybrid policy's
        histogram range.
    """

    name = "defuse"
    shard_safe = False

    def __init__(
        self,
        histogram_range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        uncertain_keep_alive_minutes: int = 10,
        min_samples: int = 10,
        strong_lag: int = 2,
        weak_lag: int = 10,
        strong_confidence: float = 0.8,
        weak_confidence: float = 0.5,
        min_support: int = 3,
    ) -> None:
        super().__init__(
            histogram_range_minutes=histogram_range_minutes,
            head_percentile=head_percentile,
            tail_percentile=tail_percentile,
            uncertain_keep_alive_minutes=uncertain_keep_alive_minutes,
            min_samples=min_samples,
        )
        self.strong_lag = strong_lag
        self.weak_lag = weak_lag
        self.strong_confidence = strong_confidence
        self.weak_confidence = weak_confidence
        self.min_support = min_support
        self._successors: Dict[str, List[Dependency]] = {}
        self._prewarm_until: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        self._successors = {}
        self._prewarm_until = {}
        if training is None:
            return
        groups: Dict[str, List[str]] = {}
        for record in functions:
            groups.setdefault(record.app_id, []).append(record.function_id)
        dependencies = mine_dependencies(
            training,
            groups,
            strong_lag=self.strong_lag,
            weak_lag=self.weak_lag,
            strong_confidence=self.strong_confidence,
            weak_confidence=self.weak_confidence,
            min_support=self.min_support,
        )
        for dependency in dependencies:
            self._successors.setdefault(dependency.predecessor, []).append(dependency)

    def reset(self) -> None:
        super().reset()
        self._prewarm_until = {}

    @property
    def dependencies(self) -> List[Dependency]:
        """All mined dependencies (for inspection and tests)."""
        return [dep for deps in self._successors.values() for dep in deps]

    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        resident = super().on_minute(minute, invocations)

        # Pre-warm successors of every invoked predecessor.
        for function_id in invocations:
            for dependency in self._successors.get(function_id, ()):
                horizon = minute + dependency.lag_window
                current = self._prewarm_until.get(dependency.successor, -1)
                if horizon > current:
                    self._prewarm_until[dependency.successor] = horizon

        expired = [fid for fid, until in self._prewarm_until.items() if until <= minute]
        for function_id in expired:
            del self._prewarm_until[function_id]

        resident.update(self._prewarm_until)
        return resident


class DictFaasCachePolicy(ProvisioningPolicy):
    """Greedy-Dual-Size-Frequency keep-alive under a memory capacity.

    Parameters
    ----------
    capacity:
        Maximum number of memory units kept warm.  If ``None``, a capacity of
        one tenth of the function population (at least one) is chosen during
        :meth:`prepare`; the experiment harness overrides this with SPES's
        peak memory usage, as the paper does.
    sizes:
        Optional per-function memory footprint (defaults to 1 unit each).
    costs:
        Optional per-function warm-up cost (defaults to 1 each).
    """

    name = "faascache"

    def __init__(
        self,
        capacity: int | None = None,
        sizes: Mapping[str, float] | None = None,
        costs: Mapping[str, float] | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when given")
        self.capacity = capacity
        self._sizes = dict(sizes or {})
        self._costs = dict(costs or {})
        self._clock = 0.0
        self._frequency: Dict[str, int] = {}
        self._priority: Dict[str, float] = {}
        self._resident: Set[str] = set()
        self._heap: list[tuple[float, int, str]] = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self.capacity is None:
            self.capacity = max(1, len(functions) // 10)
        self.reset()

    def reset(self) -> None:
        self._clock = 0.0
        self._frequency = {}
        self._priority = {}
        self._resident = set()
        self._heap = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------ #
    def _size(self, function_id: str) -> float:
        return float(self._sizes.get(function_id, 1.0))

    def _cost(self, function_id: str) -> float:
        return float(self._costs.get(function_id, 1.0))

    def _compute_priority(self, function_id: str) -> float:
        frequency = self._frequency.get(function_id, 0)
        return self._clock + frequency * self._cost(function_id) / self._size(function_id)

    def _push(self, function_id: str) -> None:
        priority = self._priority[function_id]
        heapq.heappush(self._heap, (priority, next(self._counter), function_id))

    def _used_capacity(self) -> float:
        return sum(self._size(function_id) for function_id in self._resident)

    def _evict_if_needed(self) -> None:
        capacity = self.capacity if self.capacity is not None else len(self._resident)
        while self._resident and self._used_capacity() > capacity:
            while self._heap:
                priority, _, function_id = heapq.heappop(self._heap)
                if function_id in self._resident and self._priority.get(function_id) == priority:
                    self._resident.discard(function_id)
                    self._clock = max(self._clock, priority)
                    break
            else:
                # Heap exhausted (stale entries only): drop an arbitrary resident.
                self._resident.pop()
                break

    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        for function_id, count in invocations.items():
            self._frequency[function_id] = self._frequency.get(function_id, 0) + int(count)
            self._resident.add(function_id)
            self._priority[function_id] = self._compute_priority(function_id)
            self._push(function_id)

        self._evict_if_needed()
        return set(self._resident)

    # ------------------------------------------------------------------ #
    @property
    def resident_functions(self) -> Set[str]:
        """Currently warm functions (for inspection and tests)."""
        return set(self._resident)


class DictLcsPolicy(ProvisioningPolicy):
    """LRU warm-container policy with a fixed time-to-live and capacity.

    Parameters
    ----------
    keep_alive_minutes:
        How long a container may stay warm without invocations (default 30,
        i.e. longer than the fixed 10-minute baseline, per the LCS idea of
        "keeping containers alive for a longer period").
    capacity:
        Maximum number of simultaneously warm containers.  ``None`` means the
        capacity is set to one fifth of the function population at prepare
        time.
    """

    name = "lcs"

    def __init__(self, keep_alive_minutes: int = 30, capacity: int | None = None) -> None:
        if keep_alive_minutes < 1:
            raise ValueError("keep_alive_minutes must be >= 1")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when given")
        self.keep_alive_minutes = keep_alive_minutes
        self.capacity = capacity
        self._last_used: "OrderedDict[str, int]" = OrderedDict()

    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self.capacity is None:
            self.capacity = max(1, len(functions) // 5)
        self.reset()

    def reset(self) -> None:
        self._last_used = OrderedDict()

    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        for function_id in invocations:
            if function_id in self._last_used:
                del self._last_used[function_id]
            self._last_used[function_id] = minute

        # Expire containers idle beyond the keep-alive window.
        expired = [
            function_id
            for function_id, last in self._last_used.items()
            if minute - last >= self.keep_alive_minutes
        ]
        for function_id in expired:
            del self._last_used[function_id]

        # Enforce capacity by evicting the least recently used containers.
        capacity = self.capacity if self.capacity is not None else len(self._last_used)
        while len(self._last_used) > capacity:
            self._last_used.popitem(last=False)

        return set(self._last_used)
