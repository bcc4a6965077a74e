"""Offline categorization pipeline (the left half of Fig. 7).

Given the training window of a trace, the categorizer

1. extracts each function's WT/AT/AN sequences and attempts the five
   deterministic definitions (§IV-A);
2. applies the *forgetting* strategy to functions that failed: it retries the
   definitions on progressively more recent suffixes of the training window
   (§IV-B1);
3. mines correlation links (T-lagged co-occurrence with functions sharing an
   application or user, §IV-B2 D2);
4. assigns the remaining functions to *pulsed*, *correlated* or *possible* by
   validating each strategy on the tail of the training window (§IV-B2);
5. marks functions never invoked during training as *unknown*.

The result is a :class:`CategorizationResult` holding one
:class:`FunctionProfile` per function, which the online policy consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.categories import FunctionCategory
from repro.core.classifier import CategoryDecision, DeterministicClassifier
from repro.core.config import SpesConfig
from repro.core.correlation import best_lagged_cor, window_hits
from repro.core.indeterminate import (
    CorrelationLink,
    StrategyOutcome,
    choose_indeterminate_category,
    evaluate_correlated_strategy,
    evaluate_possible_strategy,
    evaluate_pulsed_strategy,
    possible_predictive_values,
)
from repro.core.predictive import PredictiveValues
from repro.core.sequences import InvocationSummary, extract_sequences
from repro.traces.schema import MINUTES_PER_DAY, TriggerType
from repro.traces.trace import Trace


@dataclass
class FunctionProfile:
    """Everything the online policy needs to know about one function.

    Attributes
    ----------
    function_id:
        The function's id.
    category:
        Assigned category.
    predictive:
        Predictive values used for pre-warming (may be empty).
    links:
        Correlation links whose predictors anticipate this function.
    offline_wt_median / offline_wt_std:
        Median and standard deviation of the training waiting times, used by
        the online *adjusting* strategy to decide when predictive values have
        drifted.
    trigger / app_id / owner_id:
        Static metadata carried over from the trace for the online
        correlation strategy.
    detail:
        Human-readable categorization rationale.
    """

    function_id: str
    category: FunctionCategory
    predictive: PredictiveValues = field(default_factory=PredictiveValues.none)
    links: tuple[CorrelationLink, ...] = ()
    offline_wt_median: float = 0.0
    offline_wt_std: float = 0.0
    trigger: TriggerType = TriggerType.HTTP
    app_id: str = ""
    owner_id: str = ""
    detail: str = ""


@dataclass
class CategorizationResult:
    """Output of the offline phase: a profile for every function."""

    profiles: Dict[str, FunctionProfile] = field(default_factory=dict)

    def category_of(self, function_id: str) -> FunctionCategory:
        """Category of ``function_id`` (UNKNOWN for functions with no profile)."""
        profile = self.profiles.get(function_id)
        return profile.category if profile is not None else FunctionCategory.UNKNOWN

    def category_counts(self) -> Counter:
        """Number of functions in each category."""
        return Counter(profile.category for profile in self.profiles.values())

    def functions_in(self, category: FunctionCategory) -> List[str]:
        """Ids of functions assigned to ``category``."""
        return [
            function_id
            for function_id, profile in self.profiles.items()
            if profile.category == category
        ]

    def predictor_index(self) -> Dict[str, List[tuple[str, int]]]:
        """Map each predictor id to the ``(target, lag)`` pairs it anticipates."""
        index: Dict[str, List[tuple[str, int]]] = {}
        for profile in self.profiles.values():
            for link in profile.links:
                index.setdefault(link.predictor_id, []).append(
                    (profile.function_id, link.lag)
                )
        return index


class OfflineCategorizer:
    """Runs the full offline categorization pipeline over a training trace."""

    def __init__(self, config: SpesConfig | None = None) -> None:
        self.config = config or SpesConfig()
        self._classifier = DeterministicClassifier(self.config)

    # ------------------------------------------------------------------ #
    def categorize(self, training: Trace) -> CategorizationResult:
        """Categorize every function of ``training`` and return the profiles."""
        config = self.config
        result = CategorizationResult()

        summaries: Dict[str, InvocationSummary] = {}
        pending: List[str] = []

        for record in training.records():
            series = training.series(record.function_id)
            summary = extract_sequences(series)
            summaries[record.function_id] = summary

            if not summary.has_invocations:
                result.profiles[record.function_id] = self._profile_from(
                    record.function_id,
                    training,
                    FunctionCategory.UNKNOWN,
                    PredictiveValues.none(),
                    summary,
                    detail="never invoked during training",
                )
                continue

            decision = self._classifier.classify(summary)
            if decision is None and config.enable_forgetting:
                decision = self._forgetting(series)
            if decision is not None:
                result.profiles[record.function_id] = self._profile_from(
                    record.function_id,
                    training,
                    decision.category,
                    decision.predictive,
                    summary,
                    detail=decision.detail,
                )
            else:
                pending.append(record.function_id)

        links_by_target: Dict[str, tuple[CorrelationLink, ...]] = {}
        if config.enable_correlation and pending:
            links_by_target = self._mine_links(training, pending)

        if pending:
            validation_start = max(
                0,
                training.duration_minutes
                - int(round(config.validation_days * MINUTES_PER_DAY)),
            )
            # One cut for every pending function and its link predictors.
            validation = training.slice(validation_start, training.duration_minutes)
            for function_id in pending:
                result.profiles[function_id] = self._assign_indeterminate(
                    function_id,
                    training,
                    validation,
                    summaries[function_id],
                    links_by_target.get(function_id, ()),
                )

        return result

    # ------------------------------------------------------------------ #
    # Step 2: forgetting
    # ------------------------------------------------------------------ #
    def _forgetting(self, series: np.ndarray) -> CategoryDecision | None:
        """Retry the deterministic definitions on recent suffixes of the series."""
        duration = series.shape[0]
        total_days = duration // MINUTES_PER_DAY
        if total_days < 2:
            return None
        max_drop = total_days // 2
        if self.config.forgetting_max_days is not None:
            max_drop = min(max_drop, self.config.forgetting_max_days)
        for dropped_days in range(1, max_drop + 1):
            start = dropped_days * MINUTES_PER_DAY
            if start >= duration:
                break
            summary = extract_sequences(series[start:])
            decision = self._classifier.classify(summary)
            if decision is not None:
                return CategoryDecision(
                    decision.category,
                    decision.predictive,
                    detail=f"{decision.detail} (forgot first {dropped_days} day(s))",
                )
        return None

    # ------------------------------------------------------------------ #
    # Step 3: correlation-link mining
    # ------------------------------------------------------------------ #
    def _mine_links(
        self, training: Trace, targets: List[str]
    ) -> Dict[str, tuple[CorrelationLink, ...]]:
        config = self.config
        by_app = training.functions_by_app()
        by_owner = training.functions_by_owner()
        position = {fid: i for i, fid in enumerate(training.function_ids)}
        links: Dict[str, tuple[CorrelationLink, ...]] = {}

        for target_id in targets:
            record = training.record(target_id)
            target = training.row(target_id)[0]
            if not target.size:
                continue

            candidates = set(by_app.get(record.app_id, ()))
            candidates.update(by_owner.get(record.owner_id, ()))
            candidates.discard(target_id)
            if not candidates:
                continue
            # Prefer the most active candidates, ties in record order (not
            # in the set's hash order); cap the search to keep the offline
            # phase tractable on large owner groups.
            ranked = sorted(
                candidates,
                key=lambda fid: (-training.total_invocations(fid), position[fid]),
            )[: config.online_corr_max_candidates]

            found: List[CorrelationLink] = []
            for candidate_id in ranked:
                candidate = training.row(candidate_id)[0]
                if not candidate.size:
                    continue
                cor, lag = best_lagged_cor(target, candidate, config.tcor_max_lag)
                if cor < config.tcor_threshold:
                    continue
                # Precision: the share of the candidate's fires followed by
                # the target within the lag window.  A very frequent
                # function trivially reaches a high T-lagged COR for any
                # target, but is a useful pre-warming signal only when
                # enough of its own fires actually precede the target.
                hits = window_hits(candidate, target, 0, config.tcor_max_lag)
                precision = int(np.count_nonzero(hits)) / candidate.size
                if precision < config.correlation_precision_threshold:
                    continue
                found.append(
                    CorrelationLink(predictor_id=candidate_id, lag=lag, cor=cor)
                )
            if found:
                found.sort(key=lambda link: link.cor, reverse=True)
                links[target_id] = tuple(found[:5])
        return links

    # ------------------------------------------------------------------ #
    # Step 4: indeterminate assignment with validation
    # ------------------------------------------------------------------ #
    def _assign_indeterminate(
        self,
        function_id: str,
        training: Trace,
        validation_window: Trace,
        summary: InvocationSummary,
        links: tuple[CorrelationLink, ...],
    ) -> FunctionProfile:
        config = self.config
        validation = validation_window.series(function_id)

        outcomes: Dict[FunctionCategory, StrategyOutcome] = {}
        outcomes[FunctionCategory.PULSED] = evaluate_pulsed_strategy(
            validation, config.theta_givenup(FunctionCategory.PULSED)
        )

        possible_values = possible_predictive_values(summary.waiting_times, config)
        if not possible_values.is_empty:
            outcomes[FunctionCategory.POSSIBLE] = evaluate_possible_strategy(
                validation,
                possible_values,
                config.theta_prewarm,
                config.theta_givenup(FunctionCategory.POSSIBLE),
            )

        if links:
            predictor_series = [
                (validation_window.series(link.predictor_id), link.lag)
                for link in links
            ]
            outcomes[FunctionCategory.CORRELATED] = evaluate_correlated_strategy(
                validation,
                predictor_series,
                config.correlated_prewarm_window,
                config.theta_givenup(FunctionCategory.CORRELATED),
            )

        category = choose_indeterminate_category(outcomes, config.alpha)
        if category == FunctionCategory.POSSIBLE:
            predictive = possible_values
            kept_links: tuple[CorrelationLink, ...] = ()
        elif category == FunctionCategory.CORRELATED:
            predictive = PredictiveValues.none()
            kept_links = links
        else:
            predictive = PredictiveValues.none()
            kept_links = ()

        outcome = outcomes[category]
        detail = (
            f"validated {category.value}: {outcome.cold_starts} cold starts, "
            f"{outcome.wasted_memory} wasted minutes"
        )
        return self._profile_from(
            function_id,
            training,
            category,
            predictive,
            summary,
            links=kept_links,
            detail=detail,
        )

    # ------------------------------------------------------------------ #
    def _profile_from(
        self,
        function_id: str,
        training: Trace,
        category: FunctionCategory,
        predictive: PredictiveValues,
        summary: InvocationSummary,
        links: tuple[CorrelationLink, ...] = (),
        detail: str = "",
    ) -> FunctionProfile:
        record = training.record(function_id)
        waiting = np.asarray(summary.waiting_times, dtype=float)
        return FunctionProfile(
            function_id=function_id,
            category=category,
            predictive=predictive,
            links=links,
            offline_wt_median=float(np.median(waiting)) if waiting.size else 0.0,
            offline_wt_std=float(waiting.std(ddof=0)) if waiting.size else 0.0,
            trigger=record.trigger,
            app_id=record.app_id,
            owner_id=record.owner_id,
            detail=detail,
        )
