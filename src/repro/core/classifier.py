"""Deterministic function categorization (§IV-A, Table I).

The classifier evaluates the five deterministic definitions in priority order
(*always warm*, *regular*, *appro-regular*, *dense*, *successive*): a function
matching an earlier definition is never tested against later ones.  The
"regular" check is retried on progressively slacked waiting-time sequences
(boundary trimming, small-WT merging) before moving on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.predictive import PredictiveValues
from repro.core.sequences import InvocationSummary
from repro.core.slacking import apply_slacking_pipeline


@dataclass(frozen=True)
class CategoryDecision:
    """Outcome of categorizing one function.

    Attributes
    ----------
    category:
        The assigned category.
    predictive:
        The predictive values attached to the category (may be empty).
    detail:
        Short human-readable explanation of why the definition matched, used
        in analysis output and tests.
    """

    category: FunctionCategory
    predictive: PredictiveValues
    detail: str = ""


class DeterministicClassifier:
    """Evaluates the five deterministic category definitions of Table I."""

    def __init__(self, config: SpesConfig | None = None) -> None:
        self.config = config or SpesConfig()

    # ------------------------------------------------------------------ #
    def classify(self, summary: InvocationSummary) -> CategoryDecision | None:
        """Return the deterministic category of a function, or None.

        ``None`` means the function matches no deterministic definition and
        must go through the indeterminate assignment of §IV-B.
        """
        if not summary.has_invocations:
            return None
        if summary.invoked_slots < self.config.min_invocations:
            return None

        checks = (
            self._check_always_warm,
            self._check_regular,
            self._check_appro_regular,
            self._check_dense,
            self._check_successive,
        )
        for check in checks:
            decision = check(summary)
            if decision is not None:
                return decision
        return None

    # ------------------------------------------------------------------ #
    # Individual definitions, in priority order
    # ------------------------------------------------------------------ #
    def _check_always_warm(self, summary: InvocationSummary) -> CategoryDecision | None:
        if summary.invoked_every_slot:
            return CategoryDecision(
                FunctionCategory.ALWAYS_WARM,
                PredictiveValues.none(),
                "invoked at every sampling slot",
            )
        idle_budget = summary.total_slots * self.config.always_warm_idle_fraction
        if summary.inter_invocation_idle <= idle_budget:
            return CategoryDecision(
                FunctionCategory.ALWAYS_WARM,
                PredictiveValues.none(),
                f"inter-invocation idle {summary.inter_invocation_idle} <= "
                f"{idle_budget:.2f} slots",
            )
        return None

    def _check_regular(self, summary: InvocationSummary) -> CategoryDecision | None:
        waiting_times = summary.waiting_times
        if len(waiting_times) < self.config.min_waiting_times:
            return None
        for variant in apply_slacking_pipeline(waiting_times):
            if len(variant) < self.config.min_waiting_times:
                continue
            if self._is_regular(variant):
                median = int(round(float(np.median(np.asarray(variant, dtype=float)))))
                median = max(median, 1)
                return CategoryDecision(
                    FunctionCategory.REGULAR,
                    PredictiveValues.from_discrete([median]),
                    f"regular on {len(variant)} WTs (median {median})",
                )
        return None

    def _is_regular(self, waiting_times: tuple[int, ...]) -> bool:
        values = np.asarray(waiting_times, dtype=float)
        low, high = np.percentile(values, [5, 95])
        spread = float(high - low)
        if spread <= self.config.regular_percentile_spread:
            return True
        mean = values.mean()
        if mean == 0:
            return True
        cv = float(values.std(ddof=0) / mean)
        return cv <= self.config.regular_cv_threshold

    def _check_appro_regular(self, summary: InvocationSummary) -> CategoryDecision | None:
        waiting_times = summary.waiting_times
        if len(waiting_times) < self.config.min_waiting_times:
            return None
        modes = summary.waiting_time_modes(self.config.appro_regular_n_modes)
        if not modes:
            return None
        coverage = sum(count for _value, count in modes)
        required = self.config.appro_regular_mode_coverage * len(waiting_times)
        if coverage >= required:
            values = [value for value, _count in modes]
            return CategoryDecision(
                FunctionCategory.APPRO_REGULAR,
                PredictiveValues.from_discrete(values),
                f"top-{len(modes)} modes cover {coverage}/{len(waiting_times)} WTs",
            )
        return None

    def _check_dense(self, summary: InvocationSummary) -> CategoryDecision | None:
        waiting_times = summary.waiting_times
        if len(waiting_times) < self.config.min_waiting_times:
            return None
        p90 = summary.waiting_time_percentile(90.0)
        if p90 > self.config.dense_p90_threshold:
            return None
        modes = summary.waiting_time_modes(self.config.dense_k_modes)
        values = [value for value, _count in modes] or list(waiting_times)
        return CategoryDecision(
            FunctionCategory.DENSE,
            PredictiveValues.from_range(min(values), max(values)),
            f"P90(WT) = {p90:.1f} <= {self.config.dense_p90_threshold}",
        )

    def _check_successive(self, summary: InvocationSummary) -> CategoryDecision | None:
        if not summary.active_times:
            return None
        # A single active run with no waiting time carries no evidence of
        # repeated bursts; require at least two runs.
        if len(summary.active_times) < 2:
            return None
        min_active_time = min(summary.active_times)
        min_active_number = min(summary.active_numbers)
        if (
            min_active_time >= self.config.successive_gamma1
            or min_active_number >= self.config.successive_gamma2
        ):
            return CategoryDecision(
                FunctionCategory.SUCCESSIVE,
                PredictiveValues.none(),
                f"min(AT)={min_active_time}, min(AN)={min_active_number}",
            )
        return None
