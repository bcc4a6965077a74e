"""Configuration of SPES: every threshold, window and ablation switch.

Default values follow §IV and §V-A of the paper: ``theta_prewarm = 2``
minutes, ``theta_givenup`` of 5 minutes for the *dense* and *pulsed*
categories and 1 minute otherwise, a T-lagged co-occurrence threshold of 0.5
with lags up to 10 minutes, and the category-definition constants of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.categories import FunctionCategory
from repro.traces.schema import MINUTES_PER_DAY


@dataclass
class SpesConfig:
    """All tunable parameters of SPES.

    Categorization thresholds (§IV-A / Table I)
    -------------------------------------------
    always_warm_idle_fraction:
        A function is *always warm* when its total inter-invocation idle time
        is at most this fraction of the observation window (one thousandth in
        the paper), or when it is invoked at every slot.
    regular_percentile_spread:
        A function is *regular* when P95(WT) - P5(WT) is at most this value.
    regular_cv_threshold:
        ... or when the coefficient of variation of its WTs is at most this.
    appro_regular_n_modes:
        Number of leading WT modes considered for the *appro-regular* check.
    appro_regular_mode_coverage:
        The leading modes must cover at least this fraction of the WT
        sequence for the function to be *appro-regular*.
    dense_p90_threshold:
        A function is *dense* when the 90th percentile of its WTs is at most
        this small constant (minutes).
    dense_k_modes:
        Number of leading WT modes whose range forms the dense predictive
        interval.
    successive_gamma1 / successive_gamma2:
        Lower bounds on min(AT) and min(AN) for the *successive* category
        (``gamma1 < gamma2``).
    min_waiting_times:
        Minimum number of WT samples before the regular / appro-regular /
        dense definitions are evaluated.
    min_invocations:
        Minimum number of invoked minutes before any deterministic definition
        is evaluated.

    Indeterminate assignment (§IV-B)
    --------------------------------
    tcor_threshold:
        Minimum T-lagged co-occurrence rate for two functions to be linked.
    tcor_max_lag:
        Maximum lag T (minutes) explored for the T-lagged COR.
    correlation_precision_threshold:
        Minimum fraction of the *predictor's* invocations that must be
        followed by the target within the lag window; this filters out very
        frequent functions that would otherwise link to everything.
    negative_sample_size:
        Number of non-overlapping functions sampled when estimating the
        baseline COR in the empirical analysis.
    alpha:
        Scaling factor in (0, 1) trading cold starts against wasted memory
        when the validation winners disagree (see
        :func:`repro.core.indeterminate.choose_indeterminate_category`);
        larger values weigh cold starts more heavily.
    possible_min_mode_count:
        A WT value must appear at least this many times to become a
        *possible* predictive value (the paper requires "more than once").
    possible_range_threshold:
        If the spread of a possible function's predictive values exceeds this
        many minutes they are treated as discrete values; otherwise as a
        continuous range.
    validation_days:
        Length of the validation window (taken from the tail of the training
        trace) used to pick between the pulsed / correlated / possible
        strategies.
    forgetting_max_days:
        The forgetting strategy re-checks the deterministic definitions on
        suffixes of the training window, dropping up to ``floor(d / 2)`` of
        the oldest days; this caps how many suffixes are tried.

    Provisioning (§IV-D)
    --------------------
    theta_prewarm:
        Pre-load a function when a predicted invocation time falls within
        ``theta_prewarm`` minutes of the current time.
    theta_givenup_default:
        Evict a loaded function once its current waiting time reaches this
        value (used by every category without an override).
    theta_givenup_overrides:
        Per-category overrides of the give-up threshold; the paper uses 5
        minutes for *dense* and *pulsed*.
    correlated_prewarm_window:
        After a linked predictor fires, keep the correlated target loaded for
        its observed lag plus this slack.

    Adaptive strategies (§IV-C)
    ---------------------------
    adjusting_min_new_wts:
        Number of online WT samples required before predictive values are
        re-estimated.
    online_corr_max_candidates:
        Maximum number of same-trigger candidate predictors tracked for an
        unseen function.
    online_corr_drop_margin:
        A candidate is dropped when its COR falls this far below the current
        maximum COR among the candidates.
    online_corr_min_observations:
        Number of target invocations observed before candidates are pruned.
    online_corr_futility_fires:
        A candidate that has fired this many times without ever preceding the
        target is dropped even before the COR-based pruning kicks in, so a
        very frequent same-trigger function cannot keep an unseen target
        permanently pre-warmed.

    Ablation switches (RQ4)
    -----------------------
    enable_correlation / enable_online_correlation / enable_forgetting /
    enable_adjusting:
        Toggle the corresponding design; the RQ4 benchmarks flip these.
    """

    # --- categorization thresholds -------------------------------------- #
    always_warm_idle_fraction: float = 0.001
    regular_percentile_spread: float = 1.0
    regular_cv_threshold: float = 0.01
    appro_regular_n_modes: int = 3
    appro_regular_mode_coverage: float = 0.9
    dense_p90_threshold: float = 5.0
    dense_k_modes: int = 3
    successive_gamma1: int = 3
    successive_gamma2: int = 5
    min_waiting_times: int = 4
    min_invocations: int = 3

    # --- indeterminate assignment ---------------------------------------- #
    tcor_threshold: float = 0.5
    tcor_max_lag: int = 10
    correlation_precision_threshold: float = 0.3
    negative_sample_size: int = 50
    alpha: float = 0.5
    possible_min_mode_count: int = 2
    possible_range_threshold: int = 10
    validation_days: float = 2.0
    forgetting_max_days: int | None = None

    # --- provisioning ----------------------------------------------------- #
    theta_prewarm: int = 2
    theta_givenup_default: int = 1
    theta_givenup_overrides: Dict[FunctionCategory, int] = field(
        default_factory=lambda: {
            FunctionCategory.DENSE: 5,
            FunctionCategory.PULSED: 5,
        }
    )
    correlated_prewarm_window: int = 3

    # --- adaptive strategies ---------------------------------------------- #
    adjusting_min_new_wts: int = 5
    online_corr_max_candidates: int = 8
    online_corr_drop_margin: float = 0.3
    online_corr_min_observations: int = 3
    online_corr_futility_fires: int = 30

    # --- ablation switches -------------------------------------------------#
    enable_correlation: bool = True
    enable_online_correlation: bool = True
    enable_forgetting: bool = True
    enable_adjusting: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.always_warm_idle_fraction < 1:
            raise ValueError("always_warm_idle_fraction must be in (0, 1)")
        if self.regular_percentile_spread < 0:
            raise ValueError("regular_percentile_spread must be non-negative")
        if self.regular_cv_threshold < 0:
            raise ValueError("regular_cv_threshold must be non-negative")
        if self.appro_regular_n_modes < 1:
            raise ValueError("appro_regular_n_modes must be >= 1")
        if not 0 < self.appro_regular_mode_coverage <= 1:
            raise ValueError("appro_regular_mode_coverage must be in (0, 1]")
        if self.dense_p90_threshold <= 0:
            raise ValueError("dense_p90_threshold must be positive")
        if self.dense_k_modes < 1:
            raise ValueError("dense_k_modes must be >= 1")
        if not 0 < self.successive_gamma1 < self.successive_gamma2:
            raise ValueError("require 0 < successive_gamma1 < successive_gamma2")
        if self.min_waiting_times < 1:
            raise ValueError("min_waiting_times must be >= 1")
        if self.min_invocations < 1:
            raise ValueError("min_invocations must be >= 1")
        if not 0 < self.tcor_threshold <= 1:
            raise ValueError("tcor_threshold must be in (0, 1]")
        if self.tcor_max_lag < 0:
            raise ValueError("tcor_max_lag must be non-negative")
        if not 0 <= self.correlation_precision_threshold <= 1:
            raise ValueError("correlation_precision_threshold must be in [0, 1]")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.possible_min_mode_count < 2:
            raise ValueError("possible_min_mode_count must be >= 2")
        if self.possible_range_threshold < 1:
            raise ValueError("possible_range_threshold must be >= 1")
        if round(self.validation_days * MINUTES_PER_DAY) < 1:
            raise ValueError("validation_days must cover at least one minute")
        if self.theta_prewarm < 0:
            raise ValueError("theta_prewarm must be non-negative")
        if self.theta_givenup_default < 1:
            raise ValueError("theta_givenup_default must be >= 1")
        if any(value < 1 for value in self.theta_givenup_overrides.values()):
            raise ValueError("theta_givenup overrides must be >= 1")
        if self.correlated_prewarm_window < 1:
            raise ValueError("correlated_prewarm_window must be >= 1")
        if self.adjusting_min_new_wts < 1:
            raise ValueError("adjusting_min_new_wts must be >= 1")
        if self.online_corr_max_candidates < 1:
            raise ValueError("online_corr_max_candidates must be >= 1")
        if not 0 < self.online_corr_drop_margin < 1:
            raise ValueError("online_corr_drop_margin must be in (0, 1)")
        if self.online_corr_min_observations < 1:
            raise ValueError("online_corr_min_observations must be >= 1")
        if self.online_corr_futility_fires < 1:
            raise ValueError("online_corr_futility_fires must be >= 1")

    # ------------------------------------------------------------------ #
    def theta_givenup(self, category: FunctionCategory) -> int:
        """Give-up (eviction) threshold for a category."""
        return self.theta_givenup_overrides.get(category, self.theta_givenup_default)

    def scaled_givenup(self, scale: int) -> "SpesConfig":
        """Return a copy with every give-up threshold multiplied by ``scale``.

        This is the knob swept in Fig. 13(b).
        """
        if scale < 1:
            raise ValueError("scale must be >= 1")
        overrides = {
            category: value * scale
            for category, value in self.theta_givenup_overrides.items()
        }
        return self.replace(
            theta_givenup_default=self.theta_givenup_default * scale,
            theta_givenup_overrides=overrides,
        )

    def replace(self, **changes: object) -> "SpesConfig":
        """Return a copy of the configuration with the given fields replaced."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **changes)  # type: ignore[arg-type]
