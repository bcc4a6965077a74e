"""Indeterminate function assignment (§IV-B): pulsed, correlated, possible.

Functions that match none of the deterministic definitions are assigned one
of three supplementary strategies by *validating* each strategy on the tail
of the training window and picking the one with the best cold-start /
wasted-memory outcome:

* **D1 pulsed** -- tolerate a cold start at the head of each activity burst
  and keep the instance warm until it has been idle for a threshold.
* **D2 correlated** -- pre-warm the function whenever one of its linked
  predictor functions (high T-lagged COR, same application/user) fires.
* **D3 possible** -- use the waiting-time values that repeat as predictive
  values and pre-warm around the predicted times.

When one strategy wins on both metrics it is chosen outright; otherwise the
rise rates of the two winners are compared through the scaling factor
``alpha`` (§IV-B2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.predictive import PredictiveValues
from repro.core.sequences import extract_sequences


@dataclass(frozen=True)
class StrategyOutcome:
    """Cold starts and wasted memory a strategy incurs on the validation window."""

    cold_starts: int
    wasted_memory: int


@dataclass(frozen=True)
class CorrelationLink:
    """A predictive link: ``predictor`` anticipates the target by ``lag`` minutes."""

    predictor_id: str
    lag: int
    cor: float

    def __post_init__(self) -> None:
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        if not 0 <= self.cor <= 1:
            raise ValueError("cor must be in [0, 1]")


# --------------------------------------------------------------------------- #
# Predictive values for the "possible" strategy
# --------------------------------------------------------------------------- #
def possible_predictive_values(
    waiting_times: Sequence[int], config: SpesConfig
) -> PredictiveValues:
    """Predictive values of a *possible* function: its repeated waiting times.

    Waiting-time values occurring at least ``possible_min_mode_count`` times
    become predictions; the spread rule of §IV-D decides whether they are
    treated as discrete values or as a continuous range.  Returns empty
    predictive values when nothing repeats.
    """
    counter = Counter(int(value) for value in waiting_times)
    repeated = [
        value
        for value, count in counter.items()
        if count >= config.possible_min_mode_count
    ]
    if not repeated:
        return PredictiveValues.none()
    return PredictiveValues.from_values_with_spread_rule(
        sorted(repeated), config.possible_range_threshold
    )


# --------------------------------------------------------------------------- #
# Per-strategy validation simulations
# --------------------------------------------------------------------------- #
def evaluate_pulsed_strategy(
    series: Sequence[int] | np.ndarray, theta_givenup: int
) -> StrategyOutcome:
    """Outcome of the pulsed strategy (keep-warm after each invocation) on ``series``.

    The first invocation is cold; each waiting time ``WT`` wastes
    ``min(WT, theta)`` minutes and ends in a cold start when ``WT >= theta``;
    the trailing idle time wastes ``min(trailing, theta)``.
    """
    summary = extract_sequences(series)
    if not summary.has_invocations:
        return StrategyOutcome(cold_starts=0, wasted_memory=0)
    waiting_times = np.asarray(summary.waiting_times, dtype=np.int64)
    return StrategyOutcome(
        cold_starts=1 + int(np.count_nonzero(waiting_times >= theta_givenup)),
        wasted_memory=int(np.minimum(waiting_times, theta_givenup).sum())
        + min(summary.trailing_idle, theta_givenup),
    )


def evaluate_possible_strategy(
    series: Sequence[int] | np.ndarray,
    predictive: PredictiveValues,
    theta_prewarm: int,
    theta_givenup: int,
) -> StrategyOutcome:
    """Outcome of prediction-driven pre-warming with the given predictive values.

    ``k`` minutes after an invocation the instance is resident when
    ``k <= theta_givenup`` or when ``k`` lies within ``theta_prewarm`` of a
    predicted waiting time, whatever happened earlier in the gap.  One
    residency profile over ``k`` therefore prices every gap: a waiting time
    ``WT`` wastes the profile's prefix sum up to ``WT`` and ends in a cold
    start when minute ``WT + 1`` is not resident.
    """
    summary = extract_sequences(series)
    if not summary.has_invocations:
        return StrategyOutcome(cold_starts=0, wasted_memory=0)
    waiting_times = np.asarray(summary.waiting_times, dtype=np.int64)
    resident = np.zeros(summary.total_slots + 2, dtype=bool)
    resident[1 : theta_givenup + 1] = True
    for low, high in predictive.predicted_times(0):
        resident[max(low - theta_prewarm, 1) : high + theta_prewarm + 1] = True
    wasted = np.cumsum(resident)
    return StrategyOutcome(
        cold_starts=1 + int(np.count_nonzero(~resident[waiting_times + 1])),
        wasted_memory=int(wasted[waiting_times].sum()) + int(wasted[summary.trailing_idle]),
    )


def evaluate_correlated_strategy(
    series: Sequence[int] | np.ndarray,
    predictor_series: Sequence[tuple[Sequence[int] | np.ndarray, int]],
    prewarm_window: int,
    theta_givenup: int,
) -> StrategyOutcome:
    """Simulate predictor-driven pre-warming.

    Parameters
    ----------
    series:
        Target invocation counts over the validation window.
    predictor_series:
        ``(counts, lag)`` pairs for each linked predictor; whenever a
        predictor fires at minute ``t``, the target is kept resident from
        ``t + 1`` through ``t + lag + prewarm_window``.
    prewarm_window:
        Slack added after the predicted arrival time.
    theta_givenup:
        Idle threshold applied after the target's own invocations.
    """
    counts = np.asarray(series, dtype=np.int64)
    duration = counts.shape[0]
    prewarm_mask = np.zeros(duration, dtype=bool)
    for predictor, lag in predictor_series:
        predictor_counts = np.asarray(predictor, dtype=np.int64)
        usable = min(predictor_counts.shape[0], duration)
        for minute in np.nonzero(predictor_counts[:usable])[0]:
            start = int(minute) + 1
            end = min(duration, int(minute) + lag + prewarm_window + 1)
            if start < end:
                prewarm_mask[start:end] = True

    resident = False
    idle = 0
    cold_starts = 0
    wasted = 0
    for minute, count in enumerate(counts):
        invoked = count > 0
        if invoked:
            if not resident:
                cold_starts += 1
            resident = True
            idle = 0
            continue
        if resident:
            wasted += 1
        idle += 1
        if prewarm_mask[minute]:
            resident = True
        elif idle >= theta_givenup:
            resident = False
    return StrategyOutcome(cold_starts=cold_starts, wasted_memory=wasted)


# --------------------------------------------------------------------------- #
# Choosing between the validated strategies
# --------------------------------------------------------------------------- #
def choose_indeterminate_category(
    outcomes: Mapping[FunctionCategory, StrategyOutcome], alpha: float
) -> FunctionCategory:
    """Pick the category whose strategy validated best (§IV-B2).

    A strategy winning on both cold starts and wasted memory is chosen
    outright.  Otherwise the cold-start winner ``A`` and the memory winner
    ``B`` are compared through their rise rates: picking ``B`` instead of
    ``A`` raises cold starts by ``delta_cs``; picking ``A`` instead of ``B``
    raises wasted memory by ``delta_wm``.  The two penalties are compared
    after scaling the cold-start penalty by ``alpha``: the cold-start winner
    is kept when ``alpha * delta_cs >= delta_wm`` (its memory overhead is
    justified by the cold starts it avoids), otherwise the memory winner
    prevails.  Larger ``alpha`` therefore weighs cold starts more heavily.

    .. note::
       The paper's §IV-B2 states the comparison with the opposite inequality
       while also stating that a *smaller* alpha favours cold starts; the two
       statements conflict, and the paper's own results (e.g. the high WMT
       ratio it accepts for "possible" functions in Fig. 12) match the
       penalty-comparison reading implemented here.
    """
    if not outcomes:
        raise ValueError("at least one strategy outcome is required")
    if len(outcomes) == 1:
        return next(iter(outcomes))

    by_cold = min(
        outcomes, key=lambda cat: (outcomes[cat].cold_starts, outcomes[cat].wasted_memory)
    )
    by_memory = min(
        outcomes, key=lambda cat: (outcomes[cat].wasted_memory, outcomes[cat].cold_starts)
    )
    if by_cold == by_memory:
        return by_cold

    cs_a = outcomes[by_cold].cold_starts
    cs_b = outcomes[by_memory].cold_starts
    wm_a = outcomes[by_cold].wasted_memory
    wm_b = outcomes[by_memory].wasted_memory

    delta_cs = (cs_b - cs_a) / max(cs_a, 1)
    delta_wm = (wm_a - wm_b) / max(wm_b, 1)
    if delta_cs * alpha >= delta_wm:
        return by_cold
    return by_memory
