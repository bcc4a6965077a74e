"""Per-minute replays of the offline validation, kept as the oracle.

``repro.core.sequences.extract_sequences`` derives its runs from the gaps
between invoked minutes, and ``repro.core.indeterminate`` evaluates the
pulsed and possible strategies in closed form over the waiting times.  These
are the minute-by-minute loops they replaced, verbatim apart from the
module: the closed forms must return identical summaries and outcomes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.indeterminate import StrategyOutcome
from repro.core.predictive import PredictiveValues
from repro.core.sequences import InvocationSummary

from dict_policies import prediction_matches


def extract_sequences(series: Sequence[int] | np.ndarray) -> InvocationSummary:
    """Extract WT/AT/AN sequences by walking every invoked minute."""
    counts = np.asarray(series, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if (counts < 0).any():
        raise ValueError("invocation counts must be non-negative")

    total_slots = int(counts.shape[0])
    invoked_mask = counts > 0
    invoked_slots = int(invoked_mask.sum())
    total_invocations = int(counts.sum())

    if invoked_slots == 0:
        return InvocationSummary(
            waiting_times=(),
            active_times=(),
            active_numbers=(),
            total_slots=total_slots,
            invoked_slots=0,
            total_invocations=0,
            leading_idle=total_slots,
            trailing_idle=0,
        )

    invoked_indices = np.nonzero(invoked_mask)[0]
    first, last = int(invoked_indices[0]), int(invoked_indices[-1])

    waiting_times: list[int] = []
    active_times: list[int] = []
    active_numbers: list[int] = []

    run_start = first
    previous = first
    run_total = int(counts[first])
    for index in invoked_indices[1:]:
        index = int(index)
        gap = index - previous - 1
        if gap > 0:
            active_times.append(previous - run_start + 1)
            active_numbers.append(run_total)
            waiting_times.append(gap)
            run_start = index
            run_total = int(counts[index])
        else:
            run_total += int(counts[index])
        previous = index
    active_times.append(previous - run_start + 1)
    active_numbers.append(run_total)

    return InvocationSummary(
        waiting_times=tuple(waiting_times),
        active_times=tuple(active_times),
        active_numbers=tuple(active_numbers),
        total_slots=total_slots,
        invoked_slots=invoked_slots,
        total_invocations=total_invocations,
        leading_idle=first,
        trailing_idle=total_slots - 1 - last,
    )


def evaluate_pulsed_strategy(
    series: Sequence[int] | np.ndarray, theta_givenup: int
) -> StrategyOutcome:
    """Simulate the pulsed strategy (keep-warm after each invocation) on ``series``."""
    counts = np.asarray(series, dtype=np.int64)
    resident = False
    idle = 0
    cold_starts = 0
    wasted = 0
    for count in counts:
        invoked = count > 0
        if invoked:
            if not resident:
                cold_starts += 1
            resident = True
            idle = 0
        else:
            if resident:
                wasted += 1
                idle += 1
                if idle >= theta_givenup:
                    resident = False
    return StrategyOutcome(cold_starts=cold_starts, wasted_memory=wasted)


def evaluate_possible_strategy(
    series: Sequence[int] | np.ndarray,
    predictive: PredictiveValues,
    theta_prewarm: int,
    theta_givenup: int,
) -> StrategyOutcome:
    """Simulate prediction-driven pre-warming with the given predictive values."""
    counts = np.asarray(series, dtype=np.int64)
    resident = False
    idle = 0
    cold_starts = 0
    wasted = 0
    last_invocation: int | None = None
    for minute, count in enumerate(counts):
        invoked = count > 0
        if invoked:
            if not resident:
                cold_starts += 1
            resident = True
            last_invocation = minute
            idle = 0
            continue
        if resident:
            wasted += 1
        idle += 1
        preload = (
            last_invocation is not None
            and not predictive.is_empty
            and prediction_matches(predictive, minute + 1, last_invocation, theta_prewarm)
        )
        if preload:
            resident = True
        elif idle >= theta_givenup:
            resident = False
    return StrategyOutcome(cold_starts=cold_starts, wasted_memory=wasted)
