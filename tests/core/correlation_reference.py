"""Dense co-occurrence oracles: the per-minute code the CSR kernel replaced.

``repro.core.correlation`` measures co-occurrence over sorted minute arrays
with two ``searchsorted`` primitives.  The functions below are the dense
implementations it replaced, kept verbatim: they take full-duration count
series, build boolean masks per lag, and count forward-trigger hits with a
prefix sum.  ``forward_trigger_rate_reference`` is the older per-fire
``.any()`` loop that the prefix sum itself replaced.  Overlap and hit counts
are integers on every path, so kernel and oracles must return identical
floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_bool_mask(series: Sequence[int] | np.ndarray) -> np.ndarray:
    array = np.asarray(series)
    if array.ndim != 1:
        raise ValueError("invocation series must be one-dimensional")
    return array > 0


def co_occurrence_rate(
    target: Sequence[int] | np.ndarray,
    candidate: Sequence[int] | np.ndarray,
) -> float:
    """COR of ``candidate`` with respect to ``target`` (same-minute overlap).

    Returns 0 when the target has no invocations.
    """
    target_mask = _as_bool_mask(target)
    candidate_mask = _as_bool_mask(candidate)
    if target_mask.shape != candidate_mask.shape:
        raise ValueError("target and candidate series must have the same length")
    invoked = int(target_mask.sum())
    if invoked == 0:
        return 0.0
    overlap = int(np.logical_and(target_mask, candidate_mask).sum())
    return overlap / invoked


def lagged_co_occurrence_rate(
    target: Sequence[int] | np.ndarray,
    candidate: Sequence[int] | np.ndarray,
    lag: int,
) -> float:
    """T-lagged COR: fraction of target invocations preceded by the candidate.

    A target invocation at minute ``t`` co-occurs when the candidate was
    invoked at minute ``t - lag``.  ``lag = 0`` reduces to the plain COR.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    target_mask = _as_bool_mask(target)
    candidate_mask = _as_bool_mask(candidate)
    if target_mask.shape != candidate_mask.shape:
        raise ValueError("target and candidate series must have the same length")
    invoked = int(target_mask.sum())
    if invoked == 0:
        return 0.0
    if lag == 0:
        shifted = candidate_mask
    else:
        shifted = np.zeros_like(candidate_mask)
        shifted[lag:] = candidate_mask[:-lag]
    overlap = int(np.logical_and(target_mask, shifted).sum())
    return overlap / invoked


def best_lagged_cor(
    target: Sequence[int] | np.ndarray,
    candidate: Sequence[int] | np.ndarray,
    max_lag: int,
) -> tuple[float, int]:
    """Best T-lagged COR over lags ``0..max_lag`` and the lag achieving it.

    Ties break toward the smallest lag, so a same-minute co-occurrence is
    preferred over an equally strong lagged one.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    best_value = -1.0
    best_lag = 0
    for lag in range(max_lag + 1):
        value = lagged_co_occurrence_rate(target, candidate, lag)
        if value > best_value:
            best_value = value
            best_lag = lag
    return best_value, best_lag


def forward_trigger_rate(
    predictor: Sequence[int] | np.ndarray,
    target: Sequence[int] | np.ndarray,
    max_lag: int,
) -> float:
    """Fraction of predictor invocations followed by a target invocation within ``max_lag``.

    Used as a precision check when mining correlation links: a very frequent
    function trivially achieves a high T-lagged COR for any target, but it is
    only a useful pre-warming signal when a reasonable share of its own
    invocations actually precede the target.

    A fire at minute ``m`` is a hit when the target is invoked anywhere in
    ``m .. m + max_lag`` (clipped to the series); one integer prefix sum over
    the target mask counts every fire's window at once, so the rate is exact.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    predictor_mask = _as_bool_mask(predictor)
    target_mask = _as_bool_mask(target)
    if predictor_mask.shape != target_mask.shape:
        raise ValueError("predictor and target series must have the same length")
    fires = np.flatnonzero(predictor_mask)
    if fires.size == 0:
        return 0.0
    duration = target_mask.shape[0]
    prefix = np.zeros(duration + 1, dtype=np.int64)
    np.cumsum(target_mask, out=prefix[1:])
    ends = np.minimum(fires + (min(max_lag, duration) + 1), duration)
    hits = int(np.count_nonzero(prefix[ends] > prefix[fires]))
    return hits / fires.size


def forward_trigger_rate_reference(
    predictor: Sequence[int] | np.ndarray,
    target: Sequence[int] | np.ndarray,
    max_lag: int,
) -> float:
    """Per-fire window scan (the pre-vectorization code).

    Kept verbatim as the oracle for :func:`forward_trigger_rate`.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    predictor_mask = np.asarray(predictor) > 0
    target_mask = np.asarray(target) > 0
    if predictor_mask.shape != target_mask.shape:
        raise ValueError("predictor and target series must have the same length")
    fires = np.nonzero(predictor_mask)[0]
    if fires.size == 0:
        return 0.0
    duration = target_mask.shape[0]
    hits = 0
    for minute in fires:
        end = min(duration, int(minute) + max_lag + 1)
        if target_mask[int(minute) : end].any():
            hits += 1
    return hits / fires.size
