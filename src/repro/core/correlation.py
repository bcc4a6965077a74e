"""Co-occurrence kernel over sorted minute arrays (§III-B2, §IV-B2 D2).

Every co-occurrence question in the system -- SPES's T-lagged COR and link
precision, Defuse's dependency windows, the §III-B2 study and the
``correlation-aware`` placement groups -- asks whether one function fires
within a few minutes of another.  Each reads the invoked minutes of a
function, the ``minutes`` half of :meth:`~repro.traces.trace.Trace.row`:
strictly increasing and below the trace duration, so a window never needs
clipping to the trace end.  Two ``searchsorted`` primitives answer it:

* :func:`lagged_overlaps` -- for every lag ``0..L`` at once, how many target
  minutes ``t`` have a candidate minute at ``t - lag``;
* :func:`window_hits` -- which fires ``m`` have a target minute in
  ``[m + first, m + last]``.

For a target function *f* and a candidate *g*, the co-occurrence rate (COR)
is the fraction of *f*'s invoked minutes at which *g* is also invoked; the
T-lagged COR shifts *g* forward by ``lag`` minutes, measuring how well *g*'s
invocations *anticipate* *f*'s.
"""

from __future__ import annotations

import numpy as np


def lagged_overlaps(target: np.ndarray, candidate: np.ndarray, max_lag: int) -> np.ndarray:
    """Overlap counts of ``target`` with ``candidate`` shifted by every lag ``0..max_lag``.

    Entry ``k`` of the returned ``int64[max_lag + 1]`` counts the target
    minutes ``t`` with ``t - k`` in ``candidate``.  Two ``searchsorted``
    calls find each target minute's candidates in ``[t - max_lag, t]``; one
    ``bincount`` of the differences counts every lag in one pass.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    target = np.asarray(target, dtype=np.int64)
    candidate = np.asarray(candidate, dtype=np.int64)
    lo = candidate.searchsorted(target - max_lag, "left")
    counts = candidate.searchsorted(target, "right") - lo
    # Target minute i's in-window candidates are candidate[lo[i]:lo[i] + counts[i]].
    # Laid end to end with run i from flat position start_i, flat entry j
    # reads candidate[j + lo[i] - start_i].
    shift = (lo - (counts.cumsum() - counts)).repeat(counts)
    lags = target.repeat(counts) - candidate[shift + np.arange(shift.size)]
    return np.bincount(lags, minlength=max_lag + 1)


def window_hits(fires: np.ndarray, target: np.ndarray, first: int, last: int) -> np.ndarray:
    """Whether each fire ``m`` has a target minute in ``[m + first, m + last]``.

    Returns ``bool[fires.size]``; an empty window (``last < first``) never
    hits.  One ``searchsorted`` finds the first target minute at or after
    ``m + first``; the fire hits when that minute exists and is at most
    ``m + last``.
    """
    fires = np.asarray(fires, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    after = target.searchsorted(fires + first)
    hits = after < target.size
    hits[hits] = target[after[hits]] - fires[hits] <= last
    return hits


def co_occurrence_rate(target: np.ndarray, candidate: np.ndarray) -> float:
    """COR of ``candidate`` with respect to ``target`` (same-minute overlap).

    Returns 0 when the target has no invocations.
    """
    return best_lagged_cor(target, candidate, 0)[0]


def best_lagged_cor(
    target: np.ndarray, candidate: np.ndarray, max_lag: int
) -> tuple[float, int]:
    """Best T-lagged COR over lags ``0..max_lag`` and the lag achieving it.

    Ties break toward the smallest lag (``argmax`` keeps the first
    maximum), so a same-minute co-occurrence is preferred over an equally
    strong lagged one.  An empty target scores ``(0.0, 0)``.
    """
    overlaps = lagged_overlaps(target, candidate, max_lag)
    if len(target) == 0:
        return 0.0, 0
    lag = int(overlaps.argmax())
    return int(overlaps[lag]) / len(target), lag
