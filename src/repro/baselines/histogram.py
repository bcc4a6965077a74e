"""Idle-time histogram shared by the hybrid policies and Defuse.

Shahrad et al. (ATC'20) model each unit's (function's or application's)
*idle times* -- the gaps between consecutive invocations -- with a bounded
histogram (4 hours at one-minute resolution).  From the histogram they derive

* a *pre-warm window*: a conservative head percentile of the idle-time
  distribution; the instance is unloaded after execution and re-loaded this
  many minutes after the last invocation, and
* a *keep-alive window*: a tail percentile; the instance stays (or is kept)
  resident until this many minutes have elapsed since the last invocation.

A histogram is only trusted when it has enough samples and is not dominated
by out-of-bounds idle times; otherwise the policy falls back to a standard
keep-alive.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: Histograms per stacked ``cumsum`` in :func:`batched_windows`: bounds the
#: temporary arrays (a few MB at the default 240-minute range) when a whole
#: population's windows are derived at once.
_BATCH_ROWS = 4096


def _rank_target(count: int, percentile: float) -> int:
    """1-based rank a percentile selects among ``count`` in-bounds samples.

    Shared by :meth:`IdleTimeHistogram.windows` and :func:`batched_windows`,
    so both search for the same targets.
    """
    return max(math.ceil(count * percentile / 100.0), 1)


class IdleTimeHistogram:
    """Bounded idle-time histogram with percentile-based window extraction.

    Parameters
    ----------
    range_minutes:
        Histogram upper bound; idle times beyond it are counted as
        out-of-bounds (OOB).  Shahrad et al. use 4 hours (240 minutes).
    head_percentile:
        Percentile defining the pre-warm window.
    tail_percentile:
        Percentile defining the keep-alive window.
    min_samples:
        Minimum number of in-bounds samples before the histogram is trusted.
    max_oob_fraction:
        Maximum tolerated fraction of out-of-bounds samples.
    """

    def __init__(
        self,
        range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        min_samples: int = 10,
        max_oob_fraction: float = 0.5,
    ) -> None:
        if range_minutes < 1:
            raise ValueError("range_minutes must be >= 1")
        if not 0 <= head_percentile <= tail_percentile <= 100:
            raise ValueError("percentiles must satisfy 0 <= head <= tail <= 100")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0 < max_oob_fraction <= 1:
            raise ValueError("max_oob_fraction must be in (0, 1]")
        self.range_minutes = range_minutes
        self.head_percentile = head_percentile
        self.tail_percentile = tail_percentile
        self.min_samples = min_samples
        self.max_oob_fraction = max_oob_fraction
        self._bins = np.zeros(range_minutes + 1, dtype=np.int64)
        self._in_bounds = 0
        self._oob = 0

    # ------------------------------------------------------------------ #
    def observe(self, idle_minutes: int) -> None:
        """Record one idle time (gap between consecutive invocations)."""
        if idle_minutes < 0:
            raise ValueError("idle_minutes must be non-negative")
        if idle_minutes > self.range_minutes:
            self._oob += 1
        else:
            self._bins[idle_minutes] += 1
            self._in_bounds += 1

    def observe_many(self, idle_times: Iterable[int]) -> None:
        """Record several idle times (all or none: a negative one rejects the batch)."""
        if not isinstance(idle_times, np.ndarray):
            idle_times = np.fromiter(idle_times, dtype=np.int64)
        idle = idle_times.astype(np.int64, copy=False)
        if idle.size == 0:
            return
        if idle.min() < 0:
            raise ValueError("idle_minutes must be non-negative")
        # Every out-of-bounds idle time lands in one extra trailing bin.
        counts = np.bincount(
            np.minimum(idle, self.range_minutes + 1), minlength=self.range_minutes + 2
        )
        self._bins += counts[:-1]
        oob = int(counts[-1])
        self._oob += oob
        self._in_bounds += idle.size - oob

    # ------------------------------------------------------------------ #
    @property
    def in_bounds_count(self) -> int:
        """Number of recorded idle times within the histogram range."""
        return self._in_bounds

    @property
    def out_of_bounds_count(self) -> int:
        """Number of recorded idle times beyond the histogram range."""
        return self._oob

    @property
    def total_count(self) -> int:
        """Total number of recorded idle times."""
        return self._in_bounds + self._oob

    @property
    def is_representative(self) -> bool:
        """Whether the histogram has enough in-bounds data to be trusted."""
        total = self._in_bounds + self._oob
        if total == 0 or self._in_bounds < self.min_samples:
            return False
        return (self._oob / total) <= self.max_oob_fraction

    # ------------------------------------------------------------------ #
    def _percentiles(self, *percentiles: float) -> list[int]:
        """Several percentiles of the in-bounds idle times from one ``cumsum``."""
        count = self._in_bounds
        if count == 0:
            return [self.range_minutes] * len(percentiles)
        targets = [_rank_target(count, p) for p in percentiles]
        indices = self._bins.cumsum().searchsorted(targets).tolist()
        return [min(index, self.range_minutes) for index in indices]

    def percentile(self, percentile: float) -> int:
        """Return the requested percentile of the in-bounds idle times."""
        return self._percentiles(percentile)[0]

    def windows(self) -> tuple[int, int]:
        """``(prewarm_window, keep_alive_window)``, derived together."""
        prewarm, keep_alive = self._percentiles(self.head_percentile, self.tail_percentile)
        return prewarm, max(keep_alive, 1)

    @property
    def prewarm_window(self) -> int:
        """Minutes to wait after an invocation before re-loading the instance."""
        return self.windows()[0]

    @property
    def keep_alive_window(self) -> int:
        """Minutes after an invocation until the instance is evicted."""
        return self.windows()[1]

    def as_array(self) -> np.ndarray:
        """Copy of the histogram bins (index = idle minutes)."""
        return self._bins.copy()


def batched_windows(histograms: Sequence[IdleTimeHistogram]) -> List[Tuple[int, int]]:
    """``[h.windows() for h in histograms]``, from one ``cumsum`` per batch.

    The histograms must share ``range_minutes``; their percentiles may
    differ.  Their bins are laid end to end and summed with one ``cumsum``,
    which is non-decreasing across rows, so one ``searchsorted`` serves every
    row once a row's rank targets are raised by the samples of the rows
    before it.  A target never exceeds its row's in-bounds count unless the
    row is empty; an empty row's target of 1 then lands past the row's last
    bin, and the clamp to the range gives what
    :meth:`IdleTimeHistogram.windows` gives.
    """
    windows: List[Tuple[int, int]] = []
    if not histograms:
        return windows
    range_minutes = histograms[0].range_minutes
    width = range_minutes + 1
    for start in range(0, len(histograms), _BATCH_ROWS):
        batch = histograms[start : start + _BATCH_ROWS]
        cumulative = np.concatenate([h._bins for h in batch]).cumsum()
        targets: List[int] = []
        below = 0
        for histogram, end in zip(batch, cumulative[range_minutes::width].tolist()):
            if histogram.range_minutes != range_minutes:
                raise ValueError("batched histograms must share range_minutes")
            count = histogram._in_bounds
            targets.append(below + _rank_target(count, histogram.head_percentile))
            targets.append(below + _rank_target(count, histogram.tail_percentile))
            below = end
        positions = cumulative.searchsorted(targets).tolist()
        row_start = 0
        for head, tail in zip(positions[::2], positions[1::2]):
            keep_alive = min(tail - row_start, range_minutes)
            windows.append((min(head - row_start, range_minutes), max(keep_alive, 1)))
            row_start += width
    return windows
