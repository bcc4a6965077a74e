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

Two forms hold the same histogram:

* :class:`IdleTimeHistogram` derives its windows from scratch, with one
  ``cumsum`` and ``searchsorted`` over its bins per query;
* :class:`IncrementalHistogram`, the per-unit state of the hybrid policies
  and Defuse, keeps both windows current as each idle time arrives: one
  cursor per percentile sits on the bin holding the percentile's rank and
  walks only as far as one observation moves that rank.  Its windows and
  trust test equal :class:`IdleTimeHistogram`'s after every observation.
"""

from __future__ import annotations

from math import ceil
from typing import Iterable

import numpy as np


def _rank_target(count: int, percentile: float) -> int:
    """1-based rank a percentile selects among ``count`` in-bounds samples.

    Shared by :class:`IdleTimeHistogram` and :class:`IncrementalHistogram`,
    so both search for the same targets.
    """
    return max(ceil(count * percentile / 100.0), 1)


def _check_parameters(
    range_minutes: int,
    head_percentile: float,
    tail_percentile: float,
    min_samples: int,
    max_oob_fraction: float,
) -> None:
    if range_minutes < 1:
        raise ValueError("range_minutes must be >= 1")
    if not 0 <= head_percentile <= tail_percentile <= 100:
        raise ValueError("percentiles must satisfy 0 <= head <= tail <= 100")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    if not 0 < max_oob_fraction <= 1:
        raise ValueError("max_oob_fraction must be in (0, 1]")


def _bin_counts(idle_times: Iterable[int], range_minutes: int) -> np.ndarray:
    """Counts per bin ``0..range_minutes``, then the out-of-bounds count.

    All or none: a negative idle time rejects the batch.
    """
    if not isinstance(idle_times, np.ndarray):
        idle_times = np.fromiter(idle_times, dtype=np.int64)
    idle = idle_times.astype(np.int64, copy=False)
    if idle.size and idle.min() < 0:
        raise ValueError("idle_minutes must be non-negative")
    # Every out-of-bounds idle time lands in one extra trailing bin.
    return np.bincount(np.minimum(idle, range_minutes + 1), minlength=range_minutes + 2)


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
        _check_parameters(
            range_minutes, head_percentile, tail_percentile, min_samples, max_oob_fraction
        )
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
        counts = _bin_counts(idle_times, self.range_minutes)
        self._bins += counts[:-1]
        self._oob += int(counts[-1])
        self._in_bounds += int(counts[:-1].sum())

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


class IncrementalHistogram:
    """Idle-time histogram whose windows stay current one observation at a time.

    It takes :class:`IdleTimeHistogram`'s parameters and gives the same
    :meth:`windows` and :attr:`is_representative` after every observation.
    The bins are a Python list.  The head and the tail percentile each keep
    a cursor ``[percentile, pos, below]``: ``pos`` is the bin holding the
    percentile's rank target ``t`` (:func:`_rank_target`) and ``below``
    counts the samples in the bins before it, so
    ``below < t <= below + bins[pos]``; ``pos == range_minutes + 1`` while
    the histogram is empty, where ``searchsorted`` of the cumulative bins
    puts ``t``.  An in-bounds observation adds its sample, counts it into
    ``below`` when it lands before a cursor, and walks the cursor to its new
    rank, usually zero or one bin; an out-of-bounds one only counts.
    :meth:`observe_many` places both cursors afresh with one ``cumsum`` and
    ``searchsorted``.
    """

    __slots__ = (
        "range_minutes",
        "head_percentile",
        "tail_percentile",
        "min_samples",
        "max_oob_fraction",
        "_bins",
        "_in_bounds",
        "_oob",
        "_cursors",
    )

    def __init__(
        self,
        range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        min_samples: int = 10,
        max_oob_fraction: float = 0.5,
    ) -> None:
        _check_parameters(
            range_minutes, head_percentile, tail_percentile, min_samples, max_oob_fraction
        )
        self.range_minutes = range_minutes
        self.head_percentile = head_percentile
        self.tail_percentile = tail_percentile
        self.min_samples = min_samples
        self.max_oob_fraction = max_oob_fraction
        self._bins = [0] * (range_minutes + 1)
        self._in_bounds = 0
        self._oob = 0
        self._cursors = [
            [percentile, range_minutes + 1, 0] for percentile in (head_percentile, tail_percentile)
        ]

    def observe(self, idle_minutes: int) -> None:
        """Record one idle time and walk both cursors to their new ranks."""
        last = self.range_minutes
        if idle_minutes > last:
            self._oob += 1
            return
        if idle_minutes < 0:
            raise ValueError("idle_minutes must be non-negative")
        bins = self._bins
        bins[idle_minutes] += 1
        count = self._in_bounds = self._in_bounds + 1
        for cursor in self._cursors:
            percentile, pos, below = cursor
            if idle_minutes < pos:
                below += 1
            # _rank_target's expression, inlined on this hot path (ceil is
            # non-negative, so `or 1` is the max with 1).
            target = ceil(count * percentile / 100.0) or 1
            while below >= target:
                pos -= 1
                below -= bins[pos]
            # target <= count: the walk stops at the last bin at the latest.
            while below + bins[pos] < target:
                below += bins[pos]
                pos += 1
            cursor[1] = pos
            cursor[2] = below

    def observe_many(self, idle_times: Iterable[int]) -> None:
        """Record several idle times (all or none: a negative one rejects the batch)."""
        counts = _bin_counts(idle_times, self.range_minutes)
        bins = counts[:-1]
        if self._in_bounds:
            bins += self._bins
        self._bins = bins.tolist()
        self._oob += int(counts[-1])
        cumulative = bins.cumsum()
        count = self._in_bounds = int(cumulative[-1])
        cursors = self._cursors
        targets = [_rank_target(count, percentile) for percentile, _, _ in cursors]
        for cursor, pos in zip(cursors, cumulative.searchsorted(targets).tolist()):
            cursor[1] = pos
            cursor[2] = int(cumulative[pos - 1]) if pos else 0

    #: The same trust test, over the same count and parameter attributes.
    is_representative = IdleTimeHistogram.is_representative

    def windows(self) -> tuple[int, int]:
        """``(prewarm_window, keep_alive_window)``, read off the cursors."""
        if not self._in_bounds:
            # Both cursors sit past the last bin: clamped to the range.
            return self.range_minutes, self.range_minutes
        # With a sample in the bins every rank falls on a bin; the keep-alive
        # is at least one minute.
        head, tail = self._cursors
        return head[1], tail[1] or 1

    def histogram(self) -> IdleTimeHistogram:
        """An :class:`IdleTimeHistogram` holding the same samples."""
        histogram = IdleTimeHistogram(
            range_minutes=self.range_minutes,
            head_percentile=self.head_percentile,
            tail_percentile=self.tail_percentile,
            min_samples=self.min_samples,
            max_oob_fraction=self.max_oob_fraction,
        )
        histogram._bins[:] = self._bins
        histogram._in_bounds = self._in_bounds
        histogram._oob = self._oob
        return histogram
