"""Waiting-time / active-time / active-number extraction (§IV definitions).

Given a per-minute invocation-count series, the paper derives three
sequences:

* **Waiting time (WT)** -- the lengths of idle runs *between* two invocation
  runs.  Leading idle time (before the first invocation) and trailing idle
  time (after the last invocation) are not waiting times.
* **Active time (AT)** -- the lengths of the invocation runs.
* **Active number (AN)** -- the total invocation count within each run.

The paper's worked example, the sequence ``(28, 0, 12, 1, 0, 0, 0, 7)``,
yields ``WT = (1, 3)``, ``AT = (1, 2, 1)`` and ``AN = (28, 13, 7)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class InvocationSummary:
    """WT/AT/AN sequences plus a few convenience statistics for one function.

    Attributes
    ----------
    waiting_times:
        Idle-run lengths between invocation runs.
    active_times:
        Invocation-run lengths.
    active_numbers:
        Total invocations within each run.
    total_slots:
        Length of the underlying observation window (minutes).
    invoked_slots:
        Number of minutes with at least one invocation.
    total_invocations:
        Sum of all invocation counts.
    leading_idle:
        Idle minutes before the first invocation (not a waiting time).
    trailing_idle:
        Idle minutes after the last invocation (not a waiting time).
    """

    waiting_times: tuple[int, ...]
    active_times: tuple[int, ...]
    active_numbers: tuple[int, ...]
    total_slots: int
    invoked_slots: int
    total_invocations: int
    leading_idle: int
    trailing_idle: int

    # ------------------------------------------------------------------ #
    @property
    def has_invocations(self) -> bool:
        """True when the series contains at least one invocation."""
        return self.invoked_slots > 0

    @property
    def idle_slots(self) -> int:
        """Total idle minutes, including leading and trailing idle time."""
        return self.total_slots - self.invoked_slots

    @property
    def inter_invocation_idle(self) -> int:
        """Idle minutes strictly between invocation runs (sum of waiting times)."""
        return int(sum(self.waiting_times))

    @property
    def invoked_every_slot(self) -> bool:
        """True when every sampling slot contains an invocation."""
        return self.has_invocations and self.invoked_slots == self.total_slots

    # ------------------------------------------------------------------ #
    def waiting_time_modes(self, top_n: int, min_count: int = 1) -> list[tuple[int, int]]:
        """Return the ``top_n`` most frequent waiting-time values.

        Results are ``(value, count)`` pairs sorted by decreasing count and,
        for equal counts, by increasing value so the output is deterministic.
        Values with fewer than ``min_count`` occurrences are excluded.
        """
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        counter = Counter(self.waiting_times)
        eligible = [(value, count) for value, count in counter.items() if count >= min_count]
        eligible.sort(key=lambda item: (-item[1], item[0]))
        return eligible[:top_n]

    def waiting_time_percentile(self, percentile: float) -> float:
        """Percentile of the waiting-time sequence (0 when it is empty)."""
        if not self.waiting_times:
            return 0.0
        return float(np.percentile(np.asarray(self.waiting_times, dtype=float), percentile))

    def waiting_time_cv(self) -> float:
        """Coefficient of variation of the waiting times (0 for constant/empty WTs)."""
        if len(self.waiting_times) < 2:
            return 0.0
        values = np.asarray(self.waiting_times, dtype=float)
        mean = values.mean()
        if mean == 0:
            return 0.0
        return float(values.std(ddof=0) / mean)

    def waiting_time_median(self) -> float:
        """Median waiting time (0 when the sequence is empty)."""
        if not self.waiting_times:
            return 0.0
        return float(np.median(np.asarray(self.waiting_times, dtype=float)))


def extract_sequences(series: Sequence[int] | np.ndarray) -> InvocationSummary:
    """Extract WT/AT/AN sequences from a per-minute invocation-count series.

    Parameters
    ----------
    series:
        Non-negative per-minute invocation counts.

    Returns
    -------
    InvocationSummary
        The derived sequences and summary statistics.  A series with no
        invocations yields empty sequences.
    """
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

    invoked_indices = np.flatnonzero(invoked_mask)
    # A run ends wherever two consecutive invoked minutes are more than one
    # apart; the idle minutes in between are that boundary's waiting time.
    steps = np.diff(invoked_indices)
    breaks = np.flatnonzero(steps > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.append(breaks, invoked_indices.size - 1)
    first, last = int(invoked_indices[0]), int(invoked_indices[-1])

    return InvocationSummary(
        waiting_times=tuple((steps[breaks] - 1).tolist()),
        active_times=tuple(
            (invoked_indices[run_ends] - invoked_indices[run_starts] + 1).tolist()
        ),
        active_numbers=tuple(
            np.add.reduceat(counts[invoked_indices], run_starts).tolist()
        ),
        total_slots=total_slots,
        invoked_slots=invoked_slots,
        total_invocations=total_invocations,
        leading_idle=first,
        trailing_idle=total_slots - 1 - last,
    )
