"""Per-function online state (the ``FState`` of Algorithm 1)."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import List

from repro.core.categories import FunctionCategory
from repro.core.predictive import PredictiveValues


@dataclass
class FunctionState:
    """Mutable online state tracked for one function during provisioning.

    Attributes
    ----------
    function_id:
        The function's id.
    category:
        Current category (may be promoted online by the adaptive strategies).
    predictive:
        Current predictive values (may be adjusted online).
    theta_prewarm:
        Pre-warm window applied to this function.
    theta_givenup:
        Idle threshold after which the instance is evicted.
    last_invocation:
        Minute of the most recent invocation, or ``None``.
    online_waiting_times:
        Waiting times observed during the online phase (used by adjusting),
        in arrival order.  The list is append-only; :attr:`sorted_waiting_times`
        keeps a sorted copy of it.
    invocation_count / cold_start_count:
        Online counters (used for reporting per-category statistics).
    offline_wt_median / offline_wt_std:
        Training-window statistics used to decide when the online behaviour
        has drifted far enough to adjust the predictive values.
    seen_in_training:
        False for functions that never appeared during training ("unseen").
    adjusted:
        True once the adjusting strategy has modified the predictive values.
    """

    function_id: str
    category: FunctionCategory
    predictive: PredictiveValues = field(default_factory=PredictiveValues.none)
    theta_prewarm: int = 2
    theta_givenup: int = 1
    last_invocation: int | None = None
    online_waiting_times: List[int] = field(default_factory=list)
    invocation_count: int = 0
    cold_start_count: int = 0
    offline_wt_median: float = 0.0
    offline_wt_std: float = 0.0
    seen_in_training: bool = True
    adjusted: bool = False
    #: Length of ``online_waiting_times`` at the last adjusting-strategy
    #: evaluation that left the state unmodified; lets the strategy skip
    #: re-deriving statistics until a new waiting time actually arrives.
    adjust_checked_wts: int = field(default=-1, repr=False, compare=False)
    #: Sorted copy of ``online_waiting_times``, kept by ``insort`` in
    #: :meth:`record_invocation` so the adjusting strategy reads its running
    #: median without re-sorting; see :attr:`sorted_waiting_times`.
    _sorted_wts: List[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._sorted_wts = sorted(self.online_waiting_times)

    @property
    def sorted_waiting_times(self) -> List[int]:
        """``online_waiting_times`` in ascending order (do not mutate).

        The copy is rebuilt whenever its length differs from the list's, so
        waiting times appended to ``online_waiting_times`` directly rather than
        through :meth:`record_invocation` are picked up too.
        """
        if len(self._sorted_wts) != len(self.online_waiting_times):
            self._sorted_wts = sorted(self.online_waiting_times)
        return self._sorted_wts

    # ------------------------------------------------------------------ #
    def record_invocation(self, minute: int, cold: bool) -> int | None:
        """Record an invocation at ``minute``; return the completed WT, if any.

        A waiting time is produced only when at least one idle minute
        separates this invocation from the previous one.
        """
        waiting_time: int | None = None
        if self.last_invocation is not None:
            gap = minute - self.last_invocation - 1
            if gap > 0:
                waiting_time = gap
                in_sync = len(self._sorted_wts) == len(self.online_waiting_times)
                self.online_waiting_times.append(gap)
                if in_sync:
                    insort(self._sorted_wts, gap)
        self.last_invocation = minute
        self.invocation_count += 1
        if cold:
            self.cold_start_count += 1
        return waiting_time

    @property
    def cold_start_rate(self) -> float:
        """Online cold-start rate of this function."""
        if self.invocation_count == 0:
            return 0.0
        return self.cold_start_count / self.invocation_count
