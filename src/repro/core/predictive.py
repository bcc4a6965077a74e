"""Predictive values: how SPES forecasts a function's next invocation (§IV-D).

Each categorized function carries *predictive values* derived from its
waiting-time history:

* *regular* functions use the median waiting time (one discrete value);
* *appro-regular* functions use their leading waiting-time modes (several
  discrete values);
* *dense* functions use the continuous range spanned by their leading modes;
* *possible* functions use the waiting-time values that repeat, treated as
  discrete values when widely spread and as a continuous range otherwise.

Predicted invocation times are the last invocation time plus each predictive
value; the provision algorithm pre-loads a function when any predicted time
falls within ``theta_prewarm`` minutes of the current time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PredictiveValues:
    """Predicted waiting times until the next invocation.

    Attributes
    ----------
    discrete:
        Discrete waiting-time predictions (minutes since last invocation).
    window:
        Continuous prediction interval ``(low, high)`` in minutes since the
        last invocation, or ``None``.

    A function may carry both flavours empty (e.g. *always warm* and
    *successive* functions, whose provisioning does not rely on prediction).
    """

    discrete: tuple[int, ...] = ()
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if any(value < 0 for value in self.discrete):
            raise ValueError("discrete predictive values must be non-negative")
        if self.window is not None:
            low, high = self.window
            if low < 0 or high < low:
                raise ValueError("window must satisfy 0 <= low <= high")

    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls) -> "PredictiveValues":
        """Predictive values for categories that do not predict."""
        return cls()

    @classmethod
    def from_discrete(cls, values: Iterable[int]) -> "PredictiveValues":
        """Build discrete predictive values, de-duplicated and sorted."""
        unique = tuple(sorted({int(value) for value in values}))
        return cls(discrete=unique)

    @classmethod
    def from_range(cls, low: int, high: int) -> "PredictiveValues":
        """Build a continuous prediction window ``[low, high]``."""
        return cls(window=(int(low), int(high)))

    @classmethod
    def from_values_with_spread_rule(
        cls, values: Sequence[int], range_threshold: int
    ) -> "PredictiveValues":
        """Apply the paper's rule for *possible* functions.

        If the spread of the values exceeds ``range_threshold`` they are kept
        as discrete predictions; otherwise every integer inside their range is
        a plausible waiting time, so a continuous window is used.
        """
        if not values:
            return cls.none()
        low, high = min(values), max(values)
        if high - low > range_threshold:
            return cls.from_discrete(values)
        return cls.from_range(low, high)

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when no prediction is available."""
        return not self.discrete and self.window is None

    def predicted_times(self, last_invocation: int) -> list[tuple[int, int]]:
        """Absolute prediction intervals given the last invocation minute.

        Discrete values become degenerate intervals ``(t, t)``; the window (if
        any) becomes one wide interval.
        """
        intervals = [
            (last_invocation + value, last_invocation + value) for value in self.discrete
        ]
        if self.window is not None:
            low, high = self.window
            intervals.append((last_invocation + low, last_invocation + high))
        return intervals
