"""Shared machinery for the hybrid histogram policies (Shahrad et al., ATC'20).

The hybrid policy tracks, per *unit* (a function for Hybrid-Function, an
application for Hybrid-Application), the distribution of idle times between
consecutive invocations.  When the distribution is representative it derives a
pre-warm window (head percentile) and a keep-alive window (tail percentile);
otherwise it falls back to a plain keep-alive equal to the histogram range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Set

import numpy as np

from repro.baselines.histogram import IdleTimeHistogram
from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import Trace


@dataclass
class _UnitState:
    """Online state tracked for one provisioning unit."""

    histogram: IdleTimeHistogram
    last_invocation: int | None = None
    members: Set[str] = field(default_factory=set)


class HybridHistogramPolicyBase(ProvisioningPolicy):
    """Common implementation of the hybrid histogram policy.

    Subclasses define the provisioning unit by overriding :meth:`unit_of`.

    Parameters
    ----------
    histogram_range_minutes:
        Bound of the idle-time histogram (4 hours in the original paper).
    head_percentile, tail_percentile:
        Percentiles defining the pre-warm and keep-alive windows.
    uncertain_keep_alive_minutes:
        Keep-alive applied to units whose histogram is not representative.
        The original policy keeps such units warm for the histogram range.
    min_samples:
        Minimum idle-time samples before a histogram is trusted.
    """

    name = "hybrid-base"

    def __init__(
        self,
        histogram_range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        uncertain_keep_alive_minutes: int | None = None,
        min_samples: int = 10,
    ) -> None:
        self.histogram_range_minutes = histogram_range_minutes
        self.head_percentile = head_percentile
        self.tail_percentile = tail_percentile
        self.uncertain_keep_alive_minutes = (
            histogram_range_minutes
            if uncertain_keep_alive_minutes is None
            else uncertain_keep_alive_minutes
        )
        self.min_samples = min_samples
        self._units: Dict[str, _UnitState] = {}
        self._unit_of_function: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Unit mapping
    # ------------------------------------------------------------------ #
    def unit_of(self, record: FunctionRecord) -> str:
        """Return the provisioning-unit key for a function (overridden by subclasses)."""
        raise NotImplementedError

    def _unit_for_id(self, function_id: str) -> str:
        unit = self._unit_of_function.get(function_id)
        if unit is None:
            # Function unseen at prepare time: treat it as its own unit.
            unit = function_id
            self._unit_of_function[function_id] = unit
        return unit

    def _state_for(self, unit: str) -> _UnitState:
        state = self._units.get(unit)
        if state is None:
            state = _UnitState(histogram=self._new_histogram())
            self._units[unit] = state
        return state

    def _new_histogram(self) -> IdleTimeHistogram:
        return IdleTimeHistogram(
            range_minutes=self.histogram_range_minutes,
            head_percentile=self.head_percentile,
            tail_percentile=self.tail_percentile,
            min_samples=self.min_samples,
        )

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        self._units = {}
        self._unit_of_function = {}
        for record in functions:
            unit = self.unit_of(record)
            self._unit_of_function[record.function_id] = unit
            state = self._state_for(unit)
            state.members.add(record.function_id)

        if training is None:
            return

        # Seed each unit's histogram with the idle times observed in training.
        unit_minutes: Dict[str, np.ndarray] = {}
        for record in functions:
            series = training.series(record.function_id) if record.function_id in training else None
            if series is None or not series.any():
                continue
            unit = self._unit_of_function[record.function_id]
            minutes = np.nonzero(series)[0]
            if unit in unit_minutes:
                unit_minutes[unit] = np.union1d(unit_minutes[unit], minutes)
            else:
                unit_minutes[unit] = minutes

        for unit, minutes in unit_minutes.items():
            if minutes.size < 2:
                continue
            self._units[unit].histogram.observe_many(np.diff(minutes))

    def reset(self) -> None:
        for state in self._units.values():
            state.last_invocation = None

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        invoked_units: Set[str] = set()
        for function_id in invocations:
            unit = self._unit_for_id(function_id)
            state = self._state_for(unit)
            state.members.add(function_id)
            invoked_units.add(unit)

        for unit in invoked_units:
            state = self._units[unit]
            if state.last_invocation is not None:
                idle = minute - state.last_invocation
                if idle > 0:
                    state.histogram.observe(idle)
            state.last_invocation = minute

        resident: Set[str] = set()
        for state in self._units.values():
            if state.last_invocation is None:
                continue
            if self._unit_resident_next_minute(minute, state):
                resident.update(state.members)
        return resident

    def _unit_resident_next_minute(self, minute: int, state: _UnitState) -> bool:
        """Decide whether the unit should be resident at the start of minute+1."""
        elapsed_next = (minute + 1) - state.last_invocation
        histogram = state.histogram
        if histogram.is_representative:
            prewarm, keep_alive = histogram.windows()
            if elapsed_next > keep_alive:
                return False
            if prewarm > 1 and elapsed_next < prewarm:
                return False
            return True
        return elapsed_next <= self.uncertain_keep_alive_minutes

    # ------------------------------------------------------------------ #
    # Introspection used by tests
    # ------------------------------------------------------------------ #
    def unit_histogram(self, unit: str) -> IdleTimeHistogram | None:
        """Return the histogram tracked for ``unit`` (or None if unknown)."""
        state = self._units.get(unit)
        return state.histogram if state is not None else None

    def unit_members(self, unit: str) -> Set[str]:
        """Return the function ids belonging to ``unit``."""
        state = self._units.get(unit)
        return set(state.members) if state is not None else set()
