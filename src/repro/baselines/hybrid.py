"""The hybrid histogram policies of Shahrad et al. (ATC'20).

The hybrid policy tracks, per *unit* (a function for Hybrid-Function, an
application for Hybrid-Application), the distribution of idle times between
consecutive invocations.  When the distribution is representative it derives a
pre-warm window (head percentile) and a keep-alive window (tail percentile);
otherwise it falls back to a plain keep-alive equal to the histogram range.

* :class:`HybridApplicationPolicy` (HA in the paper) is the policy as
  originally proposed: all functions of an application are loaded and
  unloaded together, driven by the application's aggregate idle-time
  histogram.  Grouping reduces always-cold functions (a sibling's invocation
  keeps the whole app warm) but inflates memory usage, which is exactly the
  trade-off the paper's Fig. 9 shows.
* :class:`HybridFunctionPolicy` (HF) applies the identical design to
  individual functions, following the paper (and Defuse), which keeps memory
  usage lower at the cost of more always-cold functions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

import numpy as np

from repro.baselines.histogram import IdleTimeHistogram, IncrementalHistogram
from repro.simulation.vector_policy import NEVER_MINUTE, VectorizedPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace


@dataclass
class _UnitState:
    """Offline state tracked for one provisioning unit."""

    histogram: IncrementalHistogram
    members: Set[str] = field(default_factory=set)


class HybridHistogramPolicyBase(VectorizedPolicy):
    """Common implementation of the hybrid histogram policy.

    Subclasses define the provisioning unit by overriding :meth:`unit_of`.

    The offline phase maps functions to units and seeds each unit's
    :class:`~repro.baselines.histogram.IncrementalHistogram` from the
    training trace.  That histogram is the unit's only idle-time state; it
    persists across binds, resets and runs without ``prepare``.  Binding
    compiles the unit structure into arrays:

    * ``_function_unit`` maps every function index to a unit index, or is
      ``None`` when every function is its own unit (unit == function);
    * per-unit arrays hold the last invocation minute and the *effective*
      windows: the histogram's pre-warm and keep-alive windows when it is
      representative, ``(0, uncertain_keep_alive_minutes)`` otherwise,
      rewritten whenever a unit observes an idle time.

    A minute then costs: a Python loop over the (few) invoked units, each
    observing its idle time, which moves its histogram's two percentile
    cursors, and writing its effective windows; one vectorized residency
    decision over unit space; and, unless unit == function, one gather from
    unit space to function space.

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
    @abc.abstractmethod
    def unit_of(self, record: FunctionRecord) -> str:
        """Return the provisioning-unit key for a function."""

    def _state_for(self, unit: str) -> _UnitState:
        state = self._units.get(unit)
        if state is None:
            state = _UnitState(histogram=self._new_histogram())
            self._units[unit] = state
        return state

    def _new_histogram(self) -> IncrementalHistogram:
        return IncrementalHistogram(
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
            if record.function_id not in training:
                continue
            minutes, _ = training.row(record.function_id)
            if minutes.size == 0:
                continue
            unit = self._unit_of_function[record.function_id]
            if unit in unit_minutes:
                unit_minutes[unit] = np.union1d(unit_minutes[unit], minutes)
            else:
                unit_minutes[unit] = minutes

        for unit, minutes in unit_minutes.items():
            if minutes.size < 2:
                continue
            self._units[unit].histogram.observe_many(np.diff(minutes))

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        # Deterministic unit indexing: first appearance order over the
        # trace's function-index space.
        unit_index: dict[str, int] = {}
        function_unit = np.zeros(index.n_functions, dtype=np.int64)
        unit_states = []
        for position, function_id in enumerate(index.function_ids):
            unit = self._unit_of_function.get(function_id)
            if unit is None:
                # Function unseen at prepare time: its own unit.
                unit = function_id
                self._unit_of_function[function_id] = unit
            u = unit_index.get(unit)
            if u is None:
                u = len(unit_index)
                unit_index[unit] = u
                unit_states.append(self._state_for(unit))
            function_unit[position] = u

        n_units = len(unit_states)
        # Units are numbered in first-appearance order, so as many units as
        # functions means unit == function.
        self._function_unit = None if n_units == index.n_functions else function_unit
        self._unit_histograms = [state.histogram for state in unit_states]
        self._unit_last = np.full(n_units, NEVER_MINUTE, dtype=np.int64)
        self._unit_prewarm = np.zeros(n_units, dtype=np.int64)
        self._unit_keepalive = np.zeros(n_units, dtype=np.int64)
        for u, histogram in enumerate(self._unit_histograms):
            self._write_windows(u, histogram)

    def _write_windows(self, u: int, histogram: IncrementalHistogram) -> None:
        """Store unit ``u``'s effective windows from its histogram."""
        if histogram.is_representative:
            self._unit_prewarm[u], self._unit_keepalive[u] = histogram.windows()
        else:
            self._unit_prewarm[u] = 0
            self._unit_keepalive[u] = self.uncertain_keep_alive_minutes

    def reset(self) -> None:
        if self.is_bound:
            self._unit_last.fill(NEVER_MINUTE)

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if invoked.size:
            function_unit = self._function_unit
            if function_unit is None:
                units = invoked.tolist()
            else:
                # The (few) invoked units, deduplicated in first-seen order.
                units = dict.fromkeys(function_unit[invoked].tolist())
            last = self._unit_last
            histograms = self._unit_histograms
            for u in units:
                previous = int(last[u])
                if previous != NEVER_MINUTE and previous < minute:
                    histogram = histograms[u]
                    histogram.observe(minute - previous)
                    self._write_windows(u, histogram)
                last[u] = minute

        # A unit is resident at the start of minute+1 when the elapsed time
        # since its last invocation lies inside [pre-warm, keep-alive].  At
        # least one minute has elapsed since any invocation, so a pre-warm
        # window of 0 or 1 blocks nothing, and a never-invoked unit's elapsed
        # time (about 2**62) exceeds every keep-alive window.
        elapsed_next = (minute + 1) - self._unit_last
        resident_units = elapsed_next >= self._unit_prewarm
        resident_units &= elapsed_next <= self._unit_keepalive
        if self._function_unit is None:
            return resident_units
        return resident_units[self._function_unit]

    # ------------------------------------------------------------------ #
    # Introspection used by tests
    # ------------------------------------------------------------------ #
    def unit_histogram(self, unit: str) -> IdleTimeHistogram | None:
        """An :class:`IdleTimeHistogram` of ``unit``'s samples (None if unknown).

        Rebuilt from the unit's state on every call: a snapshot, not a view.
        """
        state = self._units.get(unit)
        return state.histogram.histogram() if state is not None else None

    def unit_members(self, unit: str) -> Set[str]:
        """Return the function ids the offline phase assigned to ``unit``."""
        state = self._units.get(unit)
        return set(state.members) if state is not None else set()


class HybridFunctionPolicy(HybridHistogramPolicyBase):
    """Hybrid histogram keep-alive / pre-warming, one unit per function."""

    name = "hybrid-function"
    #: Unit == function: every histogram and clock is function-local.
    shard_safe = True

    def unit_of(self, record: FunctionRecord) -> str:
        return record.function_id


class HybridApplicationPolicy(HybridHistogramPolicyBase):
    """Hybrid histogram keep-alive / pre-warming, one unit per application."""

    name = "hybrid-application"

    def unit_of(self, record: FunctionRecord) -> str:
        return record.app_id
