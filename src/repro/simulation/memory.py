"""Memory accounting: wasted memory time, usage and effective consumption.

The accounting rules follow §II-B and §V-A of the paper:

* every loaded function instance occupies one memory unit for the minute;
* *wasted memory time* (WMT) accrues one unit for every minute a function's
  image is resident while the function is not invoked;
* the *effective memory consumption ratio* (EMCR) is the fraction of loaded
  instance-minutes that actually served an invocation.

The unit-denominated series above are always collected.  When the simulator
runs in *MB mode* (``memory_mode="mb"``), a parallel set of
footprint-weighted series is collected alongside them: every loaded instance
is weighed by its measured footprint (``FunctionRecord.memory_mb``, joined
from the Azure dataset's ``app_memory_percentiles`` files), quantized to
integer kilobytes so per-minute sums, WMT and EMCR stay exact integers —
which is what makes sharded-vs-unsharded merges bit-identical and keeps
every aggregate NaN-free even when no function carries a measured footprint.
Functions without a footprint fall back to :data:`DEFAULT_MEMORY_MB`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.traces.schema import FunctionRecord

#: Fallback footprint (MB) for functions without a measured memory join —
#: the dataset's memory family covers fewer apps than the invocation files.
#: 128 MB is the long-standing FaaS default allocation size.
DEFAULT_MEMORY_MB = 128.0


def footprint_kb_vector(records: Sequence[FunctionRecord]) -> np.ndarray:
    """Per-function footprints in integer kilobytes, in record order.

    Measured footprints quantize to ``round(memory_mb * 1024)`` KB; functions
    without one get :data:`DEFAULT_MEMORY_MB`.  Integer KB is the working
    unit of all MB-mode accounting: exact sums, exact shard merges.
    """
    return np.array(
        [
            round(
                1024
                * (
                    record.memory_mb
                    if record.memory_mb is not None
                    else DEFAULT_MEMORY_MB
                )
            )
            for record in records
        ],
        dtype=np.int64,
    )


class MemoryAccountant:
    """Accumulates per-minute memory statistics during a simulation run.

    Parameters
    ----------
    duration:
        Number of minutes the simulation will run for (used to pre-allocate
        the per-minute usage series).
    """

    def __init__(self, duration: int) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._duration = duration
        self._usage = np.zeros(duration, dtype=np.int64)
        self._idle = np.zeros(duration, dtype=np.int64)
        self._node_usage: np.ndarray | None = None
        self._wmt_per_function: Dict[str, int] = {}
        self._loaded_instance_minutes = 0
        self._active_instance_minutes = 0
        # Footprint-weighted (integer-KB) channels; populated only when the
        # engine runs in MB mode, None otherwise.
        self._usage_kb: np.ndarray | None = None
        self._idle_kb: np.ndarray | None = None

    def observe_batch(
        self,
        usage: np.ndarray,
        idle: np.ndarray,
        wmt_per_function: Mapping[str, int],
        node_usage: np.ndarray | None = None,
        usage_kb: np.ndarray | None = None,
        idle_kb: np.ndarray | None = None,
    ) -> None:
        """Charge a whole run's memory statistics in one call.

        The simulation engine accumulates per-minute usage/idle series and
        per-function wasted memory time as numpy arrays and hands them over
        once, instead of charging every simulated minute with Python sets
        and dicts.  The per-minute form is kept in ``tests/reference_engine.py``
        (``MinuteAccountant.observe_minute``); charging one run either way
        yields identical aggregates.

        Parameters
        ----------
        usage:
            Per-minute number of loaded instances, length ``duration``.
        idle:
            Per-minute number of loaded-but-idle instances, length
            ``duration``.
        wmt_per_function:
            Total idle minutes attributed to each function; must sum to
            ``idle.sum()``.
        node_usage:
            Optional per-minute loaded units per node, shape
            ``(duration, n_nodes)`` — recorded by capacity-constrained runs
            (see :mod:`repro.simulation.cluster`).
        usage_kb / idle_kb:
            Optional footprint-weighted equivalents of ``usage``/``idle`` in
            integer kilobytes (MB-mode runs weigh every loaded instance by
            its measured footprint; see :func:`footprint_kb_vector`).  Both
            must be given together.
        """
        usage = np.asarray(usage, dtype=np.int64)
        idle = np.asarray(idle, dtype=np.int64)
        if usage.shape != (self._duration,) or idle.shape != (self._duration,):
            raise ValueError(
                f"usage/idle series must have length {self._duration}, "
                f"got {usage.shape} and {idle.shape}"
            )
        if (idle > usage).any():
            raise ValueError("idle instances cannot exceed loaded instances")
        if node_usage is not None:
            node_usage = np.asarray(node_usage, dtype=np.int64)
            if node_usage.ndim != 2 or node_usage.shape[0] != self._duration:
                raise ValueError(
                    f"node_usage must have shape (duration, n_nodes), got {node_usage.shape}"
                )
            self._node_usage = node_usage
        if (usage_kb is None) != (idle_kb is None):
            raise ValueError("usage_kb and idle_kb must be given together")
        if usage_kb is not None and idle_kb is not None:
            usage_kb = np.asarray(usage_kb, dtype=np.int64)
            idle_kb = np.asarray(idle_kb, dtype=np.int64)
            if usage_kb.shape != (self._duration,) or idle_kb.shape != (
                self._duration,
            ):
                raise ValueError(
                    f"usage_kb/idle_kb series must have length {self._duration}, "
                    f"got {usage_kb.shape} and {idle_kb.shape}"
                )
            if (idle_kb > usage_kb).any():
                raise ValueError("idle kilobytes cannot exceed loaded kilobytes")
            if self._usage_kb is None:
                self._usage_kb = np.zeros(self._duration, dtype=np.int64)
                self._idle_kb = np.zeros(self._duration, dtype=np.int64)
            self._usage_kb += usage_kb
            self._idle_kb += idle_kb
        self._usage += usage
        self._idle += idle
        self._loaded_instance_minutes += int(usage.sum())
        self._active_instance_minutes += int((usage - idle).sum())
        for function_id, wasted in wmt_per_function.items():
            if wasted:
                self._wmt_per_function[function_id] = (
                    self._wmt_per_function.get(function_id, 0) + int(wasted)
                )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def usage_series(self) -> np.ndarray:
        """Per-minute number of loaded instances."""
        view = self._usage.view()
        view.flags.writeable = False
        return view

    @property
    def idle_series(self) -> np.ndarray:
        """Per-minute number of loaded-but-idle instances."""
        view = self._idle.view()
        view.flags.writeable = False
        return view

    @property
    def node_usage_series(self) -> np.ndarray | None:
        """Per-minute loaded units per node, or ``None`` for uncapped runs."""
        if self._node_usage is None:
            return None
        view = self._node_usage.view()
        view.flags.writeable = False
        return view

    @property
    def wasted_memory_time(self) -> int:
        """Total wasted memory time (idle instance-minutes) over the run."""
        return int(self._idle.sum())

    @property
    def wmt_per_function(self) -> Dict[str, int]:
        """Wasted memory time attributed to each function."""
        return dict(self._wmt_per_function)

    @property
    def average_memory_usage(self) -> float:
        """Mean number of loaded instances per minute."""
        return float(self._usage.mean()) if self._duration else 0.0

    @property
    def peak_memory_usage(self) -> int:
        """Maximum number of instances loaded in any single minute."""
        return int(self._usage.max()) if self._duration else 0

    @property
    def effective_memory_consumption_ratio(self) -> float:
        """Fraction of loaded instance-minutes that served an invocation (EMCR)."""
        if self._loaded_instance_minutes == 0:
            return 0.0
        return self._active_instance_minutes / self._loaded_instance_minutes

    # ------------------------------------------------------------------ #
    # Footprint-weighted (MB-mode) aggregates
    # ------------------------------------------------------------------ #
    @property
    def usage_kb_series(self) -> np.ndarray | None:
        """Per-minute loaded kilobytes, or ``None`` outside MB mode."""
        if self._usage_kb is None:
            return None
        view = self._usage_kb.view()
        view.flags.writeable = False
        return view

    @property
    def wasted_memory_kb_minutes(self) -> int:
        """Total idle KB-minutes over the run (0 outside MB mode)."""
        if self._idle_kb is None:
            return 0
        return int(self._idle_kb.sum())

    @property
    def effective_memory_consumption_ratio_mb(self) -> float:
        """EMCR weighted by measured footprints (0.0 outside MB mode).

        Derived from the two integer KB totals, so merging shard results and
        re-dividing reproduces this value exactly, and an empty run (or an
        entirely missed memory join) yields 0.0, never NaN.
        """
        if self._usage_kb is None or self._idle_kb is None:
            return 0.0
        loaded = int(self._usage_kb.sum())
        if loaded == 0:
            return 0.0
        return (loaded - int(self._idle_kb.sum())) / loaded
