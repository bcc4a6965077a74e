"""Sub-minute event layer: arrival timestamps, durations, latency tracking.

The paper's simulation (and the ``vectorized``/``reference`` engines) is
minute-bucketed: a cold start is a *count*, charged once per invoked minute a
function is not resident.  A production serving system optimizes a latency
*distribution* — how long requests actually waited on provisioning.  This
module supplies the engine's third temporal resolution:

* each minute bucket is expanded into timestamped **invocation events**
  (deterministic seeded arrival jitter inside the minute);
* every function carries a :class:`~repro.traces.schema.DurationProfile`
  (provisioning latency + execution duration), derived deterministically per
  function via :func:`~repro.traces.archetypes.duration_profile_for`;
* the first event of a non-resident function *initiates* provisioning and
  waits the full cold-start latency; events arriving while that provisioning
  is still in flight queue behind it and wait the residual; everything else
  is a warm hit.

The event layer is deliberately an **observer**, not a second accounting
implementation: :class:`EventTracker` hooks into the vectorized engine's
minute loop *after* cold starts are charged and *before* the policy decides
the next resident set.  Policies still run the unchanged
:class:`~repro.simulation.vector_policy.VectorizedPolicy` contract at minute
boundaries, and residency/memory/cluster accounting is byte-for-byte the
vectorized engine's — which is why an event run's
:meth:`~repro.simulation.results.SimulationResult.deterministic_fingerprint`
is *identical* to a vectorized run's.  What the event engine adds is the
:class:`~repro.simulation.results.LatencyStats` block: per-event cold-start
waits, capacity-attributed cold events (mid-minute arrivals hitting a slot
the cluster arbiter evicted at the previous boundary), and busy time.

With a :class:`~repro.simulation.scheduling.CpuConfig` the tracker models a
second queueing stage: after an event clears provisioning it must be
dispatched onto its node's finite core pool by a pluggable
:class:`~repro.simulation.scheduling.InvocationScheduler`, yielding per-event
CPU waits, *slowdown* (sojourn/service), and — with
:attr:`EventConfig.slo_ms` — SLO-violation counts.  The CPU stage is also an
observer: it never alters residency, counts, or the fingerprint, and when
``cpu`` is unset the stage is skipped entirely (no extra RNG draws, no
arithmetic), so pre-CPU latency pins stay byte-identical.

Determinism: arrival jitter comes from one :class:`numpy.random.Generator`
seeded by :attr:`EventConfig.seed` and consumed in a fixed order (minute
-major, CSR function order; under a ``CpuConfig``, each minute's cold draw is
followed by a warm-event draw), so a run is a pure function of ``(trace,
policy, config)``.  Changing the jitter seed changes *latencies only* — never
counts, never the fingerprint.
"""

from __future__ import annotations

import weakref
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro.simulation.results import LatencyStats
from repro.simulation.scheduling import CpuConfig, get_scheduler
from repro.traces.archetypes import (
    ARCHETYPE_DURATION_PROFILES,
    TRIGGER_DURATION_PROFILES,
    duration_profile_for,
)
from repro.traces.schema import DEFAULT_DURATION_PROFILE, DurationProfile
from repro.traces.trace import InvocationIndex, Trace

__all__ = [
    "EventConfig",
    "EventTracker",
    "LatencyWindow",
    "duration_profile_arrays",
    "expand_minute_offsets",
]

#: Seconds per simulated minute bucket.
SECONDS_PER_MINUTE = 60.0

#: Buffered CPU-stage events that trigger one batched scheduler call.  The
#: buffer is flushed only between minutes, so a call holds whole minutes;
#: larger buffers amortise little more and cost peak memory.
_CPU_FLUSH_EVENTS = 2048

#: Pool labels reserved per buffered minute: ``ordinal * _POOL_STRIDE +
#: node + 1`` keeps every ``(minute, node)`` pool distinct for any realistic
#: node count.
_POOL_STRIDE = 1 << 32


@dataclass(frozen=True)
class EventConfig:
    """Immutable configuration of the sub-minute event layer.

    Picklable and hashable-by-content (it participates in sweep cache keys),
    so one config can be shared across sweep cells and worker processes.

    Attributes
    ----------
    seed:
        Seed of the arrival-jitter stream.  Scenario builds derive it from
        the workload seed so event runs cache deterministically.
    cold_start_scale / execution_scale:
        Scenario-level multipliers applied on top of every function's
        duration profile (e.g. a flash-crowd scenario modelling a congested
        image registry scales provisioning up without touching the
        per-function spread).
    default_profile:
        Profile used when a function's record yields none.
    derive_profiles:
        When True (default), per-function profiles are derived from each
        function's archetype/trigger metadata via
        :func:`~repro.traces.archetypes.duration_profile_for`; when False,
        every function uses ``default_profile`` unchanged — the paper's
        uniform-latency assumption, useful for controlled tests.
    feedback_window_minutes:
        Length of the rolling latency window the ``event-feedback`` engine
        streams into the policy between minutes (ignored by the plain
        ``event`` engine, which never constructs a window).  The default of
        one hour covers the keep-alive horizons of every shipped policy.
    cpu:
        Optional :class:`~repro.simulation.scheduling.CpuConfig` enabling the
        intra-node CPU stage: every event queues for one of
        ``cpu.cores_per_node`` cores under the configured scheduler after
        clearing provisioning.  ``None`` (the default) models infinite cores
        — the CPU stage is skipped entirely and results are byte-identical
        to the pre-CPU event layer.
    slo_ms:
        Optional service-level objective on per-event *sojourn time*
        (provisioning wait + CPU wait + execution, in milliseconds); when
        set, every event is checked and violations counted in
        :attr:`~repro.simulation.results.LatencyStats.slo_violations`.
        Works with or without a ``cpu`` config (without one the CPU-wait
        term is zero).
    """

    seed: int = 0
    cold_start_scale: float = 1.0
    execution_scale: float = 1.0
    default_profile: DurationProfile = DEFAULT_DURATION_PROFILE
    derive_profiles: bool = True
    feedback_window_minutes: int = 60
    cpu: CpuConfig | None = None
    slo_ms: float | None = None

    def __post_init__(self) -> None:
        if self.cold_start_scale < 0 or self.execution_scale < 0:
            raise ValueError("scale factors must be non-negative")
        if self.feedback_window_minutes < 1:
            raise ValueError("feedback_window_minutes must be >= 1")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive when set")

    def profile_for(self, record) -> DurationProfile:
        """The effective duration profile of one function."""
        if self.derive_profiles:
            profile = duration_profile_for(record, base=self.default_profile)
        else:
            profile = self.default_profile
        if self.cold_start_scale != 1.0 or self.execution_scale != 1.0:
            profile = profile.scaled(
                cold_start=self.cold_start_scale, execution=self.execution_scale
            )
        return profile


# Derived (cold_ms, exec_ms) arrays per trace, keyed by the profile-relevant
# EventConfig subset.  Sweeps run many (policy, seed) cells over one shared
# trace object; the cache makes the derivation a one-time cost per trace
# instead of a per-run cost, and the weak keying lets traces be collected
# normally.
_PROFILE_ARRAY_CACHE: "weakref.WeakKeyDictionary[Trace, Dict[tuple, Tuple[np.ndarray, np.ndarray]]]" = (
    weakref.WeakKeyDictionary()
)


def duration_profile_arrays(
    trace: Trace, config: EventConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-function ``(cold_start_ms, execution_ms)`` arrays for ``trace``.

    Batched, cached equivalent of calling :meth:`EventConfig.profile_for` on
    every record in function-index order: the spread factors and scale
    multipliers are applied with the same operations in the same order, so
    the arrays are bit-identical to the per-record loop — this is what keeps
    latency pins stable across the batching.  Results are cached per trace
    (weakly) and per profile-relevant config subset, and returned read-only
    so cached arrays cannot be mutated through one tracker and observed by
    another.
    """
    cache_key = (
        config.default_profile,
        config.derive_profiles,
        config.cold_start_scale,
        config.execution_scale,
    )
    try:
        per_trace = _PROFILE_ARRAY_CACHE.setdefault(trace, {})
    except TypeError:  # unhashable/unweakrefable trace: derive uncached
        per_trace = {}
    cached = per_trace.get(cache_key)
    if cached is not None:
        return cached

    index = trace.invocation_index()
    n = index.n_functions
    cold_ms = np.empty(n, dtype=float)
    exec_ms = np.empty(n, dtype=float)
    if not config.derive_profiles:
        cold_ms.fill(config.default_profile.cold_start_ms)
        exec_ms.fill(config.default_profile.execution_ms)
    else:
        base = config.default_profile
        for position, function_id in enumerate(index.function_ids):
            record = trace.record(function_id)
            measured = record.duration
            if measured is not None:
                # Measured profiles carry no synthetic spread.
                cold_ms[position] = measured.cold_start_ms
                exec_ms[position] = measured.execution_ms
                continue
            profile = None
            if record.archetype is not None:
                profile = ARCHETYPE_DURATION_PROFILES.get(record.archetype)
            if profile is None:
                profile = TRIGGER_DURATION_PROFILES.get(record.trigger.value)
            if profile is None:
                profile = base
            unit_cold = (zlib.crc32(f"cold:{function_id}".encode()) % 2**32) / 2**32
            unit_exec = (zlib.crc32(f"exec:{function_id}".encode()) % 2**32) / 2**32
            cold_ms[position] = profile.cold_start_ms * (0.6 + 1.2 * unit_cold)
            exec_ms[position] = profile.execution_ms * (0.6 + 1.2 * unit_exec)
    if config.cold_start_scale != 1.0 or config.execution_scale != 1.0:
        cold_ms = cold_ms * config.cold_start_scale
        exec_ms = exec_ms * config.execution_scale
    cold_ms.flags.writeable = False
    exec_ms.flags.writeable = False
    per_trace[cache_key] = (cold_ms, exec_ms)
    return cold_ms, exec_ms


def expand_minute_offsets(
    rng: np.random.Generator, count: int
) -> np.ndarray:
    """Arrival offsets (seconds into the minute) for ``count`` events, sorted.

    Arrivals are uniform over the minute — the maximum-entropy choice given
    that the trace only records per-minute counts, and consistent with the
    Poisson arrival processes the paper observes for HTTP traffic (§III-B1):
    conditioned on the count, Poisson arrival times are uniform order
    statistics.

    This is the *single-function reference form* of the expansion, kept for
    tests and external callers.  :meth:`EventTracker.observe_minute` applies
    the same construction — uniform draws, sorted per function — but batched
    over all of a minute's cold functions with one draw and one segment sort,
    so the two consume the jitter stream in different orders; only the
    tracker's order defines an event run's latencies.
    """
    if count <= 0:
        return np.zeros(0, dtype=float)
    offsets = rng.random(count) * SECONDS_PER_MINUTE
    offsets.sort()
    return offsets


@dataclass(frozen=True)
class LatencyWindow:
    """Rolling per-function cold-start-latency snapshot for the feedback loop.

    Produced by :meth:`EventTracker.feedback_window` once per minute under
    the ``event-feedback`` engine and handed to
    :meth:`~repro.simulation.policy_base.ProvisioningPolicy.on_feedback`.
    Arrays live in the bound trace's function-index space, so index-native
    policies consume them without any id translation.  The snapshot is
    read-only by contract: the engine hands out copies, but policies must
    still treat the arrays as immutable observations.

    Attributes
    ----------
    minute:
        The simulated minute that just completed (the window's right edge).
    window_minutes:
        Trailing horizon the aggregates cover: events observed in minutes
        ``(minute - window_minutes, minute]``.
    cold_events:
        Latency-affected events per function within the window — provisioning
        initiations plus arrivals that queued behind one.
    total_wait_ms:
        Summed cold-start waits per function within the window.
    """

    minute: int
    window_minutes: int
    cold_events: np.ndarray
    total_wait_ms: np.ndarray

    @property
    def total_events(self) -> int:
        """All latency-affected events in the window."""
        return int(self.cold_events.sum())

    def mean_wait_ms(self) -> np.ndarray:
        """Per-function mean cold-start wait; 0.0 where nothing waited.

        Guaranteed NaN-free: functions without a latency-affected event in
        the window report 0.0, mirroring the zero-cold-event conventions of
        :class:`~repro.simulation.results.LatencyStats`.
        """
        means = np.zeros_like(self.total_wait_ms)
        np.divide(
            self.total_wait_ms,
            self.cold_events,
            out=means,
            where=self.cold_events > 0,
        )
        return means


class EventTracker:
    """Per-run event expansion and latency bookkeeping.

    The vectorized minute loop calls :meth:`observe_minute` once per minute
    with the invoked indices, their counts, the subset charged a cold start,
    and (under a cluster) the policy's pre-arbiter declaration — everything
    needed to expand events and attribute waits without re-deriving any
    residency state.  :meth:`finalize` packages the observations into a
    :class:`~repro.simulation.results.LatencyStats`.

    With ``feedback=True`` (the ``event-feedback`` engine) the tracker
    additionally maintains a rolling per-function latency window: each
    minute's waits are aggregated into a compact per-function chunk, added to
    running window arrays, and chunks older than
    :attr:`EventConfig.feedback_window_minutes` are subtracted back out.
    :meth:`feedback_window` advances the window and snapshots it as a
    :class:`LatencyWindow`.  The plain ``event`` engine never pays for any of
    this: the chunk bookkeeping is skipped entirely unless feedback is on.
    """

    def __init__(
        self,
        trace: Trace,
        config: EventConfig | None = None,
        feedback: bool = False,
    ) -> None:
        self.config = config or EventConfig()
        self._rng = np.random.default_rng(self.config.seed)
        index: InvocationIndex = trace.invocation_index()
        self._function_ids = index.function_ids
        n = index.n_functions
        # Batched + cached: profiles are a pure function of record metadata,
        # so sharded / multi-cell runs over one trace derive them once.
        self._cold_ms, self._exec_ms = duration_profile_arrays(trace, self.config)

        self._total_events = 0
        self._warm_events = 0
        self._cold_start_events = 0
        self._delayed_events = 0
        self._capacity_cold_events = 0
        self._migration_cold_events = 0
        self._total_execution_ms = 0.0
        # Per-minute wait/function-index chunks, concatenated once at
        # finalize; appending arrays keeps the hot path free of per-event
        # Python work.
        self._wait_chunks: List[np.ndarray] = []
        self._position_chunks: List[np.ndarray] = []

        # Intra-node CPU stage (inert unless a CpuConfig is present).
        cpu = self.config.cpu
        self._cpu = cpu
        self._scheduler = get_scheduler(cpu.scheduler) if cpu is not None else None
        self._cores = cpu.cores_per_node if cpu is not None else 0
        self._exec_s = self._exec_ms / 1000.0 if cpu is not None else None
        self._slo_ms = self.config.slo_ms
        self._cpu_scheduled_events = 0
        self._cpu_delayed_events = 0
        self._cpu_wait_chunks: List[np.ndarray] = []
        self._slowdown_chunks: List[np.ndarray] = []
        # Minutes of (positions, arrival, ready, pool) awaiting one batched
        # scheduler call.
        self._cpu_buffer: List[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._cpu_buffered_events = 0
        self._slo_checked_events = 0
        self._slo_violations = 0

        self.feedback = feedback
        if feedback:
            # Rolling-window state: running per-function aggregates plus a
            # deque of the compact per-minute contributions still inside the
            # window, so expiry is a subtraction, never a rescan.
            self._window_cold_events = np.zeros(n, dtype=np.int64)
            self._window_wait_ms = np.zeros(n, dtype=float)
            self._window_chunks: Deque[
                Tuple[int, np.ndarray, np.ndarray, np.ndarray]
            ] = deque()

    # ------------------------------------------------------------------ #
    def observe_minute(
        self,
        minute: int,
        invoked: np.ndarray,
        counts: np.ndarray,
        cold_mask: np.ndarray,
        declared_entering: np.ndarray | None,
        migrated_entering: np.ndarray | None = None,
        node_of: np.ndarray | None = None,
    ) -> None:
        """Expand one minute's invocations into events and record waits.

        The expansion is fully vectorized: one jitter draw for all of the
        minute's cold events, one segment-keyed sort to order each cold
        function's arrivals, and mask arithmetic for the initiation/queued
        split — so even an always-cold policy (every event latency-affected)
        costs a handful of numpy calls per minute.

        Parameters
        ----------
        minute:
            The simulated minute (unused in the wait arithmetic — events are
            timed relative to their minute — but kept for extensions).
        invoked / counts:
            The minute's CSR slice: invoked function indices and counts.
        cold_mask:
            Boolean mask over ``invoked``: True where the function was not
            resident when the minute began.  Exactly these functions initiate
            provisioning.
        declared_entering:
            Under a cluster, the policy's pre-arbiter declaration for this
            minute; initiations the policy had declared resident are
            capacity-attributed.  ``None`` for uncapped runs.
        migrated_entering:
            Under a migrating cluster, the mask of functions the arbiter
            re-placed at the previous boundary; initiations among them are
            migration-attributed (a subset of the capacity-attributed
            count).  ``None`` when migration is disabled.
        node_of:
            Under a cluster with a :class:`~repro.simulation.scheduling.CpuConfig`,
            the arbiter's current per-function node assignment: each node's
            events contend for that node's core pool only.  ``None`` (or no
            ``CpuConfig``) pools everything on one node.
        """
        if invoked.size == 0:
            return
        total = int(counts.sum())
        self._total_events += total
        self._total_execution_ms += float(
            (counts * self._exec_ms[invoked]).sum()
        )

        cold = invoked[cold_mask]
        n_cold = cold.size
        if n_cold == 0:
            self._warm_events += total
            if self._cpu is not None:
                self._schedule_minute_cpu(
                    invoked, counts, None, None, None, None, node_of
                )
            elif self._slo_ms is not None:
                # Warm events' sojourn is execution time alone.
                slo = self._slo_ms
                self._slo_checked_events += total
                self._slo_violations += int(
                    counts[self._exec_ms[invoked] > slo].sum()
                )
            return
        if declared_entering is not None:
            self._capacity_cold_events += int(
                np.count_nonzero(declared_entering[cold])
            )
        if migrated_entering is not None:
            self._migration_cold_events += int(
                np.count_nonzero(migrated_entering[cold])
            )

        # Expand the cold functions' events.  Warm functions contribute
        # counts without timestamps (their waits are all zero).
        counts_cold = counts[cold_mask]
        total_cold = int(counts_cold.sum())
        cold_ms = self._cold_ms[cold]
        # segment[i] is the index into `cold` of event i.
        segment = np.repeat(np.arange(n_cold), counts_cold)
        offsets = self._rng.random(total_cold) * SECONDS_PER_MINUTE
        if total_cold > n_cold:
            # Sort arrivals within each function's segment (offsets < 60, so
            # one key orders by (segment, offset) in a single pass).
            order = np.argsort(segment * SECONDS_PER_MINUTE + offsets, kind="stable")
            offsets = offsets[order]
        starts = np.zeros(n_cold, dtype=np.int64)
        np.cumsum(counts_cold[:-1], out=starts[1:])
        # The first arrival initiates provisioning and waits all of it;
        # arrivals before the instance is ready queue for the residual.
        ready = offsets[starts] + cold_ms / 1000.0
        wait_seconds = ready[segment] - offsets
        is_first = np.zeros(total_cold, dtype=bool)
        is_first[starts] = True
        delayed = ~is_first & (wait_seconds > 0.0)
        n_delayed = int(np.count_nonzero(delayed))

        if n_delayed:
            waits_ms = np.concatenate([cold_ms, wait_seconds[delayed] * 1000.0])
            positions = np.concatenate([cold, cold[segment[delayed]]])
        else:
            waits_ms = cold_ms.astype(float, copy=True)
            positions = cold
        self._wait_chunks.append(waits_ms)
        self._position_chunks.append(positions)
        self._cold_start_events += n_cold
        self._delayed_events += n_delayed
        self._warm_events += total - n_cold - n_delayed
        if self.feedback:
            self._accumulate_window(minute, positions, waits_ms)

        if self._cpu is not None:
            # Per-event provisioning wait: initiations wait the full cold
            # start (wait_seconds[starts] == cold_ms / 1000 exactly), queued
            # arrivals wait the residual, and arrivals after the instance is
            # ready wait nothing.
            prov_wait_s = np.maximum(wait_seconds, 0.0)
            self._schedule_minute_cpu(
                invoked, counts, cold_mask,
                cold[segment], offsets, prov_wait_s, node_of,
            )
        elif self._slo_ms is not None:
            slo = self._slo_ms
            self._slo_checked_events += total
            warm_fns = invoked[~cold_mask]
            counts_warm = counts[~cold_mask]
            violations = int(counts_warm[self._exec_ms[warm_fns] > slo].sum())
            sojourn_ms = (
                np.maximum(wait_seconds, 0.0) * 1000.0
                + self._exec_ms[cold[segment]]
            )
            violations += int(np.count_nonzero(sojourn_ms > slo))
            self._slo_violations += violations

    # ------------------------------------------------------------------ #
    def _schedule_minute_cpu(
        self,
        invoked: np.ndarray,
        counts: np.ndarray,
        cold_mask: np.ndarray | None,
        pos_cold: np.ndarray | None,
        arrival_cold_s: np.ndarray | None,
        prov_wait_s: np.ndarray | None,
        node_of: np.ndarray | None,
    ) -> None:
        """Queue one minute's events for the node core pools.

        ``pos_cold`` / ``arrival_cold_s`` / ``prov_wait_s`` are the already
        expanded per-event arrays of the minute's cold functions (``None``
        on an all-warm minute).  Warm functions' events are expanded here
        with a second jitter draw — taken *after* the minute's cold draw, so
        the stream stays minute-major and deterministic.  Each event is
        labelled with its pool, ``(minute, node)`` when ``node_of`` is given
        and ``minute`` otherwise, and buffered; :meth:`_flush_cpu` schedules
        the buffer once it holds :data:`_CPU_FLUSH_EVENTS` events, and
        :meth:`finalize` schedules the rest.

        The stage only appends to the ``cpu_*``/slowdown/SLO accumulators,
        which nothing reads before :meth:`finalize`; the minute-granular
        counters above are already settled, which keeps the CPU layer a pure
        observer.
        """
        if cold_mask is None:
            warm_fns = invoked
            counts_warm = counts
        else:
            warm_fns = invoked[~cold_mask]
            counts_warm = counts[~cold_mask]
        total_warm = int(counts_warm.sum())
        if total_warm:
            pos_warm = np.repeat(warm_fns, counts_warm)
            arrival_warm = self._rng.random(total_warm) * SECONDS_PER_MINUTE
        else:
            pos_warm = np.zeros(0, dtype=invoked.dtype)
            arrival_warm = np.zeros(0, dtype=float)

        if pos_cold is None:
            positions = pos_warm
            arrival_s = arrival_warm
            ready_s = arrival_warm
        else:
            positions = np.concatenate([pos_cold, pos_warm])
            arrival_s = np.concatenate([arrival_cold_s, arrival_warm])
            # A cold event reaches the CPU only once provisioning clears.
            ready_s = np.concatenate(
                [arrival_cold_s + prov_wait_s, arrival_warm]
            )
        n_events = positions.size
        if n_events == 0:
            return
        # Pools are (minute, node); the minute is numbered within the buffer,
        # which keeps the labels of one flush well inside the scheduler's span.
        minute_label = len(self._cpu_buffer) * _POOL_STRIDE
        if node_of is None:
            pool = np.full(n_events, minute_label, dtype=np.int64)
        else:
            # Capture the node now: a later migration rewrites ``node_of``.
            # UNPLACED (-1) maps to a pool of its own.
            pool = node_of[positions] + (minute_label + 1)
        self._cpu_buffer.append((positions, arrival_s, ready_s, pool))
        self._cpu_buffered_events += n_events
        if self._cpu_buffered_events >= _CPU_FLUSH_EVENTS:
            self._flush_cpu()

    def _flush_cpu(self) -> None:
        """Schedule every buffered minute in one call and fold the results.

        The accumulators are elementwise in the buffered order, so they come
        out exactly as if each minute had been scheduled on its own.
        """
        if not self._cpu_buffer:
            return
        positions, arrival_s, ready_s, pool = (
            np.concatenate(parts) for parts in zip(*self._cpu_buffer)
        )
        self._cpu_buffer.clear()
        self._cpu_buffered_events = 0
        n_events = positions.size
        service_s = self._exec_s[positions]
        completion_s = self._scheduler.schedule(ready_s, service_s, self._cores, pool)

        cpu_wait_s = np.maximum(completion_s - ready_s - service_s, 0.0)
        sojourn_ms = (completion_s - arrival_s) * 1000.0
        service_ms = service_s * 1000.0

        self._cpu_scheduled_events += n_events
        delayed = cpu_wait_s > 1e-9
        n_delayed = int(np.count_nonzero(delayed))
        self._cpu_delayed_events += n_delayed
        if n_delayed:
            self._cpu_wait_chunks.append(cpu_wait_s[delayed] * 1000.0)
        # Slowdown: sojourn over service; zero-service events pin to 1.0,
        # and float dust in the schedulers cannot push it below 1.0.
        slowdown = np.ones(n_events, dtype=float)
        np.divide(sojourn_ms, service_ms, out=slowdown, where=service_ms > 0.0)
        np.maximum(slowdown, 1.0, out=slowdown)
        self._slowdown_chunks.append(slowdown)
        if self._slo_ms is not None:
            self._slo_checked_events += n_events
            self._slo_violations += int(
                np.count_nonzero(sojourn_ms > self._slo_ms)
            )

    # ------------------------------------------------------------------ #
    def _accumulate_window(
        self, minute: int, positions: np.ndarray, waits_ms: np.ndarray
    ) -> None:
        """Fold one minute's waits into the rolling feedback window."""
        unique, inverse = np.unique(positions, return_inverse=True)
        counts = np.bincount(inverse, minlength=unique.size)
        wait_sums = np.bincount(inverse, weights=waits_ms, minlength=unique.size)
        self._window_cold_events[unique] += counts
        self._window_wait_ms[unique] += wait_sums
        self._window_chunks.append((minute, unique, counts, wait_sums))

    def feedback_window(self, minute: int) -> LatencyWindow:
        """Advance the rolling window to ``minute`` and snapshot it.

        Chunks older than the configured horizon are subtracted out; the
        returned :class:`LatencyWindow` copies the running arrays, so the
        policy's view cannot be perturbed by later minutes (nor can a policy
        corrupt the tracker's state).  Raises unless the tracker was built
        with ``feedback=True``.
        """
        if not self.feedback:
            raise RuntimeError("tracker was not configured for feedback")
        horizon = minute - self.config.feedback_window_minutes
        chunks = self._window_chunks
        while chunks and chunks[0][0] <= horizon:
            _, unique, counts, wait_sums = chunks.popleft()
            self._window_cold_events[unique] -= counts
            self._window_wait_ms[unique] -= wait_sums
        return LatencyWindow(
            minute=minute,
            window_minutes=self.config.feedback_window_minutes,
            cold_events=self._window_cold_events.copy(),
            total_wait_ms=self._window_wait_ms.copy(),
        )

    # ------------------------------------------------------------------ #
    def finalize(self) -> LatencyStats:
        """Package the run's observations into a :class:`LatencyStats`."""
        self._flush_cpu()
        if self._wait_chunks:
            waits = np.concatenate(self._wait_chunks)
            positions = np.concatenate(self._position_chunks)
        else:
            waits = np.zeros(0, dtype=float)
            positions = np.zeros(0, dtype=np.int64)

        ids = self._function_ids
        per_function: Dict[str, np.ndarray] = {}
        if positions.size:
            order = np.argsort(positions, kind="stable")  # chronology kept
            sorted_positions = positions[order]
            sorted_waits = waits[order]
            unique, group_starts = np.unique(sorted_positions, return_index=True)
            bounds = np.append(group_starts, sorted_positions.size)
            per_function = {
                ids[position]: sorted_waits[bounds[i] : bounds[i + 1]]
                for i, position in enumerate(unique.tolist())
            }
        if self._cpu_wait_chunks:
            cpu_waits = np.concatenate(self._cpu_wait_chunks)
        else:
            cpu_waits = np.zeros(0, dtype=float)
        if self._slowdown_chunks:
            slowdown = np.concatenate(self._slowdown_chunks)
        else:
            slowdown = np.zeros(0, dtype=float)
        return LatencyStats(
            total_events=self._total_events,
            warm_events=self._warm_events,
            cold_start_events=self._cold_start_events,
            delayed_events=self._delayed_events,
            capacity_cold_events=self._capacity_cold_events,
            migration_cold_events=self._migration_cold_events,
            cold_wait_ms=waits,
            per_function_wait_ms=per_function,
            total_execution_ms=self._total_execution_ms,
            cpu_scheduled_events=self._cpu_scheduled_events,
            cpu_delayed_events=self._cpu_delayed_events,
            cpu_wait_ms=cpu_waits,
            slowdown=slowdown,
            slo_ms=self._slo_ms,
            slo_checked_events=self._slo_checked_events,
            slo_violations=self._slo_violations,
        )
