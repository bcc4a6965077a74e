"""The discrete-time simulation engine driving provisioning policies.

The engine iterates the simulation trace minute by minute.  For each minute it

1. looks up which functions are invoked;
2. charges a cold start for every invoked function that is not resident;
3. considers all invoked functions resident for the remainder of the minute
   (they were loaded on demand to serve the request);
4. asks the policy for the resident set of the next minute, timing the call;
5. charges memory usage and wasted memory time for the minute.

This matches the accounting of §II-B/§V-A: one memory unit per loaded
instance-minute, one WMT unit per loaded-but-idle instance-minute, one cold
start per invoked-while-absent minute.

Two implementations of this contract exist:

``vectorized`` (the default)
    Residency and accounting run on numpy boolean masks over function
    *indices*, using the trace's cached
    :meth:`~repro.traces.trace.Trace.invocation_index`.  The engine drives
    **only** the indexed policy contract
    (:class:`~repro.simulation.vector_policy.VectorizedPolicy`): index-native
    policies are stepped directly with invoked-index arrays, while unchanged
    dict-based policies are wrapped in a
    :class:`~repro.simulation.vector_policy.DictPolicyAdapter` that feeds
    them the prebuilt per-minute ``{function_id: count}`` mappings and diffs
    their declarations into a mask.  Memory charges are accumulated in
    arrays and handed to the
    :class:`~repro.simulation.memory.MemoryAccountant` in one batch.

    This engine and ``event`` support the capacity-constrained mode: with a
    :class:`~repro.simulation.cluster.ClusterModel`, the policy's declared
    residency is *proposed* to an eviction arbiter that admits it under a
    (possibly sharded) memory cap, counting forced evictions and
    capacity-induced cold starts.

    The pure-Python loop over sets and dicts this engine replaced is kept in
    ``tests/reference_engine.py`` as the executable specification the
    equivalence tests compare both engines against.

``event``
    The vectorized minute loop with the sub-minute event layer of
    :mod:`repro.simulation.events` hooked in: every minute bucket is
    expanded into timestamped invocation events (seeded arrival jitter,
    per-function duration profiles) and per-event cold-start waits are
    recorded into :class:`~repro.simulation.results.LatencyStats`.  For a
    policy that keeps the default ``on_feedback``, the event layer only
    *observes* the vectorized loop, so the run's minute-granular outputs —
    and therefore its deterministic fingerprint — are identical to a
    vectorized run's; it adds the latency distribution on top.  Supports the
    cluster mode.

    For a policy that overrides
    :meth:`~repro.simulation.policy_base.ProvisioningPolicy.on_feedback`,
    the engine closes the loop: every minute, the tracker's rolling
    per-function latency window (:class:`~repro.simulation.events.LatencyWindow`,
    horizon :attr:`~repro.simulation.events.EventConfig.feedback_window_minutes`)
    is streamed into the hook *before* the policy declares the next resident
    set.  Latency-aware policies (e.g.
    :class:`~repro.baselines.latency_aware.LatencyAwareKeepAlivePolicy`)
    use it to adapt, which legitimately changes their decisions.
"""

from __future__ import annotations

import copy
import time
import warnings
from typing import Dict, List, Set

import numpy as np

from repro.simulation.cluster import ClusterModel
from repro.simulation.events import EventConfig, EventTracker
from repro.simulation.memory import (
    DEFAULT_MEMORY_MB,
    MemoryAccountant,
    footprint_kb_vector,
)
from repro.simulation.overhead import OverheadTimer
from repro.simulation.policy_base import ProvisioningPolicy, listens_to_feedback
from repro.simulation.spec import DEFAULT_WARMUP_MINUTES, RunSpec
from repro.simulation.sharding import shard_assignment, shard_fallback_reason
from repro.simulation.results import (
    ClusterStats,
    FunctionStats,
    LatencyStats,
    SimulationResult,
)
from repro.simulation.vector_policy import DictPolicyAdapter, VectorizedPolicy
from repro.traces.trace import InvocationIndex, Trace, remap_csr

__all__ = [
    "ShardFallbackWarning",
    "Simulator",
    "simulate_policy",
]


class ShardFallbackWarning(RuntimeWarning):
    """A sharded run was requested but the configuration cannot decompose.

    The warning message carries the exact coupling (from
    :func:`repro.simulation.sharding.shard_fallback_reason`); the simulation
    then runs unsharded and produces the usual, correct result.
    """


class Simulator:
    """Drives a :class:`ProvisioningPolicy` over a simulation trace.

    Parameters
    ----------
    simulation_trace:
        Trace window to simulate (e.g. the final two days of a 14-day trace).
    training_trace:
        Optional trace window handed to the policy's offline phase.
    initially_resident:
        Function ids already loaded when the simulation begins.  Defaults to
        an empty memory.
    warmup_minutes:
        Number of minutes from the tail of the training trace replayed
        through the policy *before* metric collection starts.  The paper's
        evaluation treats the 12-day training window and the 2-day
        simulation window as one continuous timeline, so every policy enters
        the simulation with the memory state and recency information its own
        rules produce; replaying one day of history reproduces that boundary
        condition.  Set to 0 to start from a completely cold platform.
    engine:
        Which implementation runs the minute loop: ``"vectorized"``
        (default) or ``"event"`` (see the module docstring).
    cluster:
        Optional :class:`~repro.simulation.cluster.ClusterModel` imposing a
        (possibly sharded) memory cap on the resident set.
    events:
        Optional :class:`~repro.simulation.events.EventConfig` for the event
        engine (jitter seed, duration scaling, feedback-window horizon).
        Defaults are used when the event engine runs without a config;
        passing a config with a minute-granular engine is an error.
    shards:
        When >= 2, partition the function space into that many shards (see
        :mod:`repro.simulation.sharding`) and simulate each partition
        independently, merging the per-shard results into one
        :class:`~repro.simulation.results.SimulationResult` that is
        fingerprint-identical to the unsharded run.  Sharding applies only
        when the configuration decomposes exactly (``shard_safe`` policy,
        migration-free node-aligned cluster, …);
        otherwise :meth:`run` emits a :class:`ShardFallbackWarning` with the
        coupling that prevents it and executes unsharded.  ``0`` (default)
        and ``1`` mean unsharded.
    shard_placement:
        Name of the :class:`~repro.simulation.placement.PlacementStrategy`
        deriving the function→shard partition (default ``"hash"``).  For
        ``shard_safe`` policies the choice affects load balance across
        shards, never the merged result.
    memory_mode:
        ``"unit"`` (default): the paper's abstract one-unit-per-instance
        accounting, byte-identical to all prior releases.  ``"mb"``:
        additionally weigh every loaded instance by its measured footprint
        (``FunctionRecord.memory_mb``, integer-KB quantized; functions
        without a join fall back to
        :data:`~repro.simulation.memory.DEFAULT_MEMORY_MB`) and report
        MB-denominated usage/WMT/EMCR alongside the unit series.  Residency
        *decisions* are unchanged unless the
        cluster model itself is MB-denominated
        (``ClusterModel.capacity_unit="mb"``, which requires this mode).
    spec:
        A ready-made :class:`~repro.simulation.spec.RunSpec` instead of the
        individual knobs above (mutually exclusive with them).  The spec's
        ``streaming`` field is honoured: a streaming simulator drops the
        training trace and the warm-up replay, exactly as the parallel
        runner's streaming mode always has.
    """

    #: Default warm-up horizon (see :data:`repro.simulation.spec
    #: .DEFAULT_WARMUP_MINUTES`, the single home of the value).
    DEFAULT_WARMUP_MINUTES = DEFAULT_WARMUP_MINUTES

    def __init__(
        self,
        simulation_trace: Trace,
        training_trace: Trace | None = None,
        initially_resident: Set[str] | None = None,
        warmup_minutes: int | None = None,
        engine: str | None = None,
        cluster: ClusterModel | None = None,
        events: EventConfig | None = None,
        shards: int | None = None,
        shard_placement: str | None = None,
        memory_mode: str | None = None,
        spec: RunSpec | None = None,
    ) -> None:
        # Back-compat shim: the classic keywords build the spec (None means
        # "use the RunSpec field default") unless a spec is passed.
        spec = RunSpec.resolve(
            spec,
            engine=engine,
            warmup_minutes=warmup_minutes,
            shards=shards,
            shard_placement=shard_placement,
            memory_mode=memory_mode,
            cluster=cluster,
            events=events,
        )
        self.spec = spec
        self.simulation_trace = simulation_trace
        # Streaming semantics live in the spec: no training input, no
        # warm-up replay — the policy enters the window completely cold.
        self.training_trace = None if spec.streaming else training_trace
        self.initially_resident = set(initially_resident or set())
        self.warmup_minutes = 0 if spec.streaming else spec.warmup_minutes
        self.engine = spec.engine
        self.cluster = spec.cluster
        self.events = spec.events
        self.shards = spec.shards
        self.shard_placement = spec.shard_placement
        self.memory_mode = spec.memory_mode

    def run(self, policy: ProvisioningPolicy, prepare: bool = True) -> SimulationResult:
        """Simulate ``policy`` over the configured trace and return its result.

        Parameters
        ----------
        policy:
            The provisioning policy to evaluate.  It is prepared (offline
            phase) unless ``prepare`` is False.
        prepare:
            Whether to call :meth:`ProvisioningPolicy.prepare` before running.
            Callers that prepared the policy themselves (e.g. to share an
            expensive offline phase across parameter sweeps) can pass False.
        """
        if self.shards >= 2:
            reason = shard_fallback_reason(
                policy,
                self.cluster,
                self.shards,
                self.shard_placement,
                prepare,
                self.initially_resident,
                self.simulation_trace,
                training_trace=self.training_trace,
                events=self.events,
            )
            if reason is None:
                return self._run_sharded(policy)
            warnings.warn(
                f"sharded execution disabled ({reason}); running unsharded",
                ShardFallbackWarning,
                stacklevel=2,
            )

        trace = self.simulation_trace

        if prepare:
            policy.prepare(trace.records(), self.training_trace)

        # Index-native policies are bound to the simulation trace's function
        # space before any stepping, the warm-up replay included.
        if isinstance(policy, VectorizedPolicy):
            policy.bind_index(trace.invocation_index())

        resident: Set[str] = set(self.initially_resident)
        resident |= self._warm_up(policy)

        tracker = None
        if self.engine == "event":
            # Checked on the policy as handed in, before any adapter wraps it.
            tracker = EventTracker(trace, self.events, feedback=listens_to_feedback(policy))
        return self._run_vectorized(policy, resident, tracker)

    # ------------------------------------------------------------------ #
    # Sharded execution
    # ------------------------------------------------------------------ #
    def shard_simulator(self, positions: np.ndarray) -> "Simulator":
        """Build the sub-simulator for one shard's function positions.

        Exposed separately from :meth:`_run_sharded` so the parallel runner
        can construct the identical per-shard simulation inside worker
        processes (the shard's trace slice is cut worker-side from the
        trace the pool handed the worker, with any cached index restricted
        to the shard).
        """
        sub_cluster = None
        if self.cluster is not None:
            # Shard == node (enforced by the fallback guard): each shard runs
            # its node in isolation under exactly the node's capacity share.
            sub_cluster = ClusterModel(
                memory_capacity=self.cluster.node_capacity,
                n_nodes=1,
                placement="hash",
                capacity_unit=self.cluster.capacity_unit,
            )
        sub_trace = self.simulation_trace.shard(positions)
        return Simulator(
            simulation_trace=sub_trace,
            training_trace=(
                self.training_trace.shard(positions)
                if self.training_trace is not None
                else None
            ),
            initially_resident={
                fid for fid in self.initially_resident if fid in sub_trace
            },
            spec=self.spec.override(shards=0, cluster=sub_cluster),
        )

    def _run_sharded(self, policy: ProvisioningPolicy) -> SimulationResult:
        """Partition, simulate every shard in-process, merge.

        Each shard deep-copies the *unprepared* policy and runs its own
        offline phase against its partition — for ``shard_safe`` policies
        preparation restricts cleanly, so the per-shard decisions equal the
        global run's decisions restricted to the shard.  Empty partitions
        (possible under ``hash`` with few functions) contribute ``None`` so
        cluster merging keeps node columns aligned with shard numbers.
        """
        assignment = shard_assignment(
            self.shards,
            self.simulation_trace,
            self.shard_placement,
            training_trace=self.training_trace,
        )
        results: List[SimulationResult | None] = []
        for shard in range(self.shards):
            positions = np.flatnonzero(assignment == shard)
            if positions.size == 0:
                results.append(None)
                continue
            sub = self.shard_simulator(positions)
            results.append(sub.run(copy.deepcopy(policy), prepare=True))
        return SimulationResult.merge_shards(results, cluster_model=self.cluster)

    # ------------------------------------------------------------------ #
    # Vectorized implementation (default)
    # ------------------------------------------------------------------ #
    def _run_vectorized(
        self,
        policy: ProvisioningPolicy,
        initial_resident: Set[str],
        tracker: EventTracker | None = None,
    ) -> SimulationResult:
        """Minute loop on numpy masks over the trace's invocation index.

        The loop drives the indexed policy contract exclusively:
        :class:`VectorizedPolicy` instances are stepped with invoked-index
        arrays and answer with residency masks; dict-based policies are
        wrapped in a :class:`DictPolicyAdapter` which preserves their exact
        semantics (prebuilt read-only per-minute mappings in, declared-set
        diffs out).  Three invariants keep the per-minute Python work small:

        * the per-minute mappings and the CSR invocation index are prebuilt
          once per trace and shared by every run over that trace;
        * every invoked function is loaded during its minute, so wasted
          memory time needs no per-minute mask: per function it equals
          (minutes loaded) - (minutes invoked), and per minute the idle count
          equals (instances loaded) - (functions invoked);
        * the adapter updates its mask from the *difference* between the
          policy's consecutive declarations, so a steady-state dict policy
          costs nothing and a churning one costs only its churn.

        With an :class:`~repro.simulation.events.EventTracker` (the ``event``
        engine), each minute is additionally expanded into timestamped
        invocation events after cold starts are charged.  The tracker only
        observes, so every minute-granular output is unchanged unless the
        policy listens to the latency window it streams back.
        """
        trace = self.simulation_trace
        duration = trace.duration_minutes
        index = trace.invocation_index()
        function_ids = index.function_ids
        index_of = index.index_of
        indptr, inv_indices, inv_counts = index.indptr, index.indices, index.counts
        n_functions = index.n_functions

        timer = OverheadTimer()
        clock = time.perf_counter

        if isinstance(policy, VectorizedPolicy):
            driver: VectorizedPolicy = policy  # bound in run()
            # Index-native policies do all their decision work inside
            # on_minute_indexed, so the engine times the call directly.
            externally_timed = True
        else:
            driver = DictPolicyAdapter(policy)
            driver.bind_index(index)
            driver.seed_resident(initial_resident)
            # The adapter times only the wrapped policy's on_minute — its
            # own mapping/diff bookkeeping is engine machinery and stays out
            # of the RQ2 overhead metric.
            driver.overhead_timer = timer
            externally_timed = False

        resident = np.zeros(n_functions, dtype=bool)
        # Resident ids unknown to the trace (possible when a policy was
        # prepared against different metadata); kept out of the masks but
        # charged one unit and one idle minute per minute, like any resident.
        extra: Set[str] = set()
        for function_id in initial_resident:
            position = index_of.get(function_id)
            if position is None:
                extra.add(function_id)
            else:
                resident[position] = True

        # MB mode: per-function footprints in integer KB, aligned with the
        # index's function order; unknown-to-trace extras are charged the
        # default footprint, exactly as they are charged one unit.
        footprints_kb: np.ndarray | None = None
        usage_kb: np.ndarray | None = None
        idle_kb: np.ndarray | None = None
        default_kb = 0
        if self.memory_mode == "mb":
            records_by_id = {record.function_id: record for record in trace.records()}
            footprints_kb = footprint_kb_vector(
                [records_by_id[fid] for fid in function_ids]
            )
            default_kb = round(1024 * DEFAULT_MEMORY_MB)
            usage_kb = np.zeros(duration, dtype=np.int64)
            idle_kb = np.zeros(duration, dtype=np.int64)

        cluster = self.cluster
        arbiter = None
        node_usage: np.ndarray | None = None
        capacity_cold_starts = 0
        migration_cold_starts = 0
        declared_entering: np.ndarray | None = None
        migrated_entering: np.ndarray | None = None
        if cluster is not None:
            # The training window feeds offline placement signals (the
            # correlation-aware strategy mines co-firing groups from it).
            # A training-less run — notably the streaming evaluation mode,
            # whose whole point is zero offline knowledge — supplies none:
            # mining the *simulation* trace here would leak future traffic
            # into placement, so trace-hungry strategies fall back to their
            # lazy behaviour instead.
            arbiter = cluster.arbiter(
                function_ids,
                trace=self.training_trace,
                footprints_kb=(
                    footprints_kb if cluster.capacity_unit == "mb" else None
                ),
            )
            node_usage = np.zeros((duration, cluster.n_nodes), dtype=np.int64)
            # The entering resident set is itself subject to the cap; the
            # policy's "declaration" for minute 0 is the uncapped entering set.
            declared_entering = resident.copy()
            resident, _ = arbiter.admit(resident)
            migrated_entering = arbiter.migrated_last

        invoked_minutes = np.zeros(n_functions, dtype=np.int64)
        cold_starts = np.zeros(n_functions, dtype=np.int64)
        loaded_minutes = np.zeros(n_functions, dtype=np.int64)
        usage = np.zeros(duration, dtype=np.int64)
        idle = np.zeros(duration, dtype=np.int64)
        extra_wmt: Dict[str, int] = {}

        for minute in range(duration):
            start, stop = indptr[minute], indptr[minute + 1]
            invoked = inv_indices[start:stop]
            counts = inv_counts[start:stop]

            if invoked.size:
                # 1-2. charge cold starts against the entering resident set.
                invoked_minutes[invoked] += 1
                cold_mask = ~resident[invoked]
                cold = invoked[cold_mask]
                cold_starts[cold] += 1
                if arbiter is not None and cold.size:
                    # Cold starts the policy had provisioned against: they
                    # exist only because the arbiter trimmed the declaration.
                    capacity_cold_starts += int(
                        np.count_nonzero(declared_entering[cold])
                    )
                    if migrated_entering is not None:
                        # ... and within those, the ones a sustained-pressure
                        # migration forced onto a new node.
                        migration_cold_starts += int(
                            np.count_nonzero(migrated_entering[cold])
                        )
                if tracker is not None:
                    # Sub-minute observation layer: expand this minute into
                    # timestamped events and record per-event waits.  Under a
                    # cluster the arbiter's current placement scopes each
                    # node's CPU pool.
                    tracker.observe_minute(
                        minute, invoked, counts, cold_mask, declared_entering,
                        migrated_entering,
                        node_of=arbiter.node_of if arbiter is not None else None,
                    )
                # 3. invoked functions are loaded on demand for this minute.
                resident[invoked] = True
                if arbiter is not None:
                    # Lazy placement strategies assign a node the first time
                    # a function is loaded — before usage is attributed.
                    arbiter.ensure_placed(invoked)

            # 5. charge memory for this minute (batched at the end of the
            # run).  Invoked functions are always loaded, so the idle count
            # is simply loaded minus invoked.
            loaded = np.count_nonzero(resident) + len(extra)
            usage[minute] = loaded
            idle[minute] = loaded - invoked.size
            if usage_kb is not None:
                # Invoked functions are all resident during their minute, so
                # the idle KB is the resident total minus the invoked total.
                resident_kb = (
                    int(footprints_kb[resident].sum()) + len(extra) * default_kb
                )
                usage_kb[minute] = resident_kb
                idle_kb[minute] = resident_kb - int(footprints_kb[invoked].sum())
            loaded_minutes += resident
            for function_id in extra:
                extra_wmt[function_id] = extra_wmt.get(function_id, 0) + 1
            if arbiter is not None:
                node_usage[minute] = arbiter.node_usage(resident)
                arbiter.observe_invocations(minute, invoked)

            if tracker is not None and tracker.feedback:
                # Close the loop: stream the rolling latency window into the
                # policy before it declares the next resident set.  Processing
                # the window is policy decision work, so it is charged to the
                # RQ2 overhead metric alongside the on_minute call.
                window = tracker.feedback_window(minute)
                with timer.measure():
                    driver.on_feedback(minute, window)

            # 4. policy decides the resident set for the next minute.
            if externally_timed:
                started = clock()
                declared = driver.on_minute_indexed(minute, invoked, counts)
                timer.add(clock() - started)
            else:
                declared = driver.on_minute_indexed(minute, invoked, counts)
            extra = driver.extra_resident

            if arbiter is not None:
                declared_entering = declared.copy()
                resident, _ = arbiter.admit(declared)
                migrated_entering = arbiter.migrated_last
            else:
                np.copyto(resident, declared)

        wmt = loaded_minutes - invoked_minutes
        wmt_per_function: Dict[str, int] = {
            function_ids[f]: int(wmt[f]) for f in np.flatnonzero(wmt)
        }
        for function_id, wasted in extra_wmt.items():
            wmt_per_function[function_id] = wmt_per_function.get(function_id, 0) + wasted

        accountant = MemoryAccountant(duration)
        accountant.observe_batch(
            usage,
            idle,
            wmt_per_function,
            node_usage=node_usage,
            usage_kb=usage_kb,
            idle_kb=idle_kb,
        )

        cluster_stats: ClusterStats | None = None
        if cluster is not None and arbiter is not None and node_usage is not None:
            cluster_stats = ClusterStats(
                n_nodes=cluster.n_nodes,
                memory_capacity=cluster.memory_capacity,
                node_capacity=cluster.node_capacity,
                evictions=arbiter.evictions,
                capacity_cold_starts=capacity_cold_starts,
                node_usage=node_usage,
                placement=cluster.placement,
                migrations=arbiter.migrations,
                migration_cold_starts=migration_cold_starts,
                node_evictions=arbiter.node_evictions,
                capacity_unit=cluster.capacity_unit,
            )

        stats: Dict[str, FunctionStats] = {}
        for position in np.flatnonzero(invoked_minutes):
            function_id = function_ids[position]
            stats[function_id] = FunctionStats(
                function_id=function_id,
                invocations=int(invoked_minutes[position]),
                cold_starts=int(cold_starts[position]),
            )
        latency = tracker.finalize() if tracker is not None else None
        return self._finalize(
            policy, duration, stats, accountant, timer, cluster_stats, latency
        )

    # ------------------------------------------------------------------ #
    def _finalize(
        self,
        policy: ProvisioningPolicy,
        duration: int,
        stats: Dict[str, FunctionStats],
        accountant: MemoryAccountant,
        timer: OverheadTimer,
        cluster_stats: ClusterStats | None = None,
        latency: LatencyStats | None = None,
    ) -> SimulationResult:
        """Merge accountant aggregates into the per-function statistics."""
        for function_id, wasted in accountant.wmt_per_function.items():
            function_stats = stats.get(function_id)
            if function_stats is None:
                function_stats = FunctionStats(function_id=function_id)
                stats[function_id] = function_stats
            function_stats.wasted_memory_time = wasted

        usage_kb_series = accountant.usage_kb_series
        return SimulationResult(
            policy_name=policy.name,
            duration_minutes=duration,
            per_function=stats,
            memory_usage=np.array(accountant.usage_series, dtype=np.int64),
            total_wasted_memory_time=accountant.wasted_memory_time,
            emcr=accountant.effective_memory_consumption_ratio,
            overhead_seconds=timer.total_seconds,
            overhead_per_minute=timer.mean_seconds,
            cluster=cluster_stats,
            latency=latency,
            memory_mode=self.memory_mode,
            memory_usage_kb=(
                np.array(usage_kb_series, dtype=np.int64)
                if usage_kb_series is not None
                else None
            ),
            total_wasted_memory_kb=accountant.wasted_memory_kb_minutes,
            emcr_mb=accountant.effective_memory_consumption_ratio_mb,
        )

    # ------------------------------------------------------------------ #
    def _warm_up(self, policy: ProvisioningPolicy) -> Set[str]:
        """Replay the tail of the training trace through the policy.

        The replayed minutes are numbered negatively (``-warmup .. -1``) so
        the simulation window starts at minute 0, and no metrics are charged.
        Returns the resident set the policy declares for minute 0.

        The replay reads the training trace's cached tail index (only the
        replayed minutes, shared by every run over the same split).
        Index-native policies are stepped on index arrays remapped into
        their bound simulation index, and only the final mask becomes an id
        set; dict policies receive the tail's read-only per-minute mappings.
        """
        if self.training_trace is None or self.warmup_minutes <= 0:
            return set()
        offset = self.training_trace.duration_minutes
        start = max(0, offset - self.warmup_minutes)
        tail = self.training_trace.invocation_index(start)
        first = start - offset
        if not isinstance(policy, VectorizedPolicy):
            resident: Set[str] = set()
            for minute, invocations in enumerate(tail.minute_invocations(), first):
                resident = set(policy.on_minute(minute, invocations))
            return resident
        indptr, indices, counts = _remap_index(tail, policy.index)
        bounds = indptr.tolist()
        mask = None
        for minute in range(tail.duration_minutes):
            lo, hi = bounds[minute], bounds[minute + 1]
            mask = policy.on_minute_indexed(
                first + minute, indices[lo:hi], counts[lo:hi]
            )
        return set() if mask is None else policy.resident_ids(mask)


def _remap_index(
    source: InvocationIndex, target: InvocationIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``source``'s CSR arrays with positions translated into ``target``.

    The identity when both indexes share one function ordering (training
    and simulation windows sliced from one trace).  Otherwise ids unknown
    to ``target`` are dropped, keeping each minute's remaining order.
    """
    if source.function_ids == target.function_ids:
        return source.indptr, source.indices, source.counts
    index_of = target.index_of
    remap = np.fromiter(
        (index_of.get(fid, -1) for fid in source.function_ids),
        dtype=np.int64,
        count=source.n_functions,
    )
    return remap_csr(source, remap)


def simulate_policy(
    policy: ProvisioningPolicy,
    simulation_trace: Trace,
    training_trace: Trace | None = None,
    initially_resident: Set[str] | None = None,
    warmup_minutes: int | None = None,
    engine: str | None = None,
    cluster: ClusterModel | None = None,
    events: EventConfig | None = None,
    shards: int | None = None,
    shard_placement: str | None = None,
    memory_mode: str | None = None,
    spec: RunSpec | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run one policy."""
    simulator = Simulator(
        simulation_trace=simulation_trace,
        training_trace=training_trace,
        initially_resident=initially_resident,
        warmup_minutes=warmup_minutes,
        engine=engine,
        cluster=cluster,
        events=events,
        shards=shards,
        shard_placement=shard_placement,
        memory_mode=memory_mode,
        spec=spec,
    )
    return simulator.run(policy)
