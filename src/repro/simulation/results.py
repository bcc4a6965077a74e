"""Simulation results: per-function statistics and run-level aggregates."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import index
from typing import Dict, Iterable, Mapping

import numpy as np


@dataclass
class FunctionStats:
    """Cold-start and memory statistics for one function over a run.

    Attributes
    ----------
    function_id:
        Id of the function.
    invocations:
        Number of minutes the function was invoked at least once.  Following
        the paper's simulation principle (all executions fit in a minute),
        each invoked minute contributes one provisioning decision, so the
        cold-start rate is computed over invoked minutes.
    cold_starts:
        Number of invoked minutes at which the function was not resident.
    wasted_memory_time:
        Minutes the function's image sat in memory without being invoked.
    """

    function_id: str
    invocations: int = 0
    cold_starts: int = 0
    wasted_memory_time: int = 0

    @property
    def cold_start_rate(self) -> float:
        """Cold starts divided by invocations (0 for never-invoked functions)."""
        if self.invocations == 0:
            return 0.0
        return self.cold_starts / self.invocations

    @property
    def always_cold(self) -> bool:
        """True when every invocation of the function was a cold start."""
        return self.invocations > 0 and self.cold_starts == self.invocations

    @property
    def never_cold(self) -> bool:
        """True when the function was invoked and never experienced a cold start."""
        return self.invocations > 0 and self.cold_starts == 0

    @property
    def wmt_ratio(self) -> float:
        """Wasted memory time divided by invoked minutes (paper Fig. 12)."""
        if self.invocations == 0:
            return float(self.wasted_memory_time)
        return self.wasted_memory_time / self.invocations


@dataclass
class ClusterStats:
    """Capacity-constrained outcomes of a run under a cluster model.

    Only present on results produced with a
    :class:`~repro.simulation.cluster.ClusterModel`; the paper's uncapped
    single-host setting leaves :attr:`SimulationResult.cluster` as ``None``.

    Attributes
    ----------
    n_nodes:
        Number of nodes the capacity was sharded over.
    memory_capacity:
        Total instance units the cluster could keep resident.
    node_capacity:
        Instance units per node (``ceil(memory_capacity / n_nodes)``).
    evictions:
        Instances the arbiter forced out of memory under capacity pressure
        while the policy proposed to keep them.
    capacity_cold_starts:
        Cold starts charged to functions the policy had declared resident —
        they would have been warm starts on an uncapped host.
    node_usage:
        Per-minute loaded units per node, shape ``(duration, n_nodes)``.
        Includes on-demand loads, so a minute may exceed ``node_capacity``
        transiently; the cap applies to what stays resident between minutes.
    placement:
        Name of the placement strategy the run used (``"hash"`` is the
        original static shard; see :mod:`repro.simulation.placement`).
    migrations:
        Sustained-pressure re-placements: instances moved to another node
        after their node stayed above the pressure threshold for K
        consecutive minutes.  0 unless the cluster model enables migration.
    migration_cold_starts:
        Cold starts that materialized because the invoked function had just
        been migrated (a subset of :attr:`capacity_cold_starts`: the policy
        had declared those functions resident).
    node_evictions:
        Per-node capacity evictions, shape ``(n_nodes,)``; sums to
        :attr:`evictions`.  ``None`` on results produced before per-node
        arbiters existed (unpickled from older caches).
    capacity_unit:
        What :attr:`memory_capacity`/:attr:`node_capacity` denominate:
        ``"instances"`` (default) or ``"mb"``.  Under ``"mb"`` the
        :attr:`node_usage` entries are measured *kilobytes* (the integer
        working unit of MB-mode accounting), and utilization is computed
        against the KB node capacity.
    """

    n_nodes: int
    memory_capacity: int
    node_capacity: int
    evictions: int
    capacity_cold_starts: int
    node_usage: np.ndarray
    placement: str = "hash"
    migrations: int = 0
    migration_cold_starts: int = 0
    node_evictions: np.ndarray | None = None
    capacity_unit: str = "instances"

    @property
    def mean_node_utilization(self) -> np.ndarray:
        """Mean per-node utilization (loaded load / node capacity)."""
        if self.node_usage.size == 0:
            return np.zeros(self.n_nodes, dtype=float)
        # MB-denominated stats record usage in KB; unit stats in instances.
        if getattr(self, "capacity_unit", "instances") == "mb":
            denominator = float(self.node_capacity) * 1024.0
        else:
            denominator = float(self.node_capacity)
        return self.node_usage.mean(axis=0) / denominator

    @property
    def peak_node_usage(self) -> int:
        """Highest loaded-unit count observed on any node in any minute."""
        if self.node_usage.size == 0:
            return 0
        return int(self.node_usage.max())

    @property
    def load_imbalance(self) -> float:
        """Coefficient of variation of the per-node mean load.

        0 means every node carried the same average load; a hot-shard run
        under hash placement drives this up, and the load-aware strategies
        drive it back down.  Single-node clusters are perfectly balanced by
        definition.
        """
        if self.node_usage.size == 0 or self.n_nodes <= 1:
            return 0.0
        means = self.node_usage.mean(axis=0)
        overall = float(means.mean())
        if overall == 0.0:
            return 0.0
        return float(means.std() / overall)


@dataclass
class LatencyStats:
    """Per-event cold-start latency distribution of an event-granular run.

    Only present on results produced by the ``event`` engine
    (:mod:`repro.simulation.events`); the minute-granular ``vectorized``
    engine counts cold starts but cannot attribute latency, so it leaves
    :attr:`SimulationResult.latency` as ``None``.

    Latency is attributed to two kinds of events:

    * *initiations* — the first invocation of a non-resident function in a
      minute, which triggers provisioning and waits the function's full
      ``cold_start_ms``.  Initiations correspond one-to-one with the
      minute-granular cold-start count.
    * *delayed events* — invocations arriving while that provisioning is
      still in flight; they queue and wait the residual time.

    All other events are *warm hits* with zero cold-start latency.  The raw
    per-event waits are retained (cold events are a small fraction of
    traffic), so percentiles are exact and merging across seeds is simply
    sample pooling — associative and commutative, see :meth:`merge`.

    When the run configured an intra-node CPU layer
    (:class:`~repro.simulation.scheduling.CpuConfig`), every event is
    additionally scheduled onto its node's finite core pool *after* any
    provisioning wait, populating the ``cpu_*`` counts, per-event
    :attr:`slowdown` samples, and — when
    :attr:`~repro.simulation.events.EventConfig.slo_ms` is set — the SLO
    violation counters.  Without a ``CpuConfig`` those fields stay at their
    zero/empty defaults.

    Like the wall-clock overhead fields, latency is an *observation layered
    on top of* the minute-granular simulation state: it never feeds back into
    residency decisions, and it is deliberately excluded from
    :meth:`SimulationResult.deterministic_fingerprint` so event-engine
    results remain fingerprint-comparable with the vectorized engine's.
    """

    #: All invocation events in the simulation window (sum of trace counts).
    total_events: int = 0
    #: Events served warm, with zero cold-start latency.
    warm_events: int = 0
    #: Events that triggered provisioning (== minute-granular cold starts).
    cold_start_events: int = 0
    #: Events that queued behind an in-flight provisioning.
    delayed_events: int = 0
    #: Initiations attributable to a capacity trim by the cluster arbiter
    #: (== :attr:`ClusterStats.capacity_cold_starts`; 0 for uncapped runs).
    capacity_cold_events: int = 0
    #: Initiations attributable to a sustained-pressure migration (==
    #: :attr:`ClusterStats.migration_cold_starts`; a subset of the
    #: capacity-attributed count, 0 unless the cluster migrates).
    migration_cold_events: int = 0
    #: Per-event cold-start waits in milliseconds (initiations + delayed).
    cold_wait_ms: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=float)
    )
    #: The same waits, grouped by function id (functions with none omitted).
    per_function_wait_ms: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Total execution time of all events (busy milliseconds), from the
    #: per-function :class:`~repro.traces.schema.DurationProfile`.
    total_execution_ms: float = 0.0
    #: Events routed through a finite core pool (all events of the run when
    #: :class:`~repro.simulation.scheduling.CpuConfig` is set, 0 otherwise).
    cpu_scheduled_events: int = 0
    #: Scheduled events that queued for a core (positive CPU wait).
    cpu_delayed_events: int = 0
    #: Per-event CPU-queueing waits in milliseconds (delayed events only).
    cpu_wait_ms: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=float)
    )
    #: Per-event slowdown — sojourn time (provisioning wait + CPU wait +
    #: execution) divided by execution time — for every scheduled event.
    #: 1.0 means "as fast as an empty system"; zero-service events are
    #: recorded as 1.0 by convention.
    slowdown: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=float))
    #: The SLO threshold (milliseconds of sojourn time) events were checked
    #: against; ``None`` when the run had no SLO configured.
    slo_ms: float | None = None
    #: Events checked against the SLO (== total events when an SLO is set).
    slo_checked_events: int = 0
    #: Checked events whose sojourn time exceeded the SLO.
    slo_violations: int = 0

    # ------------------------------------------------------------------ #
    def _percentile(self, percentile: float) -> float:
        if self.cold_wait_ms.size == 0:
            return 0.0
        return float(np.percentile(self.cold_wait_ms, percentile))

    @property
    def p50_ms(self) -> float:
        """Median cold-start wait over all latency-affected events."""
        return self._percentile(50.0)

    @property
    def p95_ms(self) -> float:
        """95th-percentile cold-start wait."""
        return self._percentile(95.0)

    @property
    def p99_ms(self) -> float:
        """99th-percentile cold-start wait."""
        return self._percentile(99.0)

    @property
    def mean_ms(self) -> float:
        """Mean cold-start wait over latency-affected events (0 when none)."""
        if self.cold_wait_ms.size == 0:
            return 0.0
        return float(self.cold_wait_ms.mean())

    @property
    def max_ms(self) -> float:
        """Worst cold-start wait observed."""
        if self.cold_wait_ms.size == 0:
            return 0.0
        return float(self.cold_wait_ms.max())

    @property
    def cold_event_fraction(self) -> float:
        """Fraction of events that experienced any cold-start latency."""
        if self.total_events == 0:
            return 0.0
        return (self.cold_start_events + self.delayed_events) / self.total_events

    # ------------------------------------------------------------------ #
    # CPU-scheduling / SLO aggregates (zero / empty without a CpuConfig)
    # ------------------------------------------------------------------ #
    def _slowdown_percentile(self, percentile: float) -> float:
        if self.slowdown.size == 0:
            return 0.0
        return float(np.percentile(self.slowdown, percentile))

    @property
    def slowdown_p50(self) -> float:
        """Median per-event slowdown (0.0 when no events were scheduled)."""
        return self._slowdown_percentile(50.0)

    @property
    def slowdown_p99(self) -> float:
        """99th-percentile per-event slowdown."""
        return self._slowdown_percentile(99.0)

    @property
    def slowdown_mean(self) -> float:
        """Mean per-event slowdown (0.0 when no events were scheduled)."""
        if self.slowdown.size == 0:
            return 0.0
        return float(self.slowdown.mean())

    @property
    def cpu_wait_p99_ms(self) -> float:
        """99th-percentile CPU-queueing wait among delayed events."""
        if self.cpu_wait_ms.size == 0:
            return 0.0
        return float(np.percentile(self.cpu_wait_ms, 99.0))

    @property
    def cpu_delayed_fraction(self) -> float:
        """Fraction of scheduled events that queued for a core."""
        if self.cpu_scheduled_events == 0:
            return 0.0
        return self.cpu_delayed_events / self.cpu_scheduled_events

    @property
    def slo_violation_rate(self) -> float:
        """SLO violations over checked events (0.0 when nothing checked)."""
        if self.slo_checked_events == 0:
            return 0.0
        return self.slo_violations / self.slo_checked_events

    def function_tail(self, percentile: float = 99.0) -> Dict[str, float]:
        """Per-function tail latency: ``{function_id: percentile wait}``.

        Only functions that experienced at least one latency-affected event
        appear; a function served entirely warm has no tail to report.
        """
        # Imported lazily: repro.metrics renders tables *of* results, so a
        # module-level import here would be circular.
        from repro.metrics.distribution import tail_by_key

        return tail_by_key(self.per_function_wait_ms, percentile)

    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, stats: Iterable["LatencyStats"]) -> "LatencyStats":
        """Pool several runs' latency observations into one distribution.

        Counts add and raw samples concatenate, so the merge is associative
        and commutative (up to sample order, which no percentile observes):
        merging per-seed statistics in any grouping yields identical
        aggregates.  This is the multi-seed aggregation the experiment suite
        uses for its latency tables.
        """
        from repro.metrics.distribution import merge_samples

        stats = list(stats)
        merged = cls()
        per_function: Dict[str, list[np.ndarray]] = {}
        for item in stats:
            merged.total_events += item.total_events
            merged.warm_events += item.warm_events
            merged.cold_start_events += item.cold_start_events
            merged.delayed_events += item.delayed_events
            merged.capacity_cold_events += item.capacity_cold_events
            # getattr: stats unpickled from caches written before migration
            # accounting existed carry no field.
            merged.migration_cold_events += getattr(item, "migration_cold_events", 0)
            merged.total_execution_ms += item.total_execution_ms
            # getattr guards, as above: the CPU/SLO fields postdate older
            # cached pickles.
            merged.cpu_scheduled_events += getattr(item, "cpu_scheduled_events", 0)
            merged.cpu_delayed_events += getattr(item, "cpu_delayed_events", 0)
            merged.slo_checked_events += getattr(item, "slo_checked_events", 0)
            merged.slo_violations += getattr(item, "slo_violations", 0)
            item_slo = getattr(item, "slo_ms", None)
            if item_slo is not None and merged.slo_ms is None:
                merged.slo_ms = item_slo
            for function_id, samples in item.per_function_wait_ms.items():
                per_function.setdefault(function_id, []).append(
                    np.asarray(samples, dtype=float)
                )
        empty = np.zeros(0, dtype=float)
        merged.cold_wait_ms = merge_samples(item.cold_wait_ms for item in stats)
        merged.cpu_wait_ms = merge_samples(
            getattr(item, "cpu_wait_ms", empty) for item in stats
        )
        merged.slowdown = merge_samples(
            getattr(item, "slowdown", empty) for item in stats
        )
        merged.per_function_wait_ms = {
            function_id: merge_samples(groups)
            for function_id, groups in sorted(per_function.items())
        }
        return merged

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Flat headline numbers, merged into the result-level summary."""
        from repro.metrics.distribution import percentile_summary

        percentiles = percentile_summary(self.cold_wait_ms)
        summary = {
            "events": float(self.total_events),
            "cold_event_fraction": self.cold_event_fraction,
            **{f"lat_{label}_ms": value for label, value in percentiles.items()},
            "lat_mean_ms": self.mean_ms,
            "lat_max_ms": self.max_ms,
        }
        if self.cpu_scheduled_events > 0:
            summary["slowdown_p50"] = self.slowdown_p50
            summary["slowdown_p99"] = self.slowdown_p99
            summary["cpu_delayed_fraction"] = self.cpu_delayed_fraction
            summary["cpu_wait_p99_ms"] = self.cpu_wait_p99_ms
        if self.slo_checked_events > 0:
            summary["slo_violation_rate"] = self.slo_violation_rate
        return summary


@dataclass
class SimulationResult:
    """Aggregated outcome of one policy simulated over one trace window.

    Attributes
    ----------
    policy_name:
        Name of the simulated policy.
    duration_minutes:
        Length of the simulation window.
    per_function:
        Statistics for every function that was invoked or kept resident.
    memory_usage:
        Per-minute number of loaded instances.
    total_wasted_memory_time:
        Sum of idle instance-minutes over the run.
    emcr:
        Effective memory consumption ratio.
    overhead_seconds:
        Total wall-clock time spent inside the policy's decision code.
    overhead_per_minute:
        Mean policy decision time per simulated minute, in seconds.
    cluster:
        Capacity-constrained statistics when the run used a
        :class:`~repro.simulation.cluster.ClusterModel`; ``None`` in the
        paper's uncapped setting.
    latency:
        Per-event cold-start latency distribution when the run used the
        ``event`` engine; ``None`` for the minute-granular engines.
    memory_mode:
        ``"unit"`` (the paper's one-abstract-unit-per-instance accounting,
        always collected) or ``"mb"`` (measured footprints additionally
        collected — the fields below).  Unit-mode results hash exactly as
        before this field existed.
    memory_usage_kb:
        Per-minute loaded *kilobytes* (measured footprints, integer), MB
        mode only; ``None`` otherwise.
    total_wasted_memory_kb:
        Idle KB-minutes over the run (footprint-weighted WMT), MB mode only.
    emcr_mb:
        Footprint-weighted effective memory consumption ratio, MB mode only
        (0.0 otherwise; derived from integer KB totals so it is exact and
        never NaN).
    """

    policy_name: str
    duration_minutes: int
    per_function: Dict[str, FunctionStats] = field(default_factory=dict)
    memory_usage: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    total_wasted_memory_time: int = 0
    emcr: float = 0.0
    overhead_seconds: float = 0.0
    overhead_per_minute: float = 0.0
    cluster: ClusterStats | None = None
    latency: LatencyStats | None = None
    memory_mode: str = "unit"
    memory_usage_kb: np.ndarray | None = None
    total_wasted_memory_kb: int = 0
    emcr_mb: float = 0.0

    # ------------------------------------------------------------------ #
    # Pickling: per-function statistics travel as columns
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Instance state with :attr:`per_function` packed into columns.

        A pool task returns one result per shard and the result cache
        stores one per cell, each holding up to tens of thousands of
        :class:`FunctionStats`.  Pickled as objects they dominate the
        payload's cost, so ``per_function`` is stored instead as the tuple
        ``(keys, function_ids, counts)``: the dict's keys in insertion
        order, each entry's ``function_id``, and an ``int64`` array whose
        three rows are ``invocations``, ``cold_starts`` and
        ``wasted_memory_time``.  Every count passes through
        :func:`operator.index`, so a float raises ``TypeError`` instead of
        being truncated, and a count beyond ``int64`` raises
        ``OverflowError``.  Every other field pickles as it always has.
        """
        state = dict(self.__dict__)
        stats = list(self.per_function.values())
        counts = np.array(
            [
                [index(item.invocations) for item in stats],
                [index(item.cold_starts) for item in stats],
                [index(item.wasted_memory_time) for item in stats],
            ],
            dtype=np.int64,
        )
        state["per_function"] = (
            list(self.per_function),
            [item.function_id for item in stats],
            counts,
        )
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Rebuild :attr:`per_function` from its columns, in key order.

        Counts come back as plain Python ints.  A state whose
        ``per_function`` is still a dict (pickled before the columnar
        layout existed) loads unchanged.
        """
        packed = state.get("per_function")
        if isinstance(packed, tuple):
            keys, function_ids, counts = packed
            invocations, cold_starts, wasted = counts.tolist()
            state = dict(state)
            state["per_function"] = dict(
                zip(
                    keys,
                    map(FunctionStats, function_ids, invocations, cold_starts, wasted),
                )
            )
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Cold-start aggregates
    # ------------------------------------------------------------------ #
    def invoked_functions(self) -> list[FunctionStats]:
        """Statistics for functions invoked at least once during the run."""
        return [stats for stats in self.per_function.values() if stats.invocations > 0]

    @property
    def total_invocations(self) -> int:
        """Total invoked minutes over all functions."""
        return sum(stats.invocations for stats in self.per_function.values())

    @property
    def total_cold_starts(self) -> int:
        """Total cold starts over all functions."""
        return sum(stats.cold_starts for stats in self.per_function.values())

    @property
    def overall_cold_start_rate(self) -> float:
        """Cold starts divided by invocations over the whole run."""
        invocations = self.total_invocations
        if invocations == 0:
            return 0.0
        return self.total_cold_starts / invocations

    def cold_start_rates(self) -> np.ndarray:
        """Function-wise cold-start rates (only functions that were invoked)."""
        rates = [stats.cold_start_rate for stats in self.invoked_functions()]
        return np.asarray(rates, dtype=float)

    def cold_start_rate_percentile(self, percentile: float) -> float:
        """Percentile of the function-wise cold-start-rate distribution.

        The paper's headline metric is the 75th percentile (``Q3-CSR``).
        """
        rates = self.cold_start_rates()
        if rates.size == 0:
            return 0.0
        return float(np.percentile(rates, percentile))

    @property
    def q3_cold_start_rate(self) -> float:
        """The 75th-percentile function-wise cold-start rate."""
        return self.cold_start_rate_percentile(75.0)

    @property
    def always_cold_fraction(self) -> float:
        """Fraction of invoked functions whose every invocation was cold."""
        invoked = self.invoked_functions()
        if not invoked:
            return 0.0
        return sum(1 for stats in invoked if stats.always_cold) / len(invoked)

    @property
    def never_cold_fraction(self) -> float:
        """Fraction of invoked functions that experienced no cold start at all."""
        invoked = self.invoked_functions()
        if not invoked:
            return 0.0
        return sum(1 for stats in invoked if stats.never_cold) / len(invoked)

    # ------------------------------------------------------------------ #
    # Memory aggregates
    # ------------------------------------------------------------------ #
    @property
    def average_memory_usage(self) -> float:
        """Mean loaded instances per minute."""
        if self.memory_usage.size == 0:
            return 0.0
        return float(self.memory_usage.mean())

    @property
    def peak_memory_usage(self) -> int:
        """Maximum loaded instances in any minute."""
        if self.memory_usage.size == 0:
            return 0
        return int(self.memory_usage.max())

    def wmt_per_function(self) -> Dict[str, int]:
        """Wasted memory time attributed to each function."""
        return {
            function_id: stats.wasted_memory_time
            for function_id, stats in self.per_function.items()
        }

    # ------------------------------------------------------------------ #
    # Measured-footprint (MB-mode) aggregates; zeros outside MB mode
    # ------------------------------------------------------------------ #
    @property
    def average_memory_usage_mb(self) -> float:
        """Mean loaded megabytes per minute (0.0 outside MB mode)."""
        series = getattr(self, "memory_usage_kb", None)
        if series is None or series.size == 0:
            return 0.0
        return float(series.mean()) / 1024.0

    @property
    def peak_memory_usage_mb(self) -> float:
        """Maximum loaded megabytes in any minute (0.0 outside MB mode)."""
        series = getattr(self, "memory_usage_kb", None)
        if series is None or series.size == 0:
            return 0.0
        return float(series.max()) / 1024.0

    @property
    def wasted_memory_mb_minutes(self) -> float:
        """Footprint-weighted WMT in MB-minutes (0.0 outside MB mode)."""
        return float(getattr(self, "total_wasted_memory_kb", 0)) / 1024.0

    # ------------------------------------------------------------------ #
    @classmethod
    def merge_shards(
        cls,
        shard_results: Iterable["SimulationResult | None"],
        cluster_model: "object | None" = None,
    ) -> "SimulationResult":
        """Recombine per-shard results into the one-run equivalent.

        ``shard_results`` is ordered by shard index (``None`` marks a shard
        whose partition held no functions, which contributes zeros).  Every
        merged field is rebuilt from exact integer totals, so for a
        migration-free run the merge is *fingerprint-identical* to the
        unsharded simulation:

        * per-function statistics are a disjoint union across shards;
        * the memory series is the element-wise sum, and the total wasted
          memory time is the plain sum;
        * EMCR is re-derived as ``(loaded - idle) / loaded`` from the summed
          integer loaded/idle minutes — the same two integers the unsharded
          :class:`~repro.simulation.memory.MemoryAccountant` divides;
        * cluster statistics are rebuilt against ``cluster_model`` (shard
          ``i`` ran node ``i`` as a single-node cluster, so per-shard node
          columns concatenate in shard order);
        * latency observations pool via :meth:`LatencyStats.merge` — counts
          are exact, but the wait *values* draw from per-shard jitter streams
          and are excluded from the fingerprint anyway.

        Overhead seconds sum across shards (they measure total CPU spent in
        policy code, not wall clock).
        """
        results = list(shard_results)
        live = [result for result in results if result is not None]
        if not live:
            raise ValueError("merge_shards needs at least one non-empty shard")
        duration = live[0].duration_minutes
        policy_name = live[0].policy_name
        for result in live:
            if result.duration_minutes != duration:
                raise ValueError("shard results cover different durations")
            if result.policy_name != policy_name:
                raise ValueError("shard results come from different policies")

        per_function: Dict[str, FunctionStats] = {}
        memory_usage = np.zeros(duration, dtype=np.int64)
        loaded = 0
        total_wmt = 0
        overhead_seconds = 0.0
        # getattr guards throughout: shard results unpickled from caches
        # written before MB accounting existed carry none of the KB fields.
        memory_mode = getattr(live[0], "memory_mode", "unit")
        memory_usage_kb = (
            np.zeros(duration, dtype=np.int64) if memory_mode != "unit" else None
        )
        loaded_kb = 0
        total_wmt_kb = 0
        for result in live:
            overlap = per_function.keys() & result.per_function.keys()
            if overlap:
                raise ValueError(
                    f"shard partitions overlap on {len(overlap)} function(s)"
                )
            if getattr(result, "memory_mode", "unit") != memory_mode:
                raise ValueError("shard results mix memory modes")
            per_function.update(result.per_function)
            memory_usage += np.ascontiguousarray(result.memory_usage, dtype=np.int64)
            loaded += int(np.asarray(result.memory_usage, dtype=np.int64).sum())
            total_wmt += int(result.total_wasted_memory_time)
            overhead_seconds += result.overhead_seconds
            if memory_usage_kb is not None and result.memory_usage_kb is not None:
                shard_kb = np.ascontiguousarray(
                    result.memory_usage_kb, dtype=np.int64
                )
                memory_usage_kb += shard_kb
                loaded_kb += int(shard_kb.sum())
                total_wmt_kb += int(result.total_wasted_memory_kb)
        emcr = (loaded - total_wmt) / loaded if loaded > 0 else 0.0
        # Same exact-integer re-derivation as the unsharded accountant: the
        # merged MB-mode EMCR is bit-identical, never a float average.
        emcr_mb = (loaded_kb - total_wmt_kb) / loaded_kb if loaded_kb > 0 else 0.0

        cluster = None
        if cluster_model is not None:
            n_nodes = int(cluster_model.n_nodes)
            node_usage = np.zeros((duration, n_nodes), dtype=np.int64)
            node_evictions = np.zeros(n_nodes, dtype=np.int64)
            evictions = 0
            capacity_cold_starts = 0
            for node, result in enumerate(results):
                if result is None or result.cluster is None:
                    continue
                node_usage[:, node] = result.cluster.node_usage[:, 0]
                node_evictions[node] = result.cluster.evictions
                evictions += result.cluster.evictions
                capacity_cold_starts += result.cluster.capacity_cold_starts
            cluster = ClusterStats(
                n_nodes=n_nodes,
                memory_capacity=int(cluster_model.memory_capacity),
                node_capacity=int(cluster_model.node_capacity),
                evictions=evictions,
                capacity_cold_starts=capacity_cold_starts,
                node_usage=node_usage,
                placement=str(cluster_model.placement),
                migrations=0,
                migration_cold_starts=0,
                node_evictions=node_evictions,
                capacity_unit=str(getattr(cluster_model, "capacity_unit", "instances")),
            )

        latencies = [result.latency for result in live if result.latency is not None]
        latency = LatencyStats.merge(latencies) if latencies else None

        return cls(
            policy_name=policy_name,
            duration_minutes=duration,
            per_function=per_function,
            memory_usage=memory_usage,
            total_wasted_memory_time=total_wmt,
            emcr=emcr,
            overhead_seconds=overhead_seconds,
            overhead_per_minute=overhead_seconds / duration if duration else 0.0,
            cluster=cluster,
            latency=latency,
            memory_mode=memory_mode,
            memory_usage_kb=memory_usage_kb,
            total_wasted_memory_kb=total_wmt_kb,
            emcr_mb=emcr_mb,
        )

    # ------------------------------------------------------------------ #
    def deterministic_fingerprint(self) -> str:
        """Content hash over every *simulation-determined* field.

        Two runs of the same policy over the same trace with the same seed
        produce the same fingerprint, whether they ran serially, in a worker
        process, or came from the on-disk cache.  The wall-clock overhead
        fields are excluded: they measure the host, not the simulation.  The
        optional :attr:`latency` block is also excluded: it is a sub-minute
        observation layered on top of the minute-granular state, and keeping
        it out is what lets the equivalence tests assert that the event
        engine's minute aggregates are *fingerprint-identical* to the
        vectorized engine's.
        """
        digest = hashlib.sha256()
        digest.update(self.policy_name.encode())
        digest.update(str(self.duration_minutes).encode())
        for function_id in sorted(self.per_function):
            stats = self.per_function[function_id]
            digest.update(
                f"{function_id}:{stats.invocations}:{stats.cold_starts}:"
                f"{stats.wasted_memory_time};".encode()
            )
        digest.update(np.ascontiguousarray(self.memory_usage, dtype=np.int64).tobytes())
        digest.update(str(self.total_wasted_memory_time).encode())
        digest.update(repr(self.emcr).encode())
        # Results from uncapped runs hash exactly as before this field existed
        # (getattr guards results unpickled from older cache entries).
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            digest.update(
                f"cluster:{cluster.n_nodes}:{cluster.memory_capacity}:"
                f"{cluster.evictions}:{cluster.capacity_cold_starts};".encode()
            )
            digest.update(
                np.ascontiguousarray(cluster.node_usage, dtype=np.int64).tobytes()
            )
            # Placement joined the model after the hash-sharded golds were
            # pinned: the default strategy without migrations hashes exactly
            # as before, while every other configuration is distinguished.
            placement = getattr(cluster, "placement", "hash")
            migrations = getattr(cluster, "migrations", 0)
            if placement != "hash" or migrations:
                digest.update(
                    f"placement:{placement}:{migrations}:"
                    f"{getattr(cluster, 'migration_cold_starts', 0)};".encode()
                )
            # MB-denominated capacities joined after the instance-mode golds
            # were pinned: instance-unit stats hash exactly as before.
            capacity_unit = getattr(cluster, "capacity_unit", "instances")
            if capacity_unit != "instances":
                digest.update(f"capacity_unit:{capacity_unit};".encode())
        # The measured-footprint channels joined after the unit-mode golds
        # were pinned: unit-mode results hash exactly as before this block
        # existed, while MB-mode runs are distinguished by their exact
        # integer KB series.
        memory_mode = getattr(self, "memory_mode", "unit")
        if memory_mode != "unit":
            digest.update(f"memory_mode:{memory_mode};".encode())
            if self.memory_usage_kb is not None:
                digest.update(
                    np.ascontiguousarray(
                        self.memory_usage_kb, dtype=np.int64
                    ).tobytes()
                )
            digest.update(str(self.total_wasted_memory_kb).encode())
            digest.update(repr(self.emcr_mb).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """A flat dictionary of headline metrics, handy for tables and tests."""
        summary = self._base_summary()
        if getattr(self, "memory_mode", "unit") != "unit":
            summary.update(
                wasted_memory_mb_min=self.wasted_memory_mb_minutes,
                avg_memory_mb=self.average_memory_usage_mb,
                peak_memory_mb=self.peak_memory_usage_mb,
                emcr_mb=self.emcr_mb,
            )
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            summary.update(
                evictions=float(cluster.evictions),
                capacity_cold_starts=float(cluster.capacity_cold_starts),
                mean_node_utilization=float(cluster.mean_node_utilization.mean()),
                migrations=float(getattr(cluster, "migrations", 0)),
                load_imbalance=float(getattr(cluster, "load_imbalance", 0.0)),
            )
        latency = getattr(self, "latency", None)
        if latency is not None:
            summary.update(latency.summary())
        return summary

    def _base_summary(self) -> Dict[str, float]:
        return {
            "policy": self.policy_name,
            "invocations": float(self.total_invocations),
            "cold_starts": float(self.total_cold_starts),
            "overall_csr": self.overall_cold_start_rate,
            "q3_csr": self.q3_cold_start_rate,
            "p90_csr": self.cold_start_rate_percentile(90.0),
            "always_cold_fraction": self.always_cold_fraction,
            "never_cold_fraction": self.never_cold_fraction,
            "wasted_memory_time": float(self.total_wasted_memory_time),
            "avg_memory": self.average_memory_usage,
            "peak_memory": float(self.peak_memory_usage),
            "emcr": self.emcr,
            "overhead_per_minute_s": self.overhead_per_minute,
        }


def compare_results(results: Mapping[str, SimulationResult]) -> Dict[str, Dict[str, float]]:
    """Build a ``{policy: summary}`` mapping from several simulation results."""
    return {name: result.summary() for name, result in results.items()}
