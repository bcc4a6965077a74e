"""Multi-seed experiment suite: the full policy comparison as one sweep.

:class:`ExperimentSuite` scales the paper's evaluation from "one workload,
one policy at a time" to "(policy × seed) cells fanned out over a process
pool".  It prepares one workload per seed (generated and split once, handed
to the workers by :class:`~repro.experiments.parallel.ParallelRunner`), then
runs the sweep in two stages:

1. every seed's SPES cell — these fix the FaaSCache capacity per seed
   (the paper sets it to SPES's peak memory usage on the same workload);
2. every remaining ``(baseline × seed)`` cell.

Within each stage all cells are independent, so the wall-clock of a full
RQ1/RQ2 sweep approaches ``serial time / workers`` plus the one-off workload
preparation.  Results are keyed ``{seed: {policy: SimulationResult}}`` and,
with a ``cache_dir``, persisted so repeated sweeps only simulate new cells.

The suite is the only experiment front-end: the ``spes-repro``
``compare``/``tradeoff``/``ablation``/``sweep`` commands, the RQ3 sweeps
and RQ4 ablations (through :meth:`ExperimentSuite.run_spes_variants`) and
the results book all run on it.  The book's RQ5/RQ6 suites are derived
from its RQ1/RQ2 suite (:meth:`ExperimentSuite.derive`) and share each
seed's built workload.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Sequence

from repro.core import SpesConfig
from repro.experiments.parallel import (
    POLICY_REGISTRY,
    ParallelRunner,
    PolicySpec,
    SweepCell,
    default_policy_specs,
)
from repro.metrics.summary import ComparisonTable
from repro.simulation import EventConfig, LatencyStats, SimulationResult
from repro.simulation.spec import RunSpec, content_digest
from repro.traces import AzureTraceGenerator, GeneratorProfile, TraceSplit, split_trace

__all__ = ["ExperimentConfig", "ExperimentSuite", "SuiteResult", "DEFAULT_SUITE_POLICIES"]

#: Policy names of the paper's comparison, in presentation order.
DEFAULT_SUITE_POLICIES = (
    "spes",
    "fixed-10min",
    "hybrid-function",
    "hybrid-application",
    "defuse",
    "faascache",
)


@dataclass
class ExperimentConfig:
    """Configuration of one reproduction experiment.

    Attributes
    ----------
    n_functions:
        Number of functions in the synthetic workload.
    seed:
        Workload seed.
    duration_days:
        Total trace length (the Azure trace spans 14 days).
    training_days:
        Days used for offline pattern modelling (12 in the paper).
    warmup_minutes:
        Minutes of history replayed through each policy before metrics start.
    spes_config:
        SPES configuration of the suite's ``spes`` cells; the RQ3 sweeps and
        RQ4 ablations vary it.
    """

    n_functions: int = 400
    seed: int = 2024
    duration_days: float = 14.0
    training_days: float = 12.0
    warmup_minutes: int = 1440
    spes_config: SpesConfig = field(default_factory=SpesConfig)

    def generator_profile(self) -> GeneratorProfile:
        """Profile of the synthetic workload generator for this experiment."""
        return GeneratorProfile(
            n_functions=self.n_functions,
            duration_days=self.duration_days,
            # Keep the unseen-function window inside short experiment traces.
            unseen_window_days=min(2.0, self.duration_days / 4.0),
            seed=self.seed,
        )


@dataclass
class SuiteResult:
    """Outcome of one suite sweep.

    Attributes
    ----------
    results:
        ``{seed: {policy: SimulationResult}}`` for every simulated cell.
    wall_seconds:
        End-to-end sweep duration (workload preparation included).
    workers:
        Worker processes the sweep ran with (0/1 = serial).
    cache_hits / cache_misses:
        On-disk cache statistics (both 0 when caching is disabled).
    """

    results: Dict[int, Dict[str, SimulationResult]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    workers: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def seed_table(self, seed: int) -> ComparisonTable:
        """Headline metrics of every policy for one seed's workload.

        Capacity-constrained sweeps (scenario with a cluster model) get two
        extra columns: arbiter evictions and capacity-induced cold starts.
        Event-engine sweeps get the cold-start latency percentiles
        (p50/p95/p99 over latency-affected events).
        """
        capacity_run = any(
            result.cluster is not None for result in self.results[seed].values()
        )
        latency_run = any(
            result.latency is not None for result in self.results[seed].values()
        )
        cpu_run = any(
            result.latency is not None
            and getattr(result.latency, "cpu_scheduled_events", 0) > 0
            for result in self.results[seed].values()
        )
        slo_run = any(
            result.latency is not None
            and getattr(result.latency, "slo_checked_events", 0) > 0
            for result in self.results[seed].values()
        )
        mb_run = any(
            getattr(result, "memory_mode", "unit") == "mb"
            for result in self.results[seed].values()
        )
        columns = ["policy", "q3_csr", "always_cold_pct", "avg_memory", "wmt", "emcr_pct"]
        if mb_run:
            columns += ["avg_mb", "wmt_mb_min", "emcr_mb_pct"]
        if capacity_run:
            columns += ["evictions", "cap_cold_starts"]
        if latency_run:
            columns += ["lat_p50_ms", "lat_p95_ms", "lat_p99_ms"]
        if cpu_run:
            columns += ["slowdown_p50", "slowdown_p99"]
        if slo_run:
            columns += ["slo_viol_pct"]
        table = ComparisonTable(
            title=f"Policy suite (seed {seed})",
            columns=tuple(columns),
        )
        for name, result in self.results[seed].items():
            row = dict(
                policy=name,
                q3_csr=result.q3_cold_start_rate,
                always_cold_pct=100.0 * result.always_cold_fraction,
                avg_memory=result.average_memory_usage,
                wmt=float(result.total_wasted_memory_time),
                emcr_pct=100.0 * result.emcr,
            )
            if mb_run:
                row["avg_mb"] = result.average_memory_usage_mb
                row["wmt_mb_min"] = result.wasted_memory_mb_minutes
                row["emcr_mb_pct"] = 100.0 * getattr(result, "emcr_mb", 0.0)
            if capacity_run:
                cluster = result.cluster
                row["evictions"] = float(cluster.evictions) if cluster else 0.0
                row["cap_cold_starts"] = (
                    float(cluster.capacity_cold_starts) if cluster else 0.0
                )
            if latency_run:
                latency = result.latency
                row["lat_p50_ms"] = latency.p50_ms if latency else 0.0
                row["lat_p95_ms"] = latency.p95_ms if latency else 0.0
                row["lat_p99_ms"] = latency.p99_ms if latency else 0.0
            if cpu_run:
                latency = result.latency
                row["slowdown_p50"] = latency.slowdown_p50 if latency else 0.0
                row["slowdown_p99"] = latency.slowdown_p99 if latency else 0.0
            if slo_run:
                latency = result.latency
                row["slo_viol_pct"] = (
                    100.0 * latency.slo_violation_rate if latency else 0.0
                )
            table.add_row(**row)
        return table

    def latency_table(self, seed: int) -> ComparisonTable | None:
        """Cold-start latency distribution per policy, or ``None`` off the
        event engine."""
        rows = {
            name: result.latency
            for name, result in self.results[seed].items()
            if result.latency is not None
        }
        if not rows:
            return None
        cpu_run = any(
            getattr(latency, "cpu_scheduled_events", 0) > 0
            for latency in rows.values()
        )
        slo_run = any(
            getattr(latency, "slo_checked_events", 0) > 0
            for latency in rows.values()
        )
        columns = [
            "policy",
            "events",
            "cold_pct",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
        ]
        if cpu_run:
            columns += ["slowdown_p50", "slowdown_p99", "cpu_wait_p99_ms"]
        if slo_run:
            columns += ["slo_viol_pct"]
        table = ComparisonTable(
            title=f"Cold-start latency (seed {seed}; event engine)",
            columns=tuple(columns),
        )
        for name, latency in rows.items():
            row = dict(
                policy=name,
                events=float(latency.total_events),
                cold_pct=100.0 * latency.cold_event_fraction,
                p50_ms=latency.p50_ms,
                p95_ms=latency.p95_ms,
                p99_ms=latency.p99_ms,
                max_ms=latency.max_ms,
            )
            if cpu_run:
                row["slowdown_p50"] = latency.slowdown_p50
                row["slowdown_p99"] = latency.slowdown_p99
                row["cpu_wait_p99_ms"] = latency.cpu_wait_p99_ms
            if slo_run:
                row["slo_viol_pct"] = 100.0 * latency.slo_violation_rate
            table.add_row(**row)
        return table

    def merged_latency(self, policy: str) -> LatencyStats | None:
        """One policy's latency distribution pooled across every seed.

        Uses :meth:`LatencyStats.merge` (associative sample pooling), so the
        result is independent of seed order.  ``None`` off the event engine.
        """
        stats = [
            per_policy[policy].latency
            for per_policy in self.results.values()
            if policy in per_policy and per_policy[policy].latency is not None
        ]
        if not stats:
            return None
        return LatencyStats.merge(stats)

    def cluster_table(self, seed: int) -> ComparisonTable | None:
        """Capacity effects per policy, or ``None`` for uncapped sweeps."""
        rows = {
            name: result.cluster
            for name, result in self.results[seed].items()
            if result.cluster is not None
        }
        if not rows:
            return None
        first = next(iter(rows.values()))
        placement = getattr(first, "placement", "hash")
        unit = "MB" if getattr(first, "capacity_unit", "instances") == "mb" else "units"
        table = ComparisonTable(
            title=(
                f"Capacity effects (seed {seed}; cap {first.memory_capacity} {unit} "
                f"over {first.n_nodes} node(s); placement {placement})"
            ),
            columns=(
                "policy",
                "evictions",
                "cap_cold_starts",
                "migrations",
                "mean_util_pct",
                "imbalance",
                "peak_node_usage",
            ),
        )
        for name, cluster in rows.items():
            table.add_row(
                policy=name,
                evictions=float(cluster.evictions),
                cap_cold_starts=float(cluster.capacity_cold_starts),
                migrations=float(getattr(cluster, "migrations", 0)),
                mean_util_pct=100.0 * float(cluster.mean_node_utilization.mean()),
                imbalance=float(getattr(cluster, "load_imbalance", 0.0)),
                peak_node_usage=float(cluster.peak_node_usage),
            )
        return table

    def aggregate_table(self) -> ComparisonTable:
        """Mean (and spread) of each policy's Q3-CSR and memory across seeds."""
        table = ComparisonTable(
            title=f"Policy suite aggregated over {len(self.results)} seed(s)",
            columns=("policy", "mean_q3_csr", "stdev_q3_csr", "mean_avg_memory", "mean_emcr_pct"),
        )
        policies: list[str] = []
        for per_policy in self.results.values():
            for name in per_policy:
                if name not in policies:
                    policies.append(name)
        for name in policies:
            q3 = [r[name].q3_cold_start_rate for r in self.results.values() if name in r]
            memory = [r[name].average_memory_usage for r in self.results.values() if name in r]
            emcr = [r[name].emcr for r in self.results.values() if name in r]
            table.add_row(
                policy=name,
                mean_q3_csr=statistics.fmean(q3),
                stdev_q3_csr=statistics.stdev(q3) if len(q3) > 1 else 0.0,
                mean_avg_memory=statistics.fmean(memory),
                mean_emcr_pct=100.0 * statistics.fmean(emcr),
            )
        return table


def _memo_key(trace_key: str, spec: PolicySpec) -> tuple[str, str]:
    """Content key of one cell's result within a suite."""
    return trace_key, content_digest(spec)


class ExperimentSuite:
    """Runs the policy comparison over several seeds with shared machinery.

    Parameters
    ----------
    config:
        Base experiment configuration; its ``seed`` field is overridden by
        each entry of ``seeds``.
    seeds:
        Workload seeds to sweep.  Each seed yields an independent synthetic
        workload, so multiple seeds quantify the variance of every headline
        metric.
    policies:
        Policy names to simulate (see
        :data:`~repro.experiments.parallel.POLICY_REGISTRY` and
        :data:`DEFAULT_SUITE_POLICIES`).  ``"faascache"`` requires ``"spes"``
        to also be listed, since its capacity is derived from SPES's peak
        memory usage on the same workload.
    workers:
        Worker processes for the fan-out (0/1 = serial).
    cache_dir:
        Optional on-disk result cache shared across sweeps.
    scenario:
        Optional name from :data:`repro.scenarios.SCENARIO_REGISTRY`.  Each
        seed's workload is then built by the scenario instead of the plain
        synthetic generator, and a scenario-prescribed cluster model (e.g.
        ``capacity-squeeze``) puts every cell into capacity-constrained mode.
    scenario_params:
        Overrides for the scenario's parameters (see each scenario's
        ``defaults``).
    placement:
        Optional placement-strategy override (a name from
        :data:`repro.simulation.placement.PLACEMENT_REGISTRY`) applied to
        the scenario-prescribed cluster model of every seed's workload.
        Requires a scenario that actually prescribes a cluster (e.g.
        ``capacity-squeeze`` or ``hot-shard``); ``None`` keeps each
        scenario's own configuration (the ``hash`` default).
    engine:
        Engine implementation every cell runs on.  ``"event"`` turns cold
        starts into latency distributions: each seed's workload gets an
        :class:`~repro.simulation.events.EventConfig` (the scenario's when a
        scenario is set, defaults keyed to the seed otherwise) and the
        result tables grow p50/p95/p99 cold-start latency columns.  It
        also streams the rolling latency window between minutes into every
        policy that overrides ``on_feedback`` — the adaptation signal for
        latency-aware policies; the classic policies never see it.
    streaming:
        When True, the sweep runs in streaming evaluation mode: policies
        receive *zero* training window (no offline phase input, no warm-up
        replay) and must adapt online, from inside the simulation window.
        This is the evaluation regime the continuous-drift scenarios
        (``rotating-periods``, ``load-ramp``, ``seasonal-mix``) are designed
        for — an offline histogram trained on a window that no longer
        describes the traffic is exactly what streaming mode takes away.
    shards:
        When >= 2, shardable cells run as function partitions (merged back
        into one result per cell; see
        :mod:`repro.simulation.sharding`) — with ``workers > 1`` every
        partition is its own pool task.  Cells that cannot shard fall back
        to whole-cell execution with a warning.
    shard_placement:
        Placement strategy deriving the function→shard partition.
    cores:
        Optional per-node core count: enables the event engine's intra-node
        CPU stage (see :class:`~repro.simulation.scheduling.CpuConfig`),
        overriding any scenario-prescribed CPU config.  Requires the event
        engine.
    scheduler:
        CPU scheduler name (``fifo``/``rr``/``srtf``/``las``) for the core
        pool; requires ``cores``.
    slo_ms:
        Optional sojourn-time SLO in milliseconds, checked per event (see
        :attr:`~repro.simulation.events.EventConfig.slo_ms`); overrides any
        scenario-prescribed SLO.  Requires an event engine.
    memory_mode:
        Memory accounting mode for every cell (``"unit"`` default; ``"mb"``
        weighs loaded instances by measured footprints and adds MB columns
        to the result tables).  Requires a mask-based engine.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        seeds: Sequence[int] | None = None,
        policies: Sequence[str] = DEFAULT_SUITE_POLICIES,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        scenario: str | None = None,
        scenario_params: Mapping[str, object] | None = None,
        placement: str | None = None,
        engine: str | None = None,
        streaming: bool | None = None,
        shards: int | None = None,
        shard_placement: str | None = None,
        cores: int | None = None,
        scheduler: str | None = None,
        slo_ms: float | None = None,
        memory_mode: str | None = None,
        spec: RunSpec | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        # Back-compat shim: the classic keywords build the spec, whose
        # constructor runs the one shared validate() — so the suite, the
        # runner and the simulator reject an invalid configuration with the
        # identical message.  The warm-up horizon comes from the experiment
        # configuration, as it always has for suite sweeps; it is not a run
        # knob, so it never conflicts with an explicit spec.
        spec = RunSpec.resolve(
            spec,
            engine=engine,
            streaming=streaming,
            warmup_minutes=self.config.warmup_minutes if spec is None else None,
            shards=shards,
            shard_placement=shard_placement,
            memory_mode=memory_mode,
        )
        self.spec = spec
        # Attribute shims: long-standing public names, now views on the spec.
        self.engine = spec.engine
        self.memory_mode = spec.memory_mode
        self.streaming = spec.streaming
        self.shards = spec.shards
        self.shard_placement = spec.shard_placement
        # The CPU/SLO knobs stay suite-level: they are per-seed *overlays*
        # folded into each workload's EventConfig, not run-shape fields.
        cpu_knobs = (cores, scheduler, slo_ms)
        if self.engine != "event" and any(knob is not None for knob in cpu_knobs):
            raise ValueError(
                "cores/scheduler/slo_ms configure the event layer's CPU stage "
                f"and require the event engine, not {self.engine!r}"
            )
        if scheduler is not None and cores is None:
            raise ValueError("scheduler requires cores (the pool it schedules)")
        if cores is not None:
            # Validates cores >= 1 and the scheduler name eagerly.
            from repro.simulation.scheduling import CpuConfig

            CpuConfig(cores_per_node=cores, scheduler=scheduler or "fifo")
        self.cores = cores
        self.scheduler = scheduler
        self.slo_ms = slo_ms
        # Deduplicate while preserving order: a repeated seed is the same
        # workload and would otherwise produce colliding sweep cells.
        self.seeds = tuple(dict.fromkeys(seeds)) if seeds else (self.config.seed,)
        self.policies = tuple(policies)
        if "faascache" in self.policies and "spes" not in self.policies:
            raise ValueError("the faascache policy requires spes in the suite")
        self.workers = workers
        self.cache_dir = cache_dir
        self.scenario = scenario
        self.scenario_params = dict(scenario_params or {})
        if scenario is not None:
            # Fail fast on unknown names/parameters, before any workload is built.
            from repro.scenarios import get_scenario

            registered = get_scenario(scenario)
            unknown = set(self.scenario_params) - set(registered.defaults)
            if unknown:
                raise KeyError(
                    f"unknown parameter(s) {sorted(unknown)} for scenario "
                    f"{scenario!r}; accepted: {sorted(registered.defaults)}"
                )
        elif self.scenario_params:
            raise ValueError("scenario_params requires a scenario")
        self.placement = placement
        if placement is not None:
            from repro.simulation.placement import placement_names

            if placement not in placement_names():
                raise ValueError(
                    f"unknown placement {placement!r}; registered: "
                    f"{placement_names()}"
                )
            if scenario is None:
                raise ValueError(
                    "placement requires a scenario that prescribes a cluster "
                    "(e.g. capacity-squeeze, hot-shard)"
                )
        self._traces: Dict[str, TraceSplit] | None = None
        self._clusters: Dict[str, object] = {}
        # Each seed's event config as its workload prescribes it, and with
        # this suite's CPU/SLO overlay folded in (what its cells run under).
        self._workload_events: Dict[str, EventConfig] = {}
        self._events: Dict[str, EventConfig] = {}
        self._runner: ParallelRunner | None = None
        # Every simulated cell, keyed by content: (trace key, spec digest).
        self._memo: Dict[tuple[str, str], SimulationResult] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def trace_key(seed: int) -> str:
        """Trace-mapping key of one seed's workload."""
        return f"seed{seed}"

    def seed_config(self, seed: int) -> ExperimentConfig:
        """The base configuration with its workload seed replaced."""
        return replace(self.config, seed=seed)

    def traces(self) -> Dict[str, TraceSplit]:
        """Per-seed train/simulation splits (each workload generated once).

        With a scenario, workloads (and any cluster model) come from the
        scenario registry; otherwise from the plain synthetic generator.
        """
        if self._traces is None:
            self._traces = {}
            for seed in self.seeds:
                config = self.seed_config(seed)
                key = self.trace_key(seed)
                if self.scenario is not None:
                    from repro.scenarios import build_scenario

                    workload = build_scenario(
                        self.scenario,
                        seed=seed,
                        n_functions=config.n_functions,
                        days=config.duration_days,
                        training_days=config.training_days,
                        **self.scenario_params,
                    )
                    self._traces[key] = workload.split
                    cluster = workload.cluster
                    if self.placement is not None:
                        if cluster is None:
                            raise ValueError(
                                f"scenario {self.scenario!r} prescribes no "
                                "cluster; placement requires a cluster "
                                "scenario (e.g. capacity-squeeze, hot-shard)"
                            )
                        cluster = replace(cluster, placement=self.placement)
                    if cluster is not None:
                        self._clusters[key] = cluster
                    self._workload_events[key] = workload.events
                else:
                    trace = AzureTraceGenerator(config.generator_profile()).generate()
                    self._traces[key] = split_trace(
                        trace, training_days=config.training_days
                    )
                    self._workload_events[key] = EventConfig(seed=seed)
                self._events[key] = self._apply_cpu_overrides(self._workload_events[key])
        return self._traces

    def derive(self, **run_changes: object) -> "ExperimentSuite":
        """A suite running other settings on this suite's workloads.

        The derived suite has this suite's ``config``, ``seeds``, ``workers``,
        ``cache_dir``, ``scenario``, ``scenario_params`` and ``placement``;
        every other constructor keyword (``policies``, ``engine``,
        ``streaming``, ``cores``/``scheduler``/``slo_ms``, ``spec``, ...)
        comes from ``run_changes`` or its constructor default, validated as
        the constructor validates it — so its cells and cache keys are those
        of the same suite built on its own.

        Instead of building its own, it reuses each seed's built workload:
        the split objects themselves (with their cached indexes and
        fingerprints), the cluster model and the workload's own event
        config, on which it folds its own CPU/SLO overlay.  It has its own
        runner and its own result memo.  This suite's workloads are built
        first if they are not yet.
        """
        shared = dict(
            config=self.config,
            seeds=self.seeds,
            workers=self.workers,
            cache_dir=self.cache_dir,
            scenario=self.scenario,
            scenario_params=self.scenario_params,
            placement=self.placement,
        )
        clash = sorted(set(run_changes) & set(shared))
        if clash:
            raise TypeError(
                f"derive() keeps the source suite's {clash}; build a new "
                "ExperimentSuite to change them"
            )
        derived = ExperimentSuite(**shared, **run_changes)
        derived._traces = dict(self.traces())
        derived._clusters = dict(self._clusters)
        derived._workload_events = dict(self._workload_events)
        derived._events = {
            key: derived._apply_cpu_overrides(events)
            for key, events in self._workload_events.items()
        }
        return derived

    def _apply_cpu_overrides(self, events: EventConfig) -> EventConfig:
        """Overlay the suite-level CPU/SLO knobs on one seed's event config.

        ``cores``/``scheduler`` replace any scenario-prescribed
        :class:`~repro.simulation.scheduling.CpuConfig`; ``slo_ms`` replaces
        the scenario's SLO.  Knobs left at ``None`` keep whatever the
        scenario (or the plain default) prescribes.
        """
        if self.cores is None and self.slo_ms is None:
            return events
        from repro.simulation.scheduling import CpuConfig

        overrides: Dict[str, object] = {}
        if self.cores is not None:
            overrides["cpu"] = CpuConfig(
                cores_per_node=self.cores, scheduler=self.scheduler or "fifo"
            )
        if self.slo_ms is not None:
            overrides["slo_ms"] = self.slo_ms
        return replace(events, **overrides)

    def parallel_runner(self) -> ParallelRunner:
        """The shared :class:`ParallelRunner` over every seed's split."""
        if self._runner is None:
            traces = self.traces()  # also populates the cluster mapping
            self._runner = ParallelRunner(
                traces=traces,
                workers=self.workers,
                cache_dir=self.cache_dir,
                clusters=self._clusters or None,
                events=self._events if self.engine == "event" else None,
                spec=self.spec,
            )
        return self._runner

    # ------------------------------------------------------------------ #
    def run(self) -> SuiteResult:
        """Execute the full (policy × seed) sweep and collect the results."""
        started = time.perf_counter()
        runner = self.parallel_runner()
        # Snapshot the cache counters so a reused suite reports per-sweep
        # statistics rather than the runner's lifetime totals.
        hits_before = runner.cache.hits if runner.cache else 0
        misses_before = runner.cache.misses if runner.cache else 0

        results: Dict[int, Dict[str, SimulationResult]] = {seed: {} for seed in self.seeds}

        # Stage 1: SPES on every seed (fixes the per-seed FaaSCache capacity).
        if "spes" in self.policies:
            spes_cells = [
                runner.cell(
                    f"{self.trace_key(seed)}/spes",
                    PolicySpec.of("spes", config=self.config.spes_config),
                    self.trace_key(seed),
                    base_seed=seed,
                )
                for seed in self.seeds
            ]
            for seed, result in zip(self.seeds, self._run_cells(spes_cells).values()):
                results[seed]["spes"] = result

        # Stage 2: every remaining (policy × seed) cell in one fan-out.
        cells = []
        for seed in self.seeds:
            specs = self._baseline_specs(seed, results[seed].get("spes"))
            for name, spec in specs.items():
                cells.append(
                    runner.cell(
                        f"{self.trace_key(seed)}/{name}",
                        spec,
                        self.trace_key(seed),
                        base_seed=seed,
                    )
                )
        for cell_name, result in self._run_cells(cells).items():
            trace_key, policy_name = cell_name.split("/", 1)
            seed = int(trace_key.removeprefix("seed"))
            results[seed][policy_name] = result

        # Present policies in the requested order.
        ordered = {
            seed: {
                name: results[seed][name]
                for name in self.policies
                if name in results[seed]
            }
            for seed in self.seeds
        }
        return SuiteResult(
            results=ordered,
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
            cache_hits=(runner.cache.hits - hits_before) if runner.cache else 0,
            cache_misses=(runner.cache.misses - misses_before) if runner.cache else 0,
        )

    def run_spes_variants(
        self, variants: Mapping[str, SpesConfig]
    ) -> Dict[str, SimulationResult]:
        """Simulate SPES configurations (sweeps, ablations) on the first seed.

        The batch runs as cells of ``seeds[0]``'s workload through the
        suite's :class:`ParallelRunner`, so it fans out over the pool and
        shares the on-disk cache exactly like :meth:`run`.  Results are
        memoized by content — ``(trace key, policy spec)`` — so a variant
        already simulated by this suite (including the base-config SPES cell
        of :meth:`run`) is returned as the same object, not re-simulated.
        """
        seed = self.seeds[0]
        trace_key = self.trace_key(seed)
        runner = self.parallel_runner()
        specs = {
            name: PolicySpec.of("spes", config=config) for name, config in variants.items()
        }
        pending: Dict[tuple[str, str], SweepCell] = {}
        for name, spec in specs.items():
            key = _memo_key(trace_key, spec)
            if key not in self._memo and key not in pending:
                pending[key] = runner.cell(f"{trace_key}/{name}", spec, trace_key, base_seed=seed)
        self._run_cells(list(pending.values()))
        return {name: self._memo[_memo_key(trace_key, spec)] for name, spec in specs.items()}

    def _run_cells(self, cells: Sequence[SweepCell]) -> Dict[str, SimulationResult]:
        """Run ``cells`` on the shared runner, recording each in the memo."""
        results = self.parallel_runner().run_cells(cells)
        for cell in cells:
            self._memo[_memo_key(cell.trace_key, cell.spec)] = results[cell.name]
        return results

    # ------------------------------------------------------------------ #
    def static_cache_keys(self) -> tuple[Dict[str, str], tuple[str, ...]]:
        """Cache keys of every cell derivable without simulating anything.

        Returns ``(keys, skipped)``: ``keys`` maps each ``seedN/policy``
        cell name to the on-disk cache key its result would be stored
        under, and ``skipped`` lists the policies whose keys cannot be
        known statically — FaaSCache's capacity is derived from the
        same-seed SPES *result*, so its key depends on a simulation
        output.  Workloads are built (to fingerprint the traces) but no
        cell is executed.
        """
        runner = self.parallel_runner()
        keys: Dict[str, str] = {}
        skipped = tuple(name for name in self.policies if name == "faascache")
        for seed in self.seeds:
            trace_key = self.trace_key(seed)
            baselines = self._baseline_specs(seed, None)
            for name in self.policies:
                if name in skipped:
                    continue
                spec = (
                    PolicySpec.of("spes", config=self.config.spes_config)
                    if name == "spes"
                    else baselines[name]
                )
                cell = runner.cell(f"{trace_key}/{name}", spec, trace_key, base_seed=seed)
                keys[cell.name] = runner.cache_key(cell)
        return keys, skipped

    # ------------------------------------------------------------------ #
    def _baseline_specs(
        self, seed: int, spes_result: SimulationResult | None
    ) -> Mapping[str, PolicySpec]:
        """Specs for every non-SPES policy requested for ``seed``."""
        capacity = (
            max(1, int(spes_result.peak_memory_usage)) if spes_result is not None else None
        )
        available = default_policy_specs(faascache_capacity=capacity)
        available["no-keepalive"] = PolicySpec.of("no-keepalive")
        available["always-warm"] = PolicySpec.of("always-warm")
        specs = {}
        for name in self.policies:
            if name == "spes":
                continue
            if name in available:
                specs[name] = available[name]
                continue
            # Any other registered policy is accepted with its factory
            # defaults, so the CLI's --policies flag honours the registry.
            try:
                specs[name] = PolicySpec.of(name)
            except KeyError:
                raise KeyError(
                    f"unknown suite policy {name!r}; available: "
                    f"{sorted({*available, *POLICY_REGISTRY, 'spes'})}"
                ) from None
        return specs
