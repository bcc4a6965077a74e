"""Parallel fan-out of simulation cells across worker processes.

A *cell* is one ``(policy spec, trace, seed)`` combination; a sweep is a list
of cells.  :class:`ParallelRunner` executes sweeps either serially in-process
or across a :class:`concurrent.futures.ProcessPoolExecutor`, with three
guarantees:

* **Shared workload** — the training/simulation traces are handed to every
  worker once, through the pool initializer, so a sweep of N cells never
  re-generates or re-serializes the workload N times.  Under ``fork`` the
  workers inherit the parent's traces, cached indexes included, without a
  copy; under ``spawn``/``forkserver`` multiprocessing pickles them once per
  worker.
* **Determinism** — every cell carries a seed derived stably (SHA-256) from
  the sweep's base seed, its trace key and its policy spec, so serial and
  parallel executions of the same sweep produce identical
  :class:`~repro.simulation.results.SimulationResult`\\ s (modulo wall-clock
  overhead timings, which are measurements, not simulation outputs; compare
  with :meth:`SimulationResult.deterministic_fingerprint`).
* **On-disk caching** — with a ``cache_dir``, each finished cell is persisted
  keyed by a content hash of (engine version, trace fingerprints, warm-up,
  policy spec, seed); re-running a sweep only simulates the missing cells.

Policies are described by :class:`PolicySpec` — a picklable ``(name,
parameters)`` pair resolved against :data:`POLICY_REGISTRY` inside the worker
— rather than by policy *instances*, so a cell's payload stays tiny and
factories with unpicklable closures are never shipped across processes.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import pickle
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.baselines import (
    DefusePolicy,
    FaasCachePolicy,
    FixedKeepAlivePolicy,
    HybridApplicationPolicy,
    HybridFunctionPolicy,
    LatencyAwareKeepAlivePolicy,
    LcsPolicy,
)
from repro.core import SpesPolicy
from repro.simulation import (
    ClusterModel,
    EventConfig,
    ProvisioningPolicy,
    SimulationResult,
    Simulator,
)
from repro.simulation.engine import ShardFallbackWarning
from repro.simulation.policy_base import listens_to_feedback
from repro.simulation.vector_policy import AlwaysWarmPolicy, NoKeepAlivePolicy
from repro.simulation.sharding import shard_assignment, shard_fallback_reason
from repro.simulation.spec import RunSpec, content_digest
from repro.traces import TraceSplit

__all__ = [
    "POLICY_REGISTRY",
    "PolicySpec",
    "SweepCell",
    "ResultCache",
    "ParallelRunner",
    "register_policy",
    "default_policy_specs",
    "derive_cell_seed",
]


# --------------------------------------------------------------------- #
# Policy registry and specs
# --------------------------------------------------------------------- #
#: Maps spec names to policy factories.  Factories are called with the spec's
#: keyword parameters; a factory declaring a ``seed`` parameter additionally
#: receives the cell's deterministic seed.
POLICY_REGISTRY: Dict[str, Callable[..., ProvisioningPolicy]] = {
    "spes": SpesPolicy,
    "fixed-keepalive": FixedKeepAlivePolicy,
    "fixed-10min": lambda: FixedKeepAlivePolicy(keep_alive_minutes=10),
    "hybrid-function": HybridFunctionPolicy,
    "hybrid-application": HybridApplicationPolicy,
    "defuse": DefusePolicy,
    "faascache": FaasCachePolicy,
    "lcs": LcsPolicy,
    "no-keepalive": NoKeepAlivePolicy,
    "always-warm": AlwaysWarmPolicy,
    # Latency-aware keep-alive: consumes the event engine's rolling window.
    "latency-keepalive": LatencyAwareKeepAlivePolicy,
}


def register_policy(name: str, factory: Callable[..., ProvisioningPolicy]) -> None:
    """Register a policy factory under ``name`` for use in :class:`PolicySpec`.

    Registration must happen at import time of a module available to worker
    processes (cells are resolved against the registry *inside* the worker).
    """
    if name in POLICY_REGISTRY:
        raise ValueError(f"policy {name!r} is already registered")
    POLICY_REGISTRY[name] = factory


@dataclass(frozen=True)
class PolicySpec:
    """A picklable description of a provisioning policy.

    Parameters are stored as a sorted tuple of ``(name, value)`` pairs so two
    specs with the same semantics hash identically.
    """

    policy: str
    params: tuple = ()

    @classmethod
    def of(cls, policy: str, **params: Any) -> "PolicySpec":
        """Build a spec from keyword parameters (``PolicySpec.of("spes", config=...)``)."""
        if policy not in POLICY_REGISTRY:
            raise KeyError(
                f"unknown policy {policy!r}; registered: {sorted(POLICY_REGISTRY)}"
            )
        return cls(policy=policy, params=tuple(sorted(params.items())))

    def build(self, seed: int | None = None) -> ProvisioningPolicy:
        """Instantiate the policy, injecting ``seed`` when the factory takes one."""
        factory = POLICY_REGISTRY[self.policy]
        kwargs = dict(self.params)
        if seed is not None and "seed" not in kwargs and _accepts_seed(factory):
            kwargs["seed"] = seed
        return factory(**kwargs)


def _accepts_seed(factory: Callable[..., ProvisioningPolicy]) -> bool:
    # Only an explicitly declared ``seed`` parameter opts a factory in; a
    # bare ``**kwargs`` does not, as the factory may forward keywords to a
    # constructor that knows nothing about seeds.
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    return "seed" in parameters


def default_policy_specs(faascache_capacity: int | None = None) -> Dict[str, PolicySpec]:
    """The paper's baselines plus LCS as named specs (FaaSCache needs a capacity)."""
    specs = {
        "fixed-10min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=10),
        "hybrid-function": PolicySpec.of("hybrid-function"),
        "hybrid-application": PolicySpec.of("hybrid-application"),
        "defuse": PolicySpec.of("defuse"),
    }
    if faascache_capacity is not None:
        specs["faascache"] = PolicySpec.of("faascache", capacity=faascache_capacity)
    specs["lcs"] = PolicySpec.of("lcs")
    return specs


def derive_cell_seed(base_seed: int, spec: PolicySpec) -> int:
    """Deterministic per-cell seed: stable across runs, machines and workers.

    Derived only from content (the workload's base seed and the policy
    spec), never from presentation details like trace-mapping keys or cell
    names, so an identical cell submitted twice (e.g. the base-config SPES
    cell of :meth:`~repro.experiments.suite.ExperimentSuite.run` and of a
    :meth:`~repro.experiments.suite.ExperimentSuite.run_spes_variants`
    batch, or the same cell from another suite over the same workload)
    shares one seed and therefore one on-disk cache entry.  Bounded to 32
    bits so it can feed numpy's legacy RNG seeding directly.
    """
    return int(content_digest(base_seed, spec)[:8], 16)


@dataclass(frozen=True)
class SweepCell:
    """One unit of work for the runner: a policy over one trace split.

    Attributes
    ----------
    name:
        Unique result key within the sweep (e.g. ``"seed2024/defuse"``).
    trace_key:
        Key into the runner's trace mapping.
    spec:
        The policy to build and simulate.
    seed:
        Deterministic per-cell seed, forwarded to seed-aware policy factories.
    """

    name: str
    trace_key: str
    spec: PolicySpec
    seed: int = 0


# --------------------------------------------------------------------- #
# On-disk cache
# --------------------------------------------------------------------- #
class ResultCache:
    """Pickle-per-key store of simulation results under a cache directory.

    Entries are plain pickles of :class:`SimulationResult`, whose
    ``__getstate__`` packs ``per_function`` into an id list and three
    ``int64`` count columns instead of one object per function.  Entries
    written before that layout existed (``per_function`` pickled as a dict)
    still load, under the same keys; a checkout older than the layout
    cannot read entries written by a newer one.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def get(self, key: str) -> SimulationResult | None:
        """Return the cached result for ``key``, or None on a miss."""
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic rename, last writer wins).

        The temporary file name is unique per writer, so concurrent sweeps
        sharing one cache directory cannot tear each other's entries.
        """
        path = self._path(key)
        descriptor, temporary = tempfile.mkstemp(
            prefix=f"{key}.", suffix=".tmp", dir=self.cache_dir
        )
        try:
            with open(descriptor, "wb") as handle:
                pickle.dump(result, handle)
            Path(temporary).replace(path)
        except BaseException:
            Path(temporary).unlink(missing_ok=True)
            raise

    def prune(self, max_age_days: float) -> int:
        """Delete cache entries older than ``max_age_days``; return the count.

        Cache keys are content hashes, so entries never become *wrong* — but
        engine-version bumps and abandoned experiment shapes leave orphans
        that nothing will ever read again.  Age is judged by file
        modification time; stray temporary files from crashed writers are
        swept on the same pass.  Files that vanish mid-scan (a concurrent
        prune or sweep) are skipped, not errors.
        """
        if max_age_days < 0:
            raise ValueError("max_age_days must be non-negative")
        cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        for path in list(self.cache_dir.glob("*.pkl")) + list(
            self.cache_dir.glob("*.tmp")
        ):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed


# --------------------------------------------------------------------- #
# Worker-side execution
# --------------------------------------------------------------------- #
#: Traces installed into each worker by the pool initializer.
_WORKER_TRACES: Dict[str, TraceSplit] = {}


def _worker_initializer(traces: Mapping[str, TraceSplit]) -> None:
    """Install the shared trace mapping once per worker process."""
    _WORKER_TRACES.clear()
    _WORKER_TRACES.update(traces)


def _execute_cell(
    cell: SweepCell,
    traces: Mapping[str, TraceSplit],
    spec: RunSpec,
) -> SimulationResult:
    """Run one cell against ``traces`` (shared by serial and worker paths).

    ``spec`` is the cell's fully-resolved :class:`RunSpec` (cluster and
    events already selected for its trace key).  Streaming semantics —
    no training input, no warm-up replay, the policy enters cold — are
    applied by the :class:`Simulator` itself from ``spec.streaming``.
    """
    split = traces[cell.trace_key]
    policy = cell.spec.build(seed=cell.seed)
    simulator = Simulator(
        simulation_trace=split.simulation,
        training_trace=split.training,
        spec=spec,
    )
    return simulator.run(policy)


def _worker_run_cell(cell: SweepCell, spec: RunSpec) -> tuple[str, SimulationResult]:
    # Whole-cell worker execution never re-attempts sharding: the parent's
    # _shard_plan already decided this cell runs unsharded (or unshardable),
    # and re-warning inside the worker would be noise.
    return cell.name, _execute_cell(cell, _WORKER_TRACES, spec.override(shards=0))


def _worker_run_shard(
    cell: SweepCell,
    positions: np.ndarray,
    spec: RunSpec,
) -> SimulationResult:
    """Run one *shard* of a cell inside a worker process.

    The worker cuts the shard's trace slice from the split the pool
    initializer installed (``positions`` is the only per-task payload beyond
    the cell itself); the slice carries the split's cached indexes restricted
    to the shard.  It runs the identical per-shard simulation the serial
    :meth:`Simulator._run_sharded` loop would, so pool and serial sharded
    executions merge to byte-identical results.
    """
    split = _WORKER_TRACES[cell.trace_key]
    simulator = Simulator(
        simulation_trace=split.simulation,
        training_trace=split.training,
        spec=spec.override(shards=0),
    )
    sub = simulator.shard_simulator(positions)
    return sub.run(cell.spec.build(seed=cell.seed))


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
class ParallelRunner:
    """Executes sweeps of simulation cells, optionally across processes.

    Parameters
    ----------
    traces:
        Mapping from trace key to the :class:`~repro.traces.trace.TraceSplit`
        each cell simulates against.  Prepared once; inherited by pool
        workers under ``fork``, pickled once per worker otherwise.
    workers:
        Number of worker processes.  ``0`` or ``1`` runs cells serially
        in-process (still using the cache), which is also the deterministic
        baseline the parallel path is tested against.
    cache_dir:
        Optional directory for the on-disk :class:`ResultCache`.
    warmup_minutes:
        Warm-up horizon forwarded to every cell's :class:`Simulator`.
    clusters:
        Optional per-trace-key :class:`~repro.simulation.cluster.ClusterModel`
        mapping.  Cells simulating a trace key with a cluster run in
        capacity-constrained mode; the cluster configuration is part of the
        cell's cache key.
    engine:
        Engine implementation every cell runs on (``"vectorized"`` default;
        ``"event"`` additionally collects per-event latency distributions).
        Part of every cell's cache key: the engines are
        fingerprint-equivalent for policies that keep the default hook, but
        cached event results carry latency blocks that vectorized runs must
        not serve — and event runs of latency-aware policies are different
        simulations outright.
    events:
        Optional per-trace-key :class:`~repro.simulation.events.EventConfig`
        mapping for the event engine (e.g. scenario-prescribed duration
        scaling, per-seed jitter seeds, feedback-window horizons).  Keys
        without an entry use the defaults.  Ignored by the minute-granular
        engines.
    streaming:
        When True, every cell runs in streaming evaluation mode: policies
        receive no training trace and no warm-up replay — they start cold
        and must adapt online.  Part of every cell's cache key.
    shards:
        When >= 2, shardable cells are split into that many function
        partitions (see :mod:`repro.simulation.sharding`).  With
        ``workers > 1`` each partition becomes its *own* pool task — the
        worker slices its shard from the shared trace, so one big
        cell parallelizes across processes instead of serializing on the
        slowest whole-cell task; the parent merges the per-shard results.
        Serially, the :class:`Simulator` runs its in-process sharded loop.
        Cells that cannot shard fall back to whole-cell execution with a
        :class:`~repro.simulation.engine.ShardFallbackWarning`.  Part of
        every cell's cache key, together with ``shard_placement``.
    shard_placement:
        Placement strategy deriving the function→shard partition
        (default ``"hash"``).
    memory_mode:
        Memory accounting mode every cell runs in (``"unit"`` default;
        ``"mb"`` weighs loaded instances by their measured footprints — see
        :mod:`repro.simulation.memory`).  Part of every cell's cache key
        when not ``"unit"``.
    spec:
        A ready-made :class:`~repro.simulation.spec.RunSpec` instead of the
        individual run knobs above (mutually exclusive with them).  The
        spec's own ``cluster``/``events`` fields act as the default for
        trace keys without an entry in the per-key mappings.
    """

    def __init__(
        self,
        traces: Mapping[str, TraceSplit],
        workers: int = 0,
        cache_dir: str | Path | None = None,
        warmup_minutes: int | None = None,
        clusters: Mapping[str, ClusterModel | None] | None = None,
        engine: str | None = None,
        events: Mapping[str, EventConfig] | None = None,
        streaming: bool | None = None,
        shards: int | None = None,
        shard_placement: str | None = None,
        memory_mode: str | None = None,
        spec: RunSpec | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        # Back-compat shim: the classic keywords build the spec unless a
        # spec is passed.
        spec = RunSpec.resolve(
            spec,
            engine=engine,
            streaming=streaming,
            warmup_minutes=warmup_minutes,
            shards=shards,
            shard_placement=shard_placement,
            memory_mode=memory_mode,
        )
        self.spec = spec
        available = os.cpu_count() or 1
        if workers > available:
            warnings.warn(
                f"workers={workers} exceeds the {available} available CPU(s); "
                "the extra processes will only add scheduling overhead",
                RuntimeWarning,
                stacklevel=2,
            )
        self.traces = dict(traces)
        self.workers = workers
        # Attribute shims: long-standing public names, now views on the spec.
        self.warmup_minutes = spec.warmup_minutes
        self.engine = spec.engine
        self.streaming = spec.streaming
        self.shards = spec.shards
        self.shard_placement = spec.shard_placement
        self.memory_mode = spec.memory_mode
        self.clusters = dict(clusters) if clusters else {}
        unknown = set(self.clusters) - set(self.traces)
        if unknown:
            raise KeyError(f"clusters reference unknown trace key(s): {sorted(unknown)}")
        self.events = dict(events) if events else {}
        unknown = set(self.events) - set(self.traces)
        if unknown:
            raise KeyError(f"events reference unknown trace key(s): {sorted(unknown)}")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        # Computed lazily: hashing every trace's invocation matrix is only
        # needed once cache keys are requested.
        self._trace_fingerprints: Dict[str, tuple[str, str]] | None = None
        # Per-shard function positions by trace key, cut on first use.
        self._shard_positions: Dict[str, List[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def cell(self, name: str, spec: PolicySpec, trace_key: str, base_seed: int = 0) -> SweepCell:
        """Build a cell with its deterministic seed for this runner's traces."""
        if trace_key not in self.traces:
            raise KeyError(f"unknown trace key {trace_key!r}; have {sorted(self.traces)}")
        return SweepCell(
            name=name,
            trace_key=trace_key,
            spec=spec,
            seed=derive_cell_seed(base_seed, spec),
        )

    def trace_fingerprints(self) -> Dict[str, tuple[str, str]]:
        """``{trace_key: (training, simulation)}`` content fingerprints.

        Computed lazily and memoized: hashing every trace's invocation
        matrix is only needed once cache keys (or run manifests) ask for it.
        """
        if self._trace_fingerprints is None:
            self._trace_fingerprints = {
                key: (split.training.fingerprint(), split.simulation.fingerprint())
                for key, split in self.traces.items()
            }
        return self._trace_fingerprints

    def cell_run_spec(self, trace_key: str) -> RunSpec:
        """The fully-resolved spec cells of ``trace_key`` run (and key) under.

        The base spec with the key's cluster and event config folded in —
        the single object both :meth:`cache_key` and the execution paths
        derive from, so a cell can never be keyed under one configuration
        and simulated under another.
        """
        return self.spec.override(
            cluster=self._cell_cluster(trace_key),
            events=self._cell_events(trace_key),
        )

    def cache_key(self, cell: SweepCell) -> str:
        """Content hash identifying a cell's simulation output.

        Derived from the resolved spec's canonical serialization (see
        :meth:`RunSpec.cache_key_parts` for the exact — legacy-stable —
        part order).  On the event engine the policy is built (construction
        only) to learn whether it listens to the latency feedback.
        """
        fingerprints = self.trace_fingerprints()
        feedback = self.engine == "event" and listens_to_feedback(cell.spec.build(cell.seed))
        return self.cell_run_spec(cell.trace_key).cache_key(
            fingerprints[cell.trace_key], cell.spec, cell.seed, feedback
        )

    def _cell_cluster(self, trace_key: str) -> ClusterModel | None:
        """The cluster model a cell runs under (per-key over spec default)."""
        return self.clusters.get(trace_key, self.spec.cluster)

    def _cell_events(self, trace_key: str) -> EventConfig | None:
        """The event config a cell runs with (None off the event engine)."""
        if self.engine != "event":
            return None
        return self.events.get(trace_key) or self.spec.events or EventConfig()

    # ------------------------------------------------------------------ #
    def run_cells(self, cells: Sequence[SweepCell]) -> Dict[str, SimulationResult]:
        """Execute ``cells`` and return ``{cell.name: result}``.

        Cached cells are loaded from disk; the rest run serially or across the
        process pool depending on ``workers``.  Results preserve the input
        cell order regardless of completion order.
        """
        names = [cell.name for cell in cells]
        if len(set(names)) != len(names):
            raise ValueError("cell names within a sweep must be unique")

        results: Dict[str, SimulationResult] = {}
        pending: list[SweepCell] = []
        # Keyed once per cell: on the event engine each key builds the policy.
        keys = {cell.name: self.cache_key(cell) for cell in cells} if self.cache else {}
        for cell in cells:
            cached = self.cache.get(keys[cell.name]) if self.cache else None
            if cached is not None:
                results[cell.name] = cached
            else:
                pending.append(cell)

        if pending:
            # Sharding makes even a single pending cell pool-worthy: its
            # partitions are independent tasks that spread over the workers.
            if self.workers > 1 and (len(pending) > 1 or self.shards >= 2):
                computed = self._run_pool(pending)
            else:
                computed = {
                    cell.name: _execute_cell(
                        cell, self.traces, self.cell_run_spec(cell.trace_key)
                    )
                    for cell in pending
                }
            for cell in pending:
                result = computed[cell.name]
                results[cell.name] = result
                if self.cache:
                    self.cache.put(keys[cell.name], result)

        return {name: results[name] for name in names}

    def run_policies(
        self,
        specs: Mapping[str, PolicySpec],
        trace_key: str,
        base_seed: int = 0,
    ) -> Dict[str, SimulationResult]:
        """Convenience sweep: every spec against one trace split."""
        cells = [
            self.cell(name, spec, trace_key, base_seed) for name, spec in specs.items()
        ]
        return self.run_cells(cells)

    # ------------------------------------------------------------------ #
    def _shard_plan(self, cell: SweepCell) -> List[np.ndarray] | None:
        """Per-shard position arrays for a shardable cell, else ``None``.

        Building the policy here is construction only (no offline phase);
        it is needed to consult ``shard_safe``.  Fallback reasons are warned
        parent-side so they surface even when the cell then runs in a worker.
        The assignment depends only on the trace key, so it is computed once
        per key and shared by that key's cells.
        """
        if self.shards < 2:
            return None
        split = self.traces[cell.trace_key]
        training = None if self.streaming else split.training
        reason = shard_fallback_reason(
            cell.spec.build(seed=cell.seed),
            self._cell_cluster(cell.trace_key),
            self.shards,
            self.shard_placement,
            True,
            set(),
            split.simulation,
            training_trace=training,
            events=self._cell_events(cell.trace_key),
        )
        if reason is not None:
            warnings.warn(
                f"cell {cell.name!r}: sharded execution disabled ({reason}); "
                "running unsharded",
                ShardFallbackWarning,
                stacklevel=2,
            )
            return None
        plan = self._shard_positions.get(cell.trace_key)
        if plan is None:
            assignment = shard_assignment(
                self.shards, split.simulation, self.shard_placement, training_trace=training
            )
            plan = [np.flatnonzero(assignment == shard) for shard in range(self.shards)]
            self._shard_positions[cell.trace_key] = plan
        return plan

    def _run_pool(self, cells: Sequence[SweepCell]) -> Dict[str, SimulationResult]:
        # Under fork, index each simulation window before the pool starts:
        # the workers inherit the index, and their shards restrict it instead
        # of sorting.  Other start methods pickle the traces without their
        # indexes, so there the build would be wasted.  Warm-up tails stay
        # per shard; building them here measured slower.
        context = multiprocessing.get_context()
        if context.get_start_method() == "fork":
            for key in dict.fromkeys(cell.trace_key for cell in cells):
                self.traces[key].simulation.invocation_index()
        computed: Dict[str, SimulationResult] = {}
        with ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_initializer,
            initargs=(self.traces,),
        ) as pool:
            whole_futures = []
            sharded: List[tuple[SweepCell, list]] = []
            for cell in cells:
                spec = self.cell_run_spec(cell.trace_key)
                plan = self._shard_plan(cell)
                if plan is None:
                    whole_futures.append(
                        pool.submit(_worker_run_cell, cell, spec)
                    )
                    continue
                # One pool task per non-empty partition: a single big cell
                # spreads over every worker instead of pinning one of them.
                sharded.append(
                    (
                        cell,
                        [
                            pool.submit(_worker_run_shard, cell, positions, spec)
                            if positions.size
                            else None
                            for positions in plan
                        ],
                    )
                )
            for future in whole_futures:
                name, result = future.result()
                computed[name] = result
            for cell, futures in sharded:
                computed[cell.name] = SimulationResult.merge_shards(
                    [f.result() if f is not None else None for f in futures],
                    cluster_model=self._cell_cluster(cell.trace_key),
                )
        return computed
