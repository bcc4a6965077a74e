"""Named, parameterized workload scenarios.

Experiments used to construct workloads ad hoc: every script assembled its
own :class:`~repro.traces.synthetic.GeneratorProfile` or archetype soup.
This module replaces that with a single registry of *scenarios* — named,
seeded, parameterized workload builders that every entry point
(:class:`~repro.experiments.suite.ExperimentSuite`, the ``spes-repro sweep
--scenario`` CLI, tests, benchmarks) addresses the same way:

>>> from repro.scenarios import build_scenario
>>> workload = build_scenario("bursty", seed=7, n_functions=60, days=3.0,
...                           training_days=2.0)
>>> workload.split.simulation.duration_minutes
1440

A scenario yields a :class:`ScenarioWorkload`: a train/simulation
:class:`~repro.traces.trace.TraceSplit`, an optional
:class:`~repro.simulation.cluster.ClusterModel` when the scenario is
meaningful only under capacity pressure (``capacity-squeeze``), and an
:class:`~repro.simulation.events.EventConfig` carrying the scenario's
duration/jitter parameters for the sub-minute event engine (``sweep --engine
event``).  Builders are deterministic in ``(seed, parameters)``: the same
call always produces the same trace fingerprints (and the same event-jitter
seed), so sweep cells built from scenarios cache cleanly.

Built-in catalog
----------------
``azure``
    The default synthetic Azure-like population (the paper's setting).
``diurnal``
    Human-facing traffic: strongly day/night-modulated Poisson HTTP
    functions over a timer/rare background.
``bursty``
    Temporal-locality heavy: most functions idle for hours, then fire in
    dense bursts (the hardest shape for histogram keep-alives).
``drift``
    A large slice of the population changes behaviour mid-trace, stressing
    the adjusting/forgetting strategies.
``flash-crowd``
    An azure-like base population where a subset of functions is hit by a
    sudden, unpredictable crowd inside the *simulation* window.
``capacity-squeeze``
    A dense population on a sharded cluster whose memory cap is derived
    from the workload itself (a multiple of the mean per-minute active set),
    guaranteeing sustained eviction pressure.
``hot-shard``
    An adversarial placement workload: the function ids of the hottest
    functions are crafted so the default CRC-32 hash placement lands all of
    them on node 0, which melts while the other nodes idle.  The scenario
    exists to measure what ``sweep --placement least-loaded`` (or
    ``correlation-aware``) buys over static sharding.
``rotating-periods``
    Continuous drift: timer-like functions whose periods stretch steadily
    over the whole trace, so any histogram learned from one window is a
    little more wrong every hour — there is no stationary regime to train
    on.
``load-ramp``
    Continuous drift: Poisson traffic whose rates ramp multiplicatively from
    start to end of the trace, so a training window always under-represents
    the load the simulation window carries.
``seasonal-mix``
    Continuous drift: the population is partitioned into seasonal groups
    whose activity envelopes rotate around the clock, so *which* functions
    are hot changes continuously while total load stays roughly level.
``azure2019``
    The **real** Azure Functions 2019 dataset, via the streaming ingestion
    path in :mod:`repro.traces.azure2019`.  Requires the dataset on disk
    (``azure_dir`` parameter / ``sweep --azure-dir``; download with
    ``spes-repro azure fetch``); selects the ``n_functions`` most-invoked
    functions by default and splits the requested day range into
    train/eval windows.  The dataset's app-memory files are joined into
    per-function measured footprints during ingestion, so
    ``memory_mode="mb"`` runs report megabyte-denominated WMT/EMCR instead
    of the paper's abstract one-unit-per-instance accounting.
``azure2019-fixture``
    The same ingestion pipeline end to end — CSV parse, trigger filter,
    selection, CSR assembly, duration *and* app-memory joins — but over
    miniature fixture CSVs generated on the fly in the exact dataset
    schema.  Fully hermetic
    (no dataset, no network), deterministic in ``(seed, parameters)``; this
    is the scenario CI smoke-sweeps.
``cpu-starved``
    Dense heavyweight HTTP traffic on a deliberately small per-node core
    pool (the event engine's intra-node CPU stage): even well-provisioned
    functions queue for CPU, so slowdown and SLO violations — not just
    cold starts — separate the policies and schedulers.
``long-duration-mix``
    Bimodal service times sharing the cores: long batch jobs convoy short
    HTTP requests under ``fifo``, while size-aware schedulers (``srtf``,
    ``las``) protect the short jobs — the scheduler contrast RQ6 measures.

The three continuous-drift scenarios are the intended companions of the
streaming evaluation mode (``ExperimentSuite(streaming=True)`` /
``sweep --streaming``), where policies receive no training window at all
and must adapt online — e.g. from the rolling latency window the ``event``
engine streams into policies that override ``on_feedback``.

Every scenario workload can also run under the sharded execution mode
(``sweep --shards N``): the function population splits into per-node
partitions that simulate concurrently on the worker pool and merge back
into one fingerprint-identical result.  The dataset-scale pair
(``azure2019`` / ``azure2019-fixture``) is the intended beneficiary —
sharding is what lets the full 83k-function population use every core —
while scenarios that carry a cluster of their own (``capacity-squeeze``,
``hot-shard``) shard only when the node layout matches the shard layout
(see ``docs/ARCHITECTURE.md`` §7 for the exact fallback triggers).

Custom scenarios register with :func:`register_scenario`.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

import numpy as np

from repro.simulation.cluster import ClusterModel
from repro.simulation.events import EventConfig
from repro.simulation.scheduling import CpuConfig
from repro.traces import (
    AzureTraceGenerator,
    FunctionRecord,
    GeneratorProfile,
    Trace,
    TraceSplit,
    TriggerType,
    generate_dense_poisson,
    generate_flash_crowd,
    generate_periodic,
    generate_rare,
    split_trace,
)
from repro.traces.schema import MINUTES_PER_DAY, DurationProfile, TraceMetadata

__all__ = [
    "Scenario",
    "ScenarioWorkload",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_scenario",
]


@dataclass(frozen=True)
class ScenarioWorkload:
    """The materialized outcome of building one scenario.

    Attributes
    ----------
    scenario:
        Name of the scenario that produced this workload.
    split:
        Training/simulation trace split.
    cluster:
        Cluster model the scenario prescribes, or ``None`` for the paper's
        uncapped single-host setting.
    events:
        Sub-minute event-engine configuration (arrival-jitter seed, duration
        scaling) the scenario prescribes.  :meth:`Scenario.build` rebases the
        jitter seed on the workload seed, so event-engine runs are as
        deterministic in ``(seed, parameters)`` as the traces themselves.
    """

    scenario: str
    split: TraceSplit
    cluster: ClusterModel | None = None
    events: EventConfig = EventConfig()

    def run_spec(self, base: "RunSpec | None" = None, **overrides: Any) -> "RunSpec":
        """Bundle this workload's cluster (and events) into a :class:`RunSpec`.

        Starting from ``base`` (or the defaults) with ``overrides`` applied,
        the scenario's prescribed cluster model is attached, and its event
        configuration too when the resulting spec runs the event engine
        (minute-granular engines take no event config, matching how the
        experiment suite wires scenario workloads).  The returned spec is
        validated, so e.g. an unknown engine override fails here with the
        shared message instead of mid-run.
        """
        from repro.simulation.spec import RunSpec

        spec = base if base is not None else RunSpec()
        engine = overrides.get("engine", spec.engine)
        return spec.override(
            cluster=self.cluster,
            events=self.events if engine == "event" else None,
            **overrides,
        )


@dataclass(frozen=True)
class Scenario:
    """A named, parameterized workload builder.

    Attributes
    ----------
    name:
        Registry key (also the CLI spelling).
    description:
        One-line human description shown by ``spes-repro scenarios``.
    builder:
        Callable producing the :class:`ScenarioWorkload`.  Receives
        ``seed``, ``n_functions``, ``days``, ``training_days`` plus the
        scenario parameters (defaults merged with caller overrides).
    defaults:
        Scenario-specific parameters and their default values; overridable
        per :meth:`build` call and enumerated by the CLI.
    events:
        Duration/jitter parameters of the sub-minute event engine for this
        scenario's workloads — e.g. ``capacity-squeeze`` models a congested
        image registry with slower provisioning, ``bursty`` ships the heavy
        batch runtimes its archetype mix implies.  Attached to every built
        :class:`ScenarioWorkload` with the jitter seed rebased on the
        workload seed.
    """

    name: str
    description: str
    builder: Callable[..., ScenarioWorkload]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    events: EventConfig = EventConfig()

    def build(
        self,
        seed: int = 2024,
        n_functions: int = 400,
        days: float = 14.0,
        training_days: float = 12.0,
        **overrides: Any,
    ) -> ScenarioWorkload:
        """Materialize the scenario's workload deterministically."""
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {sorted(unknown)} for scenario "
                f"{self.name!r}; accepted: {sorted(self.defaults)}"
            )
        params = {**self.defaults, **overrides}
        workload = self.builder(
            seed=seed,
            n_functions=n_functions,
            days=days,
            training_days=training_days,
            **params,
        )
        # The event layer rides along on every workload.  A builder that set
        # its own (e.g. parameter-dependent) event config keeps it; otherwise
        # the scenario-level duration model applies.  Either way the jitter
        # stream is keyed to this workload's seed, so event runs cache as
        # deterministically as the traces themselves.
        events = workload.events if workload.events != EventConfig() else self.events
        return dataclasses.replace(
            workload, events=dataclasses.replace(events, seed=seed)
        )


#: The global scenario registry, keyed by scenario name.
SCENARIO_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (names must be unique)."""
    if scenario.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIO_REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """Names of every registered scenario, sorted."""
    return sorted(SCENARIO_REGISTRY)


def build_scenario(name: str, **kwargs: Any) -> ScenarioWorkload:
    """Shorthand for ``get_scenario(name).build(**kwargs)``."""
    return get_scenario(name).build(**kwargs)


# --------------------------------------------------------------------- #
# Builder helpers
# --------------------------------------------------------------------- #
def _profile(
    seed: int, n_functions: int, days: float, **changes: Any
) -> GeneratorProfile:
    """A generator profile with the unseen window clamped to short traces."""
    return GeneratorProfile(
        n_functions=n_functions,
        duration_days=days,
        unseen_window_days=min(2.0, days / 4.0),
        seed=seed,
        **changes,
    )


def _assemble(
    name: str,
    seed: int,
    records: List[FunctionRecord],
    counts: Dict[str, np.ndarray],
    duration: int,
    training_days: float,
) -> TraceSplit:
    metadata = TraceMetadata(
        name=f"{name}-{len(records)}f",
        duration_minutes=duration,
        seed=seed,
        extra={"scenario": name},
    )
    return split_trace(Trace(records, counts, metadata), training_days=training_days)


# --------------------------------------------------------------------- #
# Built-in builders
# --------------------------------------------------------------------- #
def _build_azure(
    seed: int, n_functions: int, days: float, training_days: float
) -> ScenarioWorkload:
    trace = AzureTraceGenerator(_profile(seed, n_functions, days)).generate()
    return ScenarioWorkload(
        scenario="azure", split=split_trace(trace, training_days=training_days)
    )


def _build_diurnal(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    diurnal_fraction: float,
    amplitude: float,
) -> ScenarioWorkload:
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_diurnal = max(1, int(round(diurnal_fraction * n_functions)))
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        app_id = f"app-{i // 3:05d}"
        owner_id = f"owner-{i // 6:05d}"
        if i < n_diurnal:
            rate = float(rng.uniform(0.05, 1.2))
            series = generate_dense_poisson(
                rng, duration, rate_per_minute=rate,
                diurnal=True, diurnal_amplitude=amplitude,
            )
            trigger = TriggerType.HTTP
            archetype = "diurnal_poisson"
        elif i < n_diurnal + max(1, n_functions // 5):
            series = generate_periodic(rng, duration, period=int(rng.integers(15, 240)))
            trigger = TriggerType.TIMER
            archetype = "periodic"
        else:
            series = generate_rare(rng, duration, invocation_count=int(rng.integers(2, 8)))
            trigger = TriggerType.OTHERS
            archetype = "rare"
        records.append(
            FunctionRecord(function_id, app_id, owner_id, trigger, archetype=archetype)
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="diurnal",
        split=_assemble("diurnal", seed, records, counts, duration, training_days),
    )


def _build_bursty(
    seed: int, n_functions: int, days: float, training_days: float
) -> ScenarioWorkload:
    profile = _profile(
        seed,
        n_functions,
        days,
        archetype_mix={
            "bursty": 0.40,
            "pulsed": 0.28,
            "rare_possible": 0.12,
            "rare_unknown": 0.10,
            "dense_poisson": 0.06,
            "chained": 0.04,
        },
    )
    trace = AzureTraceGenerator(profile).generate()
    return ScenarioWorkload(
        scenario="bursty", split=split_trace(trace, training_days=training_days)
    )


def _build_drift(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    drifting_fraction: float,
) -> ScenarioWorkload:
    profile = _profile(
        seed,
        n_functions,
        days,
        drifting_fraction=drifting_fraction,
        archetype_mix={
            "periodic": 0.35,
            "dense_poisson": 0.25,
            "quasi_periodic": 0.15,
            "bursty": 0.08,
            "pulsed": 0.07,
            "rare_possible": 0.05,
            "rare_unknown": 0.05,
        },
    )
    trace = AzureTraceGenerator(profile).generate()
    return ScenarioWorkload(
        scenario="drift", split=split_trace(trace, training_days=training_days)
    )


def _build_flash_crowd(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    crowd_fraction: float,
    crowd_minutes: int,
    peak_rate: float,
) -> ScenarioWorkload:
    base = AzureTraceGenerator(_profile(seed, n_functions, days)).generate()
    rng = np.random.default_rng(seed + 0x5EED)
    duration = base.duration_minutes
    sim_start = int(round(training_days * MINUTES_PER_DAY))
    function_ids = base.function_ids
    n_crowd = max(1, int(round(crowd_fraction * len(function_ids))))
    crowd_ids = rng.choice(len(function_ids), size=n_crowd, replace=False)

    counts = {fid: np.array(base.series(fid)) for fid in function_ids}
    # All crowds land inside the simulation window — the point is to hit the
    # evaluated policies with traffic their training window never showed.
    latest_start = max(sim_start, duration - crowd_minutes - 1)
    for position in sorted(int(i) for i in crowd_ids):
        function_id = function_ids[position]
        start = int(rng.integers(sim_start, max(sim_start + 1, latest_start)))
        counts[function_id] = counts[function_id] + generate_flash_crowd(
            rng, duration,
            crowd_start=start, crowd_minutes=crowd_minutes,
            peak_rate=peak_rate, base_rate=0.0,
        )
    return ScenarioWorkload(
        scenario="flash-crowd",
        split=_assemble(
            "flash-crowd", seed, base.records(), counts, duration, training_days
        ),
    )


def _build_capacity_squeeze(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    squeeze: float,
    n_nodes: int,
) -> ScenarioWorkload:
    profile = _profile(
        seed,
        n_functions,
        days,
        archetype_mix={
            "always_warm": 0.05,
            "periodic": 0.20,
            "quasi_periodic": 0.15,
            "dense_poisson": 0.30,
            "bursty": 0.10,
            "pulsed": 0.10,
            "rare_possible": 0.05,
            "rare_unknown": 0.05,
        },
    )
    trace = AzureTraceGenerator(profile).generate()
    split = split_trace(trace, training_days=training_days)
    # Capacity derived from the workload itself: a small multiple of the mean
    # per-minute active set.  Keep-alive policies want an order of magnitude
    # more than that, so eviction pressure is sustained, not incidental.
    index = split.simulation.invocation_index()
    active_per_minute = np.diff(index.indptr)
    mean_active = float(active_per_minute.mean()) if active_per_minute.size else 1.0
    capacity = max(n_nodes, int(round(mean_active * squeeze)))
    cluster = ClusterModel(memory_capacity=capacity, n_nodes=n_nodes)
    return ScenarioWorkload(scenario="capacity-squeeze", split=split, cluster=cluster)


def _hot_shard_id(prefix: str, i: int, n_nodes: int) -> str:
    """A function id the CRC-32 shard deterministically maps to node 0.

    Ids are salted until the hash lands on node 0 — the adversarial shape
    real deployments hit when correlated tenants share an id prefix that
    happens to collide.  The salt search is deterministic, so the scenario's
    traces fingerprint stably.
    """
    import zlib

    salt = 0
    while True:
        function_id = f"{prefix}-{i:05d}" if salt == 0 else f"{prefix}-{i:05d}x{salt}"
        if zlib.crc32(function_id.encode()) % n_nodes == 0:
            return function_id
        salt += 1


def _build_hot_shard(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    hot_fraction: float,
    n_nodes: int,
    squeeze: float,
    hot_rate: float,
) -> ScenarioWorkload:
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_hot = max(1, int(round(hot_fraction * n_functions)))
    n_warm = max(1, n_functions // 4)
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        if i < n_hot:
            # The hot set: dense Poisson traffic whose ids all hash to node 0.
            function_id = _hot_shard_id("hot", i, n_nodes)
            series = generate_dense_poisson(
                rng, duration, rate_per_minute=float(rng.uniform(0.5, hot_rate))
            )
            trigger = TriggerType.HTTP
            archetype = "hot_poisson"
        elif i < n_hot + n_warm:
            function_id = f"warm-{i:05d}"
            series = generate_periodic(rng, duration, period=int(rng.integers(20, 180)))
            trigger = TriggerType.TIMER
            archetype = "periodic"
        else:
            function_id = f"bg-{i:05d}"
            series = generate_rare(rng, duration, invocation_count=int(rng.integers(2, 10)))
            trigger = TriggerType.OTHERS
            archetype = "rare"
        records.append(
            FunctionRecord(
                function_id,
                f"app-{i // 3:05d}",
                f"owner-{i // 6:05d}",
                trigger,
                archetype=archetype,
            )
        )
        counts[function_id] = series
    split = _assemble("hot-shard", seed, records, counts, duration, training_days)
    # The capacity-squeeze recipe: enough room for the cluster-wide mean
    # active set times `squeeze`, so a balanced placement is comfortable while
    # the hash-hot node (carrying ~all the traffic) is squeezed hard.
    index = split.simulation.invocation_index()
    active_per_minute = np.diff(index.indptr)
    mean_active = float(active_per_minute.mean()) if active_per_minute.size else 1.0
    capacity = max(n_nodes, int(round(mean_active * squeeze)))
    cluster = ClusterModel(memory_capacity=capacity, n_nodes=n_nodes)
    return ScenarioWorkload(scenario="hot-shard", split=split, cluster=cluster)


def _build_rotating_periods(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    periodic_fraction: float,
    stretch: float,
) -> ScenarioWorkload:
    """Timer-heavy population whose periods stretch continuously.

    Each periodic function ticks whenever its accumulated phase crosses an
    integer; the instantaneous frequency interpolates linearly from
    ``1/period`` down to ``1/(period * stretch)`` across the trace, so
    inter-invocation gaps grow every single day.  A histogram trained on any
    prefix systematically under-estimates the idle times the suffix
    produces — the canonical shape the streaming mode exists to evaluate.
    """
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_periodic = max(1, int(round(periodic_fraction * n_functions)))
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        if i < n_periodic:
            period = float(rng.uniform(15.0, 180.0))
            frequency = np.linspace(
                1.0 / period, 1.0 / (period * stretch), duration
            )
            phase = float(rng.uniform(0.0, 1.0)) + np.cumsum(frequency)
            ticks = np.floor(phase)
            series = np.diff(ticks, prepend=np.floor(phase[0] - frequency[0]))
            series = series.astype(np.int64)
            trigger = TriggerType.TIMER
            archetype = "rotating_periodic"
        else:
            series = generate_rare(
                rng, duration, invocation_count=int(rng.integers(2, 8))
            )
            trigger = TriggerType.OTHERS
            archetype = "rare"
        records.append(
            FunctionRecord(
                function_id,
                f"app-{i // 3:05d}",
                f"owner-{i // 6:05d}",
                trigger,
                archetype=archetype,
            )
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="rotating-periods",
        split=_assemble(
            "rotating-periods", seed, records, counts, duration, training_days
        ),
    )


def _build_load_ramp(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    ramp: float,
    ramp_fraction: float,
) -> ScenarioWorkload:
    """Poisson population whose rates multiply by ``ramp`` across the trace.

    Ramping functions start at a low base rate and grow geometrically to
    ``base * ramp`` by the last minute — a service onboarding traffic.  The
    early (training) window therefore always under-represents the load the
    late (simulation) window carries, in volume *and* in which functions are
    worth keeping warm.
    """
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_ramping = max(1, int(round(ramp_fraction * n_functions)))
    multiplier = np.geomspace(1.0, ramp, duration)
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        if i < n_ramping:
            base_rate = float(rng.uniform(0.02, 0.25))
            series = rng.poisson(base_rate * multiplier).astype(np.int64)
            trigger = TriggerType.HTTP
            archetype = "ramping_poisson"
        elif i < n_ramping + max(1, n_functions // 6):
            series = generate_periodic(
                rng, duration, period=int(rng.integers(20, 180))
            )
            trigger = TriggerType.TIMER
            archetype = "periodic"
        else:
            series = generate_rare(
                rng, duration, invocation_count=int(rng.integers(2, 8))
            )
            trigger = TriggerType.OTHERS
            archetype = "rare"
        records.append(
            FunctionRecord(
                function_id,
                f"app-{i // 3:05d}",
                f"owner-{i // 6:05d}",
                trigger,
                archetype=archetype,
            )
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="load-ramp",
        split=_assemble("load-ramp", seed, records, counts, duration, training_days),
    )


def _build_seasonal_mix(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    seasons: int,
    season_days: float,
) -> ScenarioWorkload:
    """The hot subset of the population rotates continuously.

    Functions are partitioned into ``seasons`` groups; each group's Poisson
    rate follows a half-sine activity envelope phase-shifted around a
    ``season_days``-long cycle, with a faint off-season trickle.  Total load
    stays roughly level while *which* functions deserve warmth changes all
    the time — keep-alive state earned during one season is pure waste two
    seasons later.
    """
    if seasons < 2:
        raise ValueError("seasons must be >= 2")
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    minutes = np.arange(duration, dtype=float)
    cycle = season_days * MINUTES_PER_DAY
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        group = i % seasons
        envelope = np.clip(
            np.sin(2.0 * np.pi * (minutes / cycle - group / seasons)), 0.0, None
        )
        peak_rate = float(rng.uniform(0.15, 0.9))
        rate = peak_rate * envelope**2 + 0.005
        series = rng.poisson(rate).astype(np.int64)
        records.append(
            FunctionRecord(
                function_id,
                f"app-{group:05d}-{i // (3 * seasons):04d}",
                f"owner-{i // 6:05d}",
                TriggerType.HTTP,
                archetype=f"seasonal_{group}",
            )
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="seasonal-mix",
        split=_assemble(
            "seasonal-mix", seed, records, counts, duration, training_days
        ),
    )


def _azure2019_day_count(days: float) -> int:
    """Whole dataset days needed to cover a possibly fractional span."""
    return max(1, int(math.ceil(days - 1e-9)))


def _azure2019_trim(trace, days: float, training_days: float) -> TraceSplit:
    """Trim a whole-days load to the requested span and split it."""
    duration = int(round(days * MINUTES_PER_DAY))
    if duration < trace.duration_minutes:
        trace = trace.slice(0, duration, name=trace.metadata.name)
    return split_trace(trace, training_days=training_days)


def _build_azure2019(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    azure_dir: str,
    day_start: int,
    selection: str,
    trigger: str,
) -> ScenarioWorkload:
    from repro.traces.azure2019 import Azure2019Config, Azure2019Dataset

    if not azure_dir:
        raise ValueError(
            "the azure2019 scenario needs the real dataset on disk: pass "
            "`sweep --azure-dir PATH` (or --scenario-param azure_dir=PATH); "
            "download it once with `spes-repro azure fetch --dest PATH`"
        )
    triggers = tuple(part for part in str(trigger).split(",") if part) or None
    config = Azure2019Config(
        days=tuple(range(int(day_start), int(day_start) + _azure2019_day_count(days))),
        triggers=triggers,
        selection=selection,
        max_functions=int(n_functions),
        seed=seed,
    )
    trace = Azure2019Dataset(azure_dir).load(config)
    return ScenarioWorkload(
        scenario="azure2019",
        split=_azure2019_trim(trace, days, training_days),
    )


def _build_azure2019_fixture(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    population: int,
    selection: str,
    trigger: str,
) -> ScenarioWorkload:
    from repro.traces.azure2019 import (
        Azure2019Config,
        Azure2019Dataset,
        write_azure2019_fixture,
    )

    day_files = _azure2019_day_count(days)
    population = max(int(population), n_functions)
    triggers = tuple(part for part in str(trigger).split(",") if part) or None
    config = Azure2019Config(
        days=tuple(range(1, day_files + 1)),
        triggers=triggers,
        selection=selection,
        max_functions=n_functions,
        seed=seed,
    )
    with tempfile.TemporaryDirectory(prefix="azure2019-fixture-") as tmp:
        write_azure2019_fixture(
            tmp, n_functions=population, days=day_files, seed=seed
        )
        # No on-disk cache: the source directory is ephemeral, and fixture
        # ingestion is fast enough to redo per build.
        trace = Azure2019Dataset(tmp, cache_dir=None).load(config)
    return ScenarioWorkload(
        scenario="azure2019-fixture",
        split=_azure2019_trim(trace, days, training_days),
    )


def _build_cpu_starved(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    hot_fraction: float,
    hot_rate: float,
    cores: int,
    scheduler: str,
    slo_ms: float,
) -> ScenarioWorkload:
    """Dense HTTP traffic contending for a deliberately small core pool.

    The hot slice fires continuously at rates up to ``hot_rate`` per minute
    with heavyweight handlers (``execution_scale`` 3x), while the scenario
    prescribes only ``cores`` cores per node — so even perfectly provisioned
    functions queue for CPU and keep-alive quality stops being the whole
    latency story.  The background of periodic/rare functions keeps the
    provisioning problem non-trivial at the same time.
    """
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_hot = max(1, int(round(hot_fraction * n_functions)))
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        if i < n_hot:
            series = generate_dense_poisson(
                rng, duration, rate_per_minute=float(rng.uniform(1.0, hot_rate))
            )
            trigger = TriggerType.HTTP
            archetype = "dense_poisson"
        elif i < n_hot + max(1, n_functions // 5):
            series = generate_periodic(
                rng, duration, period=int(rng.integers(20, 120))
            )
            trigger = TriggerType.TIMER
            archetype = "periodic"
        else:
            series = generate_rare(
                rng, duration, invocation_count=int(rng.integers(2, 8))
            )
            trigger = TriggerType.OTHERS
            archetype = "rare"
        records.append(
            FunctionRecord(
                function_id,
                f"app-{i // 3:05d}",
                f"owner-{i // 6:05d}",
                trigger,
                archetype=archetype,
            )
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="cpu-starved",
        split=_assemble(
            "cpu-starved", seed, records, counts, duration, training_days
        ),
        events=EventConfig(
            execution_scale=3.0,
            cpu=CpuConfig(cores_per_node=int(cores), scheduler=str(scheduler)),
            slo_ms=float(slo_ms),
        ),
    )


def _build_long_duration_mix(
    seed: int,
    n_functions: int,
    days: float,
    training_days: float,
    long_fraction: float,
    long_exec_ms: float,
    short_exec_ms: float,
    cores: int,
    scheduler: str,
    slo_ms: float,
) -> ScenarioWorkload:
    """Bimodal service times on a shared core pool: scheduler discrimination.

    A slice of long-running batch functions (measured ``long_exec_ms``
    handlers on queue triggers) shares the cores with a majority of short
    HTTP handlers (``short_exec_ms``).  Under ``fifo`` a long job in front
    of the queue convoys every short request behind it; size-aware
    disciplines (``srtf``, ``las``) cut the short jobs' slowdown at the long
    jobs' expense — exactly the contrast RQ6 measures.  Durations ride on
    the records as measured profiles, so the bimodality is exact rather
    than spread-derived.
    """
    rng = np.random.default_rng(seed)
    duration = int(round(days * MINUTES_PER_DAY))
    n_long = max(1, int(round(long_fraction * n_functions)))
    long_profile = DurationProfile(
        cold_start_ms=600.0, execution_ms=float(long_exec_ms)
    )
    short_profile = DurationProfile(
        cold_start_ms=220.0, execution_ms=float(short_exec_ms)
    )
    records: List[FunctionRecord] = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(n_functions):
        function_id = f"func-{i:05d}"
        if i < n_long:
            series = generate_dense_poisson(
                rng, duration, rate_per_minute=float(rng.uniform(0.1, 0.6))
            )
            trigger = TriggerType.QUEUE
            archetype = "bursty"
            profile = long_profile
        else:
            series = generate_dense_poisson(
                rng, duration, rate_per_minute=float(rng.uniform(0.8, 3.0))
            )
            trigger = TriggerType.HTTP
            archetype = "dense_poisson"
            profile = short_profile
        records.append(
            FunctionRecord(
                function_id,
                f"app-{i // 3:05d}",
                f"owner-{i // 6:05d}",
                trigger,
                archetype=archetype,
                duration=profile,
            )
        )
        counts[function_id] = series
    return ScenarioWorkload(
        scenario="long-duration-mix",
        split=_assemble(
            "long-duration-mix", seed, records, counts, duration, training_days
        ),
        events=EventConfig(
            cpu=CpuConfig(cores_per_node=int(cores), scheduler=str(scheduler)),
            slo_ms=float(slo_ms),
        ),
    )


register_scenario(
    Scenario(
        name="azure",
        description="default synthetic Azure-like population (the paper's setting)",
        builder=_build_azure,
        events=EventConfig(),
    )
)
register_scenario(
    Scenario(
        name="diurnal",
        description="day/night-modulated Poisson HTTP traffic over a timer/rare background",
        builder=_build_diurnal,
        defaults={"diurnal_fraction": 0.6, "amplitude": 0.9},
        # Human-facing request/response traffic: light handlers, quick boots.
        events=EventConfig(cold_start_scale=0.8, execution_scale=0.7),
    )
)
register_scenario(
    Scenario(
        name="bursty",
        description="temporal-locality heavy: hours idle, then dense bursts",
        builder=_build_bursty,
        # Batch-shaped population: heavier runtimes, slower provisioning.
        events=EventConfig(cold_start_scale=1.5, execution_scale=2.0),
    )
)
register_scenario(
    Scenario(
        name="drift",
        description="a large population slice changes behaviour mid-trace",
        builder=_build_drift,
        defaults={"drifting_fraction": 0.35},
        events=EventConfig(),
    )
)
register_scenario(
    Scenario(
        name="flash-crowd",
        description="azure base + sudden unpredictable crowds inside the simulation window",
        builder=_build_flash_crowd,
        defaults={"crowd_fraction": 0.12, "crowd_minutes": 120, "peak_rate": 15.0},
        # Crowds pull cold images through an already-busy registry.
        events=EventConfig(cold_start_scale=1.3),
    )
)
register_scenario(
    Scenario(
        name="capacity-squeeze",
        description="dense population on a sharded cluster with a workload-derived memory cap",
        builder=_build_capacity_squeeze,
        defaults={"squeeze": 2.5, "n_nodes": 4},
        # Under sustained eviction pressure node-local image caches thrash,
        # so re-provisioning costs more than a cold-cache boot.
        events=EventConfig(cold_start_scale=2.0),
    )
)
register_scenario(
    Scenario(
        name="hot-shard",
        description="hot functions deliberately hash onto one node; stresses placement",
        builder=_build_hot_shard,
        defaults={"hot_fraction": 0.25, "n_nodes": 4, "squeeze": 3.0, "hot_rate": 2.0},
        # The melting node's image registry is saturated; boots crawl.
        events=EventConfig(cold_start_scale=1.4),
    )
)
register_scenario(
    Scenario(
        name="rotating-periods",
        description="continuous drift: timer periods stretch steadily over the trace",
        builder=_build_rotating_periods,
        defaults={"periodic_fraction": 0.6, "stretch": 3.0},
        # Scheduled batch jobs: heavier runtimes than request/response code.
        events=EventConfig(cold_start_scale=1.2, execution_scale=1.5),
    )
)
register_scenario(
    Scenario(
        name="load-ramp",
        description="continuous drift: Poisson rates ramp multiplicatively across the trace",
        builder=_build_load_ramp,
        defaults={"ramp": 8.0, "ramp_fraction": 0.7},
        # A growing service pulls ever more images through one registry.
        events=EventConfig(cold_start_scale=1.3),
    )
)
register_scenario(
    Scenario(
        name="seasonal-mix",
        description="continuous drift: the hot subset of functions rotates around the clock",
        builder=_build_seasonal_mix,
        defaults={"seasons": 4, "season_days": 1.0},
        events=EventConfig(),
    )
)
register_scenario(
    Scenario(
        name="azure2019",
        description=(
            "the real Azure 2019 dataset (needs --azure-dir; "
            "`spes-repro azure fetch` downloads it)"
        ),
        builder=_build_azure2019,
        defaults={
            "azure_dir": "",
            "day_start": 1,
            "selection": "top",
            "trigger": "",
        },
        # Measured per-function durations ride on the records themselves;
        # the scenario-level config stays neutral.
        events=EventConfig(),
    )
)
register_scenario(
    Scenario(
        name="azure2019-fixture",
        description=(
            "hermetic end-to-end run of the real-trace ingestion pipeline "
            "over generated fixture CSVs"
        ),
        builder=_build_azure2019_fixture,
        defaults={"population": 0, "selection": "all", "trigger": ""},
        events=EventConfig(),
    )
)
register_scenario(
    Scenario(
        name="cpu-starved",
        description="dense heavyweight HTTP traffic contending for a small per-node core pool",
        builder=_build_cpu_starved,
        defaults={
            "hot_fraction": 0.5,
            "hot_rate": 6.0,
            "cores": 2,
            "scheduler": "fifo",
            "slo_ms": 1000.0,
        },
        # The builder attaches the CPU/SLO config itself (it depends on the
        # cores/scheduler/slo_ms parameters); this registry-level default is
        # only the fallback if the builder's is ever bypassed.
        events=EventConfig(execution_scale=3.0, cpu=CpuConfig(cores_per_node=2), slo_ms=1000.0),
    )
)
register_scenario(
    Scenario(
        name="long-duration-mix",
        description=(
            "bimodal service times on shared cores: convoys under fifo, "
            "relief under srtf/las"
        ),
        builder=_build_long_duration_mix,
        defaults={
            "long_fraction": 0.2,
            "long_exec_ms": 2000.0,
            "short_exec_ms": 60.0,
            "cores": 2,
            "scheduler": "fifo",
            "slo_ms": 500.0,
        },
        events=EventConfig(cpu=CpuConfig(cores_per_node=2), slo_ms=500.0),
    )
)
