"""Engine throughput: simulated-minutes/second, before vs. after vectorization.

The "before" is the reference loop (``tests/reference_engine.py``, timed
under the row name ``reference``) — the original pure-Python minute loop
over sets and dicts, which also re-scans the trace on every run.
The "after" is the default ``vectorized`` engine, which runs residency and
memory accounting on numpy masks over the trace's cached invocation index.

Throughput is measured on the paper's default workload shape (400 functions,
14 days, 2-day simulation window) with engine-bound policies, so the numbers
isolate the engine's accounting cost rather than any policy's decision cost.
A ≥3x speedup is asserted for the policy sweep scenario (several policies
over one shared window — the shape the experiment suite fans out).

Also reported: wall-clock of a small policy suite executed serially vs.
through the ``ParallelRunner`` process pool (informative only — the ratio
depends on the machine's core count).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.simulation import AlwaysWarmPolicy, NoKeepAlivePolicy, Simulator
from repro.baselines import FixedKeepAlivePolicy, HybridFunctionPolicy

from .conftest import save_and_print

# The dict-stepping oracles live with the test suite; import them from there
# explicitly, whatever the import mode or collection order.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from dict_policies import DictFixedKeepAlivePolicy, DictHybridFunctionPolicy  # noqa: E402
from reference_engine import ORACLE, ReferenceSimulator  # noqa: E402

#: The default workload of the paper's evaluation (ISSUE/acceptance shape).
THROUGHPUT_CONFIG = ExperimentConfig(
    n_functions=400,
    seed=2024,
    duration_days=14.0,
    training_days=12.0,
    warmup_minutes=0,
)

#: Engine-bound policies: near-zero decision cost, so the measured time is
#: dominated by the engine's own accounting work.
ENGINE_BOUND_POLICIES = (
    ("no-keepalive", NoKeepAlivePolicy),
    ("always-warm", AlwaysWarmPolicy),
    ("fixed-10min", lambda: FixedKeepAlivePolicy(10)),
)


@pytest.fixture(scope="module")
def throughput_split():
    suite = ExperimentSuite(THROUGHPUT_CONFIG)
    return suite.traces()[suite.trace_key(THROUGHPUT_CONFIG.seed)]


def _listening(factory):
    """``factory`` with a no-op ``on_feedback`` override on its policy.

    The override alone makes the event engine run the full feedback loop —
    window bookkeeping plus one hook call per minute — without changing a
    single decision.
    """

    def build():
        policy = factory()
        policy.__class__ = type(
            f"Listening{type(policy).__name__}",
            (type(policy),),
            {"on_feedback": lambda self, minute, latency_window: None},
        )
        return policy

    return build


#: The engine-bound sweep with every policy listening to the feedback loop.
LISTENING_POLICIES = tuple(
    (name, _listening(factory)) for name, factory in ENGINE_BOUND_POLICIES
)


def _sweep_seconds(split, engine: str, policies=ENGINE_BOUND_POLICIES) -> float:
    """Wall-clock of one policy sweep (all engine-bound policies) per engine.

    ``engine`` is an engine name or :data:`ORACLE`, the reference loop.
    """
    started = time.perf_counter()
    for _, factory in policies:
        if engine == ORACLE:
            simulator = ReferenceSimulator(split.simulation, warmup_minutes=0)
        else:
            simulator = Simulator(split.simulation, warmup_minutes=0, engine=engine)
        simulator.run(factory())
    return time.perf_counter() - started


def test_engine_throughput_vectorized_vs_reference_loop(throughput_split, output_dir):
    split = throughput_split
    minutes = split.simulation.duration_minutes
    sweep_minutes = minutes * len(ENGINE_BOUND_POLICIES)

    # Warm both paths once (imports, numpy, the trace's invocation index).
    _sweep_seconds(split, "vectorized")
    _sweep_seconds(split, ORACLE)

    reference_seconds = min(_sweep_seconds(split, ORACLE) for _ in range(3))
    vectorized_seconds = min(_sweep_seconds(split, "vectorized") for _ in range(3))
    speedup = reference_seconds / vectorized_seconds

    lines = [
        "Engine throughput - 400 functions, 14-day workload, 2-day window",
        f"policies per sweep: {', '.join(name for name, _ in ENGINE_BOUND_POLICIES)}",
        f"reference loop:    {sweep_minutes / reference_seconds:>12.0f} sim-min/s"
        f"  ({reference_seconds:.3f}s per sweep)",
        f"vectorized engine: {sweep_minutes / vectorized_seconds:>12.0f} sim-min/s"
        f"  ({vectorized_seconds:.3f}s per sweep)",
        f"speedup: {speedup:.2f}x",
    ]
    save_and_print(output_dir, "engine_throughput", "\n".join(lines))
    assert speedup >= 3.0, f"vectorized engine only {speedup:.2f}x over reference"


#: (bench key, dict-stepping oracle factory, shipped index-native factory).
#: The pairs are decision-identical (fingerprint-equal, see
#: tests/simulation/test_equivalence_random.py), so the ratio isolates the
#: cost of the policy-stepping contract itself.
INDEXED_POLICY_PAIRS = (
    ("fixed-10min", lambda: DictFixedKeepAlivePolicy(10), lambda: FixedKeepAlivePolicy(10)),
    ("hybrid-function", DictHybridFunctionPolicy, HybridFunctionPolicy),
)


def _end_to_end_seconds(split, factory, repeats: int) -> float:
    """Best-of-N wall-clock of one full simulation (prepare + minute loop)."""
    best = float("inf")
    for _ in range(repeats):
        simulator = Simulator(split.simulation, split.training, warmup_minutes=0)
        started = time.perf_counter()
        simulator.run(factory())
        best = min(best, time.perf_counter() - started)
    return best


def test_indexed_policy_speedup(throughput_split, output_dir):
    """Shipped index-native policies vs their dict oracles, end to end.

    The acceptance bar is a >=1.5x end-to-end speedup for at least one ported
    policy on the default workload.  The measured numbers are also published
    as ``BENCH_pr2.json`` so CI can archive the perf trajectory per PR.
    """
    split = throughput_split
    minutes = split.simulation.duration_minutes

    lines = ["Indexed policy contract - 400 functions, 14-day workload, 2-day window"]
    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
        },
        "policies": {},
    }
    speedups = {}
    for name, dict_factory, indexed_factory in INDEXED_POLICY_PAIRS:
        repeats = 3 if name == "fixed-10min" else 1  # hybrid runs are heavy
        dict_seconds = _end_to_end_seconds(split, dict_factory, repeats)
        indexed_seconds = _end_to_end_seconds(split, indexed_factory, repeats)
        speedup = dict_seconds / indexed_seconds
        speedups[name] = speedup
        payload["policies"][name] = {
            "dict_seconds": round(dict_seconds, 4),
            "indexed_seconds": round(indexed_seconds, 4),
            "speedup": round(speedup, 3),
            "indexed_sim_minutes_per_second": round(minutes / indexed_seconds, 1),
        }
        lines.append(
            f"{name:16s} dict {dict_seconds:8.3f}s   indexed {indexed_seconds:8.3f}s"
            f"   speedup {speedup:5.2f}x"
        )

    save_and_print(output_dir, "indexed_policy_speedup", "\n".join(lines))
    (output_dir / "BENCH_pr2.json").write_text(json.dumps(payload, indent=2) + "\n")
    best = max(speedups.values())
    assert best >= 1.5, f"no ported policy reached 1.5x (best {best:.2f}x): {speedups}"


def test_event_engine_throughput(throughput_split, output_dir):
    """Event engine vs the minute-granular engines (PR 3 criterion).

    The event engine layers per-event expansion and latency tracking on top
    of the vectorized minute loop, so it cannot be faster — the bench bounds
    the *cost* of the extra temporal resolution and records it, per engine,
    as the ``BENCH_pr3.json`` artifact.  Equivalence (identical deterministic
    fingerprints, latency block present only on the event run) is asserted on
    the same workload the timings come from.
    """
    split = throughput_split
    minutes = split.simulation.duration_minutes
    sweep_minutes = minutes * len(ENGINE_BOUND_POLICIES)

    engines = ("vectorized", "event", ORACLE)
    for engine in engines:  # warm imports, index, jitter machinery
        _sweep_seconds(split, engine)
    seconds = {
        engine: min(_sweep_seconds(split, engine) for _ in range(3))
        for engine in engines
    }

    vectorized = Simulator(split.simulation, warmup_minutes=0).run(
        FixedKeepAlivePolicy(10)
    )
    event = Simulator(split.simulation, warmup_minutes=0, engine="event").run(
        FixedKeepAlivePolicy(10)
    )
    assert vectorized.deterministic_fingerprint() == event.deterministic_fingerprint()
    assert vectorized.latency is None and event.latency is not None
    assert event.latency.cold_start_events == event.total_cold_starts

    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
        },
        "engines": {
            engine: {
                "sweep_seconds": round(seconds[engine], 4),
                "sim_minutes_per_second": round(sweep_minutes / seconds[engine], 1),
            }
            for engine in engines
        },
        "event_overhead_vs_vectorized": round(
            seconds["event"] / seconds["vectorized"], 3
        ),
        "latency_events": {
            "total": event.latency.total_events,
            "cold_start": event.latency.cold_start_events,
            "p99_ms": round(event.latency.p99_ms, 2),
        },
    }
    lines = [
        "Engine throughput with the event layer - 400 functions, 2-day window",
    ] + [
        f"{engine:11s} {sweep_minutes / seconds[engine]:>12.0f} sim-min/s"
        f"  ({seconds[engine]:.3f}s per sweep)"
        for engine in engines
    ] + [
        f"event-layer overhead: {payload['event_overhead_vs_vectorized']:.2f}x"
        " over vectorized",
    ]
    save_and_print(output_dir, "event_engine_throughput", "\n".join(lines))
    (output_dir / "BENCH_pr3.json").write_text(json.dumps(payload, indent=2) + "\n")
    # The event layer must stay cheaper than falling back to the reference
    # loop: sub-minute resolution may not cost more than losing vectorization.
    assert seconds["event"] < seconds[ORACLE], payload


def test_event_cpu_engine_throughput(throughput_split, output_dir):
    """Cost of the intra-node CPU scheduling stage (PR 8 criterion).

    With ``EventConfig.cpu`` set, every minute's warm events are expanded
    into timestamped arrivals and pushed through the configured
    :class:`~repro.simulation.scheduling.InvocationScheduler` — ``srtf`` is
    measured here as the most expensive discipline (a full event-driven
    preemptive loop, no quantum batching).  The bench times one end-to-end
    ``fixed-10min`` run with a 2-core pool against the CPU-free event run,
    asserts the observer property on the bench workload itself (identical
    minute-granular fingerprints), and publishes the ``engine/event-cpu``
    row in ``BENCH_pr8.json`` for ``compare_bench.py``'s floor gate.
    """
    from repro.simulation import CpuConfig, EventConfig

    split = throughput_split
    minutes = split.simulation.duration_minutes
    cpu_events = EventConfig(
        cpu=CpuConfig(cores_per_node=2, scheduler="srtf"), slo_ms=500.0
    )

    def run_seconds(events) -> tuple[float, object]:
        best, result = float("inf"), None
        for _ in range(3):
            simulator = Simulator(
                split.simulation, warmup_minutes=0, engine="event", events=events
            )
            started = time.perf_counter()
            result = simulator.run(FixedKeepAlivePolicy(10))
            best = min(best, time.perf_counter() - started)
        return best, result

    run_seconds(None)  # warm imports, index, jitter machinery
    event_seconds, event = run_seconds(None)
    cpu_seconds, contended = run_seconds(cpu_events)

    # The CPU stage is a pure observer: minute aggregates are bit-identical.
    assert (
        contended.deterministic_fingerprint() == event.deterministic_fingerprint()
    )
    latency = contended.latency
    assert latency.cpu_scheduled_events == latency.total_events
    assert latency.slo_checked_events == latency.total_events

    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
            "cpu": {"cores_per_node": 2, "scheduler": "srtf", "slo_ms": 500.0},
        },
        "engines": {
            "event-cpu": {
                "sweep_seconds": round(cpu_seconds, 4),
                "sim_minutes_per_second": round(minutes / cpu_seconds, 1),
            },
        },
        "cpu_overhead_vs_event": round(cpu_seconds / event_seconds, 3),
        "cpu_stats": {
            "scheduled_events": latency.cpu_scheduled_events,
            "delayed_events": latency.cpu_delayed_events,
            "slowdown_p99": round(latency.slowdown_p99, 3),
            "slo_violation_rate": round(latency.slo_violation_rate, 5),
        },
    }
    lines = [
        "Intra-node CPU stage - 400 functions, 2-day window, 2 cores, srtf",
        f"event (no cpu): {minutes / event_seconds:>12.0f} sim-min/s"
        f"  ({event_seconds:.3f}s per run)",
        f"event-cpu:      {minutes / cpu_seconds:>12.0f} sim-min/s"
        f"  ({cpu_seconds:.3f}s per run)",
        f"cpu-stage overhead: {payload['cpu_overhead_vs_event']:.2f}x over event",
        f"slowdown p99 {latency.slowdown_p99:.2f}, "
        f"SLO violations {latency.slo_violation_rate:.2%}",
    ]
    save_and_print(output_dir, "event_cpu_engine_throughput", "\n".join(lines))
    (output_dir / "BENCH_pr8.json").write_text(json.dumps(payload, indent=2) + "\n")
    # The scheduling stage is pure numpy-plus-heap bookkeeping per minute; it
    # may cost a multiple of the bare event layer but must stay interactive.
    assert minutes / cpu_seconds > 100.0, payload


def test_feedback_engine_overhead(throughput_split, output_dir):
    """Cost of closing the latency feedback loop (PR 5 criterion).

    For a policy that overrides ``on_feedback``, the ``event`` engine adds,
    per minute, the rolling-window bookkeeping (aggregate, expire, snapshot)
    and one hook call.  The bench measures the engine-bound sweep on
    ``vectorized`` and ``event``, and once more on ``event`` with every
    policy overriding the hook as a no-op (the ``event-feedback`` row), plus
    one end-to-end run of the latency-aware consumer.  It publishes the
    consolidated ``BENCH_pr5.json`` artifact: the ``engines`` rows feed
    ``compare_bench.py``'s absolute throughput floor for
    ``engine/event-feedback``, and the ``feedback`` block records the
    relative overhead ratios for inspection.
    """
    from repro.baselines import LatencyAwareKeepAlivePolicy

    split = throughput_split
    minutes = split.simulation.duration_minutes
    sweep_minutes = minutes * len(ENGINE_BOUND_POLICIES)

    sweeps = {
        "vectorized": ("vectorized", ENGINE_BOUND_POLICIES),
        "event": ("event", ENGINE_BOUND_POLICIES),
        "event-feedback": ("event", LISTENING_POLICIES),
    }
    engines = tuple(sweeps)
    for engine, policies in sweeps.values():  # warm imports, index, jitter
        _sweep_seconds(split, engine, policies)
    seconds = {
        row: min(_sweep_seconds(split, *sweeps[row]) for _ in range(3))
        for row in engines
    }

    # The no-op-hook guarantee, asserted on the bench workload itself.
    event = Simulator(split.simulation, warmup_minutes=0, engine="event").run(
        FixedKeepAlivePolicy(10)
    )
    feedback = Simulator(split.simulation, warmup_minutes=0, engine="event").run(
        _listening(lambda: FixedKeepAlivePolicy(10))()
    )
    assert event.deterministic_fingerprint() == feedback.deterministic_fingerprint()
    assert feedback.latency is not None

    # One consumer run: the policy that actually reads the window.
    started = time.perf_counter()
    consumer = Simulator(split.simulation, warmup_minutes=0, engine="event").run(
        LatencyAwareKeepAlivePolicy()
    )
    consumer_seconds = time.perf_counter() - started

    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
        },
        "engines": {
            engine: {
                "sweep_seconds": round(seconds[engine], 4),
                "sim_minutes_per_second": round(sweep_minutes / seconds[engine], 1),
            }
            for engine in engines
        },
        "feedback": {
            "overhead_vs_event": round(
                seconds["event-feedback"] / seconds["event"], 3
            ),
            "overhead_vs_vectorized": round(
                seconds["event-feedback"] / seconds["vectorized"], 3
            ),
            "latency_keepalive_seconds": round(consumer_seconds, 4),
            "latency_keepalive_sim_minutes_per_second": round(
                minutes / consumer_seconds, 1
            ),
            "latency_keepalive_p99_ms": round(consumer.latency.p99_ms, 2),
        },
    }
    lines = [
        "Feedback-loop overhead - 400 functions, 2-day window",
    ] + [
        f"{engine:16s} {sweep_minutes / seconds[engine]:>12.0f} sim-min/s"
        f"  ({seconds[engine]:.3f}s per sweep)"
        for engine in engines
    ] + [
        f"feedback overhead: {payload['feedback']['overhead_vs_event']:.2f}x over"
        " event",
        f"latency-keepalive end-to-end: {minutes / consumer_seconds:>10.0f}"
        " sim-min/s",
    ]
    save_and_print(output_dir, "feedback_engine_overhead", "\n".join(lines))
    (output_dir / "BENCH_pr5.json").write_text(json.dumps(payload, indent=2) + "\n")
    # Closing the loop must stay an incremental cost on top of the event
    # layer (measured ~1.7x), not a multiple of it.
    assert seconds["event-feedback"] < 3.0 * seconds["event"], payload


#: Placement strategies measured by the cluster-mode overhead bench.
PLACEMENTS = ("hash", "least-loaded", "correlation-aware")


def test_placement_overhead(throughput_split, output_dir):
    """Cluster-mode cost per placement strategy, vs. the uncapped engine.

    The placement subsystem sits on the per-minute hot path (per-node trim
    passes, lazy assignment, migration checks), so its overhead is measured
    end to end on the default workload and published — together with a fresh
    engine-throughput row — as the consolidated ``BENCH_pr4.json`` artifact
    that ``benchmarks/compare_bench.py`` gates against
    ``benchmarks/baselines.json``.
    """
    from repro.simulation import ClusterModel
    import numpy as np

    split = throughput_split
    minutes = split.simulation.duration_minutes

    # The capacity-squeeze recipe: real eviction pressure, not a no-op cap.
    index = split.simulation.invocation_index()
    mean_active = float(np.diff(index.indptr).mean())
    capacity = max(8, int(round(mean_active * 2.5)))

    def run_seconds(cluster) -> float:
        best = float("inf")
        for _ in range(2):
            simulator = Simulator(
                split.simulation, warmup_minutes=0, cluster=cluster
            )
            started = time.perf_counter()
            simulator.run(FixedKeepAlivePolicy(10))
            best = min(best, time.perf_counter() - started)
        return best

    uncapped = run_seconds(None)
    placements = {}
    for name in PLACEMENTS:
        cluster = ClusterModel(memory_capacity=capacity, n_nodes=4, placement=name)
        placements[name] = run_seconds(cluster)
    migrating = run_seconds(
        ClusterModel(
            memory_capacity=capacity, n_nodes=4, placement="least-loaded",
            pressure_threshold=0.8, pressure_minutes=3,
        )
    )

    # One quick engine-throughput row per engine, so BENCH_pr4 is a
    # self-contained snapshot (single sweep each; the dedicated tests above
    # publish the best-of-3 numbers).
    sweep_minutes = minutes * len(ENGINE_BOUND_POLICIES)
    engine_seconds = {
        engine: _sweep_seconds(split, engine)
        for engine in ("vectorized", "event", ORACLE)
    }

    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
            "cluster": {"memory_capacity": capacity, "n_nodes": 4},
        },
        "engines": {
            engine: {
                "sweep_seconds": round(seconds, 4),
                "sim_minutes_per_second": round(sweep_minutes / seconds, 1),
            }
            for engine, seconds in engine_seconds.items()
        },
        "placement": {
            "uncapped": {
                "seconds": round(uncapped, 4),
                "sim_minutes_per_second": round(minutes / uncapped, 1),
            },
            **{
                name: {
                    "seconds": round(seconds, 4),
                    "sim_minutes_per_second": round(minutes / seconds, 1),
                    "overhead_vs_uncapped": round(seconds / uncapped, 3),
                }
                for name, seconds in placements.items()
            },
            "least-loaded+migration": {
                "seconds": round(migrating, 4),
                "sim_minutes_per_second": round(minutes / migrating, 1),
                "overhead_vs_uncapped": round(migrating / uncapped, 3),
            },
        },
    }
    lines = [
        "Placement overhead - 400 functions, 2-day window, cap "
        f"{capacity} units over 4 nodes",
        f"uncapped                 {minutes / uncapped:>10.0f} sim-min/s",
    ] + [
        f"{name:24s} {minutes / seconds:>10.0f} sim-min/s"
        f"  ({seconds / uncapped:.2f}x uncapped)"
        for name, seconds in {**placements, "least-loaded+migration": migrating}.items()
    ]
    save_and_print(output_dir, "placement_overhead", "\n".join(lines))
    (output_dir / "BENCH_pr4.json").write_text(json.dumps(payload, indent=2) + "\n")
    # The placement machinery may not dominate the engine: even the most
    # expensive strategy must stay within an order of magnitude of uncapped.
    worst = max(*placements.values(), migrating)
    assert worst / uncapped < 10.0, payload["placement"]


#: Full Azure 2019 population and span for the sharded-scale row.
SHARD_SCALE_FUNCTIONS = 83_000
SHARD_SCALE_DAYS = 14
#: The ``paper_scale`` population (83,137 functions) times this multiplier is
#: the ROADMAP's first million-function scale-trajectory entry.
PAPER_SCALE_MULTIPLIER = 12


def test_sharded_scale_throughput(output_dir):
    """Sharded execution at dataset scale (PR 7 criterion).

    Runs the full Azure-population workload (83k functions, 14 sparse CSR
    days — the recipe behind ``BENCH_pr6``'s engine row, stretched to the
    dataset's span and split 12 + 2 days as in the paper) once through the
    single-process vectorized engine and once sharded across the
    ``ParallelRunner`` process pool, asserting the merged result is
    fingerprint-identical.  The measured policy is the shard-safe
    ``hybrid-function`` port: its per-function histogram training is
    the kind of work sharding exists to spread — with a trivial policy the
    trace-shipping cost of the pool dominates and the comparison measures
    pickling, not simulation.  Also records the first million-function
    scale-trajectory entry: one vectorized run over a
    ``GeneratorProfile.paper_scale()``-derived population times
    ``PAPER_SCALE_MULTIPLIER``.

    The ``engines`` rows feed ``compare_bench.py``'s ``engine/sharded-83k``
    floor.  The >= 2x wall-clock acceptance bar needs enough cores for the
    shards to actually overlap, so it is asserted at four CPUs and up (a
    two-core box tops out around the pool's break-even, which is asserted
    instead); the measured ``cpu_count`` ships in the payload either way, so
    a CI row is never mistaken for a single-core one.
    """
    import os

    from repro.experiments.parallel import ParallelRunner, PolicySpec
    from repro.traces import GeneratorProfile, split_trace
    from repro.traces.schema import MINUTES_PER_DAY

    from .bench_azure2019_ingest import _synthetic_sparse_day

    cpus = os.cpu_count() or 1
    shards = min(8, max(2, cpus))
    trace = _synthetic_sparse_day(SHARD_SCALE_FUNCTIONS, days=SHARD_SCALE_DAYS)
    split = split_trace(trace, training_days=12.0)
    minutes = split.simulation.duration_minutes

    # Single-process vectorized baseline at the same population.  Indexes are
    # built up front: steady-state sweeps reuse them, and the workers rebuild
    # only their own shard's — which the sharded wall-clock below includes.
    split.simulation.invocation_index()
    split.training.invocation_index()
    started = time.perf_counter()
    single_result = Simulator(
        split.simulation, training_trace=split.training, warmup_minutes=0
    ).run(HybridFunctionPolicy())
    single_seconds = time.perf_counter() - started

    # Sharded sweep: one cell split into per-shard pool tasks; the measured
    # wall-clock includes partitioning, pool startup, the trace hand-off
    # and the merge — the cost a real sweep actually pays.
    runner = ParallelRunner(
        {"scale": split}, workers=shards, warmup_minutes=0, shards=shards
    )
    spec = PolicySpec.of("hybrid-function")
    cell = runner.cell("sharded-83k", spec, "scale")
    started = time.perf_counter()
    sharded_result = runner.run_cells([cell])["sharded-83k"]
    sharded_seconds = time.perf_counter() - started
    assert (
        sharded_result.deterministic_fingerprint()
        == single_result.deterministic_fingerprint()
    )
    speedup = single_seconds / sharded_seconds

    # The million-function scale-trajectory entry (one run; the trace build
    # itself is excluded — the row measures the engine, not the generator).
    million_functions = PAPER_SCALE_MULTIPLIER * GeneratorProfile.paper_scale().n_functions
    million_trace = _synthetic_sparse_day(million_functions, days=1)
    started = time.perf_counter()
    million_result = Simulator(million_trace, warmup_minutes=0).run(
        FixedKeepAlivePolicy(10)
    )
    million_seconds = time.perf_counter() - started
    assert million_result.total_invocations > 0

    payload = {
        "workload": {
            "n_functions": SHARD_SCALE_FUNCTIONS,
            "duration_days": SHARD_SCALE_DAYS,
            "training_days": 12.0,
            "simulation_minutes": minutes,
            "policy": "hybrid-function",
            "million_row_functions": million_functions,
        },
        "hardware": {"cpu_count": cpus, "workers": shards, "shards": shards},
        "engines": {
            "vectorized-83k-singleproc": {
                "sweep_seconds": round(single_seconds, 3),
                "sim_minutes_per_second": round(minutes / single_seconds, 1),
            },
            "sharded-83k": {
                "sweep_seconds": round(sharded_seconds, 3),
                "sim_minutes_per_second": round(minutes / sharded_seconds, 1),
                "speedup_vs_single_process": round(speedup, 3),
            },
            "vectorized-1m": {
                "sweep_seconds": round(million_seconds, 3),
                "sim_minutes_per_second": round(
                    MINUTES_PER_DAY / million_seconds, 1
                ),
            },
        },
    }
    lines = [
        f"Sharded scale - {SHARD_SCALE_FUNCTIONS:,} functions x "
        f"{SHARD_SCALE_DAYS} days (12 + 2 split), hybrid-function, "
        f"{shards} shards on {cpus} CPU(s)",
        f"single-process vectorized: {single_seconds:8.2f}s "
        f"({minutes / single_seconds:>10,.1f} sim-min/s)",
        f"sharded ({shards} workers):      {sharded_seconds:8.2f}s "
        f"({minutes / sharded_seconds:>10,.1f} sim-min/s)",
        f"speedup: {speedup:.2f}x",
        f"{million_functions:,} functions x 1 day: {million_seconds:8.2f}s "
        f"({MINUTES_PER_DAY / million_seconds:,.0f} sim-min/s)",
    ]
    save_and_print(output_dir, "sharded_scale_throughput", "\n".join(lines))
    (output_dir / "BENCH_pr7.json").write_text(json.dumps(payload, indent=2) + "\n")
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"sharded run only {speedup:.2f}x over single-process "
            f"vectorized on {cpus} CPUs: {payload}"
        )
    elif cpus >= 2:
        assert speedup >= 1.0, (
            f"the sharded pool failed to pay for itself on {cpus} CPUs "
            f"({speedup:.2f}x): {payload}"
        )


def test_parallel_suite_vs_serial(output_dir):
    """Wall-clock of the policy suite, serial vs. fanned out over workers.

    On multi-core machines ``--workers 4`` beats serial; on constrained CI
    boxes the pool overhead can dominate, so only result *equality* is
    asserted here and the timings are recorded for inspection.
    """
    config = ExperimentConfig(
        n_functions=60, seed=2024, duration_days=4.0, training_days=3.0,
        warmup_minutes=360,
    )
    policies = ("spes", "fixed-10min", "hybrid-function", "defuse")

    started = time.perf_counter()
    serial = ExperimentSuite(config, policies=policies, workers=0).run()
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = ExperimentSuite(config, policies=policies, workers=4).run()
    parallel_seconds = time.perf_counter() - started

    seed = config.seed
    for name in policies:
        assert (
            serial.results[seed][name].deterministic_fingerprint()
            == parallel.results[seed][name].deterministic_fingerprint()
        ), name

    lines = [
        "Policy suite wall-clock - 60 functions, 4-day workload",
        f"policies: {', '.join(policies)}",
        f"serial:     {serial_seconds:8.2f}s",
        f"workers=4:  {parallel_seconds:8.2f}s",
        f"ratio: {serial_seconds / parallel_seconds:.2f}x",
    ]
    save_and_print(output_dir, "parallel_suite_wallclock", "\n".join(lines))


def test_mb_accounting_throughput(throughput_split, output_dir):
    """Cost of measured-memory (MB-mode) accounting (PR 9 criterion).

    ``memory_mode="mb"`` adds a footprint-weighted accounting pass on top of
    the count-based one: a per-function integer-KB vector, a second
    per-minute usage series and KB-exact WMT/EMCR totals.  The bench times
    one end-to-end ``fixed-10min`` run per engine in both modes, asserts
    that every count-based aggregate is untouched by the extra pass, and
    publishes ``engine/vectorized-mb`` and ``engine/event-mb`` rows in
    ``BENCH_pr9.json`` for ``compare_bench.py``'s floor gate.
    """
    import numpy as np

    split = throughput_split
    minutes = split.simulation.duration_minutes

    def run_seconds(engine: str, memory_mode: str) -> tuple[float, object]:
        best, result = float("inf"), None
        for _ in range(3):
            simulator = Simulator(
                split.simulation, warmup_minutes=0, engine=engine,
                memory_mode=memory_mode,
            )
            started = time.perf_counter()
            result = simulator.run(FixedKeepAlivePolicy(10))
            best = min(best, time.perf_counter() - started)
        return best, result

    run_seconds("vectorized", "unit")  # warm imports, index, footprint vector
    seconds: dict[tuple[str, str], float] = {}
    results: dict[tuple[str, str], object] = {}
    for engine in ("vectorized", "event"):
        for memory_mode in ("unit", "mb"):
            seconds[engine, memory_mode], results[engine, memory_mode] = (
                run_seconds(engine, memory_mode)
            )

    # MB mode is additive: the count-based numbers never move.
    for engine in ("vectorized", "event"):
        unit, mb = results[engine, "unit"], results[engine, "mb"]
        np.testing.assert_array_equal(mb.memory_usage, unit.memory_usage)
        assert mb.total_wasted_memory_time == unit.total_wasted_memory_time
        assert mb.memory_usage_kb is not None

    payload = {
        "workload": {
            "n_functions": THROUGHPUT_CONFIG.n_functions,
            "duration_days": THROUGHPUT_CONFIG.duration_days,
            "simulation_minutes": minutes,
        },
        "engines": {
            f"{engine}-mb": {
                "sweep_seconds": round(seconds[engine, "mb"], 4),
                "sim_minutes_per_second": round(
                    minutes / seconds[engine, "mb"], 1
                ),
            }
            for engine in ("vectorized", "event")
        },
        "mb_overhead_vs_unit": {
            engine: round(seconds[engine, "mb"] / seconds[engine, "unit"], 3)
            for engine in ("vectorized", "event")
        },
    }
    lines = [
        "MB-mode accounting - 400 functions, 2-day window, fixed-10min",
    ]
    for engine in ("vectorized", "event"):
        lines.append(
            f"{engine + ' (unit):':<20}{minutes / seconds[engine, 'unit']:>12.0f}"
            f" sim-min/s  ({seconds[engine, 'unit']:.3f}s per run)"
        )
        lines.append(
            f"{engine + ' (mb):':<20}{minutes / seconds[engine, 'mb']:>12.0f}"
            f" sim-min/s  ({seconds[engine, 'mb']:.3f}s per run)"
        )
    lines.append(
        "mb overhead: "
        + ", ".join(
            f"{engine} {payload['mb_overhead_vs_unit'][engine]:.2f}x"
            for engine in ("vectorized", "event")
        )
    )
    save_and_print(output_dir, "mb_accounting_throughput", "\n".join(lines))
    (output_dir / "BENCH_pr9.json").write_text(json.dumps(payload, indent=2) + "\n")
    # The weighted pass is one extra vectorized reduction per minute: it may
    # cost a fraction over unit mode but must stay the same order.
    assert minutes / seconds["event", "mb"] > 100.0, payload
