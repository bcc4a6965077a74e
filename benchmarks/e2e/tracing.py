"""Outside-in layer tracing for the end-to-end benchmark.

Nothing in ``src/`` knows it is being traced.  :func:`traced` patches the
public entry points of each simulator layer at class (or module) level with
thin wrappers that open and close a :class:`Span`, runs the block, and puts
every original back.  Module-level functions are replaced in every module
that looks them up by name, so ``from x import f`` call sites are traced too.

Spans record name, start, end and parent; each span also carries the id of
the simulation cell it ran in (the outermost ``engine.run`` span), so every
span of one cell shares an identifier.  Spans are kept in memory and
reduced by :func:`layer_metrics` into per-layer self-time shares and counts.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

#: Every span name the patches below can emit, in report order.  Each one
#: becomes a ``<name>_pct`` per-layer metric: its self time as a share of
#: the traced wall time.
LAYER_SPANS = (
    "traces.build",
    "traces.ingest",
    "traces.index",
    "traces.shard",
    "policy.prepare",
    "policy.warmup",
    "policy.decide",
    "policy.feedback",
    "adapter.step",
    "engine.run",
    "events.observe",
    "scheduling.schedule",
    "cluster.admit",
    "memory.account",
    "sharding.assign",
    "sharding.merge",
    "cache.key",
    "cache.get",
    "cache.put",
    "results.render",
)

#: The paper's six policies, each reported as ``cell_pct.<policy>``.
CELL_POLICIES = (
    "spes",
    "fixed-10min",
    "hybrid-function",
    "hybrid-application",
    "defuse",
    "faascache",
)

ROOT = "rep"


@dataclass
class Span:
    """One timed call: ``parent`` and ``cell`` are span indices (-1: none)."""

    name: str
    start: float
    end: float
    parent: int
    cell: int
    tag: str | None = None
    work: tuple = ()


class Tracer:
    """An in-memory span recorder for one process (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        cell = self.spans[parent].cell if parent >= 0 else -1
        if name == "engine.run" and cell < 0:
            cell = index
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, cell, tag))
        self._stack.append(index)
        return index

    def end(self, index: int, work: tuple = ()) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.work = work
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(
        self,
        func: Callable,
        name: str | Callable[[tuple], str],
        tag: Callable[[tuple], str] | None = None,
        work: Callable[[tuple, object], tuple] | None = None,
    ) -> Callable:
        """``func`` wrapped in a span; ``name``/``tag``/``work`` may read the args."""
        tracer = self

        @functools.wraps(func)
        def traced_call(*args, **kwargs):
            index = tracer.begin(
                name(args) if callable(name) else name,
                tag(args) if tag is not None else None,
            )
            done = False
            result = None
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                tracer.end(index, work(args, result) if work and done else ())

        return traced_call


# --------------------------------------------------------------------- #
# Patching
# --------------------------------------------------------------------- #
class _Patches:
    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, cls: type, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (if the class itself defines it) by ``wrapper(attr)``."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(wrapper(original.__func__))
        else:
            replacement = wrapper(original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def function(self, func: Callable, replacement: Callable) -> None:
        """Replace ``func`` in every loaded module that binds it by name."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _policy_classes() -> List[type]:
    """``ProvisioningPolicy`` and every subclass the package defines."""
    import repro.baselines  # noqa: F401  (defines the baseline subclasses)
    import repro.core  # noqa: F401  (defines the SPES subclasses)
    from repro.simulation.policy_base import ProvisioningPolicy

    found, pending = [], [ProvisioningPolicy]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _minute_span(args: tuple) -> str:
    # The policy contract numbers warm-up minutes negatively.
    return "policy.warmup" if args[1] < 0 else "policy.decide"


def _observed(args: tuple, result: object) -> tuple:
    # observe_minute(self, minute, invoked, counts, cold_mask, ...)
    return int(args[3].sum()), int(args[4].sum())  # events, cold starts


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer boundary to record into ``tracer`` for the block."""
    from repro.experiments import results as results_module
    from repro.experiments.parallel import ParallelRunner, ResultCache
    from repro.scenarios import Scenario
    from repro.simulation.cluster import ClusterArbiter
    from repro.simulation.engine import Simulator
    from repro.simulation.events import EventTracker
    from repro.simulation.memory import MemoryAccountant
    from repro.simulation.results import SimulationResult
    from repro.simulation.scheduling import get_scheduler, scheduler_names
    from repro.simulation.sharding import shard_assignment
    from repro.simulation.vector_policy import DictPolicyAdapter
    from repro.traces import AzureTraceGenerator, SparseTrace, Trace, split_trace
    from repro.traces.azure2019 import Azure2019Dataset

    patches = _Patches()
    wrap = tracer.wrap
    try:
        for cls in _policy_classes():
            if cls is DictPolicyAdapter:
                continue
            patches.method(cls, "prepare", lambda f: wrap(f, "policy.prepare"))
            patches.method(cls, "on_minute", lambda f: wrap(f, _minute_span))
            patches.method(cls, "on_minute_indexed", lambda f: wrap(f, _minute_span))
            patches.method(cls, "on_feedback", lambda f: wrap(f, "policy.feedback"))
        patches.method(
            DictPolicyAdapter, "on_minute_indexed", lambda f: wrap(f, "adapter.step")
        )
        patches.method(
            Simulator,
            "run",
            lambda f: wrap(
                f,
                "engine.run",
                tag=lambda args: args[1].name,
                work=lambda args, _: (args[0].simulation_trace.duration_minutes,),
            ),
        )
        patches.method(Simulator, "shard_simulator", lambda f: wrap(f, "traces.shard"))
        patches.method(EventTracker, "__init__", lambda f: wrap(f, "events.observe"))
        patches.method(
            EventTracker, "observe_minute", lambda f: wrap(f, "events.observe", work=_observed)
        )
        patches.method(EventTracker, "finalize", lambda f: wrap(f, "events.observe"))
        for scheduler in {type(get_scheduler(name)) for name in scheduler_names()}:
            patches.method(
                scheduler,
                "schedule",
                lambda f: wrap(f, "scheduling.schedule", work=lambda args, _: (args[1].size,)),
            )
        patches.method(
            ClusterArbiter,
            "admit",
            lambda f: wrap(f, "cluster.admit", work=lambda args, result: (result[1],)),
        )
        patches.method(MemoryAccountant, "observe_batch", lambda f: wrap(f, "memory.account"))
        for cls in (Trace, SparseTrace):
            patches.method(cls, "invocation_index", lambda f: wrap(f, "traces.index"))
            patches.method(cls, "shard", lambda f: wrap(f, "traces.shard"))
        patches.method(SimulationResult, "merge_shards", lambda f: wrap(f, "sharding.merge"))
        patches.method(
            ResultCache,
            "get",
            lambda f: wrap(f, "cache.get", work=lambda args, result: (int(result is not None),)),
        )
        patches.method(ResultCache, "put", lambda f: wrap(f, "cache.put"))
        patches.method(ParallelRunner, "cache_key", lambda f: wrap(f, "cache.key"))
        patches.method(Azure2019Dataset, "load", lambda f: wrap(f, "traces.ingest"))
        patches.method(AzureTraceGenerator, "generate", lambda f: wrap(f, "traces.build"))
        patches.method(Scenario, "build", lambda f: wrap(f, "traces.build"))
        patches.function(split_trace, wrap(split_trace, "traces.build"))
        patches.function(shard_assignment, wrap(shard_assignment, "sharding.assign"))
        patches.function(
            results_module.generate_results,
            wrap(results_module.generate_results, "results.render"),
        )
        yield tracer
    finally:
        patches.restore()


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(spans: Sequence[Span], cell_results: Sequence = ()) -> Dict[str, tuple]:
    """Per-layer ``{metric: (value, unit)}`` over every ``rep`` root span.

    ``cell_results`` are the traced reps' :class:`SimulationResult` objects,
    where the workload exposes them (capacity cold starts are only known to
    the result, not at any call boundary).
    """
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span.name == ROOT and span.parent < 0]
    if not roots:
        raise ValueError("no traced rep recorded")
    reps = len(roots)
    wall = sum(spans[i].end - spans[i].start for i in roots)
    self_by_name: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + seconds

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    def per_rep(total: float) -> float:
        return total / reps

    def calls(name: str) -> int:
        # A policy span inside another (the dict bridge calling the indexed
        # method, a subclass calling super()) is part of the outer call.
        return sum(
            1
            for span in spans
            if span.name == name
            and not (span.parent >= 0 and spans[span.parent].name.startswith("policy."))
        )

    warmup_calls, decide_calls = calls("policy.warmup"), calls("policy.decide")
    runs = [index for index, span in enumerate(spans) if span.name == "engine.run"]
    sharded = {spans[index].parent for index in runs}  # a sharded run's shards nest in it
    leaf_minutes = sum(
        spans[index].work[0] for index in runs if index not in sharded and spans[index].work
    )
    observed = [span.work for span in spans if span.name == "events.observe" and span.work]
    events_total = sum(work[0] for work in observed)
    scheduled = [span.work[0] for span in spans if span.name == "scheduling.schedule"]
    gets = [span.work[0] for span in spans if span.name == "cache.get" and span.work]
    evictions = sum(
        span.work[0] for span in spans if span.name == "cluster.admit" and span.work
    )
    capacity_cold = sum(
        result.cluster.capacity_cold_starts
        for result in cell_results
        if result.cluster is not None
    )

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    metrics: Dict[str, tuple] = {
        "trace.wall_s": (statistics.median(spans[i].end - spans[i].start for i in roots), "s"),
        "trace.unattributed_pct": (pct(sum(own[i] for i in roots)), "%"),
    }
    for name in LAYER_SPANS:
        metrics[f"{name}_pct"] = (pct(self_by_name.get(name, 0.0)), "%")
    decide_seconds = self_by_name.get("policy.decide", 0.0)
    metrics.update(
        {
            "policy.warmup_calls": (per_rep(warmup_calls), "count"),
            "policy.decide_calls": (per_rep(decide_calls), "count"),
            "policy.decide_us_per_call": (1e6 * decide_seconds / max(decide_calls, 1), "us"),
            "engine.runs": (per_rep(len(runs)), "count"),
            "engine.sim_min_per_s": (
                rate(leaf_minutes, self_by_name.get("engine.run", 0.0)),
                "1/s",
            ),
            "events.total": (per_rep(events_total), "count"),
            "events.cold": (per_rep(sum(work[1] for work in observed)), "count"),
            "events.per_s": (rate(events_total, self_by_name.get("events.observe", 0.0)), "1/s"),
            "scheduling.calls": (per_rep(len(scheduled)), "count"),
            "scheduling.events": (per_rep(sum(scheduled)), "count"),
            "scheduling.events_per_s": (
                rate(sum(scheduled), self_by_name.get("scheduling.schedule", 0.0)),
                "1/s",
            ),
            "cluster.evictions": (per_rep(evictions), "count"),
            "cluster.capacity_cold_starts": (per_rep(capacity_cold), "count"),
            "cache.hits": (per_rep(sum(gets)), "count"),
            "cache.misses": (per_rep(len(gets) - sum(gets)), "count"),
        }
    )
    cell_seconds: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if span.name == "engine.run" and span.cell == index:
            cell_seconds[span.tag] = cell_seconds.get(span.tag, 0.0) + span.end - span.start
    for policy in CELL_POLICIES:
        metrics[f"cell_pct.{policy}"] = (pct(cell_seconds.get(policy, 0.0)), "%")
    return metrics
