"""Correctness oracle of the end-to-end benchmark.

Every simulated cell is checked at any seed against invariants that hold by
construction of the engine, and, at the pinned seeds, against the
``deterministic_fingerprint`` and jitter-free event counts in ``pins.json``.
A cell that raises or fails a check counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.simulation import ClusterModel, SimulationResult
from repro.simulation.spec import ENGINE_VERSION, RunSpec
from repro.traces import Trace

PINS_PATH = Path(__file__).with_name("pins.json")


def check_cell(result: SimulationResult, trace: Trace, spec: RunSpec) -> List[str]:
    """Invariant violations of one cell simulated over ``trace`` under ``spec``."""
    problems: List[str] = []
    index = trace.invocation_index()
    invoked = np.bincount(index.indices, minlength=index.n_functions)
    stats = result.per_function
    simulated = np.array(
        [stats[fid].invocations if fid in stats else 0 for fid in index.function_ids]
    )
    if not np.array_equal(simulated, invoked):
        problems.append("invoked minutes differ from the trace's CSR")
    if any(s.cold_starts > s.invocations for s in stats.values()):
        problems.append("a function has more cold starts than invocations")
    usage = int(np.asarray(result.memory_usage, dtype=np.int64).sum())
    if result.total_wasted_memory_time != usage - result.total_invocations:
        problems.append(
            f"WMT {result.total_wasted_memory_time} != loaded {usage} - "
            f"invoked {result.total_invocations}"
        )
    if sum(s.wasted_memory_time for s in stats.values()) != result.total_wasted_memory_time:
        problems.append("per-function WMT does not sum to the total")
    if spec.cluster is not None:
        problems += _check_cluster(result, index, spec.cluster)
    if result.latency is not None:
        problems += _check_events(result, index, spec)
    return problems


def _check_cluster(result: SimulationResult, index, cluster: ClusterModel) -> List[str]:
    """Node usage between minutes stays within the node capacity.

    Usage recorded for a minute includes the minute's on-demand loads, which
    the cap does not constrain; what stays resident (usage minus the
    functions invoked on that node) must fit.  Only the static ``hash``
    placement lets the oracle recompute the function-to-node map.
    """
    stats = result.cluster
    if stats is None:
        return ["cluster run without cluster statistics"]
    node_usage = np.asarray(stats.node_usage, dtype=np.int64)
    problems = []
    if not np.array_equal(node_usage.sum(axis=1), result.memory_usage):
        problems.append("node usage does not sum to the memory series")
    if cluster.placement == "hash" and cluster.capacity_unit == "instances":
        node_of = np.array([cluster.node_of(fid) for fid in index.function_ids])
        minute_of = np.repeat(np.arange(index.duration_minutes), np.diff(index.indptr))
        invoked_on_node = np.zeros_like(node_usage)
        np.add.at(invoked_on_node, (minute_of, node_of[index.indices]), 1)
        if (node_usage - invoked_on_node > cluster.node_capacity).any():
            problems.append("resident node usage exceeds the node capacity")
    return problems


def _check_events(result: SimulationResult, index, spec: RunSpec) -> List[str]:
    latency = result.latency
    total = int(index.counts.sum())
    problems = []
    if latency.total_events != total:
        problems.append(f"{latency.total_events} events for {total} trace invocations")
    if latency.warm_events + latency.cold_start_events + latency.delayed_events != total:
        problems.append("warm + cold + delayed events != total events")
    if latency.cold_start_events != result.total_cold_starts:
        problems.append("cold-start events != minute-granular cold starts")
    events = spec.events
    if events is not None and events.cpu is not None:
        if latency.cpu_scheduled_events != total:
            problems.append("CPU-scheduled events != total events")
    if events is not None and events.slo_ms is not None:
        if latency.slo_checked_events != total:
            problems.append("SLO-checked events != total events")
    return problems


def cell_pin(result: SimulationResult) -> Dict[str, object]:
    """The values pinned per cell: fingerprint plus jitter-free event counts."""
    latency = result.latency
    return {
        "fingerprint": result.deterministic_fingerprint(),
        "total_events": latency.total_events if latency is not None else None,
        "cold_start_events": latency.cold_start_events if latency is not None else None,
    }


def load_pins(path: Path = PINS_PATH) -> Dict[str, object]:
    if not path.exists():
        return {"engine_version": ENGINE_VERSION, "workloads": {}}
    return json.loads(path.read_text())


def check_pin(
    pins: Dict[str, object], workload: str, seed: int, cell: str, result: SimulationResult
) -> List[str]:
    """Mismatches against the pinned cell, if this (workload, seed, cell) is pinned.

    Pins taken under another ``ENGINE_VERSION`` do not apply: a version bump
    is the declared way to change simulation outputs.
    """
    if pins.get("engine_version") != ENGINE_VERSION:
        return []
    pinned = pins["workloads"].get(workload, {}).get(str(seed), {}).get(cell)
    if pinned is None:
        return []
    actual = cell_pin(result)
    return [
        f"{key} {actual[key]!r} != pinned {pinned[key]!r}"
        for key in pinned
        if actual.get(key) != pinned[key]
    ]
