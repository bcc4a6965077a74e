"""Pluggable multi-node placement strategies for the cluster model.

PR 2's cluster mode sharded functions onto nodes with a static CRC-32 hash:
cheap and deterministic, but blind — a handful of hot functions can land on
one node and melt it while the rest of the cluster idles.  This module makes
the function→node mapping a *strategy*:

``hash`` (the default)
    The original static CRC-32 shard.  Every function is assigned up front
    and never moves (unless migration is enabled, see below), so runs with
    the default configuration are bit-for-bit identical to the pre-placement
    engine — the golden-fingerprint tests pin this.

``least-loaded``
    No static assignment at all.  A function is placed the first minute it
    becomes *active* (invoked, or proposed resident by the policy), onto the
    node with the most free units at that moment; a burst of new functions is
    spread greedily, one placement at a time.

``correlation-aware``
    Functions that the §III-B2 co-occurrence signals say fire together
    (:func:`repro.analysis.cooccurrence.correlated_groups` over the
    *training* window) are co-located: each correlated group is assigned to
    one node up front, groups balanced across nodes by their training-window
    invocation volume (LPT greedy).  Functions outside any group fall back to
    lazy least-loaded placement.

Strategies are stateful per run (a :class:`ClusterArbiter
<repro.simulation.cluster.ClusterArbiter>` instantiates a fresh one), but
every decision is a pure function of minute-granular simulation state — which
is why placed runs stay fingerprint-identical across the vectorized and event
engines, and why sweep cells with placement in their
:class:`~repro.simulation.cluster.ClusterModel` cache deterministically.

Custom strategies subclass :class:`PlacementStrategy` and register with
:func:`register_placement`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.cluster import ClusterModel
    from repro.traces.trace import Trace

__all__ = [
    "PlacementStrategy",
    "HashPlacement",
    "LeastLoadedPlacement",
    "CorrelationAwarePlacement",
    "PLACEMENT_REGISTRY",
    "register_placement",
    "get_placement",
    "placement_names",
]

#: Sentinel node id for functions that have not been placed yet.
UNPLACED = -1


class PlacementStrategy(abc.ABC):
    """Decides which node every function lives on.

    Lifecycle: the arbiter calls :meth:`bind` once per run with the cluster
    model, the trace's function-id ordering and (when the simulator has one)
    a trace for offline signals; ``bind`` returns the initial assignment
    array (``UNPLACED`` marks functions to be placed lazily).  Whenever an
    unplaced function becomes active, the arbiter calls :meth:`place` with
    the current per-node resident usage; the strategy answers with one node
    per function and may assume the arbiter applies the answer immediately.

    Determinism contract: both methods must be pure functions of their
    arguments (plus state derived from them) — no wall clock, no unseeded
    randomness — so that placed runs fingerprint identically across engines,
    worker processes and cache reloads.
    """

    #: Registry key, also the CLI spelling (``sweep --placement NAME``).
    name: str = "abstract"

    @abc.abstractmethod
    def bind(
        self,
        model: "ClusterModel",
        function_ids: tuple[str, ...],
        trace: "Trace | None" = None,
    ) -> np.ndarray:
        """Return the initial node of every function (``UNPLACED`` = lazy)."""

    def place(
        self, positions: np.ndarray, usage: np.ndarray, node_capacity: int
    ) -> np.ndarray:
        """Assign nodes to newly active functions, given current node usage.

        The default is greedy least-loaded: positions are processed in
        ascending order and each takes the node with the most free units at
        that point (ties break on the lower node id), with the running count
        updated after every pick so one burst spreads instead of stacking.
        """
        chosen = np.empty(positions.size, dtype=np.int64)
        usage = usage.astype(np.int64, copy=True)
        for i in range(positions.size):
            node = int(np.argmin(usage))
            chosen[i] = node
            usage[node] += 1
        return chosen


class HashPlacement(PlacementStrategy):
    """Static CRC-32 sharding — the original (and default) behavior."""

    name = "hash"

    def bind(
        self,
        model: "ClusterModel",
        function_ids: tuple[str, ...],
        trace: "Trace | None" = None,
    ) -> np.ndarray:
        # One source of truth for the sharding rule: ClusterModel.node_of.
        return np.asarray(
            [model.node_of(function_id) for function_id in function_ids],
            dtype=np.int64,
        )


class LeastLoadedPlacement(PlacementStrategy):
    """Fully lazy placement: every function waits for its first activity."""

    name = "least-loaded"

    def bind(
        self,
        model: "ClusterModel",
        function_ids: tuple[str, ...],
        trace: "Trace | None" = None,
    ) -> np.ndarray:
        return np.full(len(function_ids), UNPLACED, dtype=np.int64)


class CorrelationAwarePlacement(PlacementStrategy):
    """Co-locate correlated groups statically, place the rest lazily.

    Parameters
    ----------
    min_cor:
        Minimum co-occurrence rate linking a candidate pair (see
        :func:`repro.analysis.cooccurrence.correlated_groups`).
    """

    name = "correlation-aware"

    def __init__(self, min_cor: float = 0.5) -> None:
        if not 0.0 < min_cor <= 1.0:
            raise ValueError("min_cor must be in (0, 1]")
        self.min_cor = min_cor

    def bind(
        self,
        model: "ClusterModel",
        function_ids: tuple[str, ...],
        trace: "Trace | None" = None,
    ) -> np.ndarray:
        nodes = np.full(len(function_ids), UNPLACED, dtype=np.int64)
        if trace is None or model.n_nodes == 1:
            # No signal to mine (or nothing to balance): behave like
            # least-loaded, which is the strategy's own fallback anyway.
            if model.n_nodes == 1:
                nodes[:] = 0
            return nodes

        # Imported lazily: repro.analysis sits above the simulation layer.
        from repro.analysis.cooccurrence import correlated_groups

        position_of = {fid: position for position, fid in enumerate(function_ids)}
        node_capacity = model.node_capacity
        weighted: List[tuple[float, List[int]]] = []
        for members in correlated_groups(trace, min_cor=self.min_cor):
            positions = [position_of[fid] for fid in members if fid in position_of]
            if len(positions) < 2:
                continue
            weight = float(sum(trace.total_invocations(fid) for fid in members))
            # A group wider than a node inevitably thrashes wherever it
            # lands; split it into node-sized chunks (weight prorated) so
            # co-location is kept piecewise without drowning one node.
            for start in range(0, len(positions), node_capacity):
                chunk = positions[start : start + node_capacity]
                weighted.append((weight * len(chunk) / len(positions), chunk))

        # LPT greedy: heaviest group first onto the lightest node; ties on
        # weight break on the group's first (lowest) function position, ties
        # on load break on the lower node id — all deterministic.
        weighted.sort(key=lambda item: (-item[0], item[1][0]))
        load = np.zeros(model.n_nodes, dtype=float)
        for weight, positions in weighted:
            node = int(np.argmin(load))
            nodes[positions] = node
            load[node] += weight if weight > 0 else float(len(positions))
        return nodes


#: The global placement-strategy registry, keyed by strategy name.
PLACEMENT_REGISTRY: Dict[str, Callable[[], PlacementStrategy]] = {}


def register_placement(factory: Callable[[], PlacementStrategy]) -> None:
    """Register a strategy factory under its instances' ``name``."""
    name = factory().name
    if name in PLACEMENT_REGISTRY:
        raise ValueError(f"placement strategy {name!r} is already registered")
    PLACEMENT_REGISTRY[name] = factory


def get_placement(name: str) -> PlacementStrategy:
    """Instantiate the strategy registered under ``name`` (fresh per run)."""
    try:
        factory = PLACEMENT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown placement strategy {name!r}; registered: {placement_names()}"
        ) from None
    return factory()


def placement_names() -> List[str]:
    """Names of every registered placement strategy, sorted."""
    return sorted(PLACEMENT_REGISTRY)


register_placement(HashPlacement)
register_placement(LeastLoadedPlacement)
register_placement(CorrelationAwarePlacement)
