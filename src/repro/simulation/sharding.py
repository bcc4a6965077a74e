"""Sharded execution: partition the function space, simulate, recombine.

The engines' minute loops are *function-local* for a large class of policies
(:attr:`~repro.simulation.policy_base.ProvisioningPolicy.shard_safe`): every
decision about a function depends only on that function's own history.  For
such policies a simulation over N functions factors exactly into independent
simulations over any partition of those functions — cold starts, invoked
minutes, per-function wasted memory time, the global memory series (a sum of
per-function indicator series) and even the capacity arbiter's per-node
trims (when the cluster is migration-free and hash-placed) all restrict
cleanly to each part and add back up associatively.

This module provides the partitioning half of that contract:

* :func:`shard_assignment` derives a deterministic function→shard mapping
  from the existing :class:`~repro.simulation.placement.PlacementStrategy`
  registry, so the sharded mode reuses the exact node-assignment logic the
  cluster model already trusts (including correlation-aware co-location);
* :func:`shard_fallback_reason` is the single source of truth for when a
  configuration could *not* be sharded without changing its result — the
  simulator and the parallel runner both consult it and fall back to the
  unsharded path with the returned diagnostic instead of silently diverging.

The execution half lives in :meth:`repro.simulation.engine.Simulator`
(serial per-shard loop) and :class:`repro.experiments.parallel.ParallelRunner`
(per-shard cells on the process pool); the recombination half is
:meth:`repro.simulation.results.SimulationResult.merge_shards`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

import numpy as np

from repro.simulation.cluster import ClusterModel
from repro.simulation.placement import UNPLACED, get_placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.policy_base import ProvisioningPolicy
    from repro.traces.trace import Trace

__all__ = ["shard_assignment", "shard_fallback_reason"]


def shard_assignment(
    n_shards: int,
    simulation_trace: "Trace",
    shard_placement: str = "hash",
    training_trace: "Trace | None" = None,
) -> np.ndarray:
    """Deterministic shard id per function position, ``shape (n_functions,)``.

    The partition is produced by the registered placement strategy named
    ``shard_placement``, bound against a synthetic uncapped cluster model of
    ``n_shards`` nodes (capacity large enough that no strategy chunks or
    trims).  Lazily placed functions — everything under ``least-loaded``,
    group leftovers under ``correlation-aware`` — are completed here, in
    first-activity order over the simulation window (never-invoked functions
    last, by position), through the strategy's own greedy :meth:`place`
    so the partition balances the way the lazy arbiter would.

    For ``shard_safe`` policies the partition choice affects only load
    balance, never the merged result — the equivalence tests sweep every
    registered strategy and assert one fingerprint.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    index = simulation_trace.invocation_index()
    function_ids = index.function_ids
    model = ClusterModel(
        memory_capacity=max(len(function_ids), n_shards),
        n_nodes=n_shards,
        placement=shard_placement,
    )
    strategy = get_placement(shard_placement)
    nodes = np.asarray(
        strategy.bind(model, function_ids, trace=training_trace), dtype=np.int64
    )

    pending = np.flatnonzero(nodes == UNPLACED)
    if pending.size:
        # First-activity order over the simulation window: the flat position
        # of each function's first entry in the minute-major index is a
        # strictly increasing proxy for (first minute, within-minute order).
        first_seen = np.full(len(function_ids), np.iinfo(np.int64).max, np.int64)
        invoked, first_position = np.unique(index.indices, return_index=True)
        first_seen[invoked] = first_position
        ordered = pending[np.lexsort((pending, first_seen[pending]))]
        usage = np.bincount(nodes[nodes != UNPLACED], minlength=n_shards)
        nodes[ordered] = strategy.place(ordered, usage, model.node_capacity)
    return nodes


def shard_fallback_reason(
    policy: "ProvisioningPolicy",
    cluster: ClusterModel | None,
    shards: int,
    shard_placement: str,
    prepare: bool,
    initially_resident: Set[str],
    simulation_trace: "Trace",
    training_trace: "Trace | None" = None,
    events: "object | None" = None,
) -> str | None:
    """Why this configuration cannot shard, or ``None`` when it can.

    The conditions are exactly the couplings that would make a sharded run
    diverge from the unsharded one:

    * the policy itself must be ``shard_safe`` (function-local decisions);
    * each shard re-runs the offline phase on its own partition, so a
      caller-prepared policy (``prepare=False``) cannot be split;
    * with a cluster model, shards must coincide with nodes: migration and
      lazy/global placement couple nodes to each other, and a capacity that
      does not divide evenly makes the global bound bite across nodes;
    * an intra-node CPU pool (``events.cpu``) without a cluster is one
      node-wide pool shared by every function, which any partition would
      split;
    * initially resident ids unknown to the trace would be double-charged
      as extra residents by every shard.
    """
    if shards < 2:
        return "shards < 2 requested"
    if not getattr(policy, "shard_safe", False):
        return (
            f"policy {policy.name!r} is not shard_safe (its decisions couple "
            "functions across partitions)"
        )
    if not prepare:
        return (
            "prepare=False: a policy prepared against the full population "
            "cannot be re-prepared per shard"
        )
    if cluster is not None:
        if cluster.migration_enabled:
            return "cluster migration moves functions between nodes mid-run"
        if cluster.n_nodes != shards:
            return (
                f"shards ({shards}) must equal cluster nodes "
                f"({cluster.n_nodes}) so each shard runs one node"
            )
        if cluster.placement != "hash":
            return (
                f"cluster placement {cluster.placement!r} assigns nodes from "
                "global load; only the static 'hash' placement partitions "
                "independently"
            )
        if shard_placement != "hash":
            return (
                "with a cluster model the shard partition must follow the "
                "cluster's own 'hash' placement"
            )
        if cluster.memory_capacity % cluster.n_nodes != 0:
            return (
                f"memory capacity {cluster.memory_capacity} does not divide "
                f"evenly over {cluster.n_nodes} nodes; the rounded-up "
                "node capacity makes the global memory bound couple nodes"
            )
    if getattr(events, "cpu", None) is not None and cluster is None:
        return (
            "an intra-node CPU pool without a cluster is shared by every "
            "function; partitioning it would change the contention"
        )
    # Records are keyed by function id, so comparing the id lists compares
    # the record orderings without materializing either record list.
    if (
        training_trace is not None
        and simulation_trace.function_ids != training_trace.function_ids
    ):
        return (
            "training and simulation traces do not share one function "
            "ordering, so one partition cannot slice both windows"
        )
    unknown = {fid for fid in initially_resident if fid not in simulation_trace}
    if unknown:
        return (
            f"{len(unknown)} initially resident id(s) are unknown to the "
            "trace and cannot be attributed to a shard"
        )
    return None
