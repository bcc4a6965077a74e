"""Discrete-time (per-minute) serverless provisioning simulator.

The simulator follows the principles the paper adopts from Shahrad et al.
(ATC'20):

* every execution completes within the one-minute sampling slot;
* cold-start latency is uniform across functions, so the number of cold
  starts fully determines the latency impact;
* every loaded instance consumes one unit of memory, and a host can hold all
  loaded instances (no capacity-induced evictions unless a policy imposes its
  own limit, as FaaSCache does).

Beyond the paper's abstract setting, the simulator optionally runs in *MB
mode* (``memory_mode="mb"``): loaded instances are weighed by their measured
memory footprints (joined from the Azure dataset's ``app_memory_percentiles``
files), and usage/WMT/EMCR are additionally reported in megabytes.  The
default unit mode remains byte-identical to the paper's accounting.

Provisioning policies implement :class:`ProvisioningPolicy` and are driven by
:class:`Simulator`, which charges cold starts, wasted memory time, memory
usage, and effective memory consumption exactly as defined in the paper.
"""

from repro.simulation.policy_base import ProvisioningPolicy
from repro.simulation.vector_policy import (
    AlwaysWarmPolicy,
    DictPolicyAdapter,
    NoKeepAlivePolicy,
    VectorizedPolicy,
)
from repro.simulation.cluster import ClusterArbiter, ClusterModel, NodeArbiter
from repro.simulation.placement import (
    PLACEMENT_REGISTRY,
    PlacementStrategy,
    get_placement,
    placement_names,
    register_placement,
)
from repro.simulation.events import EventConfig, EventTracker, LatencyWindow
from repro.simulation.scheduling import (
    CpuConfig,
    InvocationScheduler,
    get_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.simulation.memory import DEFAULT_MEMORY_MB, MemoryAccountant, footprint_kb_vector
from repro.simulation.results import (
    ClusterStats,
    FunctionStats,
    LatencyStats,
    SimulationResult,
)
from repro.simulation.spec import (
    DEFAULT_WARMUP_MINUTES,
    ENGINE_IMPLEMENTATIONS,
    ENGINE_VERSION,
    MEMORY_MODES,
    RunSpec,
    canonical_value,
    content_digest,
)
from repro.simulation.engine import (
    ShardFallbackWarning,
    Simulator,
    simulate_policy,
)
from repro.simulation.overhead import OverheadTimer
from repro.simulation.sharding import shard_assignment, shard_fallback_reason

__all__ = [
    "ProvisioningPolicy",
    "VectorizedPolicy",
    "DictPolicyAdapter",
    "AlwaysWarmPolicy",
    "NoKeepAlivePolicy",
    "ClusterModel",
    "ClusterArbiter",
    "NodeArbiter",
    "ClusterStats",
    "PlacementStrategy",
    "PLACEMENT_REGISTRY",
    "register_placement",
    "get_placement",
    "placement_names",
    "EventConfig",
    "EventTracker",
    "LatencyWindow",
    "CpuConfig",
    "InvocationScheduler",
    "register_scheduler",
    "get_scheduler",
    "scheduler_names",
    "LatencyStats",
    "MemoryAccountant",
    "DEFAULT_MEMORY_MB",
    "footprint_kb_vector",
    "RunSpec",
    "canonical_value",
    "content_digest",
    "ENGINE_IMPLEMENTATIONS",
    "ENGINE_VERSION",
    "MEMORY_MODES",
    "DEFAULT_WARMUP_MINUTES",
    "FunctionStats",
    "SimulationResult",
    "Simulator",
    "simulate_policy",
    "ShardFallbackWarning",
    "shard_assignment",
    "shard_fallback_reason",
    "OverheadTimer",
]
