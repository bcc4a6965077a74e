"""Baseline provisioning policies the paper compares SPES against.

* :class:`FixedKeepAlivePolicy` -- keep an instance warm for a fixed window
  after every invocation (10 minutes in the paper's configuration).
* :class:`HybridFunctionPolicy` / :class:`HybridApplicationPolicy` -- the
  hybrid histogram policy of Shahrad et al. (ATC'20) at function and
  application granularity.
* :class:`DefusePolicy` -- the dependency-guided scheduler of Shen et al.
  (ICDCS'21): histogram keep-alive plus dependency-driven pre-warming.
* :class:`FaasCachePolicy` -- Greedy-Dual-Size-Frequency caching of Fuerst &
  Sharma (ASPLOS'21) under a memory capacity.
* :class:`LcsPolicy` -- the LRU warm-container policy of Sethi et al.
  (ICDCN'23), included as an extra comparator beyond the paper's baseline set.
* :class:`LatencyAwareKeepAlivePolicy` -- keep-alive horizons scaled by each
  function's observed cold-start latency; the first consumer of the
  ``event`` engine's rolling latency window.

Every policy above is a
:class:`~repro.simulation.vector_policy.VectorizedPolicy`: it decides over the
trace's function-index space and answers with a residency mask, and the
policy registry (:data:`~repro.experiments.parallel.POLICY_REGISTRY`) builds
each one under its bare name.
"""

from repro.baselines.fixed_keepalive import FixedKeepAlivePolicy
from repro.baselines.histogram import IdleTimeHistogram
from repro.baselines.hybrid import HybridApplicationPolicy, HybridFunctionPolicy
from repro.baselines.defuse import DefusePolicy
from repro.baselines.faascache import FaasCachePolicy
from repro.baselines.lcs import LcsPolicy
from repro.baselines.latency_aware import LatencyAwareKeepAlivePolicy

__all__ = [
    "FixedKeepAlivePolicy",
    "IdleTimeHistogram",
    "HybridFunctionPolicy",
    "HybridApplicationPolicy",
    "DefusePolicy",
    "FaasCachePolicy",
    "LcsPolicy",
    "LatencyAwareKeepAlivePolicy",
]
