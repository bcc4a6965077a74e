"""One validated run specification shared by every entry point.

Nine growth steps threaded run parameters — engine choice, streaming mode,
warm-up horizon, sharding, memory accounting, cluster model, event-layer
configuration — through four separate surfaces (``Simulator.__init__``,
``ParallelRunner.__init__``, ``ExperimentSuite.__init__`` and the ``sweep``
CLI flags), each copy-pasting the cross-field validation rules and each
carrying its own default values.  :class:`RunSpec` collapses that into one
frozen dataclass:

* **one validator** — :meth:`RunSpec.validate` holds *every* cross-field
  rule (MB accounting needs a mask-based engine, an event config needs an
  event engine, an MB-denominated cluster needs MB accounting, …), so all
  entry points reject an invalid configuration with the identical message;
* **one serialization** — :meth:`RunSpec.canonical` is the stable
  JSON-ready projection of the spec, and :meth:`RunSpec.cache_key` derives
  the on-disk result-cache key from it in the exact part order the
  pre-``RunSpec`` code hand-assembled, so every pre-existing cache entry
  keeps its key byte-for-byte (including the off-default-only append of
  ``memory_mode``);
* **one set of defaults** — :meth:`RunSpec.build` treats ``None`` as "use
  the field default", so the back-compat keyword shims on the simulator,
  runner and suite no longer duplicate default values.

The module also owns the engine catalog constants and the canonical-value /
content-digest helpers — they live here because the spec layer must not
import the engine or experiment layers.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping

from repro.simulation.cluster import ClusterModel
from repro.simulation.events import EventConfig
from repro.simulation.placement import get_placement

__all__ = [
    "ENGINE_IMPLEMENTATIONS",
    "MEMORY_MODES",
    "ENGINE_VERSION",
    "DEFAULT_WARMUP_MINUTES",
    "RunSpec",
    "canonical_value",
    "content_digest",
]

#: Names of the available engine implementations.
ENGINE_IMPLEMENTATIONS = ("vectorized", "event")

#: Memory accounting modes: the paper's abstract instance units (default)
#: or measured megabyte footprints joined from the Azure dataset.
MEMORY_MODES = ("unit", "mb")

#: Bumped whenever a change alters simulation *output*; part of on-disk
#: result-cache keys so stale cached results are never served.
ENGINE_VERSION = 6

#: Default warm-up horizon: one day covers the longest keep-alive and
#: prediction horizons used by SPES and the baselines.
DEFAULT_WARMUP_MINUTES = 1440


def canonical_value(value: Any) -> Any:
    """Convert ``value`` into a JSON-serializable canonical form for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        items = {
            str(canonical_value(key)): canonical_value(item)
            for key, item in value.items()
        }
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        converted = [canonical_value(item) for item in value]
        return (
            sorted(converted, key=repr)
            if isinstance(value, (set, frozenset))
            else converted
        )
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def content_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``parts``."""
    payload = json.dumps([canonical_value(part) for part in parts], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """Everything that defines *how* a simulation runs (not *what* it runs).

    A spec bundles the run-shape knobs — the workload itself (traces, seeds,
    policies) stays outside, which is exactly what makes the spec reusable
    across every trace of a sweep.

    Attributes
    ----------
    engine:
        Engine implementation (one of :data:`ENGINE_IMPLEMENTATIONS`).
    streaming:
        Streaming evaluation mode: policies receive no training trace and no
        warm-up replay — they start cold and adapt online.
    warmup_minutes:
        Minutes of training-trace history replayed through each policy
        before metric collection starts (ignored while ``streaming``).
    shards:
        When >= 2, decomposable runs split into that many function
        partitions (see :mod:`repro.simulation.sharding`); 0/1 = unsharded.
    shard_placement:
        Placement strategy deriving the function→shard partition.
    memory_mode:
        ``"unit"`` (the paper's abstract accounting) or ``"mb"`` (measured
        footprints; requires a mask-based engine).
    cluster:
        Optional capacity-constrained cluster model.  On the runner this is
        the *default* for trace keys without an entry in the per-key
        mapping; on a resolved per-cell spec it is the cell's cluster.
    events:
        Optional event-layer configuration (requires the ``event`` engine).
        Same per-key defaulting as ``cluster``.

    Construction through :meth:`build` (or the entry points' keyword shims)
    validates eagerly; so does :meth:`override`, because the dataclass
    ``__post_init__`` runs on every construction including ``replace``.
    """

    engine: str = "vectorized"
    streaming: bool = False
    warmup_minutes: int = DEFAULT_WARMUP_MINUTES
    shards: int = 0
    shard_placement: str = "hash"
    memory_mode: str = "unit"
    cluster: ClusterModel | None = None
    events: EventConfig | None = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, **overrides: Any) -> "RunSpec":
        """Construct a spec treating ``None`` overrides as "use the default".

        This is what the back-compat keyword shims on
        :class:`~repro.simulation.engine.Simulator`,
        :class:`~repro.experiments.parallel.ParallelRunner` and
        :class:`~repro.experiments.suite.ExperimentSuite` call: their
        keywords default to ``None``, so the actual default values live in
        exactly one place — this dataclass's field defaults.
        """
        return cls(**{name: value for name, value in overrides.items() if value is not None})

    @classmethod
    def resolve(cls, spec: "RunSpec | None", **knobs: Any) -> "RunSpec":
        """The spec an entry point runs: ``spec`` validated, or one built from ``knobs``.

        ``knobs`` are the entry point's keyword shims (``None`` = not passed);
        passing any of them together with ``spec`` is an error.
        """
        if spec is None:
            return cls.build(**knobs)
        if any(value is not None for value in knobs.values()):
            raise ValueError("pass either spec= or the individual run knobs, not both")
        return spec.validate()

    def override(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (revalidated on construction)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Validation — the single home of every cross-field rule
    # ------------------------------------------------------------------ #
    def validate(self) -> "RunSpec":
        """Check every field and cross-field rule; raise ``ValueError``.

        The error messages are the contract every entry point shares: the
        simulator, the parallel runner, the experiment suite and the CLI
        all reject one invalid configuration with one identical message.
        """
        if self.warmup_minutes < 0:
            raise ValueError("warmup_minutes must be non-negative")
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.engine not in ENGINE_IMPLEMENTATIONS:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_IMPLEMENTATIONS}"
            )
        if self.memory_mode not in MEMORY_MODES:
            raise ValueError(
                f"unknown memory_mode {self.memory_mode!r}; expected one of {MEMORY_MODES}"
            )
        # Fail fast on unknown partition strategies, before any run.
        get_placement(self.shard_placement)
        if (
            self.cluster is not None
            and self.cluster.capacity_unit == "mb"
            and self.memory_mode != "mb"
        ):
            raise ValueError(
                "an MB-denominated ClusterModel requires memory_mode='mb' "
                "(footprints are needed to weigh admission)"
            )
        if self.events is not None and self.engine != "event":
            raise ValueError(
                "an EventConfig requires an event engine (engine='event')"
            )
        return self

    # ------------------------------------------------------------------ #
    # Canonical serialization and cache keys
    # ------------------------------------------------------------------ #
    def canonical(self) -> Dict[str, Any]:
        """Stable JSON-ready projection of the spec (field order preserved).

        This is the representation run manifests record and the one every
        digest below is computed over; two specs with equal ``canonical()``
        output are the same run shape.
        """
        return canonical_value(self)

    def spec_digest(self) -> str:
        """SHA-256 digest of :meth:`canonical` — the spec's identity."""
        return content_digest(self)

    def cache_key_parts(
        self, trace_fingerprint: Any, policy: Any, seed: Any, feedback: bool = False
    ) -> List[Any]:
        """The spec's canonical fields in the *legacy* cache-key part order.

        Before the spec existed, ``ParallelRunner.cache_key`` hand-assembled
        this exact list; reproducing the order (and the off-default-only
        ``memory_mode`` tail) is what keeps every pre-existing on-disk cache
        entry addressable byte-for-byte.  Do not reorder, insert into, or
        unconditionally append to this list — add new fields the way
        ``memory_mode`` was added: appended only when off their default, so
        old keys stay valid.  ``feedback`` marks a policy that overrides ``on_feedback``.
        """
        # Closed-loop event runs keep the key of their retired engine name,
        # "event-feedback", so their cache entries stay addressable.
        closed_loop = feedback and self.engine == "event"
        parts: List[Any] = [
            ENGINE_VERSION,
            "event-feedback" if closed_loop else self.engine,
            self.streaming,
            # Shard count and partition strategy key results even though
            # shardable runs are fingerprint-identical: event-engine latency
            # blocks and overhead timings legitimately differ per partition,
            # and a cached fallback run must not masquerade as a sharded one.
            self.shards,
            self.shard_placement,
            trace_fingerprint,
            self.warmup_minutes,
            self.cluster,
            self.events,
            policy,
            seed,
        ]
        # Appended only off the default so pre-existing unit-mode cache
        # entries keep their keys across the MB-accounting release.
        if self.memory_mode != "unit":
            parts.append(("memory_mode", self.memory_mode))
        return parts

    def cache_key(
        self, trace_fingerprint: Any, policy: Any, seed: Any, feedback: bool = False
    ) -> str:
        """Content hash identifying one cell's simulation output."""
        return content_digest(*self.cache_key_parts(trace_fingerprint, policy, seed, feedback))
