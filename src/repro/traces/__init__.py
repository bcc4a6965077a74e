"""Trace substrate: schemas, containers, loaders and synthetic workload generation.

The Azure Functions 2019 public trace used by the paper records per-minute
invocation counts for every function over 14 days, together with owner
(user), application and trigger metadata.  This package provides:

* :mod:`repro.traces.schema` -- value objects (:class:`TriggerType`,
  :class:`FunctionRecord`) shared by every other subsystem.
* :mod:`repro.traces.trace` -- the :class:`Trace` container holding the
  per-minute invocation matrix and metadata, with train/simulation splitting.
* :mod:`repro.traces.archetypes` -- per-pattern invocation series generators
  (periodic, Poisson, bursty, chained, ...).
* :mod:`repro.traces.synthetic` -- :class:`AzureTraceGenerator`, a full
  synthetic-workload generator whose marginal statistics match the published
  characteristics of the Azure trace.
* :mod:`repro.traces.azure2019` -- full-scale streaming ingestion of the real
  dataset: chunked readers, trigger filtering, top-K/sample selection,
  duration-percentile joins, an on-disk ``.npz`` cache and a deterministic
  fixture generator for hermetic CI runs.
"""

from repro.traces.schema import (
    DEFAULT_DURATION_PROFILE,
    MINUTES_PER_DAY,
    DurationProfile,
    FunctionRecord,
    TraceMetadata,
    TriggerType,
)
from repro.traces.trace import SparseTrace, Trace, TraceSplit, split_trace
from repro.traces.archetypes import (
    ARCHETYPE_DURATION_PROFILES,
    TRIGGER_DURATION_PROFILES,
    ArchetypeName,
    duration_profile_for,
    generate_always_warm,
    generate_bursty,
    generate_chained,
    generate_dense_poisson,
    generate_drifting,
    generate_flash_crowd,
    generate_periodic,
    generate_pulsed,
    generate_quasi_periodic,
    generate_rare,
)
from repro.traces.synthetic import AzureTraceGenerator, GeneratorProfile
from repro.traces.azure2019 import (
    Azure2019Config,
    Azure2019Dataset,
    AzureIngestError,
    fetch_azure2019,
    load_azure2019,
    write_azure2019_fixture,
)

__all__ = [
    "MINUTES_PER_DAY",
    "DEFAULT_DURATION_PROFILE",
    "DurationProfile",
    "ARCHETYPE_DURATION_PROFILES",
    "TRIGGER_DURATION_PROFILES",
    "duration_profile_for",
    "TriggerType",
    "FunctionRecord",
    "TraceMetadata",
    "Trace",
    "SparseTrace",
    "TraceSplit",
    "split_trace",
    "ArchetypeName",
    "generate_always_warm",
    "generate_periodic",
    "generate_quasi_periodic",
    "generate_dense_poisson",
    "generate_bursty",
    "generate_pulsed",
    "generate_chained",
    "generate_rare",
    "generate_drifting",
    "generate_flash_crowd",
    "AzureTraceGenerator",
    "GeneratorProfile",
    "Azure2019Config",
    "Azure2019Dataset",
    "AzureIngestError",
    "fetch_azure2019",
    "load_azure2019",
    "write_azure2019_fixture",
]
