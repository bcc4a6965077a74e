"""End-to-end experiment harness reproducing the paper's evaluation (§V).

Layout
------
:class:`ExperimentSuite` (``suite``)
    The one experiment front-end.  Prepares each seed's workload once
    (synthetic Azure-like trace or a scenario, e.g. the real dataset) and
    runs the policy comparison as ``(policy × seed)`` cells; its
    :meth:`~ExperimentSuite.run_spes_variants` runs SPES configuration
    batches on the first seed's workload.  Every cell result is memoized
    by content.  Constructed with ``workers > 1`` it fans cells out over a
    process pool.  Configured by :class:`ExperimentConfig`.
:mod:`~repro.experiments.parallel`
    The fan-out machinery: :class:`PolicySpec` (picklable policy
    descriptions resolved against :data:`POLICY_REGISTRY`),
    :class:`SweepCell`, the on-disk :class:`ResultCache` and
    :class:`ParallelRunner` itself.
``rq1_coldstart`` … ``rq4_ablation``
    Turn simulation results into the numbers behind each figure of the
    paper.  The RQ3 sweeps and RQ4 ablations batch their variant runs
    through :meth:`ExperimentSuite.run_spes_variants`, so they too
    parallelize when the suite has workers, and reuse the suite's SPES
    result as their reference.
``manifest``
    Run manifests: record a sweep's canonical run spec, trace fingerprints
    and per-cell result fingerprints as JSON, then replay it later with
    bit-identical verification (``sweep --manifest`` / ``--from-manifest``).
``results``
    :func:`generate_results` — runs every RQ over one workload source (the
    hermetic azure2019 fixture by default, the real dataset with
    ``azure_dir=``) and renders the consolidated markdown results book
    committed as ``docs/RESULTS.md`` (the ``spes-repro results`` command).

Typical use::

    from repro.experiments import ExperimentConfig, ExperimentSuite

    suite = ExperimentSuite(ExperimentConfig(n_functions=400), workers=4)
    results = suite.run().results[2024]   # {"spes": ..., "fixed-10min": ..., ...}

or, for several seeds at once::

    suite = ExperimentSuite(seeds=[2024, 2025, 2026], workers=4)
    outcome = suite.run()
    print(outcome.aggregate_table().render())
"""

from repro.experiments.manifest import (
    MANIFEST_VERSION,
    ManifestError,
    build_manifest,
    load_manifest,
    replay_manifest,
    suite_from_manifest,
    verify_results,
    verify_trace_fingerprints,
    write_manifest,
)
from repro.experiments.parallel import (
    POLICY_REGISTRY,
    ParallelRunner,
    PolicySpec,
    ResultCache,
    SweepCell,
    default_policy_specs,
    register_policy,
)
from repro.experiments.results import ResultsConfig, generate_results, write_results
from repro.experiments.suite import (
    DEFAULT_SUITE_POLICIES,
    ExperimentConfig,
    ExperimentSuite,
    SuiteResult,
)
from repro.experiments import (
    rq1_coldstart,
    rq2_memory,
    rq3_tradeoff,
    rq4_ablation,
    rq5_latency,
    rq6_slowdown,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSuite",
    "SuiteResult",
    "DEFAULT_SUITE_POLICIES",
    "ParallelRunner",
    "PolicySpec",
    "SweepCell",
    "ResultCache",
    "POLICY_REGISTRY",
    "default_policy_specs",
    "register_policy",
    "ResultsConfig",
    "generate_results",
    "write_results",
    "MANIFEST_VERSION",
    "ManifestError",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "suite_from_manifest",
    "verify_trace_fingerprints",
    "verify_results",
    "replay_manifest",
    "rq1_coldstart",
    "rq2_memory",
    "rq3_tradeoff",
    "rq4_ablation",
    "rq5_latency",
    "rq6_slowdown",
]
