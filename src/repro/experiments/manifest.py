"""Run manifests: record a sweep's exact configuration, replay it verified.

A manifest is a small JSON document capturing everything needed to repeat a
``spes-repro sweep`` bit-for-bit and to *prove* the repeat matched:

* the canonical :class:`~repro.simulation.spec.RunSpec` (and its digest) —
  the one validated object that shapes every simulation of the sweep;
* the workload recipe (scenario, parameters, sizes, seeds, policies) plus
  the suite-level CPU/SLO overlays;
* the content fingerprints of every seed's training/simulation trace;
* :data:`~repro.simulation.spec.ENGINE_VERSION`, because results are only
  comparable within one simulation-semantics version;
* the :meth:`~repro.simulation.results.SimulationResult
  .deterministic_fingerprint` of every ``(seed × policy)`` cell.

``sweep --manifest out.json`` records one; ``sweep --from-manifest
out.json`` rebuilds the suite from it, refuses to run if the engine version
or any trace fingerprint diverges, and verifies after the run that every
cell's result fingerprint is identical to the recorded one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Tuple

from repro.core import SpesConfig
from repro.experiments.suite import ExperimentConfig, ExperimentSuite, SuiteResult
from repro.simulation.spec import ENGINE_VERSION, RunSpec, canonical_value

__all__ = [
    "MANIFEST_VERSION",
    "ManifestError",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "suite_from_manifest",
    "verify_trace_fingerprints",
    "verify_results",
    "replay_manifest",
]

#: Schema version of the manifest document itself (bumped on layout changes).
MANIFEST_VERSION = 1

#: RunSpec fields serialized into (and reconstructed from) a manifest.
_SPEC_FIELDS = (
    "engine",
    "streaming",
    "warmup_minutes",
    "shards",
    "shard_placement",
    "memory_mode",
)


class ManifestError(ValueError):
    """A manifest cannot be loaded, rebuilt, or verified against a run."""


def _jsonable(value: object) -> object:
    """JSON-safe rendering of one scenario-parameter value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def build_manifest(suite: ExperimentSuite, outcome: SuiteResult) -> Dict[str, object]:
    """The manifest document of one executed sweep.

    Call after :meth:`ExperimentSuite.run` so every cell of ``outcome`` can
    contribute its deterministic result fingerprint.
    """
    fingerprints = suite.parallel_runner().trace_fingerprints()
    results = {
        f"{suite.trace_key(seed)}/{policy}": result.deterministic_fingerprint()
        for seed, per_policy in outcome.results.items()
        for policy, result in per_policy.items()
    }
    return {
        "manifest_version": MANIFEST_VERSION,
        "engine_version": ENGINE_VERSION,
        "spec": suite.spec.canonical(),
        "spec_digest": suite.spec.spec_digest(),
        "workload": {
            "n_functions": suite.config.n_functions,
            "duration_days": suite.config.duration_days,
            "training_days": suite.config.training_days,
            "scenario": suite.scenario,
            "scenario_params": {
                name: _jsonable(value)
                for name, value in sorted(suite.scenario_params.items())
            },
            "placement": suite.placement,
            "cores": suite.cores,
            "scheduler": suite.scheduler,
            "slo_ms": suite.slo_ms,
            "spes_config": canonical_value(suite.config.spes_config),
        },
        "seeds": list(suite.seeds),
        "policies": list(suite.policies),
        "trace_fingerprints": {
            key: list(pair) for key, pair in sorted(fingerprints.items())
        },
        "results": dict(sorted(results.items())),
    }


def write_manifest(path: str | Path, manifest: Mapping[str, object]) -> Path:
    """Write ``manifest`` as stable (sorted-key) JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def load_manifest(path: str | Path) -> Dict[str, object]:
    """Load and vet a manifest: schema version and engine version must match.

    An engine-version mismatch is a hard error — the recorded fingerprints
    describe a different simulation semantics and can never verify.
    """
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ManifestError(f"cannot read manifest {source}: {error}") from None
    if not isinstance(data, dict) or "manifest_version" not in data:
        raise ManifestError(f"{source} is not a run manifest (no manifest_version)")
    if data["manifest_version"] != MANIFEST_VERSION:
        raise ManifestError(
            f"manifest {source} has schema version {data['manifest_version']}; "
            f"this build reads version {MANIFEST_VERSION}"
        )
    recorded = data.get("engine_version")
    if recorded != ENGINE_VERSION:
        raise ManifestError(
            f"manifest {source} was recorded at engine version {recorded}, but "
            f"this build is engine version {ENGINE_VERSION}; simulation "
            "semantics changed between the two, so the recorded fingerprints "
            "cannot verify — re-record with `sweep --manifest`"
        )
    return data


def suite_from_manifest(
    manifest: Mapping[str, object],
    workers: int = 0,
    cache_dir: str | Path | None = None,
) -> ExperimentSuite:
    """Rebuild the recorded sweep as a ready-to-run :class:`ExperimentSuite`.

    ``workers`` and ``cache_dir`` are execution-host choices, not part of
    the recorded configuration (both are fingerprint-neutral), so the caller
    picks them fresh.
    """
    spec_doc = manifest["spec"]
    if not isinstance(spec_doc, Mapping):
        raise ManifestError("manifest field 'spec' must be an object")
    if spec_doc.get("cluster") is not None or spec_doc.get("events") is not None:
        # Suite-level specs never carry these: clusters/events are per-seed
        # workload products, re-derived from the scenario on replay.
        raise ManifestError(
            "manifest records a per-cell spec (cluster/events set); expected "
            "the suite's base spec"
        )
    try:
        spec = RunSpec(**{name: spec_doc[name] for name in _SPEC_FIELDS})
    except (KeyError, ValueError) as error:
        raise ManifestError(f"manifest spec is invalid: {error}") from None
    digest = manifest.get("spec_digest")
    if digest is not None and digest != spec.spec_digest():
        raise ManifestError(
            "manifest spec_digest does not match its spec fields — the "
            "manifest was edited or corrupted"
        )
    workload = manifest["workload"]
    if canonical_value(SpesConfig()) != workload.get(
        "spes_config", canonical_value(SpesConfig())
    ):
        raise ManifestError(
            "manifest records a non-default SPES configuration, which the "
            "replay cannot reconstruct from the CLI"
        )
    seeds = [int(seed) for seed in manifest["seeds"]]
    config = ExperimentConfig(
        n_functions=int(workload["n_functions"]),
        seed=seeds[0],
        duration_days=float(workload["duration_days"]),
        training_days=float(workload["training_days"]),
        warmup_minutes=spec.warmup_minutes,
    )
    return ExperimentSuite(
        config=config,
        seeds=seeds,
        policies=list(manifest["policies"]),
        workers=workers,
        cache_dir=cache_dir,
        scenario=workload["scenario"],
        scenario_params=dict(workload.get("scenario_params") or {}),
        placement=workload.get("placement"),
        cores=workload.get("cores"),
        scheduler=workload.get("scheduler"),
        slo_ms=workload.get("slo_ms"),
        spec=spec,
    )


def verify_trace_fingerprints(
    manifest: Mapping[str, object], suite: ExperimentSuite
) -> Dict[str, Tuple[str, str]]:
    """Check the rebuilt workloads against the recorded trace fingerprints.

    Runs *before* any simulation: a diverging workload (different dataset
    contents, generator change, altered scenario) can never reproduce the
    recorded results, so replay refuses early with the diverging keys.
    """
    recorded = {
        key: tuple(pair) for key, pair in manifest["trace_fingerprints"].items()
    }
    actual = suite.parallel_runner().trace_fingerprints()
    missing = sorted(set(recorded) ^ set(actual))
    if missing:
        raise ManifestError(
            f"trace keys differ between manifest and rebuilt suite: {missing}"
        )
    diverged = sorted(key for key in recorded if recorded[key] != actual[key])
    if diverged:
        raise ManifestError(
            "trace fingerprints diverge for "
            + ", ".join(diverged)
            + " — the rebuilt workload is not the recorded one (different "
            "dataset contents, generator, or scenario behaviour); refusing "
            "to replay"
        )
    return actual


def verify_results(
    manifest: Mapping[str, object], outcome: SuiteResult
) -> int:
    """Check a replay's per-cell result fingerprints; returns the cell count.

    Every recorded cell must be present and fingerprint-identical.  Extra
    cells in ``outcome`` are ignored (the manifest's cell set is the
    contract).
    """
    recorded = manifest["results"]
    actual = {
        f"seed{seed}/{policy}": result.deterministic_fingerprint()
        for seed, per_policy in outcome.results.items()
        for policy, result in per_policy.items()
    }
    missing = sorted(set(recorded) - set(actual))
    if missing:
        raise ManifestError(f"replay produced no result for cell(s): {missing}")
    diverged = sorted(name for name in recorded if recorded[name] != actual[name])
    if diverged:
        raise ManifestError(
            "result fingerprints diverge for "
            + ", ".join(diverged)
            + " — the replay is not bit-identical to the recorded run"
        )
    return len(recorded)


def replay_manifest(
    manifest: Mapping[str, object],
    workers: int = 0,
    cache_dir: str | Path | None = None,
) -> Tuple[ExperimentSuite, SuiteResult]:
    """Rebuild, verify, run, and verify again: the full replay pipeline."""
    suite = suite_from_manifest(manifest, workers=workers, cache_dir=cache_dir)
    verify_trace_fingerprints(manifest, suite)
    outcome = suite.run()
    verify_results(manifest, outcome)
    return suite, outcome
