"""Command-line interface: ``spes-repro <command>``.

Commands
--------
``compare``
    Run SPES and every baseline on a synthetic Azure-like workload and print
    the comparison table (RQ1/RQ2 headline numbers).
``analyze``
    Print the §III empirical analysis of a synthetic workload (invocation
    distribution, trigger mix, pattern tests, co-occurrence, locality).
``tradeoff``
    Run the RQ3 parameter sweeps.
``ablation``
    Run the RQ4 ablations.
``sweep``
    Run the full policy suite over one or more workload seeds, fanning the
    (policy × seed) cells out across worker processes with optional on-disk
    result caching (``--workers``, ``--seeds``, ``--policies``,
    ``--cache-dir``, ``--no-cache``).  With ``--scenario`` the workloads come
    from the scenario registry (``capacity-squeeze`` and ``hot-shard`` run
    the whole sweep in capacity-constrained cluster mode and report
    evictions, migrations and capacity-induced cold starts; ``--placement``
    swaps the cluster's function-to-node strategy).  With ``--engine event``
    every cell runs on the sub-minute event engine and the tables report
    p50/p95/p99 cold-start latency alongside the paper's count-based
    metrics; policies that override the feedback hook also receive the
    rolling latency window.  With ``--streaming`` policies receive no
    training window at all and must adapt online.  With ``--cores`` (event
    engine only) every node runs a finite CPU pool and the latency tables
    add slowdown and SLO columns; ``--scheduler`` picks the intra-node
    discipline (fifo, rr, srtf, las) and ``--slo-ms`` sets the per-request
    deadline.  ``--manifest PATH`` records a run manifest after the sweep
    (canonical run spec, trace fingerprints, engine version, per-cell
    result fingerprints); ``--from-manifest PATH`` replays a recorded
    manifest and verifies the results are fingerprint-identical.
``config``
    Resolve sweep-style flags into the one canonical run spec — printed as
    JSON with its content digest and the engine version — without running
    any simulation.  ``--cache-keys`` additionally builds the workloads
    and prints every statically derivable cell's on-disk cache key.
``results``
    Run the full RQ1–RQ6 campaign over one workload source and write the
    consolidated markdown results book.  By default the hermetic azure2019
    fixture pipeline feeds every RQ and the output lands in
    ``docs/RESULTS.md`` (the committed, CI-diffed copy); ``--azure-dir DIR``
    runs the same campaign on the real dataset.  Its RQ5 section (cold-start
    latency tail, feedback vs. open-loop) and RQ6 section (slowdown and SLO
    violations under finite cores) are streaming and ``--cores`` sweeps on
    the event engine; ``sweep --engine event`` runs any one of their cells.
``cache``
    On-disk result-cache maintenance: ``--prune-days N`` deletes entries
    (and stray temporary files) older than N days.
``scenarios``
    List the scenario registry: names, descriptions, parameters.
``azure``
    Real Azure Functions 2019 dataset management: ``azure fetch`` downloads
    and unpacks the public CSVs, ``azure info`` reports which days (and
    cached ingestions) a local copy holds.  ``sweep --azure-dir DIR`` points
    the ``azure2019`` scenario at such a directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import (
    cooccurrence_study,
    invocation_count_summary,
    temporal_locality_study,
    http_poisson_test,
    timer_periodicity_test,
    trigger_proportions,
)
from repro.experiments import (
    DEFAULT_SUITE_POLICIES,
    ExperimentConfig,
    ExperimentSuite,
    rq1_coldstart,
    rq2_memory,
)
from repro.experiments.rq3_tradeoff import givenup_sweep, linear_fit, prewarm_sweep, sweep_table
from repro.experiments.rq4_ablation import (
    ablation_table,
    adaptivity_ablation,
    correlation_ablation,
)
from repro.metrics.summary import build_comparison
from repro.simulation import ENGINE_IMPLEMENTATIONS, MEMORY_MODES, scheduler_names
from repro.traces import AzureTraceGenerator


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--functions", type=int, default=400, help="number of synthetic functions")
    parser.add_argument("--seed", type=int, default=2024, help="workload seed")
    parser.add_argument(
        "--days", type=float, default=14.0, help="total workload duration in days"
    )
    parser.add_argument(
        "--training-days", type=float, default=12.0, help="days used for offline modelling"
    )


def _fail(error: Exception) -> int:
    """Report an invalid-input error on stderr; exit status 2."""
    print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
    return 2


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_functions=args.functions,
        seed=args.seed,
        duration_days=args.days,
        training_days=args.training_days,
    )


def _command_compare(args: argparse.Namespace) -> int:
    try:
        results = ExperimentSuite(_config_from_args(args)).run().results[args.seed]
    except (KeyError, ValueError) as error:
        return _fail(error)
    print(build_comparison(results, title="SPES vs. baselines").render())
    print()
    print(rq1_coldstart.headline_improvements(results).render())
    print()
    print(rq1_coldstart.memory_and_always_cold(results).render())
    print()
    print(rq2_memory.wmt_and_emcr_table(results).render())
    print()
    print(rq2_memory.overhead_comparison(results).render(float_format="{:.6f}"))
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    trace = AzureTraceGenerator(_config_from_args(args).generator_profile()).generate()
    print("Invocation-count summary (Fig. 3):")
    for key, value in invocation_count_summary(trace).items():
        print(f"  {key}: {value:.2f}")
    print("\nTrigger proportions (Fig. 5):")
    for trigger, fraction in trigger_proportions(trace).items():
        print(f"  {trigger}: {100.0 * fraction:.2f}%")
    timer_report = timer_periodicity_test(trace)
    http_report = http_poisson_test(trace)
    print("\nPattern tests (Sec. III-B1):")
    print(
        f"  timer functions (quasi-)periodic: {100.0 * timer_report.matching_fraction:.2f}% "
        f"(insufficient data: {100.0 * timer_report.insufficient_fraction:.2f}%)"
    )
    print(
        f"  HTTP functions Poisson: {100.0 * http_report.matching_fraction:.2f}% "
        f"(insufficient data: {100.0 * http_report.insufficient_fraction:.2f}%)"
    )
    cor = cooccurrence_study(trace)
    print("\nCo-occurrence study (Sec. III-B2):")
    print(f"  candidate COR: {cor.candidate_cor:.4f}")
    print(f"  negative-sample COR: {cor.negative_cor:.4f}")
    print(f"  same-trigger COR: {cor.same_trigger_cor:.4f}")
    print(f"  different-trigger COR: {cor.different_trigger_cor:.4f}")
    locality = temporal_locality_study(trace)
    print("\nTemporal locality (Fig. 6):")
    print(f"  infrequent functions analysed: {locality.functions_considered}")
    print(f"  bursty fraction: {100.0 * locality.bursty_fraction:.2f}%")
    return 0


def _command_tradeoff(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(_config_from_args(args))
    try:
        prewarm_points = prewarm_sweep(suite)
        givenup_points = givenup_sweep(suite)
    except (KeyError, ValueError) as error:
        return _fail(error)
    print(sweep_table(prewarm_points, "theta_prewarm", "Fig. 13a - theta_prewarm sweep").render())
    slope, intercept = linear_fit(prewarm_points)
    print(f"linear fit: q3_csr = {slope:.4f} * memory + {intercept:.4f}")
    print()
    print(sweep_table(givenup_points, "givenup_scale", "Fig. 13b - theta_givenup sweep").render())
    slope, intercept = linear_fit(givenup_points)
    print(f"linear fit: q3_csr = {slope:.4f} * memory + {intercept:.4f}")
    return 0


def _command_ablation(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(_config_from_args(args))
    try:
        correlation = correlation_ablation(suite)
        adaptivity = adaptivity_ablation(suite)
    except (KeyError, ValueError) as error:
        return _fail(error)
    print(ablation_table(correlation, "Fig. 14 - correlation ablation").render())
    print()
    print(ablation_table(adaptivity, "Fig. 15 - adaptivity ablation").render())
    return 0


def _parse_scenario_params(pairs: Sequence[str]) -> dict:
    """Parse ``name=value`` scenario overrides (numbers become numeric)."""
    params: dict = {}
    for pair in pairs:
        name, separator, raw = pair.partition("=")
        if not separator or not name:
            raise ValueError(f"expected name=value, got {pair!r}")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[name] = value
    return params


def _command_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIO_REGISTRY, scenario_names

    print("Registered scenarios (use with `spes-repro sweep --scenario NAME`):\n")
    for name in scenario_names():
        scenario = SCENARIO_REGISTRY[name]
        print(f"  {name}")
        print(f"      {scenario.description}")
        if scenario.defaults:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(scenario.defaults.items())
            )
            print(f"      parameters: {rendered}")
    print(
        "\nCommon knobs --functions/--seed(s)/--days/--training-days apply to every\n"
        "scenario; scenario parameters are overridden with --scenario-param name=value."
    )
    return 0


def _suite_from_args(
    args: argparse.Namespace, workers: int = 0, cache_dir: str | None = None
) -> ExperimentSuite:
    """Build the :class:`ExperimentSuite` a sweep-style namespace describes.

    Shared by ``sweep`` (which executes it) and ``config`` (which only
    resolves and prints its run spec), so both commands agree on how flags
    map to a suite.  Raises ``KeyError``/``ValueError`` on invalid flags.
    """
    config = ExperimentConfig(
        n_functions=args.functions,
        seed=args.seeds[0],
        duration_days=args.days,
        training_days=args.training_days,
    )
    scenario = args.scenario
    scenario_params = _parse_scenario_params(args.scenario_param)
    if args.azure_dir is not None:
        if scenario is None:
            scenario = "azure2019"
        scenario_params.setdefault("azure_dir", args.azure_dir)
    return ExperimentSuite(
        config=config,
        seeds=args.seeds,
        policies=args.policies,
        workers=workers,
        cache_dir=cache_dir,
        scenario=scenario,
        scenario_params=scenario_params,
        placement=args.placement,
        engine=args.engine,
        streaming=args.streaming,
        shards=args.shards,
        shard_placement=args.shard_placement,
        cores=args.cores,
        scheduler=args.scheduler,
        slo_ms=args.slo_ms,
        memory_mode=args.memory_mode,
    )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.manifest import (
        ManifestError,
        build_manifest,
        load_manifest,
        suite_from_manifest,
        verify_results,
        verify_trace_fingerprints,
        write_manifest,
    )

    cache_dir = None if args.no_cache else args.cache_dir
    workers = args.workers
    if getattr(args, "profile", False) and workers > 1:
        # cProfile only sees the calling process; worker time would vanish
        # from the report, so profiled sweeps run everything in-process.
        print("profile: forcing serial execution (--workers ignored)", file=sys.stderr)
        workers = 0
    manifest = None
    try:
        if args.from_manifest is not None:
            # Replay mode: the manifest, not the workload flags, defines the
            # sweep; only execution-host knobs (--workers/--cache-dir) apply.
            manifest = load_manifest(args.from_manifest)
            suite = suite_from_manifest(manifest, workers=workers, cache_dir=cache_dir)
            verify_trace_fingerprints(manifest, suite)
        else:
            suite = _suite_from_args(args, workers=workers, cache_dir=cache_dir)
    except (ManifestError, KeyError, ValueError) as error:
        return _fail(error)
    scenario = suite.scenario
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        outcome = suite.run()
    except (KeyError, ValueError) as error:
        # Unknown policy names and invalid runner settings surface once the
        # suite builds its parallel runner and resolves its specs.
        return _fail(error)
    finally:
        if profiler is not None:
            profiler.disable()
    for seed in suite.seeds:
        print(outcome.seed_table(seed).render())
        print()
        cluster_table = outcome.cluster_table(seed)
        if cluster_table is not None:
            print(cluster_table.render())
            print()
        latency_table = outcome.latency_table(seed)
        if latency_table is not None:
            print(latency_table.render(float_format="{:.1f}"))
            print()
        if args.rq_tables:
            for table in rq1_coldstart.report(outcome.results[seed]):
                print(table.render())
                print()
            for table in rq2_memory.report(outcome.results[seed]):
                print(table.render(float_format="{:.6f}"))
                print()
    if len(suite.seeds) > 1:
        print(outcome.aggregate_table().render())
        print()
    mode = f"{outcome.workers} workers" if outcome.workers > 1 else "serial"
    scenario_note = f", scenario {scenario}" if scenario else ""
    placement = f", placement {suite.placement}" if suite.placement else ""
    engine = f", engine {suite.engine}" if suite.engine != "vectorized" else ""
    streaming = ", streaming" if suite.streaming else ""
    shards = f", shards {suite.shards}" if suite.shards >= 2 else ""
    cpu = ""
    if suite.cores is not None:
        cpu = f", cores {suite.cores} ({suite.scheduler or 'fifo'})"
    if suite.slo_ms is not None:
        cpu += f", slo {suite.slo_ms:g}ms"
    if suite.memory_mode != "unit":
        cpu += f", memory {suite.memory_mode}"
    print(
        f"sweep: {len(suite.seeds)} seed(s) x {len(suite.policies)} policies "
        f"in {outcome.wall_seconds:.1f}s ({mode}{scenario_note}{placement}{engine}"
        f"{streaming}{shards}{cpu})"
    )
    if cache_dir:
        print(f"cache: {outcome.cache_hits} hit(s), {outcome.cache_misses} miss(es)")
    if manifest is not None:
        try:
            verified = verify_results(manifest, outcome)
        except ManifestError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"manifest: replay of {args.from_manifest} verified — "
            f"{verified} result fingerprint(s) identical"
        )
    if args.manifest is not None:
        document = build_manifest(suite, outcome)
        path = write_manifest(args.manifest, document)
        print(f"manifest: wrote {path} ({len(document['results'])} cell(s))")
    if profiler is not None:
        import io
        import pstats

        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        print("\nprofile: top 25 functions by cumulative time")
        print(stream.getvalue())
    return 0


def _command_config(args: argparse.Namespace) -> int:
    """Resolve sweep flags into the canonical run spec without running.

    Prints a JSON document with the validated :class:`RunSpec` in canonical
    form, its content digest, and the engine version — the identity a sweep
    with the same flags would run (and cache) under.  With ``--cache-keys``
    the per-seed workloads are built (no simulation) and every statically
    derivable cell's on-disk cache key is included.
    """
    import json

    from repro.simulation.spec import ENGINE_VERSION

    try:
        suite = _suite_from_args(args)
    except (KeyError, ValueError) as error:
        return _fail(error)
    document = {
        "engine_version": ENGINE_VERSION,
        "spec": suite.spec.canonical(),
        "spec_digest": suite.spec.spec_digest(),
        "seeds": list(suite.seeds),
        "policies": list(suite.policies),
        "scenario": suite.scenario,
        "scenario_params": {
            name: value if isinstance(value, (bool, int, float, str)) else str(value)
            for name, value in sorted(suite.scenario_params.items())
        },
    }
    if args.cache_keys:
        try:
            keys, skipped = suite.static_cache_keys()
        except (KeyError, ValueError) as error:
            return _fail(error)
        document["cache_keys"] = keys
        for name in skipped:
            print(
                f"note: {name} omitted from cache_keys (its capacity is "
                "derived from the same-seed spes result, so its key is not "
                "static)",
                file=sys.stderr,
            )
    print(json.dumps(document, indent=2))
    return 0


def _command_results(args: argparse.Namespace) -> int:
    from repro.experiments.results import ResultsConfig, generate_results

    try:
        config = ResultsConfig(
            azure_dir=args.azure_dir,
            n_functions=args.functions,
            population=args.population,
            days=args.days,
            training_days=args.training_days,
            day_start=args.day_start,
            seeds=tuple(args.seeds),
            workers=args.workers,
            cache_dir=args.cache_dir,
            shards=args.shards,
            memory_mode=args.memory_mode,
        )
        document = generate_results(config, echo=not args.quiet)
    except (KeyError, ValueError) as error:
        return _fail(error)
    if args.output == "-":
        print(document, end="")
    else:
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(document)
        print(f"results: wrote {path} ({len(document.splitlines())} lines)")
    return 0


def _command_azure_fetch(args: argparse.Namespace) -> int:
    import tarfile
    from pathlib import Path

    from repro.traces.azure2019 import (
        Azure2019Dataset,
        AzureIngestError,
        fetch_azure2019,
    )

    options = {"url": args.url} if args.url else {}
    try:
        dest = fetch_azure2019(Path(args.dest), force=args.force, **options)
    except (AzureIngestError, OSError, tarfile.TarError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    days = Azure2019Dataset(dest, cache_dir=None).available_days()
    print(f"{dest}: {len(days)} invocation day file(s) available")
    return 0


def _command_azure_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.traces.azure2019 import Azure2019Dataset

    root = Path(args.azure_dir)
    if not root.is_dir():
        print(f"error: no dataset directory at {root}", file=sys.stderr)
        return 2
    dataset = Azure2019Dataset(root)
    days = dataset.available_days()
    if not days:
        print(
            f"{root}: no invocation day files found "
            "(expected invocations_per_function_md.anon.dNN.csv); "
            "run `spes-repro azure fetch --dest DIR` first"
        )
        return 2
    print(f"dataset root: {root}")
    print(f"invocation days: {len(days)} ({', '.join(f'd{d:02d}' for d in days)})")
    for day in days:
        inv = dataset.invocation_path(day)
        dur = dataset.durations_path(day)
        mem = dataset.memory_path(day)
        parts = [f"invocations {inv.stat().st_size / 1e6:.1f} MB"]
        parts.append(
            f"durations {dur.stat().st_size / 1e6:.1f} MB" if dur.exists() else "durations missing"
        )
        parts.append(
            f"memory {mem.stat().st_size / 1e6:.1f} MB" if mem.exists() else "memory missing"
        )
        print(f"  d{day:02d}: {', '.join(parts)}")
    cache_dir = dataset.cache_dir
    if cache_dir is not None and cache_dir.is_dir():
        entries = sorted(cache_dir.glob("azure2019-*.npz"))
        total = sum(entry.stat().st_size for entry in entries)
        print(
            f"ingestion cache: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
            f"{total / 1e6:.1f} MB in {cache_dir}"
        )
    else:
        print("ingestion cache: empty (populated on first load)")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import ResultCache

    directory = Path(args.cache_dir)
    if not directory.is_dir():
        print(f"error: no cache directory at {directory}", file=sys.stderr)
        return 2
    cache = ResultCache(directory)
    removed = cache.prune(max_age_days=args.prune_days)
    remaining = len(list(directory.glob("*.pkl")))
    print(
        f"pruned {removed} entr{'y' if removed == 1 else 'ies'} older than "
        f"{args.prune_days:g} day(s) from {directory} ({remaining} kept)"
    )
    return 0


def _add_sweep_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the workload/run-spec flags shared by ``sweep`` and ``config``.

    Everything registered here feeds :func:`_suite_from_args`; flags that
    only matter for execution (workers, caching, manifests, profiling) stay
    with the ``sweep`` subparser.
    """
    parser.add_argument(
        "--functions", type=int, default=400, help="number of synthetic functions"
    )
    parser.add_argument(
        "--days", type=float, default=14.0, help="total workload duration in days"
    )
    parser.add_argument(
        "--training-days", type=float, default=12.0, help="days used for offline modelling"
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[2024],
        help="workload seeds; each seed is an independent workload",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=list(DEFAULT_SUITE_POLICIES),
        help="policy names to simulate (see repro.experiments.POLICY_REGISTRY)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_IMPLEMENTATIONS,
        default="vectorized",
        help=(
            "simulation engine; 'event' expands minutes into timestamped "
            "invocation events, reports cold-start latency percentiles and "
            "streams the rolling latency window into every policy that "
            "overrides on_feedback"
        ),
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help=(
            "streaming evaluation: policies receive zero training window "
            "(no offline phase input, no warm-up replay) and adapt online"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="workload scenario name (see `spes-repro scenarios`)",
    )
    parser.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--azure-dir",
        default=None,
        help=(
            "directory holding the real Azure 2019 CSVs; implies "
            "--scenario azure2019 unless another scenario is named and "
            "fills in its azure_dir parameter"
        ),
    )
    parser.add_argument(
        "--placement",
        default=None,
        help=(
            "placement strategy for the scenario's cluster (hash, "
            "least-loaded, correlation-aware); requires a cluster scenario "
            "such as capacity-squeeze or hot-shard"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "split shardable cells into N function partitions simulated "
            "independently and merged (fingerprint-identical; with "
            "--workers > 1 every partition is its own pool task); cells "
            "that cannot shard fall back to whole-cell runs with a warning"
        ),
    )
    parser.add_argument(
        "--shard-placement",
        default="hash",
        help=(
            "placement strategy deriving the function-to-shard partition "
            "(hash, least-loaded, correlation-aware)"
        ),
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help=(
            "finite CPU cores per node for the intra-node scheduling stage "
            "(event engine only); latency tables gain slowdown and SLO "
            "columns.  Unset, invocations never queue for CPU"
        ),
    )
    parser.add_argument(
        "--scheduler",
        choices=scheduler_names(),
        default=None,
        help="intra-node CPU scheduling discipline (requires --cores; default fifo)",
    )
    parser.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help=(
            "per-request latency SLO in milliseconds; the event engine counts "
            "invocations whose sojourn time exceeds it"
        ),
    )
    parser.add_argument(
        "--memory-mode",
        choices=MEMORY_MODES,
        default="unit",
        help=(
            "memory accounting: 'unit' is the paper's abstract one-unit-per-"
            "instance model; 'mb' weighs instances by the measured footprints "
            "joined from the dataset and adds MB columns to the tables "
            "(requires a mask-based engine)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="spes-repro",
        description="Reproduction of SPES (ICDE 2024): serverless function provisioning.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("compare", _command_compare, "compare SPES against all baselines"),
        ("analyze", _command_analyze, "run the Sec. III empirical trace analysis"),
        ("tradeoff", _command_tradeoff, "run the RQ3 parameter sweeps"),
        ("ablation", _command_ablation, "run the RQ4 ablations"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_arguments(sub)
        sub.set_defaults(handler=handler)

    sweep = subparsers.add_parser(
        "sweep",
        help="run the policy suite over several seeds, in parallel",
    )
    _add_sweep_workload_arguments(sweep)
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the (policy x seed) fan-out (0 = serial)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk result cache (re-runs skip cached cells)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache even when --cache-dir is given",
    )
    sweep.add_argument(
        "--rq-tables",
        action="store_true",
        help="additionally print the per-seed RQ1/RQ2 tables",
    )
    sweep.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help=(
            "after the sweep, write a run manifest (canonical run spec, "
            "trace fingerprints, engine version, per-cell result "
            "fingerprints) to PATH for verified replay"
        ),
    )
    sweep.add_argument(
        "--from-manifest",
        default=None,
        metavar="PATH",
        dest="from_manifest",
        help=(
            "replay the sweep a manifest records instead of reading the "
            "workload flags; refuses to run on engine-version or trace-"
            "fingerprint mismatch and verifies the results are fingerprint-"
            "identical"
        ),
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the sweep under cProfile (serial execution is forced) and "
            "print the top 25 functions by cumulative time"
        ),
    )
    sweep.set_defaults(handler=_command_sweep)

    config = subparsers.add_parser(
        "config",
        help="resolve sweep flags into the canonical run spec (no simulation)",
    )
    _add_sweep_workload_arguments(config)
    config.add_argument(
        "--cache-keys",
        action="store_true",
        help=(
            "also build the per-seed workloads (no simulation) and print "
            "every statically derivable cell's on-disk cache key"
        ),
    )
    config.set_defaults(handler=_command_config)

    results = subparsers.add_parser(
        "results",
        help="run the full RQ1-RQ6 campaign and render the markdown results book",
    )
    results.add_argument(
        "--azure-dir",
        default=None,
        help=(
            "directory holding the real Azure 2019 CSVs; omitted, the book "
            "is generated from the hermetic azure2019 fixture pipeline (the "
            "CI-sized default committed as docs/RESULTS.md)"
        ),
    )
    results.add_argument(
        "--functions",
        type=int,
        default=24,
        help="functions selected into the workload",
    )
    results.add_argument(
        "--population",
        type=int,
        default=48,
        help="fixture-only: functions generated before selection",
    )
    results.add_argument(
        "--days", type=float, default=3.0, help="total workload duration in days"
    )
    results.add_argument(
        "--training-days", type=float, default=2.0, help="days used for offline modelling"
    )
    results.add_argument(
        "--day-start",
        type=int,
        default=1,
        help="real-dataset-only: first dataset day of the span",
    )
    results.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[2024, 7],
        help="workload seeds; multiple seeds add the aggregate table",
    )
    results.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for each suite's fan-out (0 = serial)",
    )
    results.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk result cache shared by all suites",
    )
    results.add_argument(
        "--shards",
        type=int,
        default=0,
        help="function-shard the RQ1/RQ2 suite's cells (see `sweep --shards`)",
    )
    results.add_argument(
        "--memory-mode",
        choices=MEMORY_MODES,
        default="mb",
        help=(
            "memory accounting for the RQ1-RQ4 runs; 'mb' (default) adds the "
            "measured-footprint table to RQ2"
        ),
    )
    results.add_argument(
        "--output",
        default="docs/RESULTS.md",
        help="output path for the markdown document ('-' prints to stdout)",
    )
    results.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-section progress notes on stderr",
    )
    results.set_defaults(handler=_command_results)

    cache = subparsers.add_parser(
        "cache",
        help="maintain the on-disk result cache",
    )
    cache.add_argument(
        "--cache-dir",
        required=True,
        help="the result-cache directory to maintain",
    )
    cache.add_argument(
        "--prune-days",
        type=float,
        required=True,
        help="delete cache entries older than this many days (0 = everything)",
    )
    cache.set_defaults(handler=_command_cache)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="list the registered workload scenarios",
    )
    scenarios.set_defaults(handler=_command_scenarios)

    azure = subparsers.add_parser(
        "azure",
        help="manage a local copy of the real Azure Functions 2019 dataset",
    )
    azure_sub = azure.add_subparsers(dest="azure_command", required=True)
    azure_fetch = azure_sub.add_parser(
        "fetch",
        help="download and unpack the public dataset archive (~1.9 GB)",
    )
    azure_fetch.add_argument(
        "--dest",
        required=True,
        help="directory to place the extracted CSV files in",
    )
    azure_fetch.add_argument(
        "--url",
        default=None,
        help="override the archive URL (defaults to the public Azure blob)",
    )
    azure_fetch.add_argument(
        "--force",
        action="store_true",
        help="re-download even when day files already exist in --dest",
    )
    azure_fetch.set_defaults(handler=_command_azure_fetch)
    azure_info = azure_sub.add_parser(
        "info",
        help="report the days, file sizes and cache entries of a local copy",
    )
    azure_info.add_argument(
        "--azure-dir",
        required=True,
        help="directory holding the extracted dataset CSVs",
    )
    azure_info.set_defaults(handler=_command_azure_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
