"""The four workload recipes of the end-to-end benchmark.

Each recipe separates three steps, so the harness can time them apart:

``draw(seed)``
    The benchmark's own input drawing (never timed).
``build(inputs, cache_dir)``
    What the program does before a campaign can start: trace construction
    or ingestion, the train/simulation split and the first
    ``invocation_index()``.  Timed as ``setup_s``.
``campaign(built, cache_dir, pool)``
    The run a user waits for, against a fresh result cache.  Timed as
    ``run_s``.

Recipes take keyword overrides of their size ``defaults`` so the tests can
run them at a reduced size; the benchmark always runs the defaults.

The two synthetic workloads simulate a *fixed* population: a registered
scenario built once with :data:`BLUEPRINT_SEED`, whose traffic the workload
seed re-aligns by rotating every application's series within each window by
a whole number of days.  The program's generator draws each seed's
population mix afresh, which at a few dozen functions changes the invoked
function-minutes several-fold between seeds, and with it the run time; a
benchmark needs seeds that exercise the same population.  Rotating within a
window by whole days keeps each function's invoked minutes per window and
each series' time-of-day pattern, so the work per window and the per-minute
concurrency that CPU scheduling pays for stay comparable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.experiments import results as results_module
from repro.experiments.parallel import ParallelRunner, PolicySpec
from repro.experiments.suite import DEFAULT_SUITE_POLICIES
from repro.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    ScenarioWorkload,
    build_scenario,
    get_scenario,
    register_scenario,
)
from repro.simulation import SimulationResult
from repro.simulation.spec import RunSpec
from repro.traces import (
    FunctionRecord,
    SparseTrace,
    Trace,
    TraceMetadata,
    TraceSplit,
    split_trace,
)
from repro.traces.schema import MINUTES_PER_DAY

import oracle

#: Seed of the fixed synthetic populations (the workload seed only moves traffic).
BLUEPRINT_SEED = 2024

REPO_ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------- #
# Seeded traffic over a fixed population
# --------------------------------------------------------------------- #
def realize(split: TraceSplit, seed: int) -> TraceSplit:
    """``split``'s population with each application's traffic rotated by ``seed``.

    Within each window every application moves by a whole number of days
    drawn from ``seed``.  Rotating whole applications keeps chained
    functions behind their parents; rotating within a window keeps the
    functions unseen in training unseen.
    """
    rng = np.random.default_rng(seed)
    apps = sorted({record.app_id for record in split.training.records()})
    shift = dict(zip(apps, rng.integers(0, 2**31, len(apps)).tolist()))

    def rotated(trace: Trace) -> Trace:
        days = max(1, trace.duration_minutes // MINUTES_PER_DAY)
        counts = {
            record.function_id: np.roll(
                trace.series(record.function_id),
                MINUTES_PER_DAY * (shift[record.app_id] % days),
            )
            for record in trace.records()
        }
        return Trace(trace.records(), counts, trace.metadata)

    return TraceSplit(rotated(split.training), rotated(split.simulation))


def seeded(base: str) -> str:
    """Register (once) ``base``'s fixed population with seeded traffic; its name."""
    name = f"e2e-{base}"
    if name not in SCENARIO_REGISTRY:
        scenario = get_scenario(base)

        def build(seed: int, **sizes_and_params: object) -> ScenarioWorkload:
            blueprint = build_scenario(base, seed=BLUEPRINT_SEED, **sizes_and_params)
            return dataclasses.replace(
                blueprint, scenario=name, split=realize(blueprint.split, seed)
            )

        register_scenario(
            Scenario(
                name=name,
                description=f"{base} population of seed {BLUEPRINT_SEED}, seeded traffic",
                builder=build,
                defaults=scenario.defaults,
                events=scenario.events,
            )
        )
    return name


# --------------------------------------------------------------------- #
# Recipes
# --------------------------------------------------------------------- #
@dataclass
class Cell:
    """One simulated cell with what the oracle needs to check it."""

    result: SimulationResult
    trace: Trace
    spec: RunSpec


@dataclass
class Outcome:
    cells: Dict[str, Cell] = field(default_factory=dict)
    document: str | None = None


class Workload:
    """Base recipe; subclasses set ``name``, ``defaults`` and the three steps."""

    name = ""
    #: Workload builds whose median is ``setup_s`` (at least).
    setup_builds = 7
    #: The campaign builds its own inputs, so a rep does not build first.
    campaign_builds = False
    defaults: Dict[str, object] = {}

    def __init__(self, **params: object) -> None:
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise KeyError(f"unknown {self.name} parameter(s): {sorted(unknown)}")
        self.params = {**self.defaults, **params}

    def draw(self, seed: int) -> object:
        return seed

    def build(self, inputs: object, cache_dir: Path | None) -> object:
        raise NotImplementedError

    def campaign(self, built: object, cache_dir: Path, pool: bool) -> Outcome:
        raise NotImplementedError

    def trace_mapping(self, built: object) -> Dict[str, TraceSplit]:
        """The trace mapping a process pool would pickle for this workload."""
        return built.traces()

    def model(self, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
        return {}

    def check(self, outcome: Outcome, seed: int, pins: dict) -> Tuple[int, List[str]]:
        """``(cells attempted, failure messages)`` for one campaign."""
        failures = []
        for name, cell in outcome.cells.items():
            problems = oracle.check_cell(cell.result, cell.trace, cell.spec)
            problems += oracle.check_pin(pins, self.name, seed, name, cell.result)
            failures += [f"{name}: {problem}" for problem in problems]
        return len(outcome.cells), failures


class _SuiteWorkload(Workload):
    """A serial :class:`ExperimentSuite` sweep over one seeded scenario."""

    base_scenario = ""
    policies: Tuple[str, ...] = ()
    suite_options: Dict[str, object] = {}

    def build(self, inputs: object, cache_dir: Path | None) -> ExperimentSuite:
        seed = int(inputs)
        params = self.params
        suite = ExperimentSuite(
            config=ExperimentConfig(
                n_functions=params["functions"],
                seed=seed,
                duration_days=params["days"],
                training_days=params["training_days"],
                warmup_minutes=params["warmup_minutes"],
            ),
            seeds=(seed,),
            policies=self.policies,
            cache_dir=cache_dir,
            scenario=seeded(self.base_scenario),
            **self.suite_options,
        )
        suite.traces()[suite.trace_key(seed)].simulation.invocation_index()
        return suite

    def campaign(self, built: ExperimentSuite, cache_dir: Path, pool: bool) -> Outcome:
        seed = built.seeds[0]
        key = built.trace_key(seed)
        results = built.run().results[seed]
        simulation = built.traces()[key].simulation
        spec = built.parallel_runner().cell_run_spec(key)
        return Outcome({name: Cell(result, simulation, spec) for name, result in results.items()})


class PaperSweep(_SuiteWorkload):
    """The RQ1/RQ2 policy comparison: six paper policies, vectorized engine.

    The paper's span (12 training + 2 simulated days, a one-day warm-up) is
    kept, so prepare, warm-up and decisions weigh as they do at full size;
    the population is what shrinks to fit the run budget.
    """

    name = "paper-sweep"
    base_scenario = "azure"
    policies = DEFAULT_SUITE_POLICIES
    defaults = {"functions": 40, "days": 14.0, "training_days": 12.0, "warmup_minutes": 1440}

    def model(self, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
        spes = outcome.cells["spes"].result
        hybrid = outcome.cells["hybrid-function"].result

        def reduction(ours: float, theirs: float) -> float:
            return 100.0 * (1.0 - ours / theirs) if theirs else 0.0

        return {
            "model.spes_csr_p75": (spes.q3_cold_start_rate, "ratio"),
            "model.spes_wmt": (float(spes.total_wasted_memory_time), "instance-min"),
            "model.csr_p75_reduction_vs_hybrid_pct": (
                reduction(spes.q3_cold_start_rate, hybrid.q3_cold_start_rate),
                "%",
            ),
            "model.wmt_reduction_vs_hybrid_pct": (
                reduction(spes.total_wasted_memory_time, hybrid.total_wasted_memory_time),
                "%",
            ),
        }


class EventCpu(_SuiteWorkload):
    """Sub-minute events and CPU scheduling on a capacity-capped cluster."""

    name = "event-cpu"
    base_scenario = "capacity-squeeze"
    policies = ("fixed-10min", "always-warm", "no-keepalive")
    suite_options = {"engine": "event", "cores": 2, "scheduler": "srtf", "slo_ms": 1000.0}
    defaults = {"functions": 200, "days": 4.0, "training_days": 2.0, "warmup_minutes": 1440}

    def model(self, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
        latency = outcome.cells["fixed-10min"].result.latency
        return {
            "model.cold_wait_p99_ms": (latency.p99_ms, "ms"),
            "model.slowdown_p99": (latency.slowdown_p99, "ratio"),
            "model.slo_violation_rate": (latency.slo_violation_rate, "ratio"),
        }


class AzureScale(Workload):
    """A dataset-sparsity CSR population, sharded over a two-worker pool."""

    name = "azure-scale"
    setup_builds = 5
    policies = ("fixed-10min", "no-keepalive")
    shards = workers = 2
    defaults = {"functions": 40_000, "days": 14, "training_days": 12.0}

    def draw(self, seed: int) -> tuple:
        """CSR arrays at the dataset's sparsity: ~9 active minutes per function-day."""
        n, duration = self.params["functions"], self.params["days"] * MINUTES_PER_DAY
        rng = np.random.default_rng(seed)
        per_function = rng.poisson(9 * self.params["days"], n).astype(np.int64) + 1
        rows = np.repeat(np.arange(n, dtype=np.int64), per_function)
        keys = np.sort(rows * duration + rng.integers(0, duration, rows.size))
        keys = keys[np.concatenate(([True], np.diff(keys) != 0))]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // duration, minlength=n), out=indptr[1:])
        counts = rng.integers(1, 4, keys.size, dtype=np.int64)
        records = [
            FunctionRecord(
                function_id=f"o{i % 400}:a{i % 2000}:f{i}",
                app_id=f"o{i % 400}:a{i % 2000}",
                owner_id=f"o{i % 400}",
            )
            for i in range(n)
        ]
        return records, indptr, keys % duration, counts, duration

    def build(self, inputs: tuple, cache_dir: Path | None) -> TraceSplit:
        records, indptr, minutes, counts, duration = inputs
        metadata = TraceMetadata(name=f"azure-scale-{len(records)}", duration_minutes=duration)
        trace = SparseTrace(records, indptr, minutes, counts, duration, metadata)
        split = split_trace(trace, training_days=self.params["training_days"])
        split.simulation.invocation_index()
        return split

    def campaign(self, built: TraceSplit, cache_dir: Path, pool: bool) -> Outcome:
        runner = ParallelRunner(
            {"scale": built},
            workers=self.workers if pool else 0,
            cache_dir=cache_dir,
            shards=self.shards,
        )
        cells = [runner.cell(name, PolicySpec.of(name), "scale") for name in self.policies]
        spec = runner.cell_run_spec("scale")
        return Outcome(
            {
                name: Cell(result, built.simulation, spec)
                for name, result in runner.run_cells(cells).items()
            }
        )

    def trace_mapping(self, built: TraceSplit) -> Dict[str, TraceSplit]:
        return {"scale": built}


class ResultsBook(Workload):
    """``spes-repro results``: the committed RQ1-RQ6 campaign.

    Its configuration is fixed, because ``docs/RESULTS.md`` is its oracle;
    the seed does not change its inputs.  :func:`generate_results` takes no
    prebuilt traces and ingests the fixture itself, so a rep times only the
    campaign (its ingestion included) and ``setup_s`` times, on its own,
    the ingestion the book's RQ1/RQ2 suite starts with.
    """

    name = "results-book"
    campaign_builds = True
    defaults = {
        "n_functions": 24,
        "population": 48,
        "days": 3.0,
        "training_days": 2.0,
        "seeds": (2024, 7),
    }

    def config(self, cache_dir: Path | None) -> results_module.ResultsConfig:
        return results_module.ResultsConfig(**self.params, cache_dir=cache_dir)

    def build(self, inputs: object, cache_dir: Path | None) -> ExperimentSuite:
        """The book's RQ1/RQ2 suite with every seed's fixture ingested."""
        config = self.config(cache_dir)
        scenario, scenario_params = config.scenario()
        suite = ExperimentSuite(
            config=config.experiment_config(config.seeds[0]),
            seeds=config.seeds,
            cache_dir=cache_dir,
            scenario=scenario,
            scenario_params=scenario_params,
            spec=config.run_spec(),
        )
        for split in suite.traces().values():
            split.simulation.invocation_index()
        return suite

    def campaign(self, built: None, cache_dir: Path, pool: bool) -> Outcome:
        return Outcome(document=results_module.generate_results(self.config(cache_dir)))

    def check(self, outcome: Outcome, seed: int, pins: dict) -> Tuple[int, List[str]]:
        if self.params != self.defaults:  # only the committed configuration has an oracle
            return 1, []
        if outcome.document != (REPO_ROOT / "docs" / "RESULTS.md").read_text():
            return 1, ["document differs from docs/RESULTS.md"]
        return 1, []


WORKLOADS = {recipe.name: recipe for recipe in (PaperSweep, EventCpu, AzureScale, ResultsBook)}
