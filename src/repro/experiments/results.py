"""The consolidated RQ1–RQ6 results book behind ``spes-repro results``.

One entry point, :func:`generate_results`, runs every research question of
the evaluation — the RQ1/RQ2 policy comparison, the RQ3 trade-off sweeps,
the RQ4 ablations, the RQ5 latency-tail report and the RQ6 slowdown report —
over a single workload source and renders the findings as one markdown
document (committed as ``docs/RESULTS.md``).

Two workload sources share the code path:

* ``azure_dir=None`` (default) — the hermetic ``azure2019-fixture``
  scenario: the full real-trace ingestion pipeline over generated fixture
  CSVs.  Deterministic in the configuration alone, which is what makes the
  committed document diffable: CI regenerates it and fails on drift.
* ``azure_dir=PATH`` — the real Azure Functions 2019 dataset via the
  ``azure2019`` scenario, at whatever population/day span the configuration
  asks for (sharded across workers and cached like any sweep).

Every table in the document is deterministic: wall-clock measurement
columns (scheduler overhead) are excluded, simulation outputs are not.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from repro.experiments.suite import (
    DEFAULT_SUITE_POLICIES,
    ExperimentConfig,
    ExperimentSuite,
    SuiteResult,
)
from repro.experiments import rq1_coldstart, rq2_memory
from repro.experiments.rq3_tradeoff import (
    givenup_sweep,
    linear_fit,
    prewarm_sweep,
    sweep_table,
)
from repro.experiments.rq4_ablation import (
    ablation_table,
    adaptivity_ablation,
    correlation_ablation,
)
from repro.experiments.rq5_latency import DEFAULT_LATENCY_RQ_POLICIES, latency_rq_table
from repro.experiments.rq6_slowdown import (
    DEFAULT_RQ6_CORES,
    DEFAULT_RQ6_POLICIES,
    DEFAULT_RQ6_SCHEDULERS,
    slowdown_rq_table,
)
from repro.metrics.summary import ComparisonTable
from repro.simulation import LatencyStats, SimulationResult
from repro.simulation.spec import RunSpec

__all__ = ["ResultsConfig", "generate_results", "write_results"]


@dataclass(frozen=True)
class ResultsConfig:
    """Configuration of one results-book run.

    Attributes
    ----------
    azure_dir:
        Directory holding the real Azure 2019 CSVs, or ``None`` for the
        hermetic fixture pipeline (the CI-sized default).
    n_functions:
        Functions selected into the workload (pass the full population,
        e.g. 83000, for the paper-scale campaign on the real dataset).
    population:
        Fixture-only: functions *generated* before selection (0 keeps the
        fixture at ``n_functions``); lets the selection stage do real work.
    days / training_days:
        Workload span and offline-modelling window.
    day_start:
        Real-dataset-only: first dataset day of the span.
    seeds:
        Workload seeds; multi-seed runs add the aggregate table.
    workers / cache_dir / shards:
        Fan-out, on-disk result caching and function-sharding, exactly as
        ``spes-repro sweep`` wires them.
    memory_mode:
        ``"mb"`` (default) adds the measured-memory table to RQ2; ``"unit"``
        reproduces the paper's abstract accounting only.
    """

    azure_dir: str | None = None
    n_functions: int = 24
    population: int = 48
    days: float = 3.0
    training_days: float = 2.0
    day_start: int = 1
    seeds: Sequence[int] = (2024, 7)
    workers: int = 0
    cache_dir: str | Path | None = None
    shards: int = 0
    memory_mode: str = "mb"

    def scenario(self) -> tuple[str, Dict[str, object]]:
        """The scenario name and parameters this configuration runs on."""
        if self.azure_dir is not None:
            return "azure2019", {
                "azure_dir": str(self.azure_dir),
                "day_start": int(self.day_start),
            }
        return "azure2019-fixture", {"population": int(self.population)}

    def experiment_config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            n_functions=self.n_functions,
            seed=seed,
            duration_days=self.days,
            training_days=self.training_days,
        )

    def run_spec(self) -> RunSpec:
        """The validated :class:`RunSpec` the book's RQ1/RQ2 suite runs under."""
        return RunSpec.build(shards=self.shards, memory_mode=self.memory_mode)

    def command_line(self) -> str:
        """The ``spes-repro results`` invocation reproducing this document."""
        parts = ["spes-repro results"]
        if self.azure_dir is not None:
            parts.append(f"--azure-dir {self.azure_dir}")
            if self.day_start != 1:
                parts.append(f"--day-start {self.day_start}")
        elif self.population != 48:
            parts.append(f"--population {self.population}")
        if self.n_functions != 24:
            parts.append(f"--functions {self.n_functions}")
        if self.days != 3.0:
            parts.append(f"--days {self.days:g}")
        if self.training_days != 2.0:
            parts.append(f"--training-days {self.training_days:g}")
        if tuple(self.seeds) != (2024, 7):
            parts.append("--seeds " + " ".join(str(seed) for seed in self.seeds))
        if self.memory_mode != "mb":
            parts.append(f"--memory-mode {self.memory_mode}")
        if self.shards:
            parts.append(f"--shards {self.shards}")
        parts.append("--output docs/RESULTS.md")
        return " ".join(parts)


def _measured_memory_table(
    results: Mapping[str, SimulationResult], seed: int
) -> ComparisonTable:
    """Measured-footprint memory metrics per policy (MB-mode runs only)."""
    table = ComparisonTable(
        title=f"RQ2 - measured memory (seed {seed}; footprints joined from the dataset)",
        columns=("policy", "avg_mb", "peak_mb", "wmt_mb_min", "emcr_mb_pct"),
    )
    for name, result in results.items():
        table.add_row(
            policy=name,
            avg_mb=result.average_memory_usage_mb,
            peak_mb=result.peak_memory_usage_mb,
            wmt_mb_min=result.wasted_memory_mb_minutes,
            emcr_mb_pct=100.0 * getattr(result, "emcr_mb", 0.0),
        )
    return table


def _merged_latency(outcome: SuiteResult, policies: Sequence[str]) -> Dict[str, LatencyStats]:
    """``{policy: latency pooled across seeds}`` for the policies that recorded any."""
    merged = {policy: outcome.merged_latency(policy) for policy in policies}
    return {policy: stats for policy, stats in merged.items() if stats is not None}


def _progress(message: str, echo: bool) -> None:
    if echo:
        print(f"results: {message}", file=sys.stderr, flush=True)


def generate_results(config: ResultsConfig | None = None, echo: bool = False) -> str:
    """Run the full RQ campaign and return the markdown results book.

    With ``echo=True`` a one-line progress note per section goes to stderr
    (the document itself stays deterministic).
    """
    config = config or ResultsConfig()
    scenario, scenario_params = config.scenario()
    seeds = tuple(config.seeds)
    sections: List[str] = []

    source = (
        f"real Azure 2019 dataset at `{config.azure_dir}`"
        if config.azure_dir is not None
        else "hermetic fixture pipeline (generated CSVs through the real ingestion path)"
    )
    functions_line = f"- functions: {config.n_functions}"
    if config.azure_dir is None:
        functions_line += f" (fixture population {config.population})"
    sections.append(
        "\n".join(
            [
                "# SPES reproduction — results book",
                "",
                "<!-- Generated by `spes-repro results`; do not edit by hand. -->",
                "",
                f"Workload source: {source}.",
                "",
                f"- scenario: `{scenario}`",
                functions_line,
                f"- span: {config.days:g} day(s), {config.training_days:g} training",
                f"- seeds: {', '.join(str(seed) for seed in seeds)}",
                f"- memory accounting: {config.memory_mode}",
                "",
                "Regenerate with:",
                "",
                "```sh",
                config.command_line(),
                "```",
            ]
        )
    )

    # ------------------------------------------------------------------ #
    # RQ1 + RQ2: the multi-seed policy comparison.  Its suite builds each
    # seed's workload once; RQ3/RQ4 run on it and RQ5/RQ6 derive from it.
    # ------------------------------------------------------------------ #
    _progress("RQ1/RQ2 policy suite", echo)
    suite = ExperimentSuite(
        config=config.experiment_config(seeds[0]),
        seeds=seeds,
        policies=DEFAULT_SUITE_POLICIES,
        workers=config.workers,
        cache_dir=config.cache_dir,
        scenario=scenario,
        scenario_params=scenario_params,
        spec=config.run_spec(),
    )
    outcome: SuiteResult = suite.run()

    rq1_parts = ["## RQ1 — cold-start reduction", ""]
    for seed in seeds:
        for table in rq1_coldstart.report(outcome.results[seed]):
            table.title = f"{table.title} (seed {seed})"
            rq1_parts.append(table.to_markdown())
            rq1_parts.append("")
    if len(seeds) > 1:
        rq1_parts.append(outcome.aggregate_table().to_markdown())
        rq1_parts.append("")
    sections.append("\n".join(rq1_parts).rstrip())

    rq2_parts = ["## RQ2 — wasted memory time and memory efficiency", ""]
    for seed in seeds:
        table = rq2_memory.wmt_and_emcr_table(outcome.results[seed])
        table.title = f"{table.title} (seed {seed})"
        rq2_parts.append(table.to_markdown(float_format="{:.6f}"))
        rq2_parts.append("")
        if config.memory_mode == "mb":
            rq2_parts.append(
                _measured_memory_table(outcome.results[seed], seed).to_markdown(
                    float_format="{:.2f}"
                )
            )
            rq2_parts.append("")
    rq2_parts.append(
        "_Scheduler-overhead columns are wall-clock measurements and are "
        "reported by `spes-repro sweep --rq-tables`, not in this book, so "
        "the document stays byte-reproducible._"
    )
    sections.append("\n".join(rq2_parts).rstrip())

    # ------------------------------------------------------------------ #
    # RQ3 + RQ4: SPES-variant batches on the first seed's workload, run by
    # the same suite (its seed-0 SPES cell is the variants' reference).
    # ------------------------------------------------------------------ #
    _progress("RQ3 trade-off sweeps", echo)
    rq3_parts = ["## RQ3 — memory / cold-start trade-off", ""]
    prewarm_points = prewarm_sweep(suite)
    table = sweep_table(
        prewarm_points, "theta_prewarm", f"Fig. 13a - theta_prewarm sweep (seed {seeds[0]})"
    )
    rq3_parts.append(table.to_markdown())
    slope, intercept = linear_fit(prewarm_points)
    rq3_parts += ["", f"Linear fit: `q3_csr = {slope:.4f} * memory + {intercept:.4f}`", ""]
    givenup_points = givenup_sweep(suite)
    table = sweep_table(
        givenup_points, "givenup_scale", f"Fig. 13b - theta_givenup sweep (seed {seeds[0]})"
    )
    rq3_parts.append(table.to_markdown())
    slope, intercept = linear_fit(givenup_points)
    rq3_parts += ["", f"Linear fit: `q3_csr = {slope:.4f} * memory + {intercept:.4f}`"]
    sections.append("\n".join(rq3_parts).rstrip())

    _progress("RQ4 ablations", echo)
    rq4_parts = ["## RQ4 — ablations of the complementary designs", ""]
    table = ablation_table(
        correlation_ablation(suite), f"Fig. 14 - correlation ablation (seed {seeds[0]})"
    )
    rq4_parts += [table.to_markdown(), ""]
    table = ablation_table(
        adaptivity_ablation(suite), f"Fig. 15 - adaptivity ablation (seed {seeds[0]})"
    )
    rq4_parts.append(table.to_markdown())
    sections.append("\n".join(rq4_parts).rstrip())

    # ------------------------------------------------------------------ #
    # RQ5: latency tail, feedback vs. open loop, on this workload source.
    # ------------------------------------------------------------------ #
    _progress("RQ5 latency tail (event engine)", echo)
    rq5_outcome = suite.derive(
        policies=DEFAULT_LATENCY_RQ_POLICIES, engine="event", streaming=True
    ).run()
    rq5_stats = _merged_latency(rq5_outcome, DEFAULT_LATENCY_RQ_POLICIES)
    rq5_parts = [
        "## RQ5 — cold-start latency tail (feedback vs. open loop)",
        "",
        latency_rq_table(scenario, rq5_stats).to_markdown(float_format="{:.1f}"),
        "",
        "_Streaming evaluation on the `event` engine: policies receive no "
        "training window and adapt online; those that override `on_feedback` "
        "also receive the rolling latency window._",
    ]
    sections.append("\n".join(rq5_parts).rstrip())

    # ------------------------------------------------------------------ #
    # RQ6: slowdown under finite cores, on this workload source.
    # ------------------------------------------------------------------ #
    _progress("RQ6 slowdown under finite cores (event engine)", echo)
    rq6_cells = {}
    for scheduler in DEFAULT_RQ6_SCHEDULERS:
        for cores in DEFAULT_RQ6_CORES:
            rq6_outcome = suite.derive(
                policies=DEFAULT_RQ6_POLICIES,
                engine="event",
                cores=cores,
                scheduler=scheduler,
                slo_ms=1000.0,
            ).run()
            for policy, stats in _merged_latency(rq6_outcome, DEFAULT_RQ6_POLICIES).items():
                rq6_cells[(policy, scheduler, cores)] = stats
    rq6_parts = [
        "## RQ6 — per-invocation slowdown under finite cores",
        "",
        slowdown_rq_table(scenario, rq6_cells).to_markdown(float_format="{:.2f}"),
        "",
        "_`event` engine with 2 cores per node and a 1000 ms SLO; fifo vs. "
        "srtf disciplines._",
    ]
    sections.append("\n".join(rq6_parts).rstrip())

    return "\n\n".join(sections) + "\n"


def write_results(
    path: str | Path, config: ResultsConfig | None = None, echo: bool = False
) -> Path:
    """Generate the results book and write it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_results(config, echo=echo))
    return path
