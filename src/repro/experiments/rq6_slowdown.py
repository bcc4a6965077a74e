"""RQ6: how much latency do finite cores add, and which scheduler contains it?

RQ5 closed the provisioning feedback loop; this module asks the next
production question — once a warm instance no longer absorbs unlimited
concurrency, how badly do requests *slow down* while queueing for CPU, and
how much of that queueing a size-aware scheduler can claw back.  The event
engines' intra-node CPU stage (:mod:`repro.simulation.scheduling`) supplies
the measurements: per-invocation **slowdown** (sojourn over service time)
and **SLO-violation** counts against the scenario's ``slo_ms``.

The report sweeps each scenario once per ``(scheduler, cores)`` combination
on the ``event`` engine and pools latency across seeds with
:meth:`~repro.simulation.results.LatencyStats.merge`, producing one row per
``(scenario, policy, scheduler, cores)``: slowdown p50/p99 plus the SLO
violation rate.  The default grid pairs the convoy-prone ``fifo`` baseline
against ``srtf`` (the strongest size-aware discipline) on the two scenarios
built for the contrast — ``cpu-starved`` (raw contention) and
``long-duration-mix`` (bimodal service times, where fifo convoys are worst).

``spes-repro results`` renders this report as the book's RQ6 section; a
single cell of it is ``spes-repro sweep --engine event --scenario <name>
--cores <n> --scheduler <discipline>``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

from repro.experiments.suite import ExperimentConfig, ExperimentSuite
from repro.metrics.summary import ComparisonTable
from repro.simulation import LatencyStats

__all__ = [
    "DEFAULT_RQ6_SCENARIOS",
    "DEFAULT_RQ6_POLICIES",
    "DEFAULT_RQ6_SCHEDULERS",
    "DEFAULT_RQ6_CORES",
    "slowdown_rq",
    "slowdown_rq_table",
]

#: The contention catalog: raw CPU starvation and the bimodal convoy shape.
DEFAULT_RQ6_SCENARIOS = ("cpu-starved", "long-duration-mix")

#: A keep-alive baseline against the paper's policy: provisioning quality
#: still matters (a cold start delays the CPU arrival), but under contention
#: the scheduler column should move the numbers more than the policy column.
DEFAULT_RQ6_POLICIES = ("fixed-10min", "spes")

#: Convoy-prone baseline vs. the strongest size-aware discipline.
DEFAULT_RQ6_SCHEDULERS = ("fifo", "srtf")

#: Core counts per node to sweep.
DEFAULT_RQ6_CORES = (2,)

#: Report keys: ``(policy, scheduler, cores)``.
CellKey = Tuple[str, str, int]


def slowdown_rq(
    scenarios: Sequence[str] = DEFAULT_RQ6_SCENARIOS,
    policies: Sequence[str] = DEFAULT_RQ6_POLICIES,
    schedulers: Sequence[str] = DEFAULT_RQ6_SCHEDULERS,
    cores: Sequence[int] = DEFAULT_RQ6_CORES,
    seeds: Sequence[int] = (2024,),
    config: ExperimentConfig | None = None,
    slo_ms: float | None = None,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    scenario_params: Mapping[str, object] | None = None,
) -> Dict[str, Dict[CellKey, LatencyStats]]:
    """Run the per-scenario CPU-contention sweeps and pool across seeds.

    Returns ``{scenario: {(policy, scheduler, cores): merged LatencyStats}}``.
    Every sweep runs on the ``event`` engine with the suite-level
    ``cores``/``scheduler`` override, so the grid applies uniformly even to
    scenarios that prescribe their own CPU config; ``slo_ms=None`` keeps
    each scenario's own SLO.
    """
    config = config or ExperimentConfig()
    report: Dict[str, Dict[CellKey, LatencyStats]] = {}
    for scenario in scenarios:
        merged: Dict[CellKey, LatencyStats] = {}
        for scheduler in schedulers:
            for core_count in cores:
                suite = ExperimentSuite(
                    config=config,
                    seeds=seeds,
                    policies=policies,
                    workers=workers,
                    cache_dir=cache_dir,
                    scenario=scenario,
                    scenario_params=scenario_params,
                    engine="event",
                    cores=int(core_count),
                    scheduler=scheduler,
                    slo_ms=slo_ms,
                )
                outcome = suite.run()
                for policy in policies:
                    stats = outcome.merged_latency(policy)
                    if stats is not None:
                        merged[(policy, scheduler, int(core_count))] = stats
        report[scenario] = merged
    return report


def slowdown_rq_table(
    report: Mapping[str, Mapping[CellKey, LatencyStats]],
    title: str = "RQ6 - per-invocation slowdown under finite cores",
) -> ComparisonTable:
    """Tabulate a :func:`slowdown_rq` report.

    One row per ``(scenario, policy, scheduler, cores)``: pooled slowdown
    p50/p99, the 99th-percentile CPU wait, and the SLO violation rate.
    """
    table = ComparisonTable(
        title=title,
        columns=(
            "scenario",
            "policy",
            "scheduler",
            "cores",
            "events",
            "slowdown_p50",
            "slowdown_p99",
            "cpu_wait_p99_ms",
            "slo_viol_pct",
        ),
    )
    for scenario, cells in report.items():
        for (policy, scheduler, core_count), stats in cells.items():
            table.add_row(
                scenario=scenario,
                policy=policy,
                scheduler=scheduler,
                cores=float(core_count),
                events=float(stats.cpu_scheduled_events),
                slowdown_p50=stats.slowdown_p50,
                slowdown_p99=stats.slowdown_p99,
                cpu_wait_p99_ms=stats.cpu_wait_p99_ms,
                slo_viol_pct=100.0 * stats.slo_violation_rate,
            )
    return table
