"""RQ5: does closing the latency feedback loop shrink the cold-start tail?

The minute-granular RQs (1–4) count cold starts; this module asks the
production question behind the count — how long requests actually waited —
and whether a policy that *sees* those waits (it overrides ``on_feedback``
and so receives the ``event`` engine's rolling
:class:`~repro.simulation.events.LatencyWindow`) beats the open-loop ones.

The report runs one streaming event-engine sweep per continuous-drift
scenario and tabulates, per ``(scenario, policy)``, the p50/p95/p99/max of
the pooled cold-start-wait distribution (merged across seeds with
:meth:`~repro.simulation.results.LatencyStats.merge`, so the percentiles are
exact).  The default policy set pairs the feedback consumer
(``latency-keepalive``) against its open-loop twin at the same base horizon
(``fixed-10min``): both start from identical keep-alive behaviour,
so any divergence in the table is attributable to the feedback loop alone.

``spes-repro results`` renders this report as the book's RQ5 section; a
single cell of it is ``spes-repro sweep --engine event --streaming
--scenario <name> --policies fixed-10min latency-keepalive``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Sequence

from repro.experiments.suite import ExperimentConfig, ExperimentSuite
from repro.metrics.summary import ComparisonTable
from repro.simulation import LatencyStats

__all__ = [
    "DEFAULT_LATENCY_RQ_SCENARIOS",
    "DEFAULT_LATENCY_RQ_POLICIES",
    "latency_rq",
    "latency_rq_table",
]

#: The continuous-drift catalog: the shapes the feedback loop exists for.
DEFAULT_LATENCY_RQ_SCENARIOS = ("rotating-periods", "load-ramp", "seasonal-mix")

#: Feedback consumer vs. its open-loop twin at the same base horizon.
DEFAULT_LATENCY_RQ_POLICIES = ("fixed-10min", "latency-keepalive")


def latency_rq(
    scenarios: Sequence[str] = DEFAULT_LATENCY_RQ_SCENARIOS,
    policies: Sequence[str] = DEFAULT_LATENCY_RQ_POLICIES,
    seeds: Sequence[int] = (2024,),
    config: ExperimentConfig | None = None,
    streaming: bool = True,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    scenario_params: Mapping[str, object] | None = None,
) -> Dict[str, Dict[str, LatencyStats]]:
    """Run the per-scenario feedback sweeps and pool latency across seeds.

    Returns ``{scenario: {policy: merged LatencyStats}}``.  Every sweep runs
    on the ``event`` engine; with ``streaming=True`` (default)
    policies additionally receive zero training window, the evaluation
    regime the continuous-drift scenarios are built for.
    """
    config = config or ExperimentConfig()
    report: Dict[str, Dict[str, LatencyStats]] = {}
    for scenario in scenarios:
        suite = ExperimentSuite(
            config=config,
            seeds=seeds,
            policies=policies,
            workers=workers,
            cache_dir=cache_dir,
            scenario=scenario,
            scenario_params=scenario_params,
            engine="event",
            streaming=streaming,
        )
        outcome = suite.run()
        merged: Dict[str, LatencyStats] = {}
        for policy in policies:
            stats = outcome.merged_latency(policy)
            if stats is not None:
                merged[policy] = stats
        report[scenario] = merged
    return report


def latency_rq_table(
    report: Mapping[str, Mapping[str, LatencyStats]],
    title: str = "RQ5 - cold-start latency tail, feedback vs. open loop",
) -> ComparisonTable:
    """Tabulate a :func:`latency_rq` report: one row per (scenario, policy)."""
    table = ComparisonTable(
        title=title,
        columns=(
            "scenario",
            "policy",
            "cold_events",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
        ),
    )
    for scenario, per_policy in report.items():
        for policy, stats in per_policy.items():
            table.add_row(
                scenario=scenario,
                policy=policy,
                cold_events=float(stats.cold_start_events + stats.delayed_events),
                p50_ms=stats.p50_ms,
                p95_ms=stats.p95_ms,
                p99_ms=stats.p99_ms,
                max_ms=stats.max_ms,
            )
    return table
