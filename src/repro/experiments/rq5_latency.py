"""RQ5: does closing the latency feedback loop shrink the cold-start tail?

The minute-granular RQs (1–4) count cold starts; this module asks the
production question behind the count — how long requests actually waited —
and whether a policy that *sees* those waits (it overrides ``on_feedback``
and so receives the ``event`` engine's rolling
:class:`~repro.simulation.events.LatencyWindow`) beats the open-loop ones.

The results book (:mod:`repro.experiments.results`) runs one streaming
event-engine sweep of the book's scenario and tabulates here, per policy,
the p50/p95/p99/max of the pooled cold-start-wait distribution (merged
across seeds with :meth:`~repro.simulation.results.LatencyStats.merge`, so
the percentiles are exact).  The policy set pairs the feedback consumer
(``latency-keepalive``) against its open-loop twin at the same base horizon
(``fixed-10min``): both start from identical keep-alive behaviour,
so any divergence in the table is attributable to the feedback loop alone.
Streaming evaluation (zero training window) is the regime the
continuous-drift scenarios (``rotating-periods``, ``load-ramp``,
``seasonal-mix``) are built for.

``spes-repro results`` renders this report as the book's RQ5 section; the
same sweep on any scenario is ``spes-repro sweep --engine event --streaming
--scenario <name> --policies fixed-10min latency-keepalive``.
"""

from __future__ import annotations

from typing import Mapping

from repro.metrics.summary import ComparisonTable
from repro.simulation import LatencyStats

__all__ = ["DEFAULT_LATENCY_RQ_POLICIES", "latency_rq_table"]

#: Feedback consumer vs. its open-loop twin at the same base horizon.
DEFAULT_LATENCY_RQ_POLICIES = ("fixed-10min", "latency-keepalive")


def latency_rq_table(
    scenario: str,
    per_policy: Mapping[str, LatencyStats],
    title: str = "RQ5 - cold-start latency tail, feedback vs. open loop",
) -> ComparisonTable:
    """Tabulate one scenario's ``{policy: merged LatencyStats}``: one row per policy."""
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
