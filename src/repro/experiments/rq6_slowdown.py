"""RQ6: how much latency do finite cores add, and which scheduler contains it?

RQ5 closed the provisioning feedback loop; this module asks the next
production question — once a warm instance no longer absorbs unlimited
concurrency, how badly do requests *slow down* while queueing for CPU, and
how much of that queueing a size-aware scheduler can claw back.  The event
engines' intra-node CPU stage (:mod:`repro.simulation.scheduling`) supplies
the measurements: per-invocation **slowdown** (sojourn over service time)
and **SLO-violation** counts against the scenario's ``slo_ms``.

The results book (:mod:`repro.experiments.results`) sweeps its scenario
once per ``(scheduler, cores)`` combination on the ``event`` engine and
pools latency across seeds with
:meth:`~repro.simulation.results.LatencyStats.merge`; this module tabulates
one row per ``(policy, scheduler, cores)``: slowdown p50/p99 plus the SLO
violation rate.  The grid pairs the convoy-prone ``fifo`` baseline against
``srtf`` (the strongest size-aware discipline); the two scenarios built for
the contrast are ``cpu-starved`` (raw contention) and ``long-duration-mix``
(bimodal service times, where fifo convoys are worst).

``spes-repro results`` renders this report as the book's RQ6 section; a
single cell of it on any scenario is ``spes-repro sweep --engine event
--scenario <name> --cores <n> --scheduler <discipline>``.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.metrics.summary import ComparisonTable
from repro.simulation import LatencyStats

__all__ = [
    "DEFAULT_RQ6_POLICIES",
    "DEFAULT_RQ6_SCHEDULERS",
    "DEFAULT_RQ6_CORES",
    "slowdown_rq_table",
]

#: A keep-alive baseline against the paper's policy: provisioning quality
#: still matters (a cold start delays the CPU arrival), but under contention
#: the scheduler column should move the numbers more than the policy column.
DEFAULT_RQ6_POLICIES = ("fixed-10min", "spes")

#: Convoy-prone baseline vs. the strongest size-aware discipline.
DEFAULT_RQ6_SCHEDULERS = ("fifo", "srtf")

#: Core counts per node to sweep.
DEFAULT_RQ6_CORES = (2,)

#: Cell keys: ``(policy, scheduler, cores)``.
CellKey = Tuple[str, str, int]


def slowdown_rq_table(
    scenario: str,
    cells: Mapping[CellKey, LatencyStats],
    title: str = "RQ6 - per-invocation slowdown under finite cores",
) -> ComparisonTable:
    """Tabulate one scenario's ``{(policy, scheduler, cores): merged LatencyStats}``.

    One row per cell: pooled slowdown p50/p99, the 99th-percentile CPU wait,
    and the SLO violation rate.
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
