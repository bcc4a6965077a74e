"""RQ3: trading off memory against cold-start latency (Fig. 13).

Two knobs control the trade-off: ``theta_prewarm`` (how early a predicted
invocation justifies pre-loading) and the ``theta_givenup`` scaling (how long
an idle instance is tolerated).  Each sweep point reports memory usage
normalized to the default configuration and the resulting Q3-CSR, which the
paper shows to be approximately linearly related.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.experiments.suite import ExperimentSuite
from repro.metrics.summary import ComparisonTable


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a trade-off sweep."""

    parameter: float
    normalized_memory: float
    q3_csr: float
    wasted_memory_time: int


def _sweep_points(
    suite: ExperimentSuite, variants: "dict[str, tuple[float, object]]"
) -> List[TradeoffPoint]:
    """Simulate ``{key: (parameter, config)}`` as one batch and build points.

    The batch goes through :meth:`ExperimentSuite.run_spes_variants`
    together with the base configuration, whose result is the memory
    reference; a suite with ``workers > 1`` simulates every sweep point
    concurrently.
    """
    results = suite.run_spes_variants(
        {"spes": suite.config.spes_config}
        | {key: config for key, (_, config) in variants.items()}
    )
    reference_memory = results["spes"].average_memory_usage or 1.0
    return [
        TradeoffPoint(
            parameter=float(parameter),
            normalized_memory=results[key].average_memory_usage / reference_memory,
            q3_csr=results[key].q3_cold_start_rate,
            wasted_memory_time=results[key].total_wasted_memory_time,
        )
        for key, (parameter, _) in variants.items()
    ]


def prewarm_sweep(
    suite: ExperimentSuite,
    values: Sequence[int] = (1, 2, 3, 5, 10),
) -> List[TradeoffPoint]:
    """Sweep ``theta_prewarm`` (Fig. 13a)."""
    return _sweep_points(
        suite,
        {
            f"spes-prewarm-{value}": (
                float(value),
                suite.config.spes_config.replace(theta_prewarm=int(value)),
            )
            for value in values
        },
    )


def givenup_sweep(
    suite: ExperimentSuite,
    scales: Sequence[int] = (1, 2, 3, 4, 5),
) -> List[TradeoffPoint]:
    """Sweep the ``theta_givenup`` multiplier (Fig. 13b)."""
    return _sweep_points(
        suite,
        {
            f"spes-givenup-x{scale}": (
                float(scale),
                suite.config.spes_config.scaled_givenup(int(scale)),
            )
            for scale in scales
        },
    )


def linear_fit(points: Sequence[TradeoffPoint]) -> tuple[float, float]:
    """Least-squares fit ``q3_csr = slope * normalized_memory + intercept``.

    The paper reports such fits (e.g. ``y = -0.1845x + 0.3163`` for the
    pre-warm sweep) to argue the trade-off is approximately linear.
    """
    if len(points) < 2:
        raise ValueError("at least two sweep points are required for a fit")
    x = np.array([point.normalized_memory for point in points])
    y = np.array([point.q3_csr for point in points])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def sweep_table(points: Sequence[TradeoffPoint], parameter_name: str, title: str) -> ComparisonTable:
    """Render a sweep as a table (one row per parameter value)."""
    table = ComparisonTable(
        title=title,
        columns=(parameter_name, "normalized_memory", "q3_csr", "wasted_memory_time"),
    )
    for point in points:
        table.add_row(
            **{
                parameter_name: point.parameter,
                "normalized_memory": point.normalized_memory,
                "q3_csr": point.q3_csr,
                "wasted_memory_time": float(point.wasted_memory_time),
            }
        )
    return table
