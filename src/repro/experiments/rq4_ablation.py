"""RQ4: impact of SPES's complementary designs (Figs. 14 and 15).

* Fig. 14 ablates the inter-function correlation designs: ``w/o Corr``
  removes the offline "correlated" category, ``w/o Online-Corr`` removes the
  online correlation of unseen functions.
* Fig. 15 ablates the concept-shift designs: ``w/o Forgetting`` removes the
  recency-based re-categorization, ``w/o Adjusting`` removes the online
  predictive-value updates.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.suite import ExperimentSuite
from repro.metrics.summary import ComparisonTable
from repro.simulation.results import SimulationResult


def correlation_ablation(suite: ExperimentSuite) -> Dict[str, SimulationResult]:
    """Run SPES with the correlation designs disabled (Fig. 14).

    The full-SPES reference and the two ablated variants are simulated as
    one batch through :meth:`ExperimentSuite.run_spes_variants`, so a
    parallel suite executes them concurrently, and a suite that already ran
    its ``spes`` cell reuses that result as the reference.
    """
    base_config = suite.config.spes_config
    return suite.run_spes_variants(
        {
            "spes": base_config,
            "w/o-corr": base_config.replace(enable_correlation=False),
            "w/o-online-corr": base_config.replace(enable_online_correlation=False),
        }
    )


def adaptivity_ablation(suite: ExperimentSuite) -> Dict[str, SimulationResult]:
    """Run SPES with the concept-shift designs disabled (Fig. 15).

    Batched like :func:`correlation_ablation`.
    """
    base_config = suite.config.spes_config
    return suite.run_spes_variants(
        {
            "spes": base_config,
            "w/o-forgetting": base_config.replace(enable_forgetting=False),
            "w/o-adjusting": base_config.replace(enable_adjusting=False),
        }
    )


def ablation_table(results: Dict[str, SimulationResult], title: str) -> ComparisonTable:
    """Render an ablation as the paper does: Q3-CSR, normalized memory and WMT."""
    reference = results.get("spes")
    reference_memory = reference.average_memory_usage if reference else 1.0
    reference_wmt = reference.total_wasted_memory_time if reference else 1
    table = ComparisonTable(
        title=title,
        columns=("variant", "q3_csr", "normalized_memory", "normalized_wmt"),
    )
    for name, result in results.items():
        table.add_row(
            variant=name,
            q3_csr=result.q3_cold_start_rate,
            normalized_memory=result.average_memory_usage / max(reference_memory, 1e-9),
            normalized_wmt=result.total_wasted_memory_time / max(reference_wmt, 1),
        )
    return table
