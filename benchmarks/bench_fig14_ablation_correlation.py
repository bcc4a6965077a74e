"""Fig. 14 / RQ4 -- impact of the inter-function correlation designs.

The paper removes (a) the offline "correlated" category and (b) the online
correlation of unseen functions, and shows both raise the Q3-CSR, with the
offline design contributing more because it affects more functions.
"""

from repro.experiments.rq4_ablation import ablation_table, correlation_ablation

from .conftest import save_and_print


def test_fig14_correlation_ablation(benchmark, suite, output_dir):
    results = benchmark.pedantic(correlation_ablation, args=(suite,), rounds=1, iterations=1)
    table = ablation_table(results, "Fig. 14 - correlation ablation")
    save_and_print(output_dir, "fig14_ablation_correlation", table.render())

    full = results["spes"]
    without_corr = results["w/o-corr"]
    without_online = results["w/o-online-corr"]
    # Removing the correlation designs must not improve cold starts.
    assert full.q3_cold_start_rate <= without_corr.q3_cold_start_rate + 0.05
    assert full.q3_cold_start_rate <= without_online.q3_cold_start_rate + 0.05
    # Removing them must not increase always-cold coverage either.
    assert full.always_cold_fraction <= without_corr.always_cold_fraction + 0.05
