"""Fig. 15 / RQ4 -- impact of the concept-shift (adaptivity) designs.

The paper removes (a) the forgetting strategy (re-categorizing on recent
history) and (b) the online adjusting of predictive values, and shows both
contribute to cold-start reduction, forgetting more so because it affects
more functions.
"""

from repro.experiments.rq4_ablation import ablation_table, adaptivity_ablation

from .conftest import save_and_print


def test_fig15_adaptivity_ablation(benchmark, suite, output_dir):
    results = benchmark.pedantic(adaptivity_ablation, args=(suite,), rounds=1, iterations=1)
    table = ablation_table(results, "Fig. 15 - adaptivity ablation")
    save_and_print(output_dir, "fig15_ablation_adaptivity", table.render())

    full = results["spes"]
    without_forgetting = results["w/o-forgetting"]
    without_adjusting = results["w/o-adjusting"]
    # The adaptive designs must not hurt: full SPES is at least as good on
    # the Q3-CSR as either ablated variant (small tolerance for noise).
    assert full.q3_cold_start_rate <= without_forgetting.q3_cold_start_rate + 0.05
    assert full.q3_cold_start_rate <= without_adjusting.q3_cold_start_rate + 0.05
