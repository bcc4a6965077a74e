"""Fig. 13 / RQ3 -- trading memory for cold-start latency.

The paper sweeps ``theta_prewarm`` (1, 2, 3, 5, 10) and a multiplier on
``theta_givenup`` (1-5) and shows an approximately linear relationship
between normalized memory usage and Q3-CSR, with larger give-up thresholds
yielding diminishing returns.
"""

from repro.experiments.rq3_tradeoff import givenup_sweep, linear_fit, prewarm_sweep, sweep_table

from .conftest import save_and_print


def test_fig13a_prewarm_sweep(benchmark, suite, output_dir):
    points = benchmark.pedantic(
        prewarm_sweep, args=(suite,), kwargs={"values": (1, 2, 3, 5, 10)}, rounds=1, iterations=1
    )
    slope, intercept = linear_fit(points)
    table = sweep_table(points, "theta_prewarm", "Fig. 13a - theta_prewarm sweep")
    text = table.render() + f"\nlinear fit: q3_csr = {slope:.4f} * memory + {intercept:.4f}"
    save_and_print(output_dir, "fig13a_prewarm_sweep", text)

    # Larger pre-warm windows must not use less memory, and the fitted slope
    # must be negative (more memory buys fewer cold starts), as in the paper.
    assert points[-1].normalized_memory >= points[0].normalized_memory * 0.99
    assert slope < 0


def test_fig13b_givenup_sweep(benchmark, suite, output_dir):
    points = benchmark.pedantic(
        givenup_sweep, args=(suite,), kwargs={"scales": (1, 2, 3, 4, 5)}, rounds=1, iterations=1
    )
    slope, intercept = linear_fit(points)
    table = sweep_table(points, "givenup_scale", "Fig. 13b - theta_givenup sweep")
    text = table.render() + f"\nlinear fit: q3_csr = {slope:.4f} * memory + {intercept:.4f}"
    save_and_print(output_dir, "fig13b_givenup_sweep", text)

    # Memory grows with the give-up threshold while the Q3-CSR does not get
    # worse: keeping idle functions longer trades memory for cold starts.
    assert points[-1].normalized_memory >= points[0].normalized_memory
    assert points[-1].q3_csr <= points[0].q3_csr + 0.02
