"""RQ2 -- scheduler decision overhead.

The paper measures the extra latency each scheduler adds per simulated
minute: the fixed keep-alive policy is cheapest (0.024 s/min on their
machine), SPES adds 0.44 s/min, below FaaSCache.  Absolute numbers depend on
the machine and workload size; the bench reports the same comparison and
additionally times one SPES decision step directly.
"""

from repro.core import SpesPolicy
from repro.experiments import rq2_memory
from repro.simulation import Simulator

from .conftest import BENCHMARK_CONFIG, save_and_print


def test_rq2_overhead_table(benchmark, all_results, output_dir):
    table = benchmark(rq2_memory.overhead_comparison, all_results)
    save_and_print(output_dir, "rq2_overhead", table.render(float_format="{:.6f}"))
    for result in all_results.values():
        assert result.overhead_per_minute >= 0.0


def test_rq2_spes_decision_throughput(benchmark, split):
    """Time a full SPES simulation minute-loop over the 2-day window."""

    def run_spes_once():
        simulator = Simulator(
            simulation_trace=split.simulation,
            training_trace=split.training,
            warmup_minutes=0,
        )
        return simulator.run(SpesPolicy(BENCHMARK_CONFIG.spes_config))

    result = benchmark.pedantic(run_spes_once, rounds=1, iterations=1)
    assert result.total_invocations > 0
