"""Quickstart: simulate SPES on a synthetic Azure-like workload.

Generates a small 14-day workload, trains SPES on the first 12 days,
simulates the final 2 days, and prints the headline metrics next to the
fixed 10-minute keep-alive baseline.

Run from a clean checkout (no install needed)::

    PYTHONPATH=src python examples/quickstart.py

or, after an editable install (``pip install -e .``), simply::

    python examples/quickstart.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # clean checkout: put <repo>/src on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import ExperimentConfig, ExperimentSuite


def main() -> None:
    # 1. Configure a workload: 120 functions, 14 days of per-minute
    #    invocations, split into the paper's 12-day training / 2-day
    #    simulation windows.  The suite generates and splits it once.
    config = ExperimentConfig(n_functions=120, seed=7)
    suite = ExperimentSuite(config, policies=("spes", "fixed-10min"))
    split = suite.traces()[suite.trace_key(config.seed)]
    invocations = split.training.total_invocations() + split.simulation.total_invocations()
    print(f"workload: {len(split.simulation)} functions, "
          f"{split.training.duration_days + split.simulation.duration_days:.0f} days, "
          f"{invocations:,} invocations")

    # 2. Simulate SPES and the fixed keep-alive baseline.  The suite runs
    #    each policy as a cell of its workload and — with
    #    ExperimentSuite(config, workers=N) — fans them out across processes.
    results = suite.run().results[config.seed]

    # 3. Compare the headline metrics.
    print(f"\n{'metric':<32}{'SPES':>12}{'fixed-10min':>14}")
    rows = [
        ("75th-percentile cold-start rate", "q3_csr"),
        ("functions with no cold start", "never_cold_fraction"),
        ("always-cold functions", "always_cold_fraction"),
        ("wasted memory time (min)", "wasted_memory_time"),
        ("average memory (instances)", "avg_memory"),
        ("effective memory consumption", "emcr"),
    ]
    spes_summary = results["spes"].summary()
    fixed_summary = results["fixed-10min"].summary()
    for label, key in rows:
        print(f"{label:<32}{spes_summary[key]:>12.3f}{fixed_summary[key]:>14.3f}")


if __name__ == "__main__":
    main()
