"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation.
The underlying simulations are expensive, so they run once per benchmark
session in the fixtures below; the timed portion of each benchmark is the
derivation of the reported rows/series from the cached simulation results.
Each benchmark also writes its table to ``benchmarks/output/`` so the numbers
can be inspected after the run (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import SpesPolicy
from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.simulation import simulate_policy
from repro.traces import AzureTraceGenerator

#: Workload used by every benchmark: 14 days, 12-day training window, a few
#: hundred functions so the whole suite completes in minutes on a laptop.
BENCHMARK_CONFIG = ExperimentConfig(
    n_functions=250,
    seed=2024,
    duration_days=14.0,
    training_days=12.0,
    warmup_minutes=1440,
)

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    """The shared experiment suite (workload generated lazily)."""
    return ExperimentSuite(BENCHMARK_CONFIG)


@pytest.fixture(scope="session")
def split(suite):
    """Training / simulation split of the benchmark workload."""
    return suite.traces()[suite.trace_key(BENCHMARK_CONFIG.seed)]


@pytest.fixture(scope="session")
def trace():
    """The full 14-day synthetic workload."""
    return AzureTraceGenerator(BENCHMARK_CONFIG.generator_profile()).generate()


@pytest.fixture(scope="session")
def all_results(suite):
    """Simulation results of SPES and every baseline (computed once)."""
    return suite.run().results[BENCHMARK_CONFIG.seed]


@pytest.fixture(scope="session")
def spes_policy(split):
    """A SPES policy prepared by a full run over the benchmark workload."""
    policy = SpesPolicy(BENCHMARK_CONFIG.spes_config)
    simulate_policy(
        policy, split.simulation, split.training, warmup_minutes=BENCHMARK_CONFIG.warmup_minutes
    )
    return policy


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory collecting the rendered tables."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def save_and_print(output_dir: Path, name: str, text: str) -> None:
    """Print a rendered table and persist it under ``benchmarks/output``."""
    print()
    print(text)
    (output_dir / f"{name}.txt").write_text(text + "\n")
