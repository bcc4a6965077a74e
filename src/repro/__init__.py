"""SPES reproduction: differentiated serverless function provisioning.

This library reproduces *SPES: Towards Optimizing Performance-Resource
Trade-Off for Serverless Functions* (ICDE 2024): a rule-based scheduler that
categorizes serverless functions by their invocation patterns and pre-loads /
evicts instances to minimize both cold starts and wasted memory.

Quick start
-----------
>>> from repro import AzureTraceGenerator, GeneratorProfile, SpesPolicy
>>> from repro import simulate_policy, split_trace
>>> trace = AzureTraceGenerator(GeneratorProfile.small(seed=1)).generate()
>>> split = split_trace(trace, training_days=2.0)
>>> result = simulate_policy(SpesPolicy(), split.simulation, split.training)
>>> round(result.overall_cold_start_rate, 4) <= 1.0
True
"""

from repro.core import SpesConfig, SpesPolicy
from repro.core.categories import FunctionCategory
from repro.simulation import SimulationResult, Simulator, simulate_policy
from repro.traces import (
    AzureTraceGenerator,
    FunctionRecord,
    GeneratorProfile,
    Trace,
    TriggerType,
    split_trace,
)
from repro.experiments import ExperimentConfig, ExperimentSuite

__version__ = "1.0.0"

__all__ = [
    "SpesConfig",
    "SpesPolicy",
    "FunctionCategory",
    "Simulator",
    "SimulationResult",
    "simulate_policy",
    "Trace",
    "TriggerType",
    "FunctionRecord",
    "AzureTraceGenerator",
    "GeneratorProfile",
    "split_trace",
    "ExperimentConfig",
    "ExperimentSuite",
    "__version__",
]
