"""The paper's six policies, as a sweep runs them, against the reference loop.

A small sweep (25 functions, 2 days, 1.5 training days, seed 5) runs the
six paper policies on the default engine.  Each cell's policy is then
rebuilt from the cell itself — FaaSCache's capacity derived from the
seed's SPES result included — and stepped through the reference loop of
``tests/reference_engine.py``, which reaches every index-native policy
through its ``VectorizedPolicy.on_minute`` bridge for a whole run.  Both
runs must share one fingerprint.
"""

import pytest

from reference_engine import simulate_reference
from repro.experiments import ExperimentConfig, ExperimentSuite
from repro.experiments.parallel import PolicySpec
from repro.simulation import VectorizedPolicy

SEED = 5
PAPER_POLICIES = (
    "spes", "fixed-10min", "hybrid-function", "hybrid-application", "defuse", "faascache",
)


@pytest.fixture(scope="module")
def sweep():
    config = ExperimentConfig(
        n_functions=25, seed=SEED, duration_days=2, training_days=1.5
    )
    suite = ExperimentSuite(config=config, seeds=[SEED], policies=PAPER_POLICIES)
    return suite, suite.run().results[SEED]


@pytest.mark.parametrize("name", PAPER_POLICIES)
def test_sweep_cell_matches_the_reference_loop(sweep, name):
    suite, results = sweep
    runner = suite.parallel_runner()
    trace_key = suite.trace_key(SEED)
    if name == "spes":
        spec = PolicySpec.of("spes", config=suite.config.spes_config)
    else:
        spec = suite._baseline_specs(SEED, results["spes"])[name]
    cell = runner.cell(f"{trace_key}/{name}", spec, trace_key, base_seed=SEED)
    policy = cell.spec.build(cell.seed)
    assert isinstance(policy, VectorizedPolicy)
    split = runner.traces[trace_key]
    reference = simulate_reference(
        policy, split.simulation, split.training, spec=runner.cell_run_spec(trace_key)
    )
    assert reference.total_invocations > 0
    assert (
        reference.deterministic_fingerprint()
        == results[name].deterministic_fingerprint()
    )

