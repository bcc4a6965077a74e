"""Cross-layer validation parity: one bad configuration, one message.

Before :class:`~repro.simulation.spec.RunSpec`, the simulator, the parallel
runner and the experiment suite each carried their own copy of the
cross-field rules — and the copies drifted (the suite's MB-mode message was
a shortened variant of the simulator's).  Now all three entry points build
the same spec, so they must reject the same invalid configuration with the
*identical* ``ValueError`` message.  This suite pins that parity.
"""

from __future__ import annotations

import pytest

from pin_workload import pin_split
from repro.experiments import ExperimentConfig, ExperimentSuite, ParallelRunner
from repro.simulation import ClusterModel, RunSpec, Simulator

#: Invalid run-shape keyword sets every entry point accepts verbatim.
BAD_CONFIGS = {
    "unknown-engine": dict(engine="quantum"),
    "unknown-memory-mode": dict(memory_mode="gb"),
    "negative-shards": dict(shards=-1),
}


def _raised_message(exercise) -> str:
    with pytest.raises(ValueError) as excinfo:
        exercise()
    return str(excinfo.value)


@pytest.mark.parametrize("kwargs", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_all_layers_raise_the_identical_message(kwargs):
    split = pin_split()
    spec_message = _raised_message(lambda: RunSpec.build(**kwargs))
    simulator_message = _raised_message(
        lambda: Simulator(
            simulation_trace=split.simulation,
            training_trace=split.training,
            **kwargs,
        )
    )
    runner_message = _raised_message(lambda: ParallelRunner({"t": split}, **kwargs))
    suite_message = _raised_message(
        lambda: ExperimentSuite(config=ExperimentConfig(n_functions=4), **kwargs)
    )
    assert simulator_message == spec_message
    assert runner_message == spec_message
    assert suite_message == spec_message


def test_mb_cluster_on_unit_accounting_raises_the_identical_message():
    # A cross-field rule: the cluster reaches the simulator as a keyword and
    # the runner as a per-trace model folded into each cell's spec.
    split = pin_split()
    cluster = ClusterModel(memory_capacity=4096, n_nodes=2, capacity_unit="mb")
    spec_message = _raised_message(lambda: RunSpec.build(cluster=cluster))
    simulator_message = _raised_message(
        lambda: Simulator(
            simulation_trace=split.simulation,
            training_trace=split.training,
            cluster=cluster,
        )
    )
    runner = ParallelRunner({"t": split}, clusters={"t": cluster})
    runner_message = _raised_message(lambda: runner.cell_run_spec("t"))
    assert spec_message.startswith("an MB-denominated ClusterModel requires")
    assert simulator_message == spec_message
    assert runner_message == spec_message


@pytest.mark.parametrize(
    "build",
    [
        lambda split, spec: Simulator(
            simulation_trace=split.simulation,
            training_trace=split.training,
            spec=spec,
            engine="event",
        ),
        lambda split, spec: ParallelRunner({"t": split}, spec=spec, engine="event"),
        lambda split, spec: ExperimentSuite(
            config=ExperimentConfig(n_functions=4), spec=spec, engine="event"
        ),
    ],
    ids=["simulator", "runner", "suite"],
)
def test_spec_conflicts_with_individual_knobs_everywhere(build):
    split = pin_split()
    with pytest.raises(ValueError, match="either spec= or the individual run knobs"):
        build(split, RunSpec())
