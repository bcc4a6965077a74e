"""Tests of the end-to-end benchmark, with every workload at a reduced size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import compare
import harness
import oracle
import tracing
import workloads
from repro.scenarios import build_scenario
from repro.simulation.spec import ENGINE_VERSION
from repro.traces.schema import MINUTES_PER_DAY

SMALL = {
    "paper-sweep": dict(functions=12, days=2.0, training_days=1.0, warmup_minutes=60),
    "event-cpu": dict(functions=20, days=2.0, training_days=1.0, warmup_minutes=60),
    "azure-scale": dict(functions=500, days=2, training_days=1.0),
    "results-book": dict(
        n_functions=8, population=16, days=2.0, training_days=1.0, seeds=(2024,)
    ),
}


def small(name: str) -> workloads.Workload:
    return workloads.WORKLOADS[name](**SMALL[name])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced measurement (an untraced and a traced rep) per workload."""
    return {
        name: harness.measure(small(name), 2024, 0.0, True, tmp_path_factory.mktemp(name), {})
        for name in SMALL
    }


@pytest.fixture(scope="module")
def event_cells():
    workload = small("event-cpu")
    built = workload.build(workload.draw(2024), None)
    return workload, workload.campaign(built, None, pool=False)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_emitted_metrics_are_exactly_the_declared_ones(name, traced_runs, tmp_path):
    untraced = harness.measure(small(name), 2024, 0.0, False, tmp_path, {})
    assert untraced.failures == [] and traced_runs[name].failures == []
    assert set(untraced.metrics) == set(harness.declared_metrics(trace=False))
    assert set(traced_runs[name].metrics) == set(harness.declared_metrics(trace=True))


def test_every_per_layer_metric_names_what_it_should_move():
    spec = harness.benchmark_spec()
    layers = json.loads((workloads.REPO_ROOT / "benchmarks/e2e/layers.json").read_text())
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(harness.declared_metrics(trace=True))
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    for layer in layers.values():
        for move in layer["moves"]:
            assert move["metric"] in end_to_end
            assert set(move["workloads"]) <= set(workloads.WORKLOADS)


def test_span_self_times_sum_to_their_root(traced_runs):
    for run in traced_runs.values():
        spans = run.spans
        own = tracing.self_times(spans)
        root_of = []
        for index, span in enumerate(spans):  # parents precede their children
            root_of.append(index if span.parent < 0 else root_of[span.parent])
        roots = [index for index, span in enumerate(spans) if span.parent < 0]
        assert roots and all(spans[index].name == tracing.ROOT for index in roots)
        for root in roots:
            total = sum(seconds for seconds, top in zip(own, root_of) if top == root)
            assert total == pytest.approx(spans[root].end - spans[root].start, abs=1e-9)


def test_clean_cells_pass_the_oracle(event_cells):
    workload, outcome = event_cells
    assert workload.check(outcome, 2024, {}) == (3, [])


def _add_wmt(result):
    result.total_wasted_memory_time += 1


def _drop_scheduled_event(result):
    result.latency.cpu_scheduled_events -= 1


def _overfill_node(result):
    shift = result.cluster.node_capacity + 1
    result.cluster.node_usage[:, 0] += shift  # node sums are unchanged
    result.cluster.node_usage[:, 1] -= shift


@pytest.mark.parametrize("corrupt", [_add_wmt, _drop_scheduled_event, _overfill_node])
def test_a_corrupted_result_counts_as_failed(event_cells, corrupt):
    workload, outcome = event_cells
    cell = copy.deepcopy(outcome.cells["fixed-10min"])
    corrupt(cell.result)
    attempted, failures = workload.check(workloads.Outcome({"fixed-10min": cell}), 2024, {})
    assert attempted == 1 and failures


def test_a_wrong_pin_counts_as_failed(event_cells):
    workload, outcome = event_cells
    cells = {name: oracle.cell_pin(cell.result) for name, cell in outcome.cells.items()}
    pins = {"engine_version": ENGINE_VERSION, "workloads": {"event-cpu": {"2024": cells}}}
    assert workload.check(outcome, 2024, pins) == (3, [])
    cells["always-warm"]["cold_start_events"] += 1
    attempted, failures = workload.check(outcome, 2024, pins)
    assert attempted == 3 and len(failures) == 1 and failures[0].startswith("always-warm")
    assert workload.check(outcome, 7, pins) == (3, [])  # other seeds: invariants only


def test_a_failed_cell_reaches_the_result_line(tmp_path):
    pins = {
        "engine_version": ENGINE_VERSION,
        "workloads": {"paper-sweep": {"2024": {"spes": {"fingerprint": "0" * 64}}}},
    }
    measurement = harness.measure(small("paper-sweep"), 2024, 0.0, False, tmp_path, pins)
    assert measurement.attempted == 6 and len(measurement.failures) == 1


def test_committed_pins_cover_both_seeds_of_every_simulated_workload():
    pins = oracle.load_pins()
    assert pins["engine_version"] == ENGINE_VERSION
    for name in ("paper-sweep", "event-cpu", "azure-scale"):
        recipe = workloads.WORKLOADS[name]
        policies = recipe.policies
        for seed in ("2024", "7"):
            assert sorted(pins["workloads"][name][seed]) == sorted(policies), (name, seed)


def by_minute_of_day(trace, fid):
    return np.sort(trace.series(fid).reshape(-1, MINUTES_PER_DAY), axis=0)


def test_seeds_move_traffic_but_keep_the_population_and_its_cluster():
    sizes = dict(n_functions=40, days=4.0, training_days=2.0)
    name = workloads.seeded("capacity-squeeze")
    first, second = (build_scenario(name, seed=seed, **sizes) for seed in (1, 2))
    blueprint = build_scenario("capacity-squeeze", seed=workloads.BLUEPRINT_SEED, **sizes)
    assert first.cluster == second.cluster == blueprint.cluster
    assert first.events.seed == 1
    moved = False
    for window in ("training", "simulation"):
        base = getattr(blueprint.split, window)
        ours, other = getattr(first.split, window), getattr(second.split, window)
        assert ours.records() == base.records()
        for fid in base.function_ids:
            # A whole-day rotation keeps each minute of the day's counts.
            assert np.array_equal(by_minute_of_day(ours, fid), by_minute_of_day(base, fid))
            moved |= not np.array_equal(ours.series(fid), other.series(fid))
    assert moved


def test_compare_verdicts():
    base = [10.0 + 0.01 * i for i in range(10)]

    def verdict(new, better="lower", base=base):
        return compare.verdict(base, new, better, 0.1)["verdict"]

    assert verdict([0.8 * v for v in base]) == "better"
    assert verdict(list(base)) == "same"
    assert verdict([1.3 * v for v in base]) == "worse"
    assert verdict([1.3 * v for v in base], better="higher") == "better"
    assert verdict([0.8 * v for v in base[:5]], base=base[:5]) == "same"  # < 10 pairs
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 8.0, 11.0, 6.0, 13.0]
    assert verdict([1.05 * v for v in noisy], base=noisy) == "unresolved"
    assert verdict([v + 20.0 for v in noisy], base=noisy) == "worse"  # every run worse


def test_compare_command_reports_new_failures(tmp_path, capsys):
    def run_set(failed):
        record = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "failed": failed}
        return {"sets": {"A": {"paper-sweep": [record] * 5}}}

    (tmp_path / "base.json").write_text(json.dumps(run_set(0)))
    (tmp_path / "new.json").write_text(json.dumps(run_set(1)))
    same = compare.main([str(tmp_path / "base.json"), str(tmp_path / "base.json:A")])
    assert same == 0
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "new.json")]) == 1
    assert "failed" in capsys.readouterr().out
