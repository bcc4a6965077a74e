"""Tests for the co-occurrence study (§III-B2)."""

import numpy as np
import pytest
from cooccurrence_reference import correlated_groups_reference

from repro.analysis import cooccurrence_study
from repro.analysis.cooccurrence import correlated_groups
from repro.scenarios import build_scenario
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import TraceMetadata


def build_related_trace(duration=2000, seed=0):
    """Two related apps with co-firing functions plus unrelated noise functions."""
    rng = np.random.default_rng(seed)
    counts = {}
    records = []
    # App 1: two functions firing together.
    base = np.zeros(duration, dtype=np.int64)
    base[np.sort(rng.choice(duration, size=200, replace=False))] = 1
    counts["a1-f1"] = base
    counts["a1-f2"] = base.copy()
    records.append(FunctionRecord("a1-f1", "app1", "o1", TriggerType.QUEUE))
    records.append(FunctionRecord("a1-f2", "app1", "o1", TriggerType.QUEUE))
    # Unrelated functions with independent activity.
    for index in range(10):
        series = (rng.random(duration) < 0.05).astype(np.int64)
        fid = f"noise-{index}"
        counts[fid] = series
        records.append(FunctionRecord(fid, f"napp-{index}", f"nowner-{index}", TriggerType.HTTP))
    return Trace(records, counts, TraceMetadata(name="t", duration_minutes=duration))


class TestCooccurrenceStudy:
    def test_candidates_have_higher_cor_than_negatives(self):
        trace = build_related_trace()
        report = cooccurrence_study(trace, negative_samples_per_function=10, seed=1)
        assert report.candidate_cor > report.negative_cor
        assert report.candidate_to_negative_ratio > 2.0

    def test_same_trigger_candidates_more_correlated(self):
        trace = build_related_trace()
        report = cooccurrence_study(trace, negative_samples_per_function=10, seed=1)
        # All candidate pairs share the queue trigger in this construction.
        assert report.same_trigger_cor >= report.different_trigger_cor

    def test_pairs_counted(self):
        trace = build_related_trace()
        report = cooccurrence_study(trace, negative_samples_per_function=5, seed=1)
        assert report.pairs_evaluated >= 2

    def test_max_functions_cap(self):
        trace = build_related_trace()
        report = cooccurrence_study(trace, max_functions=3, negative_samples_per_function=5)
        assert report.pairs_evaluated >= 0

    def test_deterministic_given_seed(self):
        trace = build_related_trace()
        first = cooccurrence_study(trace, negative_samples_per_function=10, seed=7)
        second = cooccurrence_study(trace, negative_samples_per_function=10, seed=7)
        assert first.negative_cor == second.negative_cor


class TestCorrelatedGroupsMatchReference:
    """Groups from CSR rows equal the dense-series oracle's, group for group."""

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("hot-shard", dict(seed=5, n_functions=25, days=2, training_days=1.5)),
            ("azure", dict(seed=3, n_functions=60, days=3, training_days=2)),
        ],
    )
    @pytest.mark.parametrize("min_cor", [0.2, 0.5, 0.8])
    def test_seeded_scenarios(self, scenario, params, min_cor):
        training = build_scenario(scenario, **params).split.training
        groups = correlated_groups(training, min_cor=min_cor)
        assert groups, "the scenario must yield groups for the comparison to bite"
        assert groups == correlated_groups_reference(training, min_cor=min_cor)

    @pytest.mark.parametrize("min_invocations", [0, 1, 5])
    def test_related_trace_with_idle_functions(self, min_invocations):
        related = build_related_trace()
        # Two never-invoked functions in the co-firing app: empty rows.
        records = related.records() + [
            FunctionRecord(f"a1-idle{i}", "app1", "o1", TriggerType.QUEUE) for i in range(2)
        ]
        counts = {fid: related.series(fid) for fid in related.function_ids}
        trace = Trace(records, counts, related.metadata)
        for min_cor in (0.0, 0.3, 1.0):
            assert correlated_groups(
                trace, min_cor=min_cor, min_invocations=min_invocations
            ) == correlated_groups_reference(
                trace, min_cor=min_cor, min_invocations=min_invocations
            )
