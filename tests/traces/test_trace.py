"""Tests for the Trace container and train/simulation splitting."""

import numpy as np
import pytest

from reference_engine import invocations_at, iter_minutes
from repro.traces import FunctionRecord, Trace, TriggerType, split_trace
from repro.traces.schema import MINUTES_PER_DAY, TraceMetadata


def make_trace(counts, records=None, name="test"):
    if records is None:
        records = [
            FunctionRecord(function_id=fid, app_id=f"app-{fid}", owner_id=f"owner-{fid}")
            for fid in counts
        ]
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


class TestTraceConstruction:
    def test_basic_properties(self, tiny_trace):
        assert len(tiny_trace) == 3
        assert tiny_trace.duration_minutes == 20
        assert set(tiny_trace.function_ids) == {"periodic", "chained", "rare"}

    def test_duplicate_function_ids_rejected(self):
        records = [
            FunctionRecord("f", "a", "o"),
            FunctionRecord("f", "a2", "o2"),
        ]
        with pytest.raises(ValueError):
            Trace(records, {"f": [0, 1]})

    def test_counts_for_unknown_function_rejected(self):
        records = [FunctionRecord("f", "a", "o")]
        with pytest.raises(KeyError):
            Trace(records, {"f": [0, 1], "ghost": [1, 0]})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            make_trace({"f": [1, -1, 0]})

    def test_mismatched_lengths_rejected(self):
        records = [FunctionRecord("a", "x", "y"), FunctionRecord("b", "x", "y")]
        with pytest.raises(ValueError):
            Trace(records, {"a": [1, 0], "b": [1, 0, 0]})

    def test_missing_series_filled_with_zeros(self):
        records = [FunctionRecord("a", "x", "y"), FunctionRecord("b", "x", "y")]
        trace = Trace(records, {"a": [1, 0, 2]})
        assert trace.total_invocations("b") == 0
        assert trace.series("b").shape == (3,)

    def test_series_is_read_only(self, tiny_trace):
        series = tiny_trace.series("periodic")
        with pytest.raises(ValueError):
            series[0] = 99

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([], {})


class TestTraceAccess:
    def test_total_invocations(self, tiny_trace):
        assert tiny_trace.total_invocations("periodic") == 4
        assert tiny_trace.total_invocations() == 4 + 4 + 1

    def test_invocations_at(self, tiny_trace):
        assert invocations_at(tiny_trace, 0) == {"periodic": 1}
        assert invocations_at(tiny_trace, 2) == {"chained": 1}
        assert invocations_at(tiny_trace, 1) == {}

    def test_invocations_at_out_of_range(self, tiny_trace):
        with pytest.raises(IndexError):
            invocations_at(tiny_trace, 20)

    def test_iter_minutes_covers_all_invocations(self, tiny_trace):
        total = sum(
            sum(invocations.values()) for _, invocations in iter_minutes(tiny_trace)
        )
        assert total == tiny_trace.total_invocations()

    @pytest.mark.parametrize("layout", ["records", "reversed", "rotated", "partial"])
    def test_series_minutes_match_the_invocation_index(self, layout):
        # The reference loop builds dense minutes from the series, not the
        # index; both must give every minute's functions in one order.
        series = {"f0": [1, 0, 2, 1], "f1": [0, 3, 1, 0], "f2": [4, 0, 1, 1]}
        records = [FunctionRecord(fid, "a", "o") for fid in series]
        if layout == "reversed":
            series = dict(reversed(list(series.items())))
        elif layout == "rotated":
            series = {fid: series[fid] for fid in ("f2", "f0", "f1")}
        elif layout == "partial":
            del series["f1"]
        trace = make_trace(series, records=records)
        index = trace.invocation_index().minute_invocations()
        assert [list(invocations.items()) for _, invocations in iter_minutes(trace)] == [
            list(mapping.items()) for mapping in index
        ]

    def test_iter_minutes_range(self, tiny_trace):
        minutes = [minute for minute, _ in iter_minutes(tiny_trace, start=5, stop=10)]
        assert minutes == [5, 6, 7, 8, 9]

    def test_invoked_function_ids(self, tiny_trace):
        assert set(tiny_trace.invoked_function_ids()) == {"periodic", "chained", "rare"}

    def test_grouping_helpers(self, tiny_trace):
        assert tiny_trace.functions_by_app()["app-1"] == ["periodic", "chained"]
        assert tiny_trace.functions_by_owner()["owner-2"] == ["rare"]
        assert "timer" in tiny_trace.functions_by_trigger()

    def test_record_lookup(self, tiny_trace):
        assert tiny_trace.record("rare").trigger is TriggerType.HTTP


class TestSlicing:
    def test_slice_preserves_functions(self, tiny_trace):
        sliced = tiny_trace.slice(0, 10)
        assert set(sliced.function_ids) == set(tiny_trace.function_ids)
        assert sliced.duration_minutes == 10

    def test_slice_counts(self, tiny_trace):
        sliced = tiny_trace.slice(5, 10)
        np.testing.assert_array_equal(
            sliced.series("periodic"), tiny_trace.series("periodic")[5:10]
        )

    def test_invalid_slice_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.slice(10, 5)
        with pytest.raises(ValueError):
            tiny_trace.slice(0, 100)


class TestSplit:
    def test_split_durations(self):
        duration = 3 * MINUTES_PER_DAY
        trace = make_trace({"f": np.ones(duration, dtype=int)})
        split = split_trace(trace, training_days=2.0)
        assert split.training.duration_minutes == 2 * MINUTES_PER_DAY
        assert split.simulation.duration_minutes == MINUTES_PER_DAY

    def test_split_rejects_bad_training_days(self, tiny_trace):
        with pytest.raises(ValueError):
            split_trace(tiny_trace, training_days=10.0)

    def test_unseen_function_ids(self):
        duration = 2 * MINUTES_PER_DAY
        seen = np.zeros(duration, dtype=int)
        seen[::10] = 1
        unseen = np.zeros(duration, dtype=int)
        unseen[-5] = 1
        trace = make_trace({"seen": seen, "unseen": unseen})
        split = split_trace(trace, training_days=1.0)
        assert split.unseen_function_ids == ["unseen"]
