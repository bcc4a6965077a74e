"""Tests for the streaming Azure 2019 ingestion pipeline.

Three layers, mirroring the module:

* row/day parsing and the malformed-input contract (fail loudly or degrade
  in a documented way, never guess);
* the two-pass ingestion itself, pinned by hypothesis properties against a
  brute-force dense reconstruction of the same CSVs;
* the on-disk ``.npz`` cache (replay, invalidation, corruption recovery)
  and the deterministic fixture generator that keeps all of it hermetic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import invocations_at, iter_minutes
from trace_builders import csr_built, dense_built
from repro.traces import (
    Azure2019Config,
    Azure2019Dataset,
    AzureIngestError,
    SparseTrace,
    Trace,
    load_azure2019,
    split_trace,
    write_azure2019_fixture,
)
from repro.traces.archetypes import TRIGGER_DURATION_PROFILES, duration_profile_for
from repro.traces.azure2019 import (
    DURATIONS_TEMPLATE,
    INVOCATIONS_TEMPLATE,
    MEMORY_PERCENTILES,
    MEMORY_TEMPLATE,
    day_number,
    iter_invocation_rows,
    parse_trigger,
)
from repro.traces.schema import MINUTES_PER_DAY, TriggerType

INVOCATION_HEADER = ["HashOwner", "HashApp", "HashFunction", "Trigger"] + [
    str(minute) for minute in range(1, MINUTES_PER_DAY + 1)
]


def write_day(root, day, rows):
    """Write one daily invocation CSV from ``(owner, app, func, trigger,
    {minute: count})`` rows, in the exact dataset schema."""
    lines = [",".join(INVOCATION_HEADER)]
    for owner, app, func, trigger, minute_counts in rows:
        counts = ["0"] * MINUTES_PER_DAY
        for minute, value in minute_counts.items():
            counts[minute] = str(value)
        lines.append(",".join([owner, app, func, trigger] + counts))
    path = root / INVOCATIONS_TEMPLATE.format(day=day)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_durations(root, day, rows):
    """Write one duration-percentile CSV from ``(owner, app, func, average,
    count)`` rows."""
    header = [
        "HashOwner", "HashApp", "HashFunction", "Average", "Count",
        "Minimum", "Maximum",
        "percentile_Average_0", "percentile_Average_1",
        "percentile_Average_25", "percentile_Average_50",
        "percentile_Average_75", "percentile_Average_99",
        "percentile_Average_100",
    ]
    lines = [",".join(header)]
    for owner, app, func, average, count in rows:
        lines.append(
            ",".join(
                [owner, app, func, str(average), str(count)]
                + [str(average)] * 9
            )
        )
    path = root / DURATIONS_TEMPLATE.format(day=day)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_memory(root, day, rows):
    """Write one app-memory CSV from ``(owner, app, count, average)`` rows.

    Percentile columns are written as ``average * percentile`` so tests can
    tell which column a join actually read."""
    header = ["HashOwner", "HashApp", "SampleCount", "AverageAllocatedMb"] + [
        f"AverageAllocatedMb_pct{p}" for p in MEMORY_PERCENTILES
    ]
    lines = [",".join(header)]
    for owner, app, count, average in rows:
        lines.append(
            ",".join(
                [owner, app, str(count), str(average)]
                + [str(average * p) for p in MEMORY_PERCENTILES]
            )
        )
    path = root / MEMORY_TEMPLATE.format(day=day)
    path.write_text("\n".join(lines) + "\n")
    return path


# --------------------------------------------------------------------------- #
# Row reader and day-number parsing
# --------------------------------------------------------------------------- #
class TestRowReader:
    @pytest.mark.parametrize(
        "minute_counts, minutes_expected, counts_expected",
        [
            ({3: 2, 100: 5}, [3, 100], [2, 5]),
            # Some exports render counts as floats ("3.0"); they parse.
            ({10: "3.0", 11: "2"}, [10, 11], [3, 2]),
        ],
    )
    def test_sparse_rows_carry_only_nonzero_minutes(
        self, tmp_path, minute_counts, minutes_expected, counts_expected
    ):
        write_day(tmp_path, 1, [("o", "a", "f", "http", minute_counts)])
        rows = list(
            iter_invocation_rows(tmp_path / INVOCATIONS_TEMPLATE.format(day=1))
        )
        assert len(rows) == 1
        _, owner, app, func, trigger, minutes, counts = rows[0]
        assert (owner, app, func, trigger) == ("o", "a", "f", "http")
        np.testing.assert_array_equal(minutes, minutes_expected)
        np.testing.assert_array_equal(counts, counts_expected)

    def test_truncated_row_raises_with_file_and_line(self, tmp_path):
        path = write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        with path.open("a") as handle:
            handle.write("truncated,row\n")
        with pytest.raises(AzureIngestError, match=rf"{path.name}:3"):
            list(iter_invocation_rows(path))

    def test_garbled_count_raises(self, tmp_path):
        path = write_day(tmp_path, 1, [("o", "a", "f", "http", {7: "lots"})])
        with pytest.raises(AzureIngestError, match="invalid invocation count"):
            list(iter_invocation_rows(path))

    def test_negative_count_always_raises(self, tmp_path):
        path = write_day(tmp_path, 1, [("o", "a", "f", "http", {7: -1})])
        with pytest.raises(AzureIngestError, match="negative"):
            list(iter_invocation_rows(path))

    def test_headerless_file_yields_nothing(self, tmp_path):
        path = tmp_path / INVOCATIONS_TEMPLATE.format(day=1)
        path.write_text("")
        assert list(iter_invocation_rows(path)) == []

    def test_header_without_minute_columns_rejected(self, tmp_path):
        path = tmp_path / INVOCATIONS_TEMPLATE.format(day=1)
        path.write_text("HashOwner,HashApp,HashFunction,Trigger\n")
        with pytest.raises(AzureIngestError, match="minute columns"):
            list(iter_invocation_rows(path))

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("invocations_per_function_md.anon.d07.csv", 7),
            ("d14.csv", 14),
            ("function_durations_percentiles.anon.d01.csv", 1),
            ("invocations.csv", None),
            ("d7.csv", None),
        ],
    )
    def test_day_number(self, name, expected):
        assert day_number(name) == expected


class TestParseTrigger:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("http", TriggerType.HTTP),
            ("HTTP", TriggerType.HTTP),
            ("timer", TriggerType.TIMER),
            ("queue", TriggerType.QUEUE),
            ("blob", TriggerType.STORAGE),
            ("eventhub", TriggerType.EVENT),
            ("durable", TriggerType.ORCHESTRATION),
            ("someNewTrigger", TriggerType.OTHERS),
            # The dataset's own category names map to themselves.
            ("storage", TriggerType.STORAGE),
            ("event", TriggerType.EVENT),
            ("orchestration", TriggerType.ORCHESTRATION),
            ("others", TriggerType.OTHERS),
            ("other", TriggerType.OTHERS),
            ("combination", TriggerType.COMBINATION),
            # Surrounding whitespace and case are ignored.
            (" Timer ", TriggerType.TIMER),
        ],
    )
    def test_mapping(self, raw, expected):
        assert parse_trigger(raw) is expected


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
class TestConfig:
    def test_days_are_sorted_and_deduplicated(self):
        assert Azure2019Config(days=(3, 1, 2)).days == (1, 2, 3)
        with pytest.raises(ValueError, match="duplicate"):
            Azure2019Config(days=(1, 1))

    def test_days_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            Azure2019Config(days=(0, 1))
        with pytest.raises(ValueError, match="at least one"):
            Azure2019Config(days=())

    def test_selection_modes_validated(self):
        with pytest.raises(ValueError, match="selection"):
            Azure2019Config(selection="best")
        with pytest.raises(ValueError, match="max_functions"):
            Azure2019Config(selection="top")
        with pytest.raises(ValueError, match="positive"):
            Azure2019Config(max_functions=0)

    def test_trigger_filter_accepts_enum_and_string(self):
        config = Azure2019Config(triggers=(TriggerType.HTTP, "timer"))
        assert config.triggers == ("http", "timer")
        with pytest.raises(ValueError, match="unknown trigger"):
            Azure2019Config(triggers=("warp",))

    def test_canonical_is_stable_under_day_order(self):
        assert (
            Azure2019Config(days=(2, 1)).canonical()
            == Azure2019Config(days=(1, 2)).canonical()
        )


# --------------------------------------------------------------------------- #
# Hypothesis: ingestion against a brute-force dense reconstruction
# --------------------------------------------------------------------------- #
#: One generated function-day: a handful of (minute, count) entries.
minute_counts = st.dictionaries(
    st.integers(min_value=0, max_value=MINUTES_PER_DAY - 1),
    st.integers(min_value=1, max_value=9),
    max_size=6,
)
#: A generated dataset: per day, per function index, its minute counts.
#: Functions can be absent on a day (the dataset registry semantics).
datasets = st.lists(  # days
    st.dictionaries(  # function index -> its minute counts that day
        st.integers(min_value=0, max_value=5), minute_counts, max_size=6
    ),
    min_size=1,
    max_size=3,
)

_TRIGGER_POOL = ("http", "timer", "queue", "blob", "unknownTrigger")


def materialize(tmp_path, day_data):
    """Write the generated dataset and return the brute-force dense truth:
    ``{function_key: per_minute_array}`` over the full day range.

    Every key with a row in *any* day file is present — an all-zero row
    still registers the function (the dataset's registry semantics), so the
    truth includes silent functions with all-zero series.
    """
    duration = len(day_data) * MINUTES_PER_DAY
    dense = {}
    for day_index, functions in enumerate(day_data):
        rows = []
        for index in sorted(functions):
            key = f"o{index % 2}", f"a{index % 2}", f"f{index}"
            trigger = _TRIGGER_POOL[index % len(_TRIGGER_POOL)]
            rows.append((*key, trigger, functions[index]))
            series = dense.setdefault(key, np.zeros(duration, dtype=np.int64))
            for minute, count in functions[index].items():
                series[day_index * MINUTES_PER_DAY + minute] += count
        write_day(tmp_path, day_index + 1, rows)
    return dense


class TestIngestionProperties:
    @settings(max_examples=12, deadline=None)
    @given(day_data=datasets)
    def test_csr_matches_dense_reconstruction(self, tmp_path_factory, day_data):
        tmp_path = tmp_path_factory.mktemp("azure-prop")
        dense = materialize(tmp_path, day_data)
        if not dense:
            with pytest.raises(AzureIngestError, match="no functions"):
                load_azure2019(
                    tmp_path, cache_dir=None, days=tuple(range(1, len(day_data) + 1))
                )
            return
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=tuple(range(1, len(day_data) + 1))
        )
        # Function count == distinct (owner, app, func) triples in the files.
        assert len(trace) == len(dense)
        # CSR row sums == the source's per-minute column sums, per function
        # and per minute.
        total_per_minute = np.zeros(trace.duration_minutes, dtype=np.int64)
        for (owner, app, func), expected in dense.items():
            series = trace.series(f"{owner}:{app}:{func}")
            np.testing.assert_array_equal(series, expected)
            total_per_minute += expected
        index = trace.invocation_index()
        observed_per_minute = np.zeros(trace.duration_minutes, dtype=np.int64)
        np.add.at(
            observed_per_minute,
            np.repeat(np.arange(trace.duration_minutes), np.diff(index.indptr)),
            index.counts,
        )
        np.testing.assert_array_equal(observed_per_minute, total_per_minute)

    @settings(max_examples=8, deadline=None)
    @given(day_data=datasets)
    def test_day_slices_concatenate_to_the_full_range(
        self, tmp_path_factory, day_data
    ):
        tmp_path = tmp_path_factory.mktemp("azure-slice")
        dense = materialize(tmp_path, day_data)
        if not dense:
            return
        days = tuple(range(1, len(day_data) + 1))
        full = load_azure2019(tmp_path, cache_dir=None, days=days)
        for function_id in full.function_ids:
            rebuilt = np.zeros(full.duration_minutes, dtype=np.int64)
            for slot, day in enumerate(days):
                try:
                    part = load_azure2019(tmp_path, cache_dir=None, days=(day,))
                except AzureIngestError:
                    continue  # a day with no traffic at all
                if function_id in part:
                    offset = slot * MINUTES_PER_DAY
                    rebuilt[offset : offset + MINUTES_PER_DAY] = part.series(
                        function_id
                    )
            np.testing.assert_array_equal(rebuilt, full.series(function_id))

    @settings(max_examples=8, deadline=None)
    @given(day_data=datasets)
    def test_trigger_filter_keeps_exactly_the_matching_functions(
        self, tmp_path_factory, day_data
    ):
        tmp_path = tmp_path_factory.mktemp("azure-filter")
        dense = materialize(tmp_path, day_data)
        days = tuple(range(1, len(day_data) + 1))
        expected = {
            key
            for key in dense
            # index i sits at _TRIGGER_POOL[i % 5]; keep http (index 0) only.
            if int(key[2][1:]) % len(_TRIGGER_POOL) == 0
        }
        if not expected:
            if dense:
                with pytest.raises(AzureIngestError, match="selection left nothing"):
                    load_azure2019(
                        tmp_path, cache_dir=None, days=days, triggers=("http",)
                    )
            return
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=days, triggers=("http",)
        )
        assert {
            tuple(fid.split(":")) for fid in trace.function_ids
        } == expected


# --------------------------------------------------------------------------- #
# Ingestion specifics: order, selection, duplicates, durations
# --------------------------------------------------------------------------- #
class TestIngestion:
    @pytest.mark.parametrize(
        "cap, expected",
        # selection="all" with max_functions keeps the first-seen prefix.
        [(None, ["o:a:fB", "o:a:fA"]), (1, ["o:a:fB"])],
    )
    def test_functions_keep_first_seen_order(self, tmp_path, cap, expected):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "fB", "http", {0: 1}),
                ("o", "a", "fA", "http", {1: 1}),
            ],
        )
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), selection="all", max_functions=cap
        )
        assert trace.function_ids == expected

    def test_max_functions_cap(self, tmp_path):
        write_day(
            tmp_path, 1, [("o", "a", f"f{i}", "http", {i: 1}) for i in range(5)]
        )
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), selection="all", max_functions=2
        )
        assert trace.function_ids == ["o:a:f0", "o:a:f1"]
        assert trace.total_invocations() == 2

    def test_single_day(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o1", "a1", "f1", "http", {0: 3, 100: 1}),
                ("o1", "a1", "f2", "timer", {50: 1}),
            ],
        )
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert len(trace) == 2
        assert trace.duration_minutes == MINUTES_PER_DAY
        assert trace.total_invocations("o1:a1:f1") == 4
        assert trace.record("o1:a1:f2").trigger is TriggerType.TIMER

    def test_three_days_stitch_into_one_timeline(self, tmp_path):
        for day in range(3):
            write_day(tmp_path, day + 1, [("o", "a", "f", "http", {day * 7: day + 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2, 3))
        assert trace.duration_minutes == 3 * MINUTES_PER_DAY
        series = trace.series("o:a:f")
        for day in range(3):
            assert series[day * MINUTES_PER_DAY + day * 7] == day + 1
        assert trace.total_invocations() == 6

    def test_days_are_stitched_in_chronological_order(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {10: 1})])
        write_day(tmp_path, 2, [("o", "a", "f", "http", {20: 2})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(2, 1))
        series = trace.series("o:a:f")
        assert series[10] == 1
        assert series[MINUTES_PER_DAY + 20] == 2

    def test_headerless_day_is_a_silent_day(self, tmp_path):
        # An empty day file (a partial download) shifts no later day.
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        (tmp_path / INVOCATIONS_TEMPLATE.format(day=2)).write_text("")
        write_day(tmp_path, 3, [("o", "a", "f", "http", {20: 2})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2, 3))
        series = trace.series("o:a:f")
        assert trace.duration_minutes == 3 * MINUTES_PER_DAY
        assert series[MINUTES_PER_DAY : 2 * MINUTES_PER_DAY].sum() == 0
        assert series[2 * MINUTES_PER_DAY + 20] == 2

    def test_header_only_days_are_rejected(self, tmp_path):
        write_day(tmp_path, 1, [])
        with pytest.raises(AzureIngestError, match="no functions"):
            load_azure2019(tmp_path, cache_dir=None, days=(1,))

    def test_truncated_row_fails_the_load(self, tmp_path):
        path = write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        with path.open("a") as handle:
            handle.write("truncated,row\n")
        with pytest.raises(AzureIngestError, match=rf"{path.name}:3"):
            load_azure2019(tmp_path, cache_dir=None, days=(1,))

    def test_conflicting_trigger_across_days_keeps_the_first(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "timer", {0: 1})])
        write_day(tmp_path, 2, [("o", "a", "f", "http", {0: 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        assert trace.record("o:a:f").trigger is TriggerType.TIMER
        assert trace.total_invocations("o:a:f") == 2

    def test_function_missing_on_one_day(self, tmp_path):
        # Day 2 holds only the header: a silent day that shifts nothing.
        write_day(tmp_path, 1, [("o", "a", "f1", "http", {0: 1})])
        write_day(tmp_path, 2, [])
        write_day(tmp_path, 3, [("o", "a", "f2", "queue", {0: 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2, 3))
        assert trace.duration_minutes == 3 * MINUTES_PER_DAY
        assert trace.function_ids == ["o:a:f1", "o:a:f2"]
        assert trace.series("o:a:f1")[0] == 1
        assert trace.series("o:a:f2")[2 * MINUTES_PER_DAY] == 1
        assert trace.total_invocations() == 2

    def test_short_day_rows_are_padded_not_wrapped(self, tmp_path):
        # A daily file with fewer minute columns must never bleed counts into
        # the following day's window.
        header = INVOCATION_HEADER[: 4 + 120]
        counts = ["0"] * 120
        counts[100] = "4"
        (tmp_path / INVOCATIONS_TEMPLATE.format(day=1)).write_text(
            ",".join(header) + "\n" + ",".join(["o", "a", "f", "http"] + counts) + "\n"
        )
        write_day(tmp_path, 2, [("o", "a", "f", "http", {30: 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        series = trace.series("o:a:f")
        assert trace.duration_minutes == 2 * MINUTES_PER_DAY
        assert series[100] == 4
        assert series[MINUTES_PER_DAY + 30] == 1
        assert trace.total_invocations("o:a:f") == 5

    def test_duplicate_rows_are_summed(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "f", "http", {5: 1}),
                ("o", "a", "f", "http", {5: 2, 6: 1}),
            ],
        )
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        series = trace.series("o:a:f")
        assert series[5] == 3 and series[6] == 1
        assert trace.total_invocations() == 4

    def test_unknown_trigger_falls_back_to_others(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "cosmosDBTrigger", {0: 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert trace.record("o:a:f").trigger is TriggerType.OTHERS

    def test_top_selection_keeps_the_most_invoked(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "cold", "http", {0: 1}),
                ("o", "a", "hot", "http", {0: 50}),
                ("o", "a", "warm", "http", {0: 10}),
            ],
        )
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), selection="top", max_functions=2
        )
        # The two most-invoked survive, listed in first-seen order.
        assert trace.function_ids == ["o:a:hot", "o:a:warm"]

    def test_sample_selection_is_seed_deterministic(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [("o", "a", f"f{i}", "http", {i: 1}) for i in range(12)],
        )
        kwargs = dict(
            cache_dir=None, days=(1,), selection="sample", max_functions=4
        )
        first = load_azure2019(tmp_path, seed=7, **kwargs)
        second = load_azure2019(tmp_path, seed=7, **kwargs)
        other = load_azure2019(tmp_path, seed=8, **kwargs)
        assert len(first) == 4
        assert first.function_ids == second.function_ids
        assert first.function_ids != other.function_ids

    def test_min_invocations_filters_sparse_functions(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "busy", "http", {0: 20}),
                ("o", "a", "quiet", "http", {0: 1}),
            ],
        )
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), min_invocations=5
        )
        assert trace.function_ids == ["o:a:busy"]

    def test_missing_day_file_raises_with_available_days(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        with pytest.raises(AzureIngestError, match=r"day\(s\) \[2\]"):
            load_azure2019(tmp_path, cache_dir=None, days=(1, 2))

    def test_measured_durations_join_count_weighted(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        write_day(tmp_path, 2, [("o", "a", "f", "http", {0: 1})])
        write_durations(tmp_path, 1, [("o", "a", "f", 100.0, 1)])
        write_durations(tmp_path, 2, [("o", "a", "f", 200.0, 3)])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        record = trace.record("o:a:f")
        assert record.duration is not None
        assert record.duration.execution_ms == pytest.approx(175.0)
        # The dataset has no cold-start latency; the trigger model fills it.
        assert (
            record.duration.cold_start_ms
            == TRIGGER_DURATION_PROFILES["http"].cold_start_ms
        )
        # The measured profile wins in the archetype derivation.
        assert duration_profile_for(record) is record.duration

    def test_missing_duration_row_falls_back_to_the_archetype_model(
        self, tmp_path
    ):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "measured", "http", {0: 1}),
                ("o", "a", "unmeasured", "timer", {0: 1}),
            ],
        )
        write_durations(tmp_path, 1, [("o", "a", "measured", 80.0, 2)])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert trace.record("o:a:measured").duration is not None
        unmeasured = trace.record("o:a:unmeasured")
        assert unmeasured.duration is None
        # ... which sends duration_profile_for down the trigger derivation:
        # the timer base profile with the deterministic per-function spread.
        profile = duration_profile_for(unmeasured)
        base = TRIGGER_DURATION_PROFILES["timer"].cold_start_ms
        assert 0.6 * base <= profile.cold_start_ms < 1.8 * base
        assert profile == duration_profile_for(unmeasured)

    def test_duration_file_without_required_columns_rejected(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        bad = tmp_path / DURATIONS_TEMPLATE.format(day=1)
        bad.write_text("HashOwner,HashApp,HashFunction,Mean\no,a,f,1.0\n")
        with pytest.raises(AzureIngestError, match="Average/Count"):
            load_azure2019(tmp_path, cache_dir=None, days=(1,))

    def test_join_durations_false_skips_the_duration_files(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        # Garbled duration file: only read when the join is on.
        bad = tmp_path / DURATIONS_TEMPLATE.format(day=1)
        bad.write_text("HashOwner,HashApp,HashFunction,Mean\no,a,f,1.0\n")
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), join_durations=False
        )
        assert trace.record("o:a:f").duration is None

    def test_metadata_carries_the_dataset_identity(self, tmp_path):
        write_day(tmp_path, 2, [("o", "a", "f", "http", {0: 1})])
        write_day(tmp_path, 3, [("o", "a", "f", "http", {3: 1})])
        dataset = Azure2019Dataset(tmp_path, cache_dir=None)
        config = Azure2019Config(days=(2, 3))
        trace = dataset.load(config)
        assert trace.metadata.name == "azure2019-d02-d03"
        assert trace.metadata.extra["days"] == [2, 3]
        assert trace.metadata.extra["dataset_fingerprint"] == dataset.fingerprint(
            config
        )

    def test_agrees_with_the_dense_loader(self, tmp_path):
        """The sparse index and the index of the densified trace are the
        same function of the same files."""
        write_azure2019_fixture(tmp_path, n_functions=10, days=2, seed=42)
        sparse = load_azure2019(
            tmp_path, cache_dir=None, days=(1, 2), join_durations=False
        )
        dense = dense_built(sparse)
        assert type(dense) is Trace
        assert sparse.function_ids == dense.function_ids
        sparse_index = sparse.invocation_index()
        dense_index = dense.invocation_index()
        np.testing.assert_array_equal(sparse_index.indptr, dense_index.indptr)
        np.testing.assert_array_equal(sparse_index.indices, dense_index.indices)
        np.testing.assert_array_equal(sparse_index.counts, dense_index.counts)


# --------------------------------------------------------------------------- #
# The app-memory join
# --------------------------------------------------------------------------- #
class TestMemoryJoin:
    def test_weighted_across_days_for_a_single_function_app(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        write_day(tmp_path, 2, [("o", "a", "f", "http", {0: 1})])
        write_memory(tmp_path, 1, [("o", "a", 1, 100.0)])
        write_memory(tmp_path, 2, [("o", "a", 3, 200.0)])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        # SampleCount-weighted mean: (100*1 + 200*3) / 4 = 175.
        assert trace.record("o:a:f").memory_mb == pytest.approx(175.0)

    def test_fans_out_equally_over_the_apps_functions(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "f1", "http", {0: 5}),
                ("o", "a", "f2", "timer", {1: 5}),
                ("o", "b", "solo", "http", {2: 5}),
            ],
        )
        write_memory(tmp_path, 1, [("o", "a", 10, 300.0), ("o", "b", 10, 80.0)])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert {app: len(ids) for app, ids in trace.functions_by_app().items()} == {
            "o:a": 2,
            "o:b": 1,
        }
        assert len(trace.functions_by_owner()["o"]) == 3
        assert trace.record("o:a:f1").memory_mb == pytest.approx(150.0)
        assert trace.record("o:a:f2").memory_mb == pytest.approx(150.0)
        assert trace.record("o:b:solo").memory_mb == pytest.approx(80.0)

    def test_fan_out_counts_the_full_population_not_the_selection(self, tmp_path):
        """A top-N slice must not inflate the survivors' share of the app."""
        write_day(
            tmp_path,
            1,
            [
                ("o", "a", "hot", "http", {0: 100}),
                ("o", "a", "cold", "http", {0: 1}),
            ],
        )
        write_memory(tmp_path, 1, [("o", "a", 10, 300.0)])
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), selection="top", max_functions=1
        )
        assert trace.function_ids == ["o:a:hot"]
        # Still divided by the app's two dataset functions, not the one kept.
        assert trace.record("o:a:hot").memory_mb == pytest.approx(150.0)

    def test_memory_percentile_selects_the_published_column(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        write_memory(tmp_path, 1, [("o", "a", 2, 100.0)])
        p95 = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), memory_percentile=95
        )
        # The helper writes pctP = average * P.
        assert p95.record("o:a:f").memory_mb == pytest.approx(9500.0)

    def test_unknown_memory_percentile_rejected(self):
        with pytest.raises(ValueError, match="memory_percentile"):
            Azure2019Config(days=(1,), memory_percentile=42)

    def test_missing_memory_row_keeps_none(self, tmp_path):
        write_day(
            tmp_path,
            1,
            [
                ("o", "covered", "f", "http", {0: 1}),
                ("o", "uncovered", "g", "http", {0: 1}),
            ],
        )
        write_memory(tmp_path, 1, [("o", "covered", 1, 64.0)])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert trace.record("o:covered:f").memory_mb == pytest.approx(64.0)
        assert trace.record("o:uncovered:g").memory_mb is None

    def test_missing_memory_file_is_legitimate(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert trace.record("o:a:f").memory_mb is None

    def test_join_memory_false_skips_the_memory_files(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        # Garbled memory file: only read when the join is on.
        bad = tmp_path / MEMORY_TEMPLATE.format(day=1)
        bad.write_text("HashOwner,HashApp,MeanMb\no,a,1.0\n")
        trace = load_azure2019(
            tmp_path, cache_dir=None, days=(1,), join_memory=False
        )
        assert trace.record("o:a:f").memory_mb is None

    def test_memory_file_without_required_columns_rejected(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        bad = tmp_path / MEMORY_TEMPLATE.format(day=1)
        bad.write_text("HashOwner,HashApp,MeanMb\no,a,1.0\n")
        with pytest.raises(AzureIngestError, match="SampleCount"):
            load_azure2019(tmp_path, cache_dir=None, days=(1,))

    def test_garbled_memory_statistics_rejected(self, tmp_path):
        write_day(tmp_path, 1, [("o", "a", "f", "http", {0: 1})])
        write_memory(tmp_path, 1, [("o", "a", "many", 100.0)])
        with pytest.raises(AzureIngestError, match="invalid memory statistics"):
            load_azure2019(tmp_path, cache_dir=None, days=(1,))

    def test_fixture_population_joins_footprints(self, tmp_path):
        write_azure2019_fixture(
            tmp_path, n_functions=12, days=2, seed=2,
            missing_memory_fraction=0.5,
        )
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        footprints = [record.memory_mb for record in trace.records()]
        # Both sides of the join: covered apps with measured footprints and
        # deliberately-dropped apps on the None fallback.
        assert any(value is not None and value > 0 for value in footprints)
        assert any(value is None for value in footprints)


# --------------------------------------------------------------------------- #
# The on-disk cache
# --------------------------------------------------------------------------- #
class TestCache:
    def _write(self, tmp_path):
        write_azure2019_fixture(tmp_path, n_functions=8, days=2, seed=11)

    def test_second_load_replays_the_cache(self, tmp_path, monkeypatch):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        first = dataset.load(Azure2019Config(days=(1, 2)))
        assert any(dataset.cache_dir.glob("azure2019-*.npz"))
        # Prove the replay never re-ingests: break the ingestion path.
        import repro.traces.azure2019 as module

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: _ingest was called")

        monkeypatch.setattr(module, "_ingest", boom)
        second = Azure2019Dataset(tmp_path).load(Azure2019Config(days=(1, 2)))
        assert second.fingerprint() == first.fingerprint()
        assert second.function_ids == first.function_ids
        for a, b in zip(first.records(), second.records()):
            assert a == b

    def test_editing_a_source_file_invalidates(self, tmp_path):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        config = Azure2019Config(days=(1, 2))
        before = dataset.fingerprint(config)
        dataset.load(config)
        path = tmp_path / INVOCATIONS_TEMPLATE.format(day=1)
        write_day(tmp_path, 1, [("oX", "aX", "fX", "http", {0: 3})])
        assert path.read_text()  # rewritten
        fresh = Azure2019Dataset(tmp_path)
        assert fresh.fingerprint(config) != before
        trace = fresh.load(config)
        assert trace.function_ids[0] == "oX:aX:fX"

    def test_different_options_use_different_cache_entries(self, tmp_path):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        dataset.load(Azure2019Config(days=(1,)))
        dataset.load(Azure2019Config(days=(1, 2)))
        assert len(list(dataset.cache_dir.glob("azure2019-*.npz"))) == 2

    def test_corrupt_cache_entry_falls_back_to_reingestion(self, tmp_path):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        config = Azure2019Config(days=(1, 2))
        first = dataset.load(config)
        [entry] = dataset.cache_dir.glob("azure2019-*.npz")
        entry.write_bytes(b"not an npz archive")
        second = Azure2019Dataset(tmp_path).load(config)
        assert second.fingerprint() == first.fingerprint()

    def test_cache_dir_none_writes_nothing(self, tmp_path):
        self._write(tmp_path)
        load_azure2019(tmp_path, cache_dir=None, days=(1,))
        assert not (tmp_path / ".spes-cache").exists()

    def test_cached_replay_preserves_measured_durations(self, tmp_path):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        config = Azure2019Config(days=(1, 2))
        first = dataset.load(config)
        second = Azure2019Dataset(tmp_path).load(config)
        measured = [
            record.function_id for record in first.records()
            if record.duration is not None
        ]
        assert measured  # the fixture joins durations for most functions
        for function_id in measured:
            assert (
                second.record(function_id).duration
                == first.record(function_id).duration
            )

    def test_fingerprint_covers_duration_files(self, tmp_path):
        self._write(tmp_path)
        config = Azure2019Config(days=(1, 2))
        before = Azure2019Dataset(tmp_path).fingerprint(config)
        write_durations(tmp_path, 1, [("o", "a", "f", 123.0, 1)])
        assert Azure2019Dataset(tmp_path).fingerprint(config) != before

    def test_fingerprint_covers_memory_files(self, tmp_path):
        self._write(tmp_path)
        config = Azure2019Config(days=(1, 2))
        before = Azure2019Dataset(tmp_path).fingerprint(config)
        write_memory(tmp_path, 1, [("o", "a", 1, 100.0)])
        assert Azure2019Dataset(tmp_path).fingerprint(config) != before

    def test_cached_replay_preserves_memory_footprints(self, tmp_path):
        self._write(tmp_path)
        dataset = Azure2019Dataset(tmp_path)
        config = Azure2019Config(days=(1, 2))
        first = dataset.load(config)
        second = Azure2019Dataset(tmp_path).load(config)
        measured = [
            record.function_id for record in first.records()
            if record.memory_mb is not None
        ]
        assert measured  # the fixture joins memory for every covered app
        for function_id in measured:
            assert (
                second.record(function_id).memory_mb
                == first.record(function_id).memory_mb
            )


# --------------------------------------------------------------------------- #
# The fixture generator
# --------------------------------------------------------------------------- #
class TestFixture:
    def test_writes_are_byte_identical(self, tmp_path):
        first = write_azure2019_fixture(tmp_path / "a", n_functions=6, days=2)
        second = write_azure2019_fixture(tmp_path / "b", n_functions=6, days=2)
        assert [path.name for path in first] == [path.name for path in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_emits_all_three_file_families(self, tmp_path):
        written = write_azure2019_fixture(tmp_path, n_functions=4, days=2)
        names = {path.name for path in written}
        for day in (1, 2):
            assert INVOCATIONS_TEMPLATE.format(day=day) in names
            assert DURATIONS_TEMPLATE.format(day=day) in names
        assert len(written) == 6

    def test_loads_through_the_full_pipeline(self, tmp_path):
        write_azure2019_fixture(tmp_path, n_functions=12, days=2, seed=5)
        trace = load_azure2019(tmp_path, cache_dir=None, days=(1, 2))
        assert isinstance(trace, SparseTrace)
        assert len(trace) == 12
        assert trace.duration_minutes == 2 * MINUTES_PER_DAY
        assert trace.total_invocations() > 0
        # Some functions measured, some on the archetype fallback, and the
        # unknown trigger label in the pool maps to OTHERS somewhere in a
        # big-enough population.
        durations = [record.duration for record in trace.records()]
        assert any(d is not None for d in durations)

    def test_different_seeds_differ(self, tmp_path):
        write_azure2019_fixture(tmp_path / "a", n_functions=6, days=1, seed=1)
        write_azure2019_fixture(tmp_path / "b", n_functions=6, days=1, seed=2)
        a = (tmp_path / "a" / INVOCATIONS_TEMPLATE.format(day=1)).read_bytes()
        b = (tmp_path / "b" / INVOCATIONS_TEMPLATE.format(day=1)).read_bytes()
        assert a != b

    def test_degenerate_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_azure2019_fixture(tmp_path, n_functions=0)
        with pytest.raises(ValueError):
            write_azure2019_fixture(tmp_path, days=0)


# --------------------------------------------------------------------------- #
# SparseTrace container semantics
# --------------------------------------------------------------------------- #
class TestSparseTrace:
    def _dense(self):
        from repro.traces import FunctionRecord
        from repro.traces.schema import TraceMetadata

        records = [
            FunctionRecord("f1", "a", "o", trigger=TriggerType.HTTP),
            FunctionRecord("f2", "a", "o", trigger=TriggerType.TIMER),
            FunctionRecord("silent", "a", "o"),
        ]
        counts = {
            "f1": [2, 0, 1, 0, 0, 3],
            "f2": [0, 1, 0, 0, 1, 0],
            "silent": [0, 0, 0, 0, 0, 0],
        }
        return Trace(records, counts, TraceMetadata(name="t", duration_minutes=6))

    def test_round_trips_through_both_constructors(self):
        dense = self._dense()
        sparse = csr_built(dense)
        rebuilt = dense_built(sparse)
        assert rebuilt.function_ids == dense.function_ids
        assert rebuilt.fingerprint() == dense.fingerprint()
        for fid in dense.function_ids:
            np.testing.assert_array_equal(rebuilt.series(fid), dense.series(fid))

    def test_matches_dense_accessors(self):
        dense = self._dense()
        sparse = csr_built(dense)
        assert sparse.total_invocations() == dense.total_invocations()
        assert sparse.total_invocations("f1") == 6
        assert sparse.invoked_function_ids() == dense.invoked_function_ids()
        assert invocations_at(sparse, 4) == invocations_at(dense, 4)
        assert list(iter_minutes(sparse)) == list(iter_minutes(dense))

    def test_invocation_index_is_identical_to_dense(self):
        dense = self._dense()
        sparse = csr_built(dense)
        a, b = dense.invocation_index(), sparse.invocation_index()
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_slice_stays_sparse_and_matches_dense(self):
        dense = self._dense()
        sparse = csr_built(dense)
        a, b = dense.slice(1, 5), sparse.slice(1, 5)
        assert isinstance(b, SparseTrace)
        for fid in dense.function_ids:
            np.testing.assert_array_equal(a.series(fid), b.series(fid))

    def test_split_trace_works_unchanged(self):
        sparse = csr_built(self._dense())
        split = split_trace(sparse, training_days=3 / MINUTES_PER_DAY)
        assert split.training.duration_minutes == 3
        assert split.simulation.duration_minutes == 3
        assert isinstance(split.simulation, SparseTrace)

    def test_fingerprint_lives_in_its_own_domain(self):
        dense = self._dense()
        sparse = csr_built(dense)
        assert sparse.fingerprint() != dense.fingerprint()
        assert sparse.fingerprint() == csr_built(dense).fingerprint()

    def test_fingerprint_covers_measured_durations(self, tmp_path):
        from dataclasses import replace

        from repro.traces.schema import DurationProfile

        sparse = csr_built(self._dense())
        records = [
            replace(record, duration=DurationProfile(100.0, 10.0))
            if record.function_id == "f1"
            else record
            for record in sparse.records()
        ]
        relabeled = SparseTrace(
            records,
            sparse._fn_indptr,
            sparse._fn_minutes,
            sparse._fn_counts,
            sparse.duration_minutes,
            sparse.metadata,
        )
        assert relabeled.fingerprint() != sparse.fingerprint()

    def test_series_is_read_only(self):
        sparse = csr_built(self._dense())
        with pytest.raises(ValueError):
            sparse.series("f1")[0] = 99

    def test_pickle_round_trip(self):
        sparse = csr_built(self._dense())
        clone = pickle.loads(pickle.dumps(sparse))
        assert clone.fingerprint() == sparse.fingerprint()
        np.testing.assert_array_equal(clone.series("f1"), sparse.series("f1"))

    def test_invalid_layouts_rejected(self):
        from repro.traces import FunctionRecord

        records = [FunctionRecord("f", "a", "o")]
        indptr = np.array([0, 2], dtype=np.int64)
        minutes = np.array([1, 1], dtype=np.int64)  # not strictly increasing
        counts = np.array([1, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            SparseTrace(records, indptr, minutes, counts, 6)
        with pytest.raises(ValueError):
            SparseTrace(
                records,
                np.array([0, 1], dtype=np.int64),
                np.array([9], dtype=np.int64),  # minute out of range
                np.array([1], dtype=np.int64),
                6,
            )
        with pytest.raises(ValueError):
            SparseTrace(
                records,
                np.array([0, 1], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0], dtype=np.int64),  # zero count
                6,
            )
