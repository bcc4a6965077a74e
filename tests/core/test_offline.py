"""Tests for the offline categorization pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core import OfflineCategorizer, SpesConfig
from repro.core.categories import FunctionCategory
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import MINUTES_PER_DAY, TraceMetadata


def build_trace(counts, records, name="train"):
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


def periodic(duration, period, phase=0):
    series = np.zeros(duration, dtype=np.int64)
    series[phase::period] = 1
    return series


class TestDeterministicAssignment:
    def test_mixed_population(self):
        duration = 4 * MINUTES_PER_DAY
        always = np.ones(duration, dtype=np.int64)
        timer = periodic(duration, 60)
        never = np.zeros(duration, dtype=np.int64)
        records = [
            FunctionRecord("always", "a1", "o1", TriggerType.HTTP),
            FunctionRecord("timer", "a2", "o2", TriggerType.TIMER),
            FunctionRecord("never", "a3", "o3", TriggerType.HTTP),
        ]
        trace = build_trace({"always": always, "timer": timer, "never": never}, records)
        result = OfflineCategorizer().categorize(trace)
        assert result.category_of("always") is FunctionCategory.ALWAYS_WARM
        assert result.category_of("timer") is FunctionCategory.REGULAR
        assert result.category_of("never") is FunctionCategory.UNKNOWN

    def test_profiles_carry_metadata(self):
        duration = 4 * MINUTES_PER_DAY
        records = [FunctionRecord("timer", "app-x", "owner-y", TriggerType.TIMER)]
        trace = build_trace({"timer": periodic(duration, 30)}, records)
        result = OfflineCategorizer().categorize(trace)
        profile = result.profiles["timer"]
        assert profile.app_id == "app-x"
        assert profile.trigger is TriggerType.TIMER
        assert profile.offline_wt_median == pytest.approx(29.0)

    def test_category_counts(self):
        duration = 2 * MINUTES_PER_DAY
        records = [
            FunctionRecord("a", "a", "o"),
            FunctionRecord("b", "b", "o"),
        ]
        trace = build_trace(
            {"a": np.ones(duration, dtype=np.int64), "b": np.zeros(duration, dtype=np.int64)},
            records,
        )
        counts = OfflineCategorizer().categorize(trace).category_counts()
        assert counts[FunctionCategory.ALWAYS_WARM] == 1
        assert counts[FunctionCategory.UNKNOWN] == 1


class TestForgetting:
    def _drifting_trace(self):
        duration = 6 * MINUTES_PER_DAY
        series = np.zeros(duration, dtype=np.int64)
        # First three days: irregular sparse noise; last three: clean 30-min timer.
        rng = np.random.default_rng(5)
        noise_minutes = rng.choice(3 * MINUTES_PER_DAY, size=40, replace=False)
        series[noise_minutes] = 1
        series[3 * MINUTES_PER_DAY :: 30] = 1
        records = [FunctionRecord("drift", "a", "o", TriggerType.TIMER)]
        return build_trace({"drift": series}, records)

    def test_forgetting_recovers_recent_pattern(self):
        trace = self._drifting_trace()
        result = OfflineCategorizer(SpesConfig(enable_forgetting=True)).categorize(trace)
        assert result.category_of("drift") in (
            FunctionCategory.REGULAR,
            FunctionCategory.APPRO_REGULAR,
        )

    def test_without_forgetting_function_stays_indeterminate(self):
        trace = self._drifting_trace()
        result = OfflineCategorizer(SpesConfig(enable_forgetting=False)).categorize(trace)
        assert result.category_of("drift") not in (
            FunctionCategory.REGULAR,
            FunctionCategory.APPRO_REGULAR,
        )


class TestCorrelatedAssignment:
    def _chained_trace(self):
        duration = 4 * MINUTES_PER_DAY
        rng = np.random.default_rng(7)
        # Parent: irregular but frequent bursts; child follows 2 minutes later.
        parent = np.zeros(duration, dtype=np.int64)
        minutes = np.sort(rng.choice(duration - 10, size=300, replace=False))
        parent[minutes] = 1
        child = np.zeros(duration, dtype=np.int64)
        child[minutes + 2] = 1
        records = [
            FunctionRecord("parent", "app", "owner", TriggerType.ORCHESTRATION),
            FunctionRecord("child", "app", "owner", TriggerType.QUEUE),
        ]
        return build_trace({"parent": parent, "child": child}, records)

    def test_child_linked_to_parent(self):
        trace = self._chained_trace()
        result = OfflineCategorizer().categorize(trace)
        child_profile = result.profiles["child"]
        if child_profile.category is FunctionCategory.CORRELATED:
            assert child_profile.links
            assert child_profile.links[0].predictor_id == "parent"
            assert result.predictor_index()["parent"][0][0] == "child"

    def test_each_training_row_is_densified_once(self, monkeypatch):
        # Link mining reads CSR rows and validation reads one slice of the
        # training window, so categorize densifies each training row once.
        trace = self._chained_trace()
        calls = []
        series = Trace.series

        def counting(self, function_id):
            if self is trace:
                calls.append(function_id)
            return series(self, function_id)

        monkeypatch.setattr(Trace, "series", counting)
        result = OfflineCategorizer().categorize(trace)
        assert any(profile.links for profile in result.profiles.values())
        assert sorted(calls) == sorted(trace.function_ids)

    def test_links_do_not_depend_on_the_hash_seed(self):
        # Twelve candidates with the target's own series tie on invocation
        # count and on COR, so which eight are searched and which five links
        # are kept comes down to their order alone.  That order must be the
        # trace's, whatever the order of the string hashes.
        script = """
import numpy as np
from repro.core import OfflineCategorizer
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import MINUTES_PER_DAY, TraceMetadata

duration = 4 * MINUTES_PER_DAY
series = np.zeros(duration, dtype=np.int64)
series[np.random.default_rng(3).choice(duration, size=300, replace=False)] = 1
ids = ["target"] + [f"twin-{i:02d}" for i in range(12)]
records = [FunctionRecord(fid, "app", "owner") for fid in ids]
metadata = TraceMetadata(name="ties", duration_minutes=duration)
trace = Trace(records, {fid: series for fid in ids}, metadata)
links = OfflineCategorizer()._mine_links(trace, ["target"])["target"]
print([(link.predictor_id, link.lag) for link in links])
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(completed.stdout)
        assert len(outputs) == 1, outputs
        links = outputs.pop()
        assert "twin-00" in links and "twin-05" not in links

    def test_correlation_disabled_removes_links(self):
        trace = self._chained_trace()
        result = OfflineCategorizer(SpesConfig(enable_correlation=False)).categorize(trace)
        assert result.profiles["child"].links == ()
        assert result.category_of("child") is not FunctionCategory.CORRELATED


class TestIndeterminateAssignment:
    def test_rare_function_with_repeated_gap_becomes_possible_or_regular(self):
        duration = 6 * MINUTES_PER_DAY
        series = np.zeros(duration, dtype=np.int64)
        series[::1440] = 1  # one invocation per day
        records = [FunctionRecord("daily", "a", "o", TriggerType.HTTP)]
        trace = build_trace({"daily": series}, records)
        result = OfflineCategorizer().categorize(trace)
        assert result.category_of("daily") in (
            FunctionCategory.REGULAR,
            FunctionCategory.POSSIBLE,
        )

    def test_truly_random_rare_function_assigned_supplementary_type(self):
        duration = 4 * MINUTES_PER_DAY
        rng = np.random.default_rng(11)
        series = np.zeros(duration, dtype=np.int64)
        series[rng.choice(duration, size=6, replace=False)] = 1
        records = [FunctionRecord("rare", "a", "o", TriggerType.HTTP)]
        trace = build_trace({"rare": series}, records)
        result = OfflineCategorizer().categorize(trace)
        assert result.category_of("rare") in (
            FunctionCategory.PULSED,
            FunctionCategory.POSSIBLE,
            FunctionCategory.CORRELATED,
        )

    def test_functions_in_helper(self):
        duration = 2 * MINUTES_PER_DAY
        records = [FunctionRecord("a", "a", "o")]
        trace = build_trace({"a": np.ones(duration, dtype=np.int64)}, records)
        result = OfflineCategorizer().categorize(trace)
        assert result.functions_in(FunctionCategory.ALWAYS_WARM) == ["a"]
