"""Trace fingerprints cover every record field a simulation reads.

A trace's fingerprint keys the on-disk result cache, so two traces that can
simulate differently must never share it.  The dense digest once hashed
only ids, app, owner and trigger: two ``long-duration-mix`` builds that
differ only in their measured execution times got one fingerprint, and the
second run was served the first run's cached result.

The field walk below perturbs each :class:`FunctionRecord` field in turn,
on a dense-built and on a CSR-built trace.  Each perturbation must either
change the fingerprint or leave an event-engine ``fixed-10min`` run, its
result fingerprint and its latency block, exactly as it was.  The field
list comes from the dataclass, so a new field fails here until it has a
perturbation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from trace_builders import csr_trace
from repro.baselines import FixedKeepAlivePolicy
from repro.experiments.parallel import ParallelRunner, PolicySpec
from repro.scenarios import build_scenario
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import DurationProfile, TraceMetadata

LONG_DURATION_MIX = dict(seed=1, n_functions=12, days=2, training_days=1)


class TestLongDurationMixKeys:
    """Measured execution times reach the dense digest and the cache key."""

    @staticmethod
    def workload(long_exec_ms):
        return build_scenario("long-duration-mix", long_exec_ms=long_exec_ms, **LONG_DURATION_MIX)

    def test_execution_time_changes_both_fingerprints(self):
        short, long = self.workload(2000.0), self.workload(20000.0)
        assert short.split.training.fingerprint() != long.split.training.fingerprint()
        assert short.split.simulation.fingerprint() != long.split.simulation.fingerprint()

    def test_execution_time_changes_the_cache_key(self, tmp_path):
        keys = []
        for long_exec_ms in (2000.0, 20000.0):
            workload = self.workload(long_exec_ms)
            runner = ParallelRunner(
                {"w": workload.split},
                engine="event",
                events={"w": workload.events},
                cache_dir=tmp_path,
            )
            spec = PolicySpec.of("fixed-keepalive", keep_alive_minutes=10)
            keys.append(runner.cache_key(runner.cell("fixed-10min", spec, "w")))
        assert keys[0] != keys[1]

    def test_records_without_measurements_keep_their_digest(self):
        # The memory-less, profile-less records of the pin workload hash as
        # before; the pinned cache keys check that end to end.
        records = [FunctionRecord("f", "a", "o")]
        trace = Trace(records, {"f": [0, 1, 2]}, TraceMetadata(name="t", duration_minutes=3))
        assert trace.fingerprint() == (
            "018cbf0c055b277043bec97b8ddb8a3b0bd1d696c50b235e92e109065d0fedd5"
        )


#: One changed value per ``FunctionRecord`` field, applied to record 0.
PERTURBATIONS = {
    "function_id": "f0-renamed",
    "app_id": "app-renamed",
    "owner_id": "owner-renamed",
    "trigger": TriggerType.QUEUE,
    "archetype": "bursty",
    "duration": DurationProfile(cold_start_ms=1234.0, execution_ms=56.0),
    "memory_mb": 512.0,
}

ARCHETYPE_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "archetype feeds duration_profile_for but neither digest; hashing it "
        "moves pinned keys, so it rides the ENGINE_VERSION 7 fingerprint break"
    ),
)


def _records():
    return [
        FunctionRecord(f"f{i}", f"app{i % 2}", f"owner{i % 2}", TriggerType.HTTP)
        for i in range(4)
    ]


def _matrix():
    rng = np.random.default_rng(7)
    return (rng.random((4, 240)) < 0.2) * rng.integers(1, 4, size=(4, 240))


def _dense(records, matrix):
    ids = [record.function_id for record in records]
    return Trace(records, dict(zip(ids, matrix)), TraceMetadata(name="t", duration_minutes=240))


def _csr(records, matrix):
    return csr_trace(records, matrix, TraceMetadata(name="t", duration_minutes=240))


def _event_run(trace):
    result = simulate_policy(FixedKeepAlivePolicy(10), trace, warmup_minutes=0, engine="event")
    return result.deterministic_fingerprint(), result.latency


@pytest.mark.parametrize("build", [_dense, _csr], ids=["dense", "csr"])
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(field.name, marks=ARCHETYPE_XFAIL if field.name == "archetype" else ())
        for field in dataclasses.fields(FunctionRecord)
    ],
)
def test_every_record_field_changes_the_digest_or_not_the_run(build, name):
    assert name in PERTURBATIONS, f"no perturbation for FunctionRecord.{name}"
    records, matrix = _records(), _matrix()
    changed = list(records)
    assert getattr(changed[0], name) != PERTURBATIONS[name]
    changed[0] = dataclasses.replace(changed[0], **{name: PERTURBATIONS[name]})
    base, other = build(records, matrix), build(changed, matrix)
    if base.fingerprint() != other.fingerprint():
        return
    (base_fp, base_latency), (other_fp, other_latency) = _event_run(base), _event_run(other)
    assert base_fp == other_fp
    assert base_latency.summary() == other_latency.summary()
    np.testing.assert_array_equal(base_latency.cold_wait_ms, other_latency.cold_wait_ms)
