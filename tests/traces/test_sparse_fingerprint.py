"""``SparseTrace.fingerprint`` against the per-record loop it replaced.

The fingerprint encodes every record's token once and shares the bytes
between the time slices cut from one trace, and it hashes the CSR arrays
in place.  The digest must not change: cache keys and their pinned digests
depend on it.  ``reference_fingerprint`` is the earlier loop, verbatim
apart from reading the arrays through the trace's attributes.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import FunctionRecord, SparseTrace, Trace, TriggerType, split_trace
from repro.traces.schema import DurationProfile, TraceMetadata


def reference_fingerprint(trace: SparseTrace) -> str:
    digest = hashlib.sha256()
    digest.update(f"sparse:{trace._duration}".encode())
    for record in trace._records.values():
        duration = record.duration
        measured = (
            f"{duration.cold_start_ms!r}:{duration.execution_ms!r}"
            if duration is not None
            else "-"
        )
        token = (
            f"{record.function_id}\x1f{record.app_id}\x1f{record.owner_id}"
            f"\x1f{record.trigger.value}\x1f{measured}"
        )
        if record.memory_mb is not None:
            token += f"\x1f{record.memory_mb!r}"
        digest.update(f"{token}\x1e".encode())
    digest.update(trace._fn_indptr.tobytes())
    digest.update(trace._fn_minutes.tobytes())
    digest.update(trace._fn_counts.tobytes())
    return digest.hexdigest()


@st.composite
def sparse_traces(draw):
    n_functions = draw(st.integers(1, 6))
    duration = draw(st.integers(2, 40))
    triggers = list(TriggerType)
    records = []
    for i in range(n_functions):
        measured = draw(
            st.none()
            | st.builds(
                DurationProfile,
                st.floats(1.0, 5000.0, allow_nan=False),
                st.floats(1.0, 5000.0, allow_nan=False),
            )
        )
        records.append(
            FunctionRecord(
                f"f{i}",
                f"a{i % 3}",
                f"o{i % 2}",
                trigger=draw(st.sampled_from(triggers)),
                duration=measured,
                memory_mb=draw(st.none() | st.floats(1.0, 4096.0, allow_nan=False)),
            )
        )
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=duration, max_size=duration),
            min_size=n_functions,
            max_size=n_functions,
        )
    )
    dense = Trace(
        records,
        {f"f{i}": row for i, row in enumerate(rows)},
        TraceMetadata(name="t", duration_minutes=duration),
    )
    boundary = draw(st.integers(1, duration - 1))
    return SparseTrace.from_dense(dense), boundary


@settings(max_examples=120, deadline=None)
@given(case=sparse_traces())
def test_fingerprint_matches_the_reference_loop(case):
    trace, boundary = case
    assert trace.fingerprint() == reference_fingerprint(trace)
    split = split_trace(trace, training_days=boundary / 1440)
    # The slices share one token slot: encoded by the first, reused by the second.
    assert split.training._tokens is split.simulation._tokens
    for part in (split.simulation, split.training):
        assert part.fingerprint() == reference_fingerprint(part)
    shard = trace.shard(np.arange(0, len(trace), 2))
    assert shard.fingerprint() == reference_fingerprint(shard)


def test_pickled_trace_drops_its_tokens_and_keeps_its_digest():
    records = [FunctionRecord(f"f{i}", "a", "o", memory_mb=128.0) for i in range(3)]
    dense = Trace(
        records,
        {f"f{i}": [i, 0, 1, 2] for i in range(3)},
        TraceMetadata(name="t", duration_minutes=4),
    )
    split = split_trace(SparseTrace.from_dense(dense), training_days=2 / 1440)
    clone = pickle.loads(pickle.dumps(split.simulation))
    assert clone._tokens.data is None
    split.training.fingerprint()
    assert split.simulation._tokens.data is not None
    assert clone.fingerprint() == split.simulation.fingerprint()
    assert clone.fingerprint() == reference_fingerprint(split.simulation)
