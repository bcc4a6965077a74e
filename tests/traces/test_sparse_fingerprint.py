"""Both trace digests against the per-function loops they came from.

A trace adopted from CSR arrays keeps the ``sparse:`` digest: it encodes
every record's token once, shares the bytes between the time slices cut
from one trace, and hashes the CSR arrays in place.  A trace built from
dense counts keeps the dense digest, now hashed from its CSR rows densified
one at a time.  Cache keys and their pinned digests depend on both.
``reference_fingerprint`` is the earlier sparse loop, verbatim apart from
reading the arrays through the trace's attributes;
``reference_dense_fingerprint`` is the earlier dense loop over a
``{function_id: series}`` mapping, fed here from the drawn matrix, with each
record's measured duration and memory appended when present (records with
neither hash exactly as that loop did).
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Mapping, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_builders import csr_built, csr_trace
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


def reference_dense_fingerprint(
    records: Sequence[FunctionRecord], counts: Mapping[str, np.ndarray], duration: int
) -> str:
    by_id = {record.function_id: record for record in records}
    digest = hashlib.sha256()
    digest.update(str(duration).encode())
    for function_id, series in counts.items():
        record = by_id[function_id]
        token = (
            f"{function_id}\x1f{record.app_id}\x1f{record.owner_id}"
            f"\x1f{record.trigger.value}"
        )
        if record.duration is not None:
            token += f"\x1f{record.duration.cold_start_ms!r}:{record.duration.execution_ms!r}"
        if record.memory_mb is not None:
            token += f"\x1f{record.memory_mb!r}"
        digest.update(f"{token}\x1e".encode())
        digest.update(np.asarray(series, dtype=np.int64).tobytes())
    return digest.hexdigest()


@st.composite
def matrices(draw):
    """Records with measured profiles, their count matrix and a split minute."""
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
    boundary = draw(st.integers(1, duration - 1))
    return records, np.asarray(rows, dtype=np.int64), boundary


def _metadata(duration: int) -> TraceMetadata:
    return TraceMetadata(name="t", duration_minutes=duration)


@settings(max_examples=120, deadline=None)
@given(case=matrices())
def test_fingerprint_matches_the_reference_loop(case):
    records, matrix, boundary = case
    trace = csr_trace(records, matrix, _metadata(matrix.shape[1]))
    assert trace.fingerprint() == reference_fingerprint(trace)
    split = split_trace(trace, training_days=boundary / 1440)
    # The slices share one token slot: encoded by the first, reused by the second.
    assert split.training._tokens is split.simulation._tokens
    for part in (split.simulation, split.training):
        assert part.fingerprint() == reference_fingerprint(part)
    shard = trace.shard(np.arange(0, len(trace), 2))
    assert shard.fingerprint() == reference_fingerprint(shard)


@settings(max_examples=120, deadline=None)
@given(case=matrices())
def test_dense_fingerprint_matches_the_reference_loop(case):
    records, matrix, boundary = case
    ids = [record.function_id for record in records]
    duration = matrix.shape[1]
    trace = Trace(records, dict(zip(ids, matrix)), _metadata(duration))
    assert trace.fingerprint() == reference_dense_fingerprint(
        records, dict(zip(ids, matrix)), duration
    )
    split = split_trace(trace, training_days=boundary / 1440)
    for part, window in (
        (split.training, matrix[:, :boundary]),
        (split.simulation, matrix[:, boundary:]),
    ):
        assert part.fingerprint() == reference_dense_fingerprint(
            records, dict(zip(ids, window)), window.shape[1]
        )
    positions = list(range(0, len(records), 2))
    kept = [records[p] for p in positions]
    assert trace.shard(positions).fingerprint() == reference_dense_fingerprint(
        kept, {ids[p]: matrix[p] for p in positions}, duration
    )


def test_pickled_trace_drops_its_tokens_and_keeps_its_digest():
    records = [FunctionRecord(f"f{i}", "a", "o", memory_mb=128.0) for i in range(3)]
    dense = Trace(
        records,
        {f"f{i}": [i, 0, 1, 2] for i in range(3)},
        TraceMetadata(name="t", duration_minutes=4),
    )
    split = split_trace(csr_built(dense), training_days=2 / 1440)
    clone = pickle.loads(pickle.dumps(split.simulation))
    assert clone._tokens.data is None
    split.training.fingerprint()
    assert split.simulation._tokens.data is not None
    assert clone.fingerprint() == split.simulation.fingerprint()
    assert clone.fingerprint() == reference_fingerprint(split.simulation)
