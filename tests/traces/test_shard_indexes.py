"""Shards carry their parent's cached invocation indexes by restriction.

``Trace.shard`` hands a shard the parent's cached invocation index and
tail indexes restricted to the kept functions instead of sorting its own.
The restriction must equal a fresh build over the shard, array for array,
whichever constructor built the trace.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import invocations_at
from trace_builders import csr_built
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


@st.composite
def sharded_traces(draw):
    """A random dense trace, strictly increasing shard positions and a tail start."""
    n_functions = draw(st.integers(1, 8))
    duration = draw(st.integers(1, 30))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(0, 3).map(lambda c: c if c > 1 else 0),
                min_size=duration,
                max_size=duration,
            ),
            min_size=n_functions,
            max_size=n_functions,
        )
    )
    # The counts mapping may come in any order and omit functions (they get
    # zero series): the trace still numbers its rows in record order.
    order = draw(st.permutations(range(n_functions)))
    given = draw(st.integers(1, n_functions))
    records = [FunctionRecord(f"f{i}", f"a{i % 2}", "o") for i in range(n_functions)]
    trace = Trace(
        records,
        {f"f{i}": rows[i] for i in order[:given]},
        TraceMetadata(name="t", duration_minutes=duration),
    )
    positions = draw(
        st.lists(st.integers(0, n_functions - 1), min_size=1, unique=True).map(sorted)
    )
    start = draw(st.integers(1, duration))
    return trace, np.asarray(positions, dtype=np.int64), start


def assert_same_index(carried, fresh):
    assert carried.function_ids == fresh.function_ids
    assert carried.index_of == fresh.index_of
    for name in ("indptr", "indices", "counts"):
        array, expected = getattr(carried, name), getattr(fresh, name)
        assert array.dtype == expected.dtype
        np.testing.assert_array_equal(array, expected)


@settings(max_examples=150, deadline=None)
@given(case=sharded_traces(), sparse=st.booleans())
def test_carried_indexes_equal_fresh_builds(case, sparse):
    trace, positions, start = case
    if sparse:
        trace = csr_built(trace)
    assert trace.invocation_index().function_ids == tuple(trace.function_ids)
    trace.invocation_index(start)
    shard = trace.shard(positions)
    # Always carried, never rebuilt on first use: every index is numbered
    # in record order.
    assert shard._invocation_index is not None
    assert set(shard._tail_indexes) == {start}
    assert_same_index(shard.invocation_index(), shard._minute_index(0))
    assert_same_index(shard.invocation_index(start), shard._minute_index(start))


@settings(max_examples=50, deadline=None)
@given(case=sharded_traces(), sparse=st.booleans())
def test_shard_of_unindexed_trace_builds_its_own(case, sparse):
    trace, positions, start = case
    if sparse:
        trace = csr_built(trace)
    shard = trace.shard(positions)
    assert shard._invocation_index is None
    assert not shard._tail_indexes
    assert_same_index(shard.invocation_index(start), shard._minute_index(start))


def test_shard_of_trace_built_from_partial_counts_keeps_its_traffic():
    records = [FunctionRecord(f"f{i}", "a", "o") for i in range(3)]
    trace = Trace(
        records,
        {"f0": [1, 0, 2], "f2": [0, 3, 0]},
        TraceMetadata(name="t", duration_minutes=3),
    )
    assert trace.invocation_index().function_ids == ("f0", "f1", "f2")
    shard = trace.shard([1, 2])
    assert [invocations_at(shard, m) for m in range(3)] == [{}, {"f2": 3}, {}]
    index = shard.invocation_index()
    assert index.function_ids == ("f1", "f2")
    np.testing.assert_array_equal(index.indices, [1])
    np.testing.assert_array_equal(index.counts, [3])


def test_shard_keeps_fingerprint_of_a_fresh_cut():
    records = [FunctionRecord(f"f{i}", "a", "o") for i in range(4)]
    counts = {f"f{i}": [(i + m) % 3 for m in range(12)] for i in range(4)}
    trace = csr_built(
        Trace(records, counts, TraceMetadata(name="t", duration_minutes=12))
    )
    cold = trace.shard([0, 2])
    trace.invocation_index()
    trace.invocation_index(5)
    warm = trace.shard([0, 2])
    assert warm.fingerprint() == cold.fingerprint()
    assert_same_index(warm.invocation_index(), cold.invocation_index())
    assert_same_index(warm.invocation_index(5), cold.invocation_index(5))
