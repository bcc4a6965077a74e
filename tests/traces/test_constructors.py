"""The two trace constructors hold one layout and agree on every read.

``Trace(records, counts)`` converts dense per-function series to CSR rows
in record order; ``SparseTrace`` adopts CSR arrays.  Given the same matrix
they must answer every accessor identically and differ only in the digest
their :meth:`~repro.traces.Trace.fingerprint` computes.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from trace_builders import csr_trace
from repro.traces import FunctionRecord, Trace
from repro.traces.schema import TraceMetadata


@st.composite
def matrices(draw):
    """A count matrix (some rows silent), a counts-mapping order and cut points."""
    n_functions = draw(st.integers(1, 7))
    duration = draw(st.integers(2, 30))
    matrix = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.integers(0, 3).map(lambda c: c if c > 1 else 0),
                    min_size=duration,
                    max_size=duration,
                ),
                min_size=n_functions,
                max_size=n_functions,
            )
        ),
        dtype=np.int64,
    )
    order = draw(st.permutations(range(n_functions)))
    given_rows = draw(st.integers(1, n_functions))
    start = draw(st.integers(0, duration - 2))
    stop = draw(st.integers(start + 1, duration))
    tail = draw(st.integers(1, duration))
    positions = draw(
        st.lists(st.integers(0, n_functions - 1), min_size=1, unique=True).map(sorted)
    )
    return matrix, order, given_rows, (start, stop), tail, positions


def assert_same_index(a, b):
    assert a.function_ids == b.function_ids
    assert a.index_of == b.index_of
    for name in ("indptr", "indices", "counts"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)


def assert_same_reads(a: Trace, b: Trace, tail: int) -> None:
    assert a.function_ids == b.function_ids
    assert a.records() == b.records()
    assert a.duration_minutes == b.duration_minutes
    assert a.total_invocations() == b.total_invocations()
    assert a.invoked_function_ids() == b.invoked_function_ids()
    for fid in a.function_ids:
        np.testing.assert_array_equal(a.series(fid), b.series(fid))
        for left, right in zip(a.row(fid), b.row(fid)):
            np.testing.assert_array_equal(left, right)
        assert a.total_invocations(fid) == b.total_invocations(fid)
    assert_same_index(a.invocation_index(), b.invocation_index())
    if 0 < tail <= a.duration_minutes:
        assert_same_index(a.invocation_index(tail), b.invocation_index(tail))


@settings(max_examples=150, deadline=None)
@given(case=matrices())
def test_dense_and_csr_built_traces_agree(case):
    matrix, order, given_rows, (start, stop), tail, positions = case
    n_functions, duration = matrix.shape
    records = [FunctionRecord(f"f{i}", f"a{i % 2}", "o") for i in range(n_functions)]
    metadata = TraceMetadata(name="t", duration_minutes=duration)
    # The mapping may come in any order; the rows it omits are silent.
    matrix[list(order[given_rows:])] = 0
    dense = Trace(records, {f"f{i}": matrix[i] for i in order[:given_rows]}, metadata)
    csr = csr_trace(records, matrix, metadata)

    assert_same_reads(dense, csr, tail)
    for fid in dense.function_ids:
        minutes, counts = dense.row(fid)
        np.testing.assert_array_equal(minutes, np.flatnonzero(dense.series(fid)))
        assert (counts > 0).all()
        with pytest.raises(ValueError):
            minutes[:1] = 0
    assert_same_reads(dense.slice(start, stop), csr.slice(start, stop), tail - start)
    assert_same_reads(dense.shard(positions), csr.shard(positions), tail)
    for trace in (dense, csr):
        clone = pickle.loads(pickle.dumps(trace))
        assert type(clone) is type(trace)
        assert clone.fingerprint() == trace.fingerprint()
        assert_same_reads(clone, trace, tail)
    # Each keeps its own digest domain through slicing and sharding.
    assert dense.fingerprint() != csr.fingerprint()
    assert dense.slice(start, stop).fingerprint() == Trace(
        records,
        {f"f{i}": matrix[i, start:stop] for i in range(n_functions)},
        TraceMetadata(name="s", duration_minutes=stop - start),
    ).fingerprint()
    assert csr.shard(positions).fingerprint() == csr_trace(
        [records[p] for p in positions], matrix[positions], metadata
    ).fingerprint()


_BUILD = """
import json
from repro.traces import FunctionRecord, Trace
records = [FunctionRecord(f"f{i}", "a", "o") for i in range(6)]
trace = Trace(records, {"f3": [0, 2, 1, 0]})
print(json.dumps([trace.fingerprint(), list(trace.invocation_index().function_ids)]))
"""


def test_dense_trace_does_not_depend_on_the_hash_seed():
    """A mapping that omits several functions once filled them in set order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _BUILD], env=env, capture_output=True, text=True,
            check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    records = [FunctionRecord(f"f{i}", "a", "o") for i in range(6)]
    local = Trace(records, {"f3": [0, 2, 1, 0]})
    assert local.invocation_index().function_ids == tuple(f"f{i}" for i in range(6))
