"""One invocation matrix through either trace constructor.

:class:`~repro.traces.Trace` builds its CSR rows from dense per-function
series and keeps the dense digest; :class:`~repro.traces.SparseTrace`
adopts CSR arrays and keeps the ``sparse:`` digest.  Tests that compare
the two, or need a trace of each kind, build one with these helpers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.traces import FunctionRecord, SparseTrace, Trace
from repro.traces.schema import TraceMetadata


def csr_trace(
    records: Sequence[FunctionRecord],
    matrix: Sequence[Sequence[int]] | np.ndarray,
    metadata: TraceMetadata | None = None,
) -> SparseTrace:
    """The ``(function, minute)`` count ``matrix`` through the CSR constructor.

    Row ``i`` of ``matrix`` belongs to ``records[i]``.  The CSR arrays come
    from ``np.nonzero`` over the whole matrix, not from any trace code.
    """
    matrix = np.asarray(matrix, dtype=np.int64).reshape(len(records), -1)
    rows, minutes = np.nonzero(matrix)
    indptr = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(records)), out=indptr[1:])
    return SparseTrace(
        records, indptr, minutes, matrix[rows, minutes], matrix.shape[1], metadata
    )


def csr_built(trace: Trace) -> SparseTrace:
    """``trace``'s matrix, records and metadata through the CSR constructor."""
    matrix = [trace.series(fid) for fid in trace.function_ids]
    return csr_trace(trace.records(), matrix, trace.metadata)


def dense_built(trace: Trace) -> Trace:
    """``trace``'s matrix, records and metadata through the dense builder."""
    counts = {fid: trace.series(fid) for fid in trace.function_ids}
    return Trace(trace.records(), counts, trace.metadata)
