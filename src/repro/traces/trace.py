"""The :class:`Trace` container: per-minute invocation counts plus metadata.

A trace is conceptually a sparse matrix ``counts[function, minute]`` holding
invocation counts, together with a :class:`~repro.traces.schema.FunctionRecord`
for every function.  Functions with zero invocations may still appear in the
trace (they exist in the platform's registry even when idle), which matters
because the paper explicitly reasons about functions that never appear during
training ("unseen" functions).

Every trace stores the matrix as CSR compressed along the *function* axis,
``fn_minutes[fn_indptr[i]:fn_indptr[i + 1]]`` being the minutes at which
function ``i`` (in record order) is invoked, so even the Azure 2019 dataset
(83k functions over 14 days, a ~13 GB dense matrix) fits.  :class:`Trace`
builds it from dense per-function series; :class:`SparseTrace` adopts CSR
arrays as given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.traces.schema import MINUTES_PER_DAY, FunctionRecord, TraceMetadata


@dataclass(frozen=True)
class InvocationIndex:
    """Column-compressed (per-minute) view of a trace's invocation matrix.

    The simulator's hot loop needs, for every minute, the set of invoked
    functions as *integer indices* so residency, cold-start and memory
    accounting can run on numpy boolean masks instead of Python dicts.  The
    index is the CSR layout of the ``counts[function, minute]`` matrix
    compressed along the minute axis:

    ``indices[indptr[m]:indptr[m + 1]]`` are the function indices invoked at
    minute ``m`` (ordered by function insertion order), and ``counts`` holds
    the matching invocation counts.
    """

    #: Function ids, position ``i`` corresponds to function index ``i``.
    function_ids: tuple[str, ...]
    #: Reverse mapping ``function_id -> function index``.
    index_of: Dict[str, int]
    #: CSR row pointer over minutes, length ``duration + 1``.
    indptr: np.ndarray
    #: Function indices invoked per minute, grouped by ``indptr``.
    indices: np.ndarray
    #: Invocation counts aligned with ``indices``.
    counts: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of functions covered by the index."""
        return len(self.function_ids)

    @property
    def duration_minutes(self) -> int:
        """Number of minutes covered by the index."""
        return len(self.indptr) - 1

    def minute_invocations(self) -> tuple:
        """Read-only ``{function_id: count}`` mappings, one per minute.

        Built lazily and cached on the index, so every simulation run over the
        same trace (a policy sweep, every cell of a parallel sweep worker)
        shares one set of mappings instead of rebuilding 1440+ dicts per run.
        The mappings are :class:`types.MappingProxyType` views: policies
        receive them directly, and any accidental mutation raises instead of
        corrupting the shared cache.
        """
        cached = getattr(self, "_minute_invocations", None)
        if cached is None:
            from types import MappingProxyType

            ids = self.function_ids
            indices = self.indices.tolist()
            counts = self.counts.tolist()
            indptr = self.indptr.tolist()
            cached = tuple(
                MappingProxyType(
                    {
                        ids[indices[position]]: counts[position]
                        for position in range(indptr[minute], indptr[minute + 1])
                    }
                )
                for minute in range(self.duration_minutes)
            )
            object.__setattr__(self, "_minute_invocations", cached)
        return cached


def _minute_order(minutes: np.ndarray, duration: int) -> np.ndarray:
    """Stable argsort of ``minutes``, the within-minute entry order kept.

    Minutes of a trace up to 45 days fit 16 bits, where numpy's stable sort
    is a radix sort: several times faster than sorting ``int64`` keys, with
    the identical permutation.
    """
    if duration <= 1 << 16:
        minutes = minutes.astype(np.uint16)
    return np.argsort(minutes, kind="stable")


def remap_csr(
    index: InvocationIndex, remap: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``index``'s CSR arrays with function positions translated by ``remap``.

    ``remap[p]`` is the new position of function ``p``, or ``-1`` to drop
    its entries.  Each minute keeps the order of its remaining entries, so
    a monotone ``remap`` yields exactly the index a fresh build over the
    kept functions would.
    """
    positions = remap[index.indices]
    kept = np.flatnonzero(positions >= 0)
    # Minute m's kept entries start at the number kept before indptr[m].
    return np.searchsorted(kept, index.indptr), positions[kept], index.counts[kept]


def _record_map(records: Iterable[FunctionRecord]) -> Dict[str, FunctionRecord]:
    """``{function_id: record}`` in the given order; duplicate ids rejected."""
    mapping: Dict[str, FunctionRecord] = {}
    for record in records:
        if record.function_id in mapping:
            raise ValueError(f"duplicate function id: {record.function_id}")
        mapping[record.function_id] = record
    return mapping


def _record_token(record: FunctionRecord, sparse: bool) -> str:
    """``record``'s ``\\x1e``-terminated fingerprint token.

    Ids and trigger, then the measured duration profile and memory footprint
    when present; the ``sparse:`` domain marks an absent profile with ``-``.
    """
    token = (
        f"{record.function_id}\x1f{record.app_id}\x1f{record.owner_id}"
        f"\x1f{record.trigger.value}"
    )
    duration = record.duration
    if duration is not None:
        token += f"\x1f{duration.cold_start_ms!r}:{duration.execution_ms!r}"
    elif sparse:
        token += "\x1f-"
    if record.memory_mb is not None:
        token += f"\x1f{record.memory_mb!r}"
    return f"{token}\x1e"


class _TokenSlot:
    """A lazily filled slot for the per-record ``sparse:`` fingerprint tokens.

    The time slices of one trace keep its records in order, so they share
    one slot and the tokens are encoded once for all of them.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: bytes | None = None


class Trace:
    """Per-minute invocation counts for a set of serverless functions.

    Parameters
    ----------
    records:
        Static metadata for every function in the trace.
    counts:
        Mapping from function id to a 1-D integer array of invocation counts,
        one entry per minute.  All arrays must share the same length.  A
        function the mapping omits is never invoked.  Rows follow the order
        of ``records``, whatever the order of the mapping.
    metadata:
        Optional trace-level metadata; a default is synthesized if omitted.
    """

    def __init__(
        self,
        records: Iterable[FunctionRecord],
        counts: Mapping[str, Sequence[int] | np.ndarray],
        metadata: TraceMetadata | None = None,
    ) -> None:
        record_map = _record_map(records)
        given: Dict[str, np.ndarray] = {}
        duration = None
        for function_id, series in counts.items():
            if function_id not in record_map:
                raise KeyError(f"counts provided for unknown function: {function_id}")
            array = np.asarray(series, dtype=np.int64)
            if array.ndim != 1:
                raise ValueError("invocation series must be one-dimensional")
            if (array < 0).any():
                raise ValueError("invocation counts must be non-negative")
            if duration is None:
                duration = array.shape[0]
            elif array.shape[0] != duration:
                raise ValueError("all invocation series must have the same length")
            given[function_id] = array
        if duration is None:
            raise ValueError(
                "cannot infer trace duration: no invocation series given"
                if record_map
                else "a trace must contain at least one function"
            )

        rows = [given.get(fid, np.zeros(0, dtype=np.int64)) for fid in record_map]
        minutes = [np.flatnonzero(row) for row in rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([row.size for row in minutes], out=indptr[1:])
        self._adopt(
            record_map, indptr, np.concatenate(minutes),
            np.concatenate([row[nonzero] for row, nonzero in zip(rows, minutes)]),
            duration, metadata, sparse_digest=False,
        )

    def _adopt(
        self,
        records: Dict[str, FunctionRecord],
        fn_indptr: np.ndarray,
        fn_minutes: np.ndarray,
        fn_counts: np.ndarray,
        duration: int,
        metadata: TraceMetadata | None,
        sparse_digest: bool,
        tokens: _TokenSlot | None = None,
    ) -> None:
        """Take valid, C-contiguous ``int64`` CSR arrays as this trace's data."""
        self._records = records
        self._fn_indptr = fn_indptr
        self._fn_minutes = fn_minutes
        self._fn_counts = fn_counts
        self._duration = int(duration)
        # Which digest fingerprint() computes: fixed by the constructor that
        # built the data, kept by every slice, shard and pickle of it.
        self._sparse_digest = sparse_digest
        self._tokens = tokens or _TokenSlot()
        self._index_of: Dict[str, int] | None = None
        self._invocation_index: InvocationIndex | None = None
        self._tail_indexes: Dict[int, InvocationIndex] = {}
        self._fingerprint: str | None = None
        self.metadata = metadata or TraceMetadata(
            name="unnamed", duration_minutes=self._duration
        )
        if self.metadata.duration_minutes != self._duration:
            raise ValueError("metadata.duration_minutes does not match the trace duration")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def duration_minutes(self) -> int:
        """Number of one-minute slots in the trace."""
        return self._duration

    @property
    def duration_days(self) -> float:
        """Trace duration in days."""
        return self._duration / MINUTES_PER_DAY

    @property
    def function_ids(self) -> list[str]:
        """All function ids, in insertion order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, function_id: object) -> bool:
        return function_id in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def record(self, function_id: str) -> FunctionRecord:
        """Return the static metadata for ``function_id``."""
        return self._records[function_id]

    def records(self) -> list[FunctionRecord]:
        """Return metadata for every function."""
        return list(self._records.values())

    def _row(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self._fn_indptr[position], self._fn_indptr[position + 1]
        return self._fn_minutes[start:stop], self._fn_counts[start:stop]

    def _position_of(self, function_id: str) -> int:
        if self._index_of is None:
            self._index_of = {fid: i for i, fid in enumerate(self._records)}
        return self._index_of[function_id]

    def row(self, function_id: str) -> tuple[np.ndarray, np.ndarray]:
        """``(minutes, counts)`` of ``function_id``'s invocations (read-only views).

        Minutes are strictly increasing and counts positive: what a caller
        that needs only the invoked minutes should read instead of
        :meth:`series`.
        """
        row = self._row(self._position_of(function_id))
        for view in row:
            view.flags.writeable = False
        return row

    def series(self, function_id: str) -> np.ndarray:
        """``function_id``'s dense invocation-count series (read-only, not cached)."""
        minutes, counts = self._row(self._position_of(function_id))
        series = np.zeros(self._duration, dtype=np.int64)
        series[minutes] = counts
        series.flags.writeable = False
        return series

    def total_invocations(self, function_id: str | None = None) -> int:
        """Total invocation count for one function, or the whole trace."""
        if function_id is not None:
            return int(self._row(self._position_of(function_id))[1].sum())
        return int(self._fn_counts.sum())

    def invoked_function_ids(self) -> list[str]:
        """Ids of functions with at least one invocation in this trace."""
        active = np.diff(self._fn_indptr) > 0
        return [fid for position, fid in enumerate(self._records) if active[position]]

    # ------------------------------------------------------------------ #
    # Identity and vectorized access
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the trace (records + invocation matrix).

        Used to key on-disk result caches: two traces with the same
        fingerprint produce identical simulation results for the same policy
        and simulator settings.  The trace-level metadata name is excluded so
        renaming a slice does not invalidate cached results.  The constructor
        that built the data picks the digest, and its slices, shards and
        pickles keep it:

        * dense counts (:class:`Trace`): each record's ids and trigger, then
          its row densified to the full duration;
        * CSR arrays (:class:`SparseTrace`): in a distinct ``sparse:`` domain,
          every record's token, then the arrays themselves.

        Both domains also cover each record's measured duration profile and
        memory footprint, which feed the event engine and MB-mode
        accounting, so two traces differing only in those never share cached
        results.  The dense domain appends each only when present, and the
        sparse domain the memory field, keeping the digests of traces
        without them unchanged.

        The two domains never coincide, which keeps cached results
        unambiguous about their source.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            if self._sparse_digest:
                if self._tokens.data is None:
                    self._tokens.data = self._record_tokens()
                digest.update(f"sparse:{self._duration}".encode())
                digest.update(self._tokens.data)
                # The arrays are C-contiguous: hash them in place.
                digest.update(memoryview(self._fn_indptr))
                digest.update(memoryview(self._fn_minutes))
                digest.update(memoryview(self._fn_counts))
            else:
                digest.update(str(self._duration).encode())
                series = np.zeros(self._duration, dtype=np.int64)
                for position, record in enumerate(self._records.values()):
                    digest.update(_record_token(record, sparse=False).encode())
                    minutes, counts = self._row(position)
                    series[minutes] = counts
                    digest.update(memoryview(series))
                    series[minutes] = 0
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def _record_tokens(self) -> bytes:
        """Every record's ``sparse:`` token, concatenated."""
        return "".join(_record_token(r, sparse=True) for r in self._records.values()).encode()

    def invocation_index(self, start: int = 0) -> InvocationIndex:
        """The cached :class:`InvocationIndex` of this trace, or of its tail.

        Built once per trace and shared across simulation runs, so sweeping
        many policies over the same window pays the trace scan only once.
        With ``start > 0`` the index covers only the minutes
        ``[start, duration)``, renumbered from 0: the warm-up replay reads
        the last day of a 12-day training window without transposing the
        other eleven.  Tail indexes are cached per ``start``.
        """
        if start == 0:
            if self._invocation_index is None:
                self._invocation_index = self._minute_index(0)
            return self._invocation_index
        if not 0 < start <= self._duration:
            raise IndexError(f"start {start} outside trace of {self._duration} minutes")
        index = self._tail_indexes.get(start)
        if index is None:
            index = self._tail_indexes[start] = self._minute_index(start)
        return index

    def _minute_index(self, start: int) -> InvocationIndex:
        """Transpose the function-major CSR into the minute-major index.

        The stable sort by minute keeps the function-major order within each
        minute, so every index numbers functions in record order.  A tail
        index (``start > 0``) sorts only the entries inside the tail.
        """
        function_ids = tuple(self._records)
        minutes, counts = self._fn_minutes, self._fn_counts
        if start:
            # Only the tail's entries get a function index: locate each
            # kept entry's row instead of expanding every row.
            kept = np.flatnonzero(minutes >= start)
            findex = np.searchsorted(self._fn_indptr, kept, side="right") - 1
            minutes, counts = minutes[kept] - start, counts[kept]
        else:
            findex = np.repeat(
                np.arange(len(function_ids), dtype=np.int64), np.diff(self._fn_indptr)
            )
        order = _minute_order(minutes, self._duration)
        duration = self._duration - start
        indptr = np.zeros(duration + 1, dtype=np.int64)
        np.cumsum(np.bincount(minutes, minlength=duration), out=indptr[1:])
        return InvocationIndex(
            function_ids=function_ids,
            index_of={fid: i for i, fid in enumerate(function_ids)},
            indptr=indptr,
            indices=findex[order],
            counts=counts[order],
        )

    def __getstate__(self) -> Dict[str, object]:
        # The indexes, the id -> position map and the fingerprint tokens are
        # cheap to rebuild and can triple the pickle size; drop them so
        # traces shipped to worker processes stay lean.
        state = dict(self.__dict__)
        state.update(
            _invocation_index=None, _tail_indexes={}, _index_of=None, _tokens=_TokenSlot()
        )
        return state

    # ------------------------------------------------------------------ #
    # Grouping helpers used by application-grained policies and COR mining
    # ------------------------------------------------------------------ #
    def functions_by_app(self) -> Dict[str, list[str]]:
        """Group function ids by application id."""
        groups: Dict[str, list[str]] = {}
        for record in self._records.values():
            groups.setdefault(record.app_id, []).append(record.function_id)
        return groups

    def functions_by_owner(self) -> Dict[str, list[str]]:
        """Group function ids by owner (user) id."""
        groups: Dict[str, list[str]] = {}
        for record in self._records.values():
            groups.setdefault(record.owner_id, []).append(record.function_id)
        return groups

    def functions_by_trigger(self) -> Dict[str, list[str]]:
        """Group function ids by trigger type value."""
        groups: Dict[str, list[str]] = {}
        for record in self._records.values():
            groups.setdefault(record.trigger.value, []).append(record.function_id)
        return groups

    # ------------------------------------------------------------------ #
    # Slicing and sharding
    # ------------------------------------------------------------------ #
    def _part(self, name: str, duration: int) -> TraceMetadata:
        """Metadata of a slice or shard: this trace's, renamed and resized."""
        return TraceMetadata(
            name=name,
            duration_minutes=duration,
            seed=self.metadata.seed,
            extra=dict(self.metadata.extra),
        )

    def slice(self, start: int, stop: int, name: str | None = None) -> "Trace":
        """Return a new trace restricted to minutes ``[start, stop)``.

        Every function is retained, even those with no invocation in the
        window, so that "unseen during training" functions remain visible to
        downstream consumers.
        """
        if not 0 <= start < stop <= self._duration:
            raise ValueError(f"invalid slice [{start}, {stop}) for {self._duration} minutes")
        keep = (self._fn_minutes >= start) & (self._fn_minutes < stop)
        # Row i's kept entries start at the number kept before fn_indptr[i].
        indptr = np.concatenate(([0], np.cumsum(keep)))[self._fn_indptr]
        sliced = object.__new__(type(self))
        sliced._adopt(
            dict(self._records), indptr, self._fn_minutes[keep] - start,
            self._fn_counts[keep], stop - start,
            self._part(name or f"{self.metadata.name}[{start}:{stop}]", stop - start),
            self._sparse_digest, self._tokens,
        )
        return sliced

    def shard(self, positions: Sequence[int] | np.ndarray, name: str | None = None) -> "Trace":
        """Return the sub-trace holding only the functions at ``positions``.

        The complement of :meth:`slice`: same minute range, a subset of the
        function population by record-order position.  Used by the sharded
        execution mode to hand each partition its own trace.  A row gather
        of the CSR layout: sharding an 83k-function trace costs one
        ``np.repeat`` over the kept entries.

        Positions must be strictly increasing: a shard preserves the parent's
        function order, which is what keeps within-minute invocation order —
        and therefore every order-sensitive tie-break downstream — identical
        to the unsharded run restricted to the shard.  Cached invocation and
        tail indexes come along, restricted to the shard, so a shard of an
        indexed trace never sorts: restriction drops the other functions'
        entries and renumbers the kept ones in order, which equals a fresh
        build over the shard.
        """
        selected = np.asarray(positions, dtype=np.int64)
        if selected.ndim != 1 or selected.size == 0:
            raise ValueError("a shard needs at least one function position")
        if selected[0] < 0 or selected[-1] >= len(self._records):
            raise ValueError(
                f"shard positions outside [0, {len(self._records)}) function range"
            )
        if selected.size > 1 and (np.diff(selected) <= 0).any():
            raise ValueError("shard positions must be strictly increasing")

        starts = self._fn_indptr[selected]
        lengths = self._fn_indptr[selected + 1] - starts
        indptr = np.zeros(selected.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(
            int(indptr[-1]), dtype=np.int64
        )
        ids = list(self._records)
        records = {ids[p]: self._records[ids[p]] for p in selected.tolist()}
        shard = object.__new__(type(self))
        shard._adopt(
            records, indptr, self._fn_minutes[take], self._fn_counts[take],
            self._duration,
            self._part(name or f"{self.metadata.name}/shard{selected.size}", self._duration),
            self._sparse_digest,
        )

        cached = dict(self._tail_indexes)
        if self._invocation_index is not None:
            cached[0] = self._invocation_index
        remap = np.full(len(self._records), -1, dtype=np.int64)
        remap[selected] = np.arange(selected.size, dtype=np.int64)
        function_ids = tuple(records)
        index_of = {fid: i for i, fid in enumerate(function_ids)}
        for start, index in cached.items():
            restricted = InvocationIndex(function_ids, index_of, *remap_csr(index, remap))
            if start:
                shard._tail_indexes[start] = restricted
            else:
                shard._invocation_index = restricted
        return shard


class SparseTrace(Trace):
    """A :class:`Trace` adopted from function-major CSR arrays.

    ``fn_minutes[fn_indptr[i]:fn_indptr[i + 1]]`` are the minutes at which
    function ``i`` (in record order) is invoked, strictly increasing, and
    ``fn_counts`` holds the matching, positive invocation counts.  The arrays
    are validated and then kept as they are: this is how a population no
    dense matrix could hold, such as the Azure 2019 dataset, becomes a trace.
    The trace, its slices and its shards keep the ``sparse:`` digest of
    :meth:`Trace.fingerprint`.
    """

    def __init__(
        self,
        records: Iterable[FunctionRecord],
        fn_indptr: np.ndarray,
        fn_minutes: np.ndarray,
        fn_counts: np.ndarray,
        duration: int,
        metadata: TraceMetadata | None = None,
    ) -> None:
        record_map = _record_map(records)
        if not record_map:
            raise ValueError("a trace must contain at least one function")
        fn_indptr = np.ascontiguousarray(fn_indptr, dtype=np.int64)
        fn_minutes = np.ascontiguousarray(fn_minutes, dtype=np.int64)
        fn_counts = np.ascontiguousarray(fn_counts, dtype=np.int64)
        if fn_indptr.shape != (len(record_map) + 1,):
            raise ValueError("fn_indptr must have one entry per function plus one")
        if fn_indptr[0] != 0 or (np.diff(fn_indptr) < 0).any():
            raise ValueError("fn_indptr must be non-decreasing and start at 0")
        if fn_minutes.shape != fn_counts.shape or fn_minutes.ndim != 1:
            raise ValueError("fn_minutes and fn_counts must be 1-D and aligned")
        if fn_indptr[-1] != fn_minutes.shape[0]:
            raise ValueError("fn_indptr does not cover the fn_minutes entries")
        if int(duration) <= 0:
            raise ValueError("duration must be positive")
        if fn_minutes.size:
            if fn_minutes.min() < 0 or fn_minutes.max() >= int(duration):
                raise ValueError("fn_minutes outside the trace duration")
            if (fn_counts <= 0).any():
                raise ValueError("sparse entries must hold positive counts")
            # Strictly increasing within each function's row: the only
            # allowed non-positive jumps in the concatenated minute stream
            # are the resets at row boundaries.
            jumps = np.diff(fn_minutes) <= 0
            boundaries = np.zeros(fn_minutes.size - 1, dtype=bool)
            interior = fn_indptr[1:-1]
            boundaries[interior[(interior > 0) & (interior < fn_minutes.size)] - 1] = True
            if (jumps & ~boundaries).any():
                raise ValueError("fn_minutes must be strictly increasing per function")
        self._adopt(
            record_map, fn_indptr, fn_minutes, fn_counts, duration, metadata,
            sparse_digest=True,
        )


@dataclass(frozen=True)
class TraceSplit:
    """A training/simulation split of a trace, as used in the paper (12 + 2 days)."""

    training: Trace
    simulation: Trace

    @property
    def unseen_function_ids(self) -> list[str]:
        """Functions invoked during simulation but never during training."""
        trained = set(self.training.invoked_function_ids())
        return [
            fid
            for fid in self.simulation.invoked_function_ids()
            if fid not in trained
        ]


def split_trace(trace: Trace, training_days: float = 12.0) -> TraceSplit:
    """Split ``trace`` into training and simulation windows.

    The paper uses the first 12 days of the 14-day Azure trace for pattern
    modelling and the final 2 days for simulation.

    Parameters
    ----------
    trace:
        The full trace to split.
    training_days:
        Number of days assigned to the training window.  Must leave at least
        one minute for simulation.
    """
    boundary = int(round(training_days * MINUTES_PER_DAY))
    if not 0 < boundary < trace.duration_minutes:
        raise ValueError(
            f"training_days={training_days} does not fit a trace of "
            f"{trace.duration_days:.2f} days"
        )
    training = trace.slice(0, boundary, name=f"{trace.metadata.name}-train")
    simulation = trace.slice(
        boundary, trace.duration_minutes, name=f"{trace.metadata.name}-sim"
    )
    return TraceSplit(training=training, simulation=simulation)
