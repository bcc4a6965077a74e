"""The :class:`Trace` container: per-minute invocation counts plus metadata.

A trace is conceptually a sparse matrix ``counts[function, minute]`` holding
invocation counts, together with a :class:`~repro.traces.schema.FunctionRecord`
for every function.  Functions with zero invocations may still appear in the
trace (they exist in the platform's registry even when idle), which matters
because the paper explicitly reasons about functions that never appear during
training ("unseen" functions).
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


def _csr_index(
    function_ids: tuple[str, ...],
    minutes: np.ndarray,
    findex: np.ndarray,
    counts: np.ndarray,
    duration: int,
) -> InvocationIndex:
    """Assemble an :class:`InvocationIndex` from minute-sorted entries."""
    indptr = np.zeros(duration + 1, dtype=np.int64)
    np.cumsum(np.bincount(minutes, minlength=duration), out=indptr[1:])
    return InvocationIndex(
        function_ids=function_ids,
        index_of={fid: i for i, fid in enumerate(function_ids)},
        indptr=indptr,
        indices=findex,
        counts=counts,
    )


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


class Trace:
    """Per-minute invocation counts for a set of serverless functions.

    Parameters
    ----------
    records:
        Static metadata for every function in the trace.
    counts:
        Mapping from function id to a 1-D integer array of invocation counts,
        one entry per minute.  All arrays must share the same length.
    metadata:
        Optional trace-level metadata; a default is synthesized if omitted.
    """

    def __init__(
        self,
        records: Iterable[FunctionRecord],
        counts: Mapping[str, Sequence[int] | np.ndarray],
        metadata: TraceMetadata | None = None,
    ) -> None:
        self._records: Dict[str, FunctionRecord] = {}
        for record in records:
            if record.function_id in self._records:
                raise ValueError(f"duplicate function id: {record.function_id}")
            self._records[record.function_id] = record

        self._counts: Dict[str, np.ndarray] = {}
        duration = None
        for function_id, series in counts.items():
            if function_id not in self._records:
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
            self._counts[function_id] = array

        missing = set(self._records) - set(self._counts)
        if missing and duration is None:
            raise ValueError("cannot infer trace duration: no invocation series given")
        for function_id in missing:
            self._counts[function_id] = np.zeros(duration, dtype=np.int64)

        if duration is None:
            raise ValueError("a trace must contain at least one function")

        self._duration = int(duration)
        self._invocation_index: InvocationIndex | None = None
        self._fingerprint: str | None = None
        self.metadata = metadata or TraceMetadata(
            name="unnamed", duration_minutes=self._duration
        )
        if self.metadata.duration_minutes != self._duration:
            raise ValueError(
                "metadata.duration_minutes does not match the invocation series length"
            )

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

    def series(self, function_id: str) -> np.ndarray:
        """Return the invocation-count series for ``function_id`` (read-only view)."""
        view = self._counts[function_id].view()
        view.flags.writeable = False
        return view

    def total_invocations(self, function_id: str | None = None) -> int:
        """Total invocation count for one function, or the whole trace."""
        if function_id is not None:
            return int(self._counts[function_id].sum())
        return int(sum(int(series.sum()) for series in self._counts.values()))

    def invoked_function_ids(self) -> list[str]:
        """Ids of functions with at least one invocation in this trace."""
        return [fid for fid, series in self._counts.items() if series.any()]

    # ------------------------------------------------------------------ #
    # Identity and vectorized access
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the trace (records + invocation matrix).

        Used to key on-disk result caches: two traces with the same
        fingerprint produce identical simulation results for the same policy
        and simulator settings.  The per-function metadata is included
        because policies condition on it (application grouping, trigger
        type); the trace-level metadata name is deliberately excluded so
        renaming a slice does not invalidate cached results.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(str(self._duration).encode())
            for function_id, series in self._counts.items():
                record = self._records[function_id]
                digest.update(
                    f"{function_id}\x1f{record.app_id}\x1f{record.owner_id}"
                    f"\x1f{record.trigger.value}\x1e".encode()
                )
                digest.update(series.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

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
        tails = getattr(self, "_tail_indexes", None)
        if tails is None:
            tails = self._tail_indexes = {}
        index = tails.get(start)
        if index is None:
            index = tails[start] = self._minute_index(start)
        return index

    def _minute_index(self, start: int) -> InvocationIndex:
        """Build the minute-major index over the minutes ``[start, duration)``."""
        function_ids = tuple(self._counts)
        chunks_minutes: list[np.ndarray] = []
        chunks_findex: list[np.ndarray] = []
        chunks_counts: list[np.ndarray] = []
        for position, series in enumerate(self._counts.values()):
            window = series[start:]
            nonzero = np.flatnonzero(window)
            if nonzero.size == 0:
                continue
            chunks_minutes.append(nonzero)
            chunks_findex.append(np.full(nonzero.size, position, dtype=np.int64))
            chunks_counts.append(window[nonzero])
        if chunks_minutes:
            minutes = np.concatenate(chunks_minutes)
            findex = np.concatenate(chunks_findex)
            counts = np.concatenate(chunks_counts)
            # Stable sort keeps function insertion order within a minute,
            # matching the dict order produced by iter_minutes().
            order = _minute_order(minutes, self._duration)
            minutes, findex, counts = minutes[order], findex[order], counts[order]
        else:
            minutes = np.zeros(0, dtype=np.int64)
            findex = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
        return _csr_index(function_ids, minutes, findex, counts, self._duration - start)

    def __getstate__(self) -> Dict[str, object]:
        # The invocation indexes are cheap to rebuild and can triple the
        # pickle size; drop them so traces shipped to worker processes stay
        # lean.
        state = dict(self.__dict__)
        state["_invocation_index"] = None
        state.pop("_tail_indexes", None)
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
    # Slicing
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: int, name: str | None = None) -> "Trace":
        """Return a new trace restricted to minutes ``[start, stop)``.

        Every function is retained, even those with no invocation in the
        window, so that "unseen during training" functions remain visible to
        downstream consumers.
        """
        if not 0 <= start < stop <= self._duration:
            raise ValueError(f"invalid slice [{start}, {stop}) for {self._duration} minutes")
        sliced = {fid: series[start:stop].copy() for fid, series in self._counts.items()}
        metadata = TraceMetadata(
            name=name or f"{self.metadata.name}[{start}:{stop}]",
            duration_minutes=stop - start,
            seed=self.metadata.seed,
            extra=dict(self.metadata.extra),
        )
        return Trace(self.records(), sliced, metadata)

    def _checked_shard_positions(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Validate a function-position subset for :meth:`shard`.

        Positions must be strictly increasing: a shard preserves the parent's
        function insertion order, which is what keeps within-minute invocation
        order — and therefore every order-sensitive tie-break downstream —
        identical to the unsharded run restricted to the shard.
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
        return selected

    def shard(self, positions: Sequence[int] | np.ndarray, name: str | None = None) -> "Trace":
        """Return the sub-trace holding only the functions at ``positions``.

        The complement of :meth:`slice`: same minute range, a subset of the
        function population (by insertion-order position, strictly
        increasing).  Used by the sharded execution mode to hand each
        partition its own trace without densifying or copying the rest.
        Cached invocation and tail indexes come along, restricted to the
        shard, so a shard of an indexed trace never sorts.
        """
        selected = self._checked_shard_positions(positions)
        all_ids = list(self._records)
        kept = {all_ids[p]: self._counts[all_ids[p]] for p in selected.tolist()}
        metadata = TraceMetadata(
            name=name or f"{self.metadata.name}/shard{selected.size}",
            duration_minutes=self._duration,
            seed=self.metadata.seed,
            extra=dict(self.metadata.extra),
        )
        return self._carry_indexes(
            Trace([self._records[fid] for fid in kept], kept, metadata), selected
        )

    def _carry_indexes(self, shard: "Trace", selected: np.ndarray) -> "Trace":
        """Give ``shard`` this trace's cached indexes, restricted to ``selected``.

        Restriction drops the other functions' entries and renumbers the
        kept ones in order, so it equals a fresh build over the shard
        without its sort.  That holds only for an index numbered in record
        order, the order the shard builds in: a dense trace whose counts
        mapping came in another order, or lacked some functions, numbers
        its index differently, and its shards build their own.
        """
        cached = dict(getattr(self, "_tail_indexes", {}))
        if self._invocation_index is not None:
            cached[0] = self._invocation_index
        record_ids = tuple(self._records)
        cached = {
            start: index
            for start, index in cached.items()
            if index.function_ids == record_ids
        }
        if not cached:
            return shard
        remap = np.full(len(self._records), -1, dtype=np.int64)
        remap[selected] = np.arange(selected.size, dtype=np.int64)
        function_ids = tuple(shard._records)
        index_of = {fid: i for i, fid in enumerate(function_ids)}
        shard._tail_indexes = {}
        for start, index in cached.items():
            restricted = InvocationIndex(function_ids, index_of, *remap_csr(index, remap))
            if start:
                shard._tail_indexes[start] = restricted
            else:
                shard._invocation_index = restricted
        return shard


class _TokenSlot:
    """A lazily filled slot for the per-record fingerprint tokens.

    The time slices of one sparse trace keep its records in order, so they
    share one slot and the tokens are encoded once for all of them.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: bytes | None = None


class SparseTrace(Trace):
    """A :class:`Trace` stored function-major sparse instead of dense.

    The dense container keeps one ``int64`` array per function covering every
    minute — perfect for the synthetic populations (hundreds of functions),
    impossible for the real Azure 2019 dataset, where 83k functions over 14
    days would be a ~13 GB dense matrix even though well under 2% of its
    entries are non-zero.  ``SparseTrace`` stores the same matrix as one CSR
    layout compressed along the *function* axis:

    ``fn_minutes[fn_indptr[i]:fn_indptr[i + 1]]`` are the minutes at which
    function ``i`` (in record insertion order) is invoked, strictly
    increasing, and ``fn_counts`` holds the matching invocation counts.

    Every :class:`Trace` consumer works unchanged: ``series()`` densifies one
    function on demand (one array, not the whole matrix),
    :meth:`invocation_index` transposes the CSR layout to the minute-major
    index the engines run on — with the same within-minute function order as
    the dense build, so simulation fingerprints cannot depend on which
    container carried the workload — and :meth:`slice`/:func:`split_trace`
    stay sparse end to end.

    The content :meth:`fingerprint` is computed from the sparse arrays
    directly (hashing 13 GB of implicit zeros would defeat the point) and
    additionally covers each record's measured duration profile, so sweep
    cache keys change when the dataset's duration files do.  It lives in a
    distinct ``sparse:`` domain: a sparse and a dense trace never share a
    fingerprint, which keeps cached results unambiguous about their source.
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
        self._records = {}
        for record in records:
            if record.function_id in self._records:
                raise ValueError(f"duplicate function id: {record.function_id}")
            self._records[record.function_id] = record
        if not self._records:
            raise ValueError("a trace must contain at least one function")

        fn_indptr = np.ascontiguousarray(fn_indptr, dtype=np.int64)
        fn_minutes = np.ascontiguousarray(fn_minutes, dtype=np.int64)
        fn_counts = np.ascontiguousarray(fn_counts, dtype=np.int64)
        if fn_indptr.shape != (len(self._records) + 1,):
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

        self._fn_indptr = fn_indptr
        self._fn_minutes = fn_minutes
        self._fn_counts = fn_counts
        self._duration = int(duration)
        self._invocation_index: InvocationIndex | None = None
        self._fingerprint: str | None = None
        self._tokens = _TokenSlot()
        self.metadata = metadata or TraceMetadata(
            name="unnamed", duration_minutes=self._duration
        )
        if self.metadata.duration_minutes != self._duration:
            raise ValueError(
                "metadata.duration_minutes does not match the declared duration"
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, trace: Trace) -> "SparseTrace":
        """Compress a dense :class:`Trace` (mostly useful in tests)."""
        records = trace.records()
        chunks_minutes: list[np.ndarray] = []
        chunks_counts: list[np.ndarray] = []
        lengths = np.zeros(len(records), dtype=np.int64)
        for position, record in enumerate(records):
            series = trace.series(record.function_id)
            nonzero = np.flatnonzero(series)
            lengths[position] = nonzero.size
            if nonzero.size:
                chunks_minutes.append(nonzero)
                chunks_counts.append(series[nonzero])
        indptr = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        minutes = (
            np.concatenate(chunks_minutes) if chunks_minutes else np.zeros(0, np.int64)
        )
        counts = (
            np.concatenate(chunks_counts) if chunks_counts else np.zeros(0, np.int64)
        )
        return cls(
            records, indptr, minutes, counts, trace.duration_minutes, trace.metadata
        )

    def densify(self) -> Trace:
        """The equivalent dense :class:`Trace` (small populations only)."""
        counts = {fid: np.array(self.series(fid)) for fid in self._records}
        return Trace(self.records(), counts, self.metadata)

    def _row(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self._fn_indptr[position], self._fn_indptr[position + 1]
        return self._fn_minutes[start:stop], self._fn_counts[start:stop]

    def _position_of(self, function_id: str) -> int:
        cached = getattr(self, "_index_of", None)
        if cached is None:
            cached = {fid: i for i, fid in enumerate(self._records)}
            self._index_of = cached
        return cached[function_id]

    # ------------------------------------------------------------------ #
    # Overridden dense-storage accessors
    # ------------------------------------------------------------------ #
    def series(self, function_id: str) -> np.ndarray:
        """Densify one function's series on demand (not cached)."""
        minutes, counts = self._row(self._position_of(function_id))
        series = np.zeros(self._duration, dtype=np.int64)
        series[minutes] = counts
        series.flags.writeable = False
        return series

    def total_invocations(self, function_id: str | None = None) -> int:
        if function_id is not None:
            _, counts = self._row(self._position_of(function_id))
            return int(counts.sum())
        return int(self._fn_counts.sum())

    def invoked_function_ids(self) -> list[str]:
        active = np.diff(self._fn_indptr) > 0
        return [fid for position, fid in enumerate(self._records) if active[position]]

    def fingerprint(self) -> str:
        """Content hash over the sparse layout and per-function metadata.

        Unlike the dense fingerprint this also covers measured duration
        profiles and memory footprints: the real dataset's duration files
        feed the event engine and its ``app_memory_percentiles`` files feed
        MB-mode accounting, so two loads differing only in those joins must
        not share cached simulation results.  The memory field is appended
        only when present, keeping fingerprints of memory-less traces
        byte-identical to earlier releases.
        """
        if self._fingerprint is None:
            if self._tokens.data is None:
                self._tokens.data = self._record_tokens()
            digest = hashlib.sha256()
            digest.update(f"sparse:{self._duration}".encode())
            digest.update(self._tokens.data)
            # The arrays are C-contiguous (see __init__): hash them in place.
            digest.update(memoryview(self._fn_indptr))
            digest.update(memoryview(self._fn_minutes))
            digest.update(memoryview(self._fn_counts))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def _record_tokens(self) -> bytes:
        """Every record's ``\\x1e``-terminated fingerprint token, concatenated."""
        tokens = []
        for record in self._records.values():
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
            tokens.append(f"{token}\x1e")
        return "".join(tokens).encode()

    def _minute_index(self, start: int) -> InvocationIndex:
        """Transpose the function-major CSR into the minute-major index.

        The stable sort by minute preserves the function-major input order
        within each minute — i.e. function insertion order, exactly the
        order the dense build produces — so engines see identical per-minute
        function sequences whichever container loaded the trace.  A tail
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
        return _csr_index(
            function_ids, minutes[order], findex[order], counts[order],
            self._duration - start,
        )

    def slice(self, start: int, stop: int, name: str | None = None) -> "SparseTrace":
        """Return the sparse sub-trace over minutes ``[start, stop)``."""
        if not 0 <= start < stop <= self._duration:
            raise ValueError(f"invalid slice [{start}, {stop}) for {self._duration} minutes")
        keep = (self._fn_minutes >= start) & (self._fn_minutes < stop)
        findex = np.repeat(
            np.arange(len(self._records), dtype=np.int64), np.diff(self._fn_indptr)
        )[keep]
        indptr = np.zeros(len(self._records) + 1, dtype=np.int64)
        np.cumsum(np.bincount(findex, minlength=len(self._records)), out=indptr[1:])
        metadata = TraceMetadata(
            name=name or f"{self.metadata.name}[{start}:{stop}]",
            duration_minutes=stop - start,
            seed=self.metadata.seed,
            extra=dict(self.metadata.extra),
        )
        sliced = SparseTrace(
            self.records(),
            indptr,
            self._fn_minutes[keep] - start,
            self._fn_counts[keep],
            stop - start,
            metadata,
        )
        sliced._tokens = self._tokens
        return sliced

    def shard(
        self, positions: Sequence[int] | np.ndarray, name: str | None = None
    ) -> "SparseTrace":
        """CSR row-gather of the functions at ``positions`` — never densifies.

        A pure row slice of the function-major layout: the selected rows'
        ``(minutes, counts)`` runs are gathered into a fresh CSR with a
        reindexed ``fn_indptr``, so sharding an 83k-function trace costs one
        ``np.repeat`` over the kept entries, independent of the population
        left behind.  Positions must be strictly increasing (see
        :meth:`Trace.shard` for why order preservation matters).
        """
        selected = self._checked_shard_positions(positions)
        starts = self._fn_indptr[selected]
        lengths = self._fn_indptr[selected + 1] - starts
        indptr = np.zeros(selected.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        take = (
            np.repeat(starts - indptr[:-1], lengths)
            + np.arange(total, dtype=np.int64)
        )
        all_records = self.records()
        records = [all_records[p] for p in selected.tolist()]
        metadata = TraceMetadata(
            name=name or f"{self.metadata.name}/shard{selected.size}",
            duration_minutes=self._duration,
            seed=self.metadata.seed,
            extra=dict(self.metadata.extra),
        )
        shard = SparseTrace(
            records,
            indptr,
            self._fn_minutes[take],
            self._fn_counts[take],
            self._duration,
            metadata,
        )
        return self._carry_indexes(shard, selected)

    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        # The id -> position map and the fingerprint tokens rebuild lazily;
        # keep worker pickles lean.
        state.pop("_index_of", None)
        state["_tokens"] = _TokenSlot()
        return state


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
