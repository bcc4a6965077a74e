"""Streaming ingestion of the real Azure Functions 2019 dataset.

The paper evaluates on the trace released with Shahrad et al. (ATC'20):
fourteen daily CSV files per file family, where day ``DD`` runs 01..14:

``invocations_per_function_md.anon.dDD.csv``
    ``HashOwner, HashApp, HashFunction, Trigger, 1, ..., 1440`` — per-minute
    invocation counts for every (owner, app, function) triple active that
    day.
``function_durations_percentiles.anon.dDD.csv``
    ``HashOwner, HashApp, HashFunction, Average, Count, Minimum, Maximum,
    percentile_Average_{0,1,25,50,75,99,100}`` — execution-duration
    statistics in milliseconds, weighted by ``Count``.
``app_memory_percentiles.anon.dDD.csv``
    ``HashOwner, HashApp, SampleCount, AverageAllocatedMb, ...`` — per-app
    allocated-memory percentiles in megabytes, weighted by ``SampleCount``.

At full scale (~83k functions x 14 days) the invocation matrix is ~13 GB
dense, so this module never materializes it: daily files are scanned twice
(once to *select* functions, once to *assemble* their sparse series) and the
function-major CSR arrays go straight to the
:class:`~repro.traces.trace.SparseTrace` constructor, whose trace keeps them
as they are and whose :meth:`~repro.traces.trace.Trace.invocation_index`
feeds the engines directly.  Duration percentiles are joined into
per-function *measured* :class:`~repro.traces.schema.DurationProfile`\\ s
for the sub-minute event engine; functions without a duration row fall
back to the archetype/trigger derivation in
:func:`~repro.traces.archetypes.duration_profile_for`.
Memory percentiles are joined into per-function measured footprints
(``FunctionRecord.memory_mb``): the dataset reports memory per *app*, so
each app's allocation is fanned out equally over the functions the dataset
groups under it; functions whose app has no memory row keep
``memory_mb=None`` and MB-mode accounting falls back to its documented
default footprint.

Loads are cached on disk as ``.npz`` archives keyed by a content fingerprint
over the source files *and* the ingestion options, so re-running a sweep
against an unchanged dataset replays the cached arrays in milliseconds and
any edit to a CSV (or to the options) transparently re-ingests.

The downloader (:func:`fetch_azure2019`) is optional and never exercised by
tests: :func:`write_azure2019_fixture` emits miniature CSVs in the exact
dataset schema, so the whole pipeline runs hermetically in CI.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import tarfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.traces.archetypes import TRIGGER_DURATION_PROFILES
from repro.traces.schema import (
    MINUTES_PER_DAY,
    DurationProfile,
    FunctionRecord,
    TraceMetadata,
    TriggerType,
)
from repro.traces.trace import SparseTrace

__all__ = [
    "AzureIngestError",
    "Azure2019Config",
    "Azure2019Dataset",
    "DATASET_URL",
    "DURATIONS_TEMPLATE",
    "INVOCATIONS_TEMPLATE",
    "MEMORY_PERCENTILES",
    "MEMORY_TEMPLATE",
    "fetch_azure2019",
    "iter_invocation_rows",
    "load_azure2019",
    "parse_trigger",
    "write_azure2019_fixture",
]

#: File-name templates of the three dataset file families (day is 1-based).
INVOCATIONS_TEMPLATE = "invocations_per_function_md.anon.d{day:02d}.csv"
DURATIONS_TEMPLATE = "function_durations_percentiles.anon.d{day:02d}.csv"
MEMORY_TEMPLATE = "app_memory_percentiles.anon.d{day:02d}.csv"

#: Number of daily files in the published dataset.
N_DAYS = 14

#: Public download location of the packed dataset (~1.9 GB compressed).
DATASET_URL = (
    "https://azurecloudpublicdataset2.blob.core.windows.net/"
    "azurepublicdatasetv2/azurefunctions_dataset2019/"
    "azurefunctions-dataset2019.tar.xz"
)

#: Version stamp of the on-disk cache layout; bump to invalidate old caches.
#: v2: archives carry a per-function ``memory_mb`` vector (NaN = no row).
CACHE_SCHEMA = 2

#: Percentile columns published by the app-memory file family.
MEMORY_PERCENTILES = (1, 5, 25, 50, 75, 95, 99, 100)

#: Mapping from the trace's ``Trigger`` column values to :class:`TriggerType`.
_TRIGGER_ALIASES: Dict[str, TriggerType] = {
    "http": TriggerType.HTTP,
    "timer": TriggerType.TIMER,
    "queue": TriggerType.QUEUE,
    "storage": TriggerType.STORAGE,
    "blob": TriggerType.STORAGE,
    "event": TriggerType.EVENT,
    "eventhub": TriggerType.EVENT,
    "orchestration": TriggerType.ORCHESTRATION,
    "durable": TriggerType.ORCHESTRATION,
    "others": TriggerType.OTHERS,
    "other": TriggerType.OTHERS,
    "combination": TriggerType.COMBINATION,
}


class AzureIngestError(ValueError):
    """A dataset file that cannot be parsed safely (truncated, garbled...)."""


def parse_trigger(raw: str) -> TriggerType:
    """Map a raw trigger string from the CSV to a :class:`TriggerType`.

    Unknown trigger labels are mapped to :attr:`TriggerType.OTHERS` rather
    than rejected, since the public trace contains a long tail of trigger
    variants.
    """
    return _TRIGGER_ALIASES.get(raw.strip().lower(), TriggerType.OTHERS)


# --------------------------------------------------------------------- #
# Row-level streaming reader
# --------------------------------------------------------------------- #
def iter_invocation_rows(
    path: str | Path,
) -> Iterator[Tuple[int, str, str, str, str, np.ndarray, np.ndarray]]:
    """Stream one daily invocation CSV as sparse per-row entries.

    Yields ``(line, owner, app, func, trigger, minutes, counts)`` per data
    row, where ``minutes``/``counts`` hold only the row's non-zero entries
    (0-based minute offsets within the day, clamped to
    :data:`~repro.traces.schema.MINUTES_PER_DAY` columns).  The file is never
    materialized whole: one row is parsed at a time, with the per-minute
    conversion vectorized over the row.

    A row with fewer than the four id columns raises
    :class:`AzureIngestError` naming the file and line — a truncated
    download should fail loudly.  Non-numeric or negative counts raise too:
    silently guessing a count would corrupt every downstream statistic.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        minute_columns = len(header) - 4
        if minute_columns <= 0:
            raise AzureIngestError(
                f"{path.name}: expected minute columns after the 4 id columns"
            )
        usable = min(minute_columns, MINUTES_PER_DAY)
        for line, row in enumerate(reader, start=2):
            if not any(field.strip() for field in row):
                continue  # blank line
            if len(row) < 4:
                raise AzureIngestError(
                    f"{path.name}:{line}: truncated row "
                    f"({len(row)} column(s), expected at least 4)"
                )
            fields = np.asarray(row[4 : 4 + usable])
            mask = (fields != "0") & (fields != "")
            if mask.any():
                try:
                    values = fields[mask].astype(np.float64)
                except ValueError as error:
                    raise AzureIngestError(
                        f"{path.name}:{line}: invalid invocation count ({error})"
                    ) from None
                if (values < 0).any():
                    raise AzureIngestError(
                        f"{path.name}:{line}: negative invocation count"
                    )
                counts = values.astype(np.int64)
                nonzero = counts > 0
                minutes = np.flatnonzero(mask)[nonzero]
                counts = counts[nonzero]
            else:
                minutes = np.zeros(0, dtype=np.int64)
                counts = np.zeros(0, dtype=np.int64)
            yield line, row[0], row[1], row[2], row[3], minutes, counts


def day_number(path: str | Path) -> int | None:
    """The 1-based day a dataset file name encodes, or ``None``.

    Matches both the published names (``...anon.d07.csv``) and the short
    ``d07.csv`` spelling used throughout the test fixtures.
    """
    match = re.search(r"d(\d{2})\.csv$", Path(path).name)
    return int(match.group(1)) if match else None


# --------------------------------------------------------------------- #
# Ingestion options
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Azure2019Config:
    """Options of one ingestion pass (participates in the cache key).

    Attributes
    ----------
    days:
        1-based dataset days to load, in ascending order.  The loaded trace
        concatenates exactly these days; day-range *slicing* is therefore a
        property of the load, not a post-processing step.
    triggers:
        Optional trigger filter: keep only functions whose (first-seen)
        trigger parses to one of these :class:`TriggerType` values.  Accepts
        the enum members or their string values.
    selection / max_functions:
        ``"all"`` keeps every surviving function (optionally capped at
        ``max_functions`` in first-seen order); ``"top"`` keeps the
        ``max_functions`` most-invoked ones; ``"sample"`` draws
        ``max_functions`` uniformly with ``seed``.  Either way the loaded
        trace lists functions in dataset first-seen order, so the CSR layout
        is reproducible.
    seed:
        Seed of the ``"sample"`` selection draw (ignored otherwise).
    min_invocations:
        Drop functions with fewer total invocations across the loaded days.
    join_durations:
        When True (default), join the duration-percentile files into
        per-function measured :class:`DurationProfile`\\ s.  Functions
        without a duration row keep ``duration=None`` and fall back to the
        archetype/trigger derivation — the documented degradation for the
        dataset's partial coverage.
    join_memory:
        When True (default), join the app-memory-percentile files into
        per-function measured footprints (``FunctionRecord.memory_mb``).
        The dataset reports memory per *app*: the app's
        ``SampleCount``-weighted mean across the loaded days is divided
        equally over the functions the dataset groups under that app.
        Functions whose app has no memory row keep ``memory_mb=None``.
    memory_percentile:
        Which column of the memory family feeds the join: ``"average"``
        (default, the ``AverageAllocatedMb`` column) or one of the published
        percentiles in :data:`MEMORY_PERCENTILES` (e.g. ``95`` selects
        ``AverageAllocatedMb_pct95``).
    """

    days: Tuple[int, ...] = tuple(range(1, N_DAYS + 1))
    triggers: Tuple[str, ...] | None = None
    selection: str = "all"
    max_functions: int | None = None
    seed: int = 0
    min_invocations: int = 0
    join_durations: bool = True
    join_memory: bool = True
    memory_percentile: str | int = "average"

    def __post_init__(self) -> None:
        days = tuple(int(day) for day in self.days)
        if not days:
            raise ValueError("at least one dataset day is required")
        if len(set(days)) != len(days):
            raise ValueError(f"duplicate days in {days}")
        if any(day < 1 for day in days):
            raise ValueError("dataset days are 1-based")
        object.__setattr__(self, "days", tuple(sorted(days)))
        if self.selection not in ("all", "top", "sample"):
            raise ValueError("selection must be 'all', 'top' or 'sample'")
        if self.selection in ("top", "sample") and self.max_functions is None:
            raise ValueError(f"selection={self.selection!r} requires max_functions")
        if self.max_functions is not None and self.max_functions <= 0:
            raise ValueError("max_functions must be positive")
        if self.triggers is not None:
            normalized = tuple(
                sorted(
                    trigger.value if isinstance(trigger, TriggerType) else str(trigger)
                    for trigger in self.triggers
                )
            )
            valid = {trigger.value for trigger in TriggerType}
            unknown = set(normalized) - valid
            if unknown:
                raise ValueError(
                    f"unknown trigger filter(s) {sorted(unknown)}; valid: {sorted(valid)}"
                )
            object.__setattr__(self, "triggers", normalized)
        if self.memory_percentile != "average":
            if (
                isinstance(self.memory_percentile, bool)
                or not isinstance(self.memory_percentile, int)
                or self.memory_percentile not in MEMORY_PERCENTILES
            ):
                raise ValueError(
                    "memory_percentile must be 'average' or one of "
                    f"{list(MEMORY_PERCENTILES)}"
                )

    @property
    def duration_minutes(self) -> int:
        """Minutes the loaded trace spans (selected days, concatenated)."""
        return len(self.days) * MINUTES_PER_DAY

    def canonical(self) -> str:
        """Stable JSON form, hashed into the cache key."""
        return json.dumps(
            {
                "days": list(self.days),
                "triggers": list(self.triggers) if self.triggers else None,
                "selection": self.selection,
                "max_functions": self.max_functions,
                "seed": self.seed,
                "min_invocations": self.min_invocations,
                "join_durations": self.join_durations,
                "join_memory": self.join_memory,
                "memory_percentile": self.memory_percentile,
            },
            sort_keys=True,
        )


# --------------------------------------------------------------------- #
# The dataset handle: resolve files, fingerprint, load (with cache)
# --------------------------------------------------------------------- #
class Azure2019Dataset:
    """Handle on a directory holding the Azure 2019 CSV files.

    Parameters
    ----------
    root:
        Directory with the daily CSVs (as produced by :func:`fetch_azure2019`
        or :func:`write_azure2019_fixture`).
    cache_dir:
        Where ingested ``.npz`` archives live.  ``"auto"`` (default) uses
        ``<root>/.spes-cache``; ``None`` disables on-disk caching entirely.
    """

    def __init__(
        self, root: str | Path, cache_dir: str | Path | None = "auto"
    ) -> None:
        self.root = Path(root)
        if cache_dir == "auto":
            self.cache_dir: Path | None = self.root / ".spes-cache"
        else:
            self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._digest_memo: Dict[str, Dict[str, object]] | None = None

    # -------------------------- file resolution ----------------------- #
    def invocation_path(self, day: int) -> Path:
        return self.root / INVOCATIONS_TEMPLATE.format(day=day)

    def durations_path(self, day: int) -> Path:
        return self.root / DURATIONS_TEMPLATE.format(day=day)

    def memory_path(self, day: int) -> Path:
        return self.root / MEMORY_TEMPLATE.format(day=day)

    def available_days(self) -> List[int]:
        """Days whose invocation file is present under ``root``."""
        days = []
        for path in self.root.glob("invocations_per_function_md.anon.d*.csv"):
            day = day_number(path)
            if day is not None:
                days.append(day)
        return sorted(days)

    def _resolve(self, config: Azure2019Config) -> List[Tuple[int, Path]]:
        missing = [
            day for day in config.days if not self.invocation_path(day).is_file()
        ]
        if missing:
            available = self.available_days()
            raise AzureIngestError(
                f"{self.root}: missing invocation file(s) for day(s) {missing} "
                f"(available: {available or 'none'}; "
                f"see `spes-repro azure fetch`)"
            )
        return [(day, self.invocation_path(day)) for day in config.days]

    # ----------------------------- identity --------------------------- #
    def _file_digest(self, path: Path) -> str:
        """SHA-256 of one source file, memoized by (size, mtime) on disk."""
        stat = path.stat()
        key = str(path.resolve())
        if self._digest_memo is None:
            self._digest_memo = {}
            if self.cache_dir is not None:
                memo_path = self.cache_dir / "file-digests.json"
                try:
                    self._digest_memo = dict(json.loads(memo_path.read_text()))
                except (OSError, json.JSONDecodeError, TypeError):
                    self._digest_memo = {}
        entry = self._digest_memo.get(key)
        if (
            isinstance(entry, dict)
            and entry.get("size") == stat.st_size
            and entry.get("mtime_ns") == stat.st_mtime_ns
        ):
            return str(entry["sha256"])
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        self._digest_memo[key] = {
            "size": stat.st_size,
            "mtime_ns": stat.st_mtime_ns,
            "sha256": digest.hexdigest(),
        }
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            memo_path = self.cache_dir / "file-digests.json"
            memo_path.write_text(json.dumps(self._digest_memo, indent=1))
        return self._digest_memo[key]["sha256"]  # type: ignore[index]

    def fingerprint(self, config: Azure2019Config | None = None) -> str:
        """Content fingerprint of (source files x ingestion options).

        This is the dataset identity that flows into trace metadata and —
        via :meth:`~repro.traces.trace.Trace.fingerprint` — into sweep
        cache keys: editing any source CSV or any option yields a new key.
        """
        config = config or Azure2019Config()
        digest = hashlib.sha256()
        digest.update(f"azure2019-cache-v{CACHE_SCHEMA}\x1e".encode())
        digest.update(config.canonical().encode())
        for day, path in self._resolve(config):
            digest.update(f"\x1ed{day:02d}:{self._file_digest(path)}".encode())
            if config.join_durations:
                durations = self.durations_path(day)
                if durations.is_file():
                    digest.update(f":{self._file_digest(durations)}".encode())
            if config.join_memory:
                memory = self.memory_path(day)
                if memory.is_file():
                    digest.update(f":m{self._file_digest(memory)}".encode())
        return digest.hexdigest()

    # ------------------------------- load ------------------------------ #
    def load(self, config: Azure2019Config | None = None) -> SparseTrace:
        """Ingest (or replay from cache) one configuration of the dataset."""
        config = config or Azure2019Config()
        day_paths = self._resolve(config)
        fingerprint = self.fingerprint(config)
        cache_path = (
            self.cache_dir / f"azure2019-{fingerprint[:24]}.npz"
            if self.cache_dir is not None
            else None
        )
        if cache_path is not None and cache_path.is_file():
            cached = _load_cached_trace(cache_path, fingerprint)
            if cached is not None:
                return cached
        trace = _ingest(self, config, day_paths, fingerprint)
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            _save_cached_trace(cache_path, trace, fingerprint)
        return trace


def load_azure2019(
    root: str | Path,
    cache_dir: str | Path | None = "auto",
    **options: object,
) -> SparseTrace:
    """One-call convenience: ``Azure2019Dataset(root).load(Config(**options))``."""
    return Azure2019Dataset(root, cache_dir=cache_dir).load(Azure2019Config(**options))


# --------------------------------------------------------------------- #
# Two-pass streaming ingestion
# --------------------------------------------------------------------- #
def _ingest(
    dataset: Azure2019Dataset,
    config: Azure2019Config,
    day_paths: Sequence[Tuple[int, Path]],
    fingerprint: str,
) -> SparseTrace:
    # Pass 1 — selection scan: first-seen order, first-seen trigger, totals.
    # ~83k live entries at full scale: the per-function ledger fits easily;
    # it is the per-minute matrix that must never go dense.
    stats: Dict[Tuple[str, str, str], List[object]] = {}
    for _, path in day_paths:
        for _, owner, app, func, trigger, _, counts in iter_invocation_rows(path):
            key = (owner, app, func)
            entry = stats.get(key)
            if entry is None:
                stats[key] = [len(stats), trigger, int(counts.sum())]
            else:
                entry[2] += int(counts.sum())
    if not stats:
        raise AzureIngestError(
            f"{dataset.root}: no functions found in day(s) {list(config.days)}"
        )

    selected = _select_functions(stats, config)
    if not selected:
        raise AzureIngestError(
            "function selection left nothing: filters "
            f"(triggers={config.triggers}, min_invocations={config.min_invocations}) "
            "rejected every function"
        )
    index_of = {key: position for position, key in enumerate(selected)}

    # Pass 2 — assembly: per-day sparse entries in (function, minute) COO
    # form, then one sort into the function-major CSR layout.
    day_offset = {day: slot * MINUTES_PER_DAY for slot, (day, _) in enumerate(day_paths)}
    duration = config.duration_minutes
    coo_func: List[np.ndarray] = []
    coo_minute: List[np.ndarray] = []
    coo_count: List[np.ndarray] = []
    for day, path in day_paths:
        offset = day_offset[day]
        for _, owner, app, func, _, minutes, counts in iter_invocation_rows(path):
            position = index_of.get((owner, app, func))
            if position is None or minutes.size == 0:
                continue
            coo_func.append(np.full(minutes.size, position, dtype=np.int64))
            coo_minute.append(minutes + offset)
            coo_count.append(counts)

    n = len(selected)
    if coo_func:
        func_idx = np.concatenate(coo_func)
        minute_idx = np.concatenate(coo_minute)
        count_val = np.concatenate(coo_count)
        # Duplicate rows for one function (present in the raw dataset) are
        # summed; np.unique both orders the keys function-major and exposes
        # the duplicate groups.
        keys = func_idx * np.int64(duration) + minute_idx
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        summed = np.bincount(inverse, weights=count_val).astype(np.int64)
        fn_minutes = unique_keys % duration
        fn_rows = unique_keys // duration
        fn_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(fn_rows, minlength=n), out=fn_indptr[1:])
        fn_counts = summed
    else:
        fn_minutes = np.zeros(0, dtype=np.int64)
        fn_counts = np.zeros(0, dtype=np.int64)
        fn_indptr = np.zeros(n + 1, dtype=np.int64)

    trigger_of = {
        position: parse_trigger(str(stats[key][1]))
        for key, position in index_of.items()
    }
    durations = (
        _join_duration_profiles(dataset, config, index_of, trigger_of)
        if config.join_durations
        else {}
    )
    if config.join_memory:
        # Fan-out denominator: how many functions the *dataset* groups under
        # each app (pass-1 ledger, before any filter/selection) — the app's
        # allocation covers all of them, whether or not they were selected.
        app_sizes: Dict[Tuple[str, str], int] = {}
        for owner, app, _func in stats:
            app_sizes[(owner, app)] = app_sizes.get((owner, app), 0) + 1
        footprints = _join_memory_footprints(dataset, config, index_of, app_sizes)
    else:
        footprints = {}
    records = []
    for (owner, app, func), position in index_of.items():
        records.append(
            FunctionRecord(
                function_id=f"{owner}:{app}:{func}",
                app_id=f"{owner}:{app}",
                owner_id=owner,
                trigger=trigger_of[position],
                duration=durations.get(position),
                memory_mb=footprints.get(position),
            )
        )

    first, last = config.days[0], config.days[-1]
    metadata = TraceMetadata(
        name=f"azure2019-d{first:02d}-d{last:02d}",
        duration_minutes=duration,
        extra={
            "source": "azure2019",
            "root": str(dataset.root),
            "days": list(config.days),
            "dataset_fingerprint": fingerprint,
            "selection": config.selection,
        },
    )
    return SparseTrace(records, fn_indptr, fn_minutes, fn_counts, duration, metadata)


def _select_functions(
    stats: Dict[Tuple[str, str, str], List[object]],
    config: Azure2019Config,
) -> List[Tuple[str, str, str]]:
    """Apply trigger/volume filters and the selection mode, preserving
    dataset first-seen order in the result."""
    allowed = set(config.triggers) if config.triggers is not None else None
    eligible: List[Tuple[int, int, Tuple[str, str, str]]] = []
    for key, (order, trigger, total) in stats.items():
        if int(total) < config.min_invocations:
            continue
        if allowed is not None and parse_trigger(str(trigger)).value not in allowed:
            continue
        eligible.append((int(order), int(total), key))
    eligible.sort()  # first-seen order

    if config.selection == "top":
        ranked = sorted(eligible, key=lambda item: (-item[1], item[0]))
        chosen = sorted(ranked[: config.max_functions])
    elif config.selection == "sample":
        if len(eligible) > config.max_functions:
            rng = np.random.default_rng(config.seed)
            picks = rng.choice(
                len(eligible), size=config.max_functions, replace=False
            )
            chosen = [eligible[i] for i in sorted(int(i) for i in picks)]
        else:
            chosen = eligible
    else:  # "all"
        chosen = eligible
        if config.max_functions is not None:
            chosen = chosen[: config.max_functions]
    return [key for _, _, key in chosen]


def _join_duration_profiles(
    dataset: Azure2019Dataset,
    config: Azure2019Config,
    index_of: Dict[Tuple[str, str, str], int],
    trigger_of: Dict[int, TriggerType],
) -> Dict[int, DurationProfile]:
    """Join the duration-percentile files into measured profiles.

    Execution time is the ``Count``-weighted mean of each day's ``Average``
    column.  The dataset publishes no provisioning (cold-start) latency, so
    the cold-start side keeps the trigger-level model from
    :data:`~repro.traces.archetypes.TRIGGER_DURATION_PROFILES` — measured
    where the dataset measures, modeled where it does not.  Missing files
    and missing rows are legitimate (the duration families cover fewer
    functions than the invocation files): affected functions simply keep
    ``duration=None``.
    """
    weighted: Dict[int, List[float]] = {}
    for day in config.days:
        path = dataset.durations_path(day)
        if not path.is_file():
            continue
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            try:
                average_col = header.index("Average")
                count_col = header.index("Count")
            except ValueError:
                raise AzureIngestError(
                    f"{path.name}: missing Average/Count columns in header"
                ) from None
            needed = max(average_col, count_col)
            for line, row in enumerate(reader, start=2):
                if len(row) <= needed:
                    continue
                position = index_of.get((row[0], row[1], row[2]))
                if position is None:
                    continue
                try:
                    average = float(row[average_col])
                    count = float(row[count_col])
                except ValueError:
                    raise AzureIngestError(
                        f"{path.name}:{line}: invalid duration statistics"
                    ) from None
                if count <= 0 or average < 0:
                    continue
                entry = weighted.setdefault(position, [0.0, 0.0])
                entry[0] += average * count
                entry[1] += count

    fallback = DurationProfile()
    return {
        position: DurationProfile(
            cold_start_ms=TRIGGER_DURATION_PROFILES.get(
                trigger_of[position].value, fallback
            ).cold_start_ms,
            execution_ms=max(total / count, 0.001),
        )
        for position, (total, count) in weighted.items()
        if count > 0
    }


def _join_memory_footprints(
    dataset: Azure2019Dataset,
    config: Azure2019Config,
    index_of: Dict[Tuple[str, str, str], int],
    app_sizes: Dict[Tuple[str, str], int],
) -> Dict[int, float]:
    """Join the app-memory-percentile files into per-function footprints.

    The memory family is keyed by *(owner, app)* — the dataset never
    publishes per-function memory — so the chosen column
    (``AverageAllocatedMb`` or a percentile, see
    :attr:`Azure2019Config.memory_percentile`) is first reduced to one
    ``SampleCount``-weighted mean per app across the loaded days, then
    fanned out equally over the ``app_sizes`` functions the dataset groups
    under that app.  Missing files and missing app rows are legitimate (the
    memory family covers fewer apps than the invocation files): affected
    functions simply keep ``memory_mb=None``, and MB-mode accounting falls
    back to its default footprint.
    """
    column = (
        "AverageAllocatedMb"
        if config.memory_percentile == "average"
        else f"AverageAllocatedMb_pct{config.memory_percentile}"
    )
    wanted = {(owner, app) for owner, app, _func in index_of}
    weighted: Dict[Tuple[str, str], List[float]] = {}
    for day in config.days:
        path = dataset.memory_path(day)
        if not path.is_file():
            continue
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            try:
                value_col = header.index(column)
                count_col = header.index("SampleCount")
            except ValueError:
                raise AzureIngestError(
                    f"{path.name}: missing {column}/SampleCount columns in header"
                ) from None
            needed = max(value_col, count_col)
            for line, row in enumerate(reader, start=2):
                if len(row) <= needed:
                    continue
                key = (row[0], row[1])
                if key not in wanted:
                    continue
                try:
                    value = float(row[value_col])
                    count = float(row[count_col])
                except ValueError:
                    raise AzureIngestError(
                        f"{path.name}:{line}: invalid memory statistics"
                    ) from None
                if count <= 0 or value <= 0:
                    continue
                entry = weighted.setdefault(key, [0.0, 0.0])
                entry[0] += value * count
                entry[1] += count

    footprints: Dict[int, float] = {}
    for (owner, app, _func), position in index_of.items():
        entry = weighted.get((owner, app))
        if entry is None or entry[1] <= 0:
            continue
        fan_out = max(app_sizes.get((owner, app), 1), 1)
        footprints[position] = (entry[0] / entry[1]) / fan_out
    return footprints


# --------------------------------------------------------------------- #
# On-disk cache (one .npz archive per (files x options) fingerprint)
# --------------------------------------------------------------------- #
def _save_cached_trace(path: Path, trace: SparseTrace, fingerprint: str) -> None:
    records = trace.records()
    durations = np.full((len(records), 2), np.nan)
    memory_mb = np.full(len(records), np.nan)
    for position, record in enumerate(records):
        if record.duration is not None:
            durations[position] = (
                record.duration.cold_start_ms,
                record.duration.execution_ms,
            )
        if record.memory_mb is not None:
            memory_mb[position] = record.memory_mb
    meta = {
        "schema": CACHE_SCHEMA,
        "fingerprint": fingerprint,
        "name": trace.metadata.name,
        "duration_minutes": trace.duration_minutes,
        "extra": trace.metadata.extra,
    }
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(
        tmp,
        fn_indptr=trace._fn_indptr,
        fn_minutes=trace._fn_minutes,
        fn_counts=trace._fn_counts,
        owners=np.asarray([record.owner_id for record in records]),
        apps=np.asarray([record.app_id for record in records]),
        function_ids=np.asarray([record.function_id for record in records]),
        triggers=np.asarray([record.trigger.value for record in records]),
        durations=durations,
        memory_mb=memory_mb,
        meta=np.asarray(json.dumps(meta)),
    )
    tmp.replace(path)


def _load_cached_trace(path: Path, fingerprint: str) -> SparseTrace | None:
    """Replay one cached load; ``None`` (re-ingest) on any mismatch."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            if meta.get("schema") != CACHE_SCHEMA or meta.get("fingerprint") != fingerprint:
                return None
            # Materialize each member once: indexing the archive re-reads
            # (and re-inflates) the whole compressed array every time.
            durations = archive["durations"]
            memory_mb = archive["memory_mb"]
            function_ids = archive["function_ids"]
            apps = archive["apps"]
            owners = archive["owners"]
            triggers = archive["triggers"]
            records = []
            for position, function_id in enumerate(function_ids):
                cold, execution = durations[position]
                footprint = memory_mb[position]
                records.append(
                    FunctionRecord(
                        function_id=str(function_id),
                        app_id=str(apps[position]),
                        owner_id=str(owners[position]),
                        trigger=TriggerType(str(triggers[position])),
                        duration=(
                            None
                            if np.isnan(cold)
                            else DurationProfile(float(cold), float(execution))
                        ),
                        memory_mb=(
                            None if np.isnan(footprint) else float(footprint)
                        ),
                    )
                )
            metadata = TraceMetadata(
                name=str(meta["name"]),
                duration_minutes=int(meta["duration_minutes"]),
                extra=dict(meta.get("extra", {})),
            )
            return SparseTrace(
                records,
                archive["fn_indptr"],
                archive["fn_minutes"],
                archive["fn_counts"],
                int(meta["duration_minutes"]),
                metadata,
            )
    except (OSError, KeyError, ValueError, json.JSONDecodeError):
        return None


# --------------------------------------------------------------------- #
# Optional downloader (never exercised by tests)
# --------------------------------------------------------------------- #
def fetch_azure2019(
    dest: str | Path,
    url: str = DATASET_URL,
    force: bool = False,
    progress: Callable[[str], None] = print,
) -> Path:
    """Download and unpack the dataset archive into ``dest``.

    Network access is required (roughly 1.9 GB compressed); the function is
    a convenience for ``spes-repro azure fetch`` and nothing in the library
    or test suite depends on it.  Extraction only accepts plain ``*.csv``
    members with safe relative names.
    """
    import urllib.request

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    existing = Azure2019Dataset(dest, cache_dir=None).available_days()
    if existing and not force:
        progress(
            f"{dest} already holds day(s) {existing}; use --force to re-download"
        )
        return dest
    archive_path = dest / Path(url).name
    progress(f"downloading {url} -> {archive_path}")
    with urllib.request.urlopen(url) as response, archive_path.open("wb") as out:
        while True:
            block = response.read(1 << 20)
            if not block:
                break
            out.write(block)
    progress(f"unpacking {archive_path.name}")
    with tarfile.open(archive_path) as archive:
        for member in archive.getmembers():
            name = Path(member.name).name
            if not member.isfile() or not name.endswith(".csv") or name.startswith("."):
                continue
            source = archive.extractfile(member)
            if source is None:
                continue
            with (dest / name).open("wb") as out:
                while True:
                    block = source.read(1 << 20)
                    if not block:
                        break
                    out.write(block)
    progress(f"dataset ready under {dest}")
    return dest


# --------------------------------------------------------------------- #
# Deterministic fixture generator (the hermetic CI path)
# --------------------------------------------------------------------- #
#: Raw trigger labels the fixture draws from, with a deliberate unknown
#: label in the tail so the OTHERS fallback is exercised end to end.
_FIXTURE_TRIGGERS = (
    ("http", 0.42),
    ("timer", 0.27),
    ("queue", 0.14),
    ("blob", 0.05),
    ("eventhub", 0.04),
    ("durable", 0.05),
    ("cosmosDBTrigger", 0.03),
)


def _fixture_hash(seed: int, kind: str, index: int) -> str:
    """A dataset-shaped anonymized id (stable hex, like the real hashes)."""
    return hashlib.md5(f"spes:{seed}:{kind}:{index}".encode()).hexdigest()


def _fixture_series(
    rng: np.random.Generator, shape: str, params: Dict[str, float]
) -> np.ndarray:
    """One function-day of per-minute counts for one behaviour shape."""
    series = np.zeros(MINUTES_PER_DAY, dtype=np.int64)
    if shape == "periodic":
        period = int(params["period"])
        phase = int(rng.integers(0, period))
        series[phase::period] = 1
    elif shape == "poisson":
        series[:] = rng.poisson(params["rate"], MINUTES_PER_DAY)
    elif shape == "bursty":
        for _ in range(int(params["bursts"])):
            start = int(rng.integers(0, MINUTES_PER_DAY - 30))
            length = int(rng.integers(5, 30))
            series[start : start + length] += rng.poisson(
                3.0, length
            ).astype(np.int64)
    else:  # "rare"
        for minute in rng.integers(0, MINUTES_PER_DAY, size=int(params["hits"])):
            series[int(minute)] += 1
    return series


def write_azure2019_fixture(
    dest: str | Path,
    n_functions: int = 24,
    days: int = 2,
    seed: int = 2024,
    start_day: int = 1,
    duration_files: bool = True,
    memory_files: bool = True,
    missing_duration_fraction: float = 0.15,
    missing_memory_fraction: float = 0.0,
) -> List[Path]:
    """Write miniature CSVs in the exact Azure 2019 schema.

    Deterministic in every parameter: the same call always produces
    byte-identical files, so fixture-backed scenarios and golden tests are
    as reproducible as the synthetic generator.  Every function appears in
    every day's invocation file (possibly with an all-zero row), mirroring
    the registry semantics the loader documents — a function can exist
    without being invoked.

    A ``missing_duration_fraction`` of functions is deliberately left out of
    the duration files to exercise the archetype-fallback path, and one
    trigger label in the pool is unknown to exercise the OTHERS mapping.
    ``missing_memory_fraction`` drops that fraction of *apps* from every
    day's memory file (deterministically, by app id) so the
    missing-app-row → default-footprint fallback of the memory join is
    exercisable; the default of 0.0 keeps historical fixtures byte-identical.

    Returns the list of written file paths.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    if n_functions < 1:
        raise ValueError("n_functions must be >= 1")
    if not 0.0 <= missing_memory_fraction <= 1.0:
        raise ValueError("missing_memory_fraction must be in [0, 1]")
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)

    labels = [label for label, _ in _FIXTURE_TRIGGERS]
    weights = np.asarray([weight for _, weight in _FIXTURE_TRIGGERS])
    weights = weights / weights.sum()
    shapes = ("poisson", "periodic", "bursty", "rare")
    shape_weights = np.asarray([0.35, 0.30, 0.15, 0.20])

    functions = []
    for i in range(n_functions):
        rng = np.random.default_rng([seed, 11, i])
        shape = shapes[int(rng.choice(len(shapes), p=shape_weights))]
        functions.append(
            {
                "owner": _fixture_hash(seed, "owner", i // 6),
                "app": _fixture_hash(seed, "app", i // 3),
                "func": _fixture_hash(seed, "func", i),
                "trigger": labels[int(rng.choice(len(labels), p=weights))],
                "shape": shape,
                "params": {
                    "period": float(rng.integers(10, 240)),
                    "rate": float(rng.uniform(0.02, 0.8)),
                    "bursts": float(rng.integers(1, 4)),
                    "hits": float(rng.integers(1, 5)),
                },
                "exec_ms": float(rng.lognormal(np.log(120.0), 0.8)),
                "has_duration_row": bool(
                    rng.random() >= missing_duration_fraction
                ),
            }
        )

    header = ["HashOwner", "HashApp", "HashFunction", "Trigger"] + [
        str(minute) for minute in range(1, MINUTES_PER_DAY + 1)
    ]
    duration_header = [
        "HashOwner", "HashApp", "HashFunction", "Average", "Count",
        "Minimum", "Maximum",
        "percentile_Average_0", "percentile_Average_1", "percentile_Average_25",
        "percentile_Average_50", "percentile_Average_75", "percentile_Average_99",
        "percentile_Average_100",
    ]
    memory_header = [
        "HashOwner", "HashApp", "SampleCount", "AverageAllocatedMb",
        "AverageAllocatedMb_pct1", "AverageAllocatedMb_pct5",
        "AverageAllocatedMb_pct25", "AverageAllocatedMb_pct50",
        "AverageAllocatedMb_pct75", "AverageAllocatedMb_pct95",
        "AverageAllocatedMb_pct99", "AverageAllocatedMb_pct100",
    ]

    written: List[Path] = []
    template = ["0"] * MINUTES_PER_DAY
    for day in range(start_day, start_day + days):
        invocation_lines = [",".join(header)]
        duration_lines = [",".join(duration_header)]
        app_totals: Dict[Tuple[str, str], int] = {}
        for i, spec in enumerate(functions):
            rng = np.random.default_rng([seed, 17, i, day])
            series = _fixture_series(rng, str(spec["shape"]), spec["params"])
            nonzero = np.flatnonzero(series)
            for minute in nonzero:
                template[minute] = str(int(series[minute]))
            invocation_lines.append(
                ",".join(
                    [
                        str(spec["owner"]),
                        str(spec["app"]),
                        str(spec["func"]),
                        str(spec["trigger"]),
                    ]
                    + template
                )
            )
            for minute in nonzero:
                template[minute] = "0"
            total = int(series.sum())
            app_totals[(str(spec["owner"]), str(spec["app"]))] = (
                app_totals.get((str(spec["owner"]), str(spec["app"])), 0) + total
            )
            if spec["has_duration_row"] and total > 0:
                average = float(spec["exec_ms"]) * float(rng.uniform(0.9, 1.1))
                duration_lines.append(
                    ",".join(
                        [str(spec["owner"]), str(spec["app"]), str(spec["func"])]
                        + [
                            f"{average:.2f}",
                            str(total),
                            f"{average * 0.4:.2f}",
                            f"{average * 3.0:.2f}",
                            f"{average * 0.4:.2f}",
                            f"{average * 0.5:.2f}",
                            f"{average * 0.8:.2f}",
                            f"{average:.2f}",
                            f"{average * 1.4:.2f}",
                            f"{average * 2.5:.2f}",
                            f"{average * 3.0:.2f}",
                        ]
                    )
                )

        invocation_path = dest / INVOCATIONS_TEMPLATE.format(day=day)
        invocation_path.write_text("\n".join(invocation_lines) + "\n")
        written.append(invocation_path)
        if duration_files:
            durations_path = dest / DURATIONS_TEMPLATE.format(day=day)
            durations_path.write_text("\n".join(duration_lines) + "\n")
            written.append(durations_path)
        if memory_files:
            memory_lines = [",".join(memory_header)]
            for (owner, app), total in sorted(app_totals.items()):
                if missing_memory_fraction > 0.0:
                    # Day-independent skip keyed by app id: a dropped app is
                    # absent from *every* day, i.e. a genuinely missed join.
                    skip_rng = np.random.default_rng([seed, 29, int(app[:8], 16)])
                    if skip_rng.random() < missing_memory_fraction:
                        continue
                rng = np.random.default_rng([seed, 23, day, total])
                average = float(rng.uniform(64.0, 512.0))
                memory_lines.append(
                    ",".join(
                        [owner, app, str(max(total, 1))]
                        + [
                            f"{average * factor:.1f}"
                            for factor in (1.0, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 1.8, 2.0)
                        ]
                    )
                )
            memory_path = dest / MEMORY_TEMPLATE.format(day=day)
            memory_path.write_text("\n".join(memory_lines) + "\n")
            written.append(memory_path)
    return written
