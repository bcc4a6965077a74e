"""Azure 2019 ingestion throughput and full-dataset-scale engine cost.

The streaming ingestion path exists for one reason: the real dataset is ~83k
functions over 14 days, which must never go dense.  This bench measures the
whole pipeline at representative scale and publishes ``BENCH_pr6.json``:

* ``ingest/cold`` — two-pass streaming ingestion of generated fixture CSVs
  at 10,000 functions x 14 days (the acceptance shape), in function-days
  ingested per second, including the duration join and the cache write;
* ``ingest/cached`` — the same load replayed from the on-disk ``.npz``
  cache, which is what every sweep after the first pays;
* an ``engines`` row at full-dataset population: one vectorized engine run
  over a synthetic 83,000-function sparse day, the scale the CSR-backed
  :class:`~repro.traces.trace.SparseTrace` exists to serve.

The CSVs are generated, not downloaded: :func:`write_azure2019_fixture`
emits the exact dataset schema, so the bench is hermetic and CI-safe.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.baselines import FixedKeepAlivePolicy
from repro.simulation import Simulator
from repro.traces import (
    Azure2019Config,
    Azure2019Dataset,
    FunctionRecord,
    SparseTrace,
    write_azure2019_fixture,
)
from repro.traces.schema import MINUTES_PER_DAY, TraceMetadata

from .conftest import save_and_print

#: The acceptance shape: >= 10k functions x 14 days through the cached path.
INGEST_FUNCTIONS = 10_000
INGEST_DAYS = 14

#: Full-dataset population for the engine-scale row.
ENGINE_FUNCTIONS = 83_000


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    return tmp_path_factory.mktemp("azure2019_ingest")


def _synthetic_sparse_day(
    n_functions: int, seed: int = 2019, days: int = 1
) -> SparseTrace:
    """A dataset-scale sparse trace built directly in CSR form.

    Generating 83k functions through the CSV fixture would measure mostly
    file writing; the engine row wants the *simulation* cost at real-dataset
    population, so the CSR arrays are drawn directly (about nine active
    minutes per function per day, the dataset's heavy-tailed sparsity
    regime).  ``days=1`` reproduces the original single-day draw exactly;
    the sharded-scale bench stretches the same recipe over 14 days.
    """
    rng = np.random.default_rng(seed)
    duration = days * MINUTES_PER_DAY
    per_function = rng.poisson(9 * days, n_functions).astype(np.int64) + 1
    fn_idx = np.repeat(np.arange(n_functions, dtype=np.int64), per_function)
    minute = rng.integers(0, duration, fn_idx.size, dtype=np.int64)
    keys = np.unique(fn_idx * np.int64(duration) + minute)
    fn_minutes = keys % duration
    fn_rows = keys // duration
    fn_indptr = np.zeros(n_functions + 1, dtype=np.int64)
    np.cumsum(np.bincount(fn_rows, minlength=n_functions), out=fn_indptr[1:])
    fn_counts = rng.integers(1, 4, keys.size, dtype=np.int64)
    records = [
        FunctionRecord(
            function_id=f"o{i % 400}:a{i % 2000}:f{i}",
            app_id=f"o{i % 400}:a{i % 2000}",
            owner_id=f"o{i % 400}",
        )
        for i in range(n_functions)
    ]
    metadata = TraceMetadata(
        name=f"azure2019-scale-{n_functions}", duration_minutes=duration
    )
    return SparseTrace(records, fn_indptr, fn_minutes, fn_counts, duration, metadata)


def test_azure2019_ingestion_throughput(bench_root, output_dir):
    """Cold vs. cached ingestion at the acceptance shape (PR 6 criterion)."""
    function_days = INGEST_FUNCTIONS * INGEST_DAYS

    started = time.perf_counter()
    write_azure2019_fixture(
        bench_root, n_functions=INGEST_FUNCTIONS, days=INGEST_DAYS, seed=2019
    )
    write_seconds = time.perf_counter() - started

    config = Azure2019Config(days=tuple(range(1, INGEST_DAYS + 1)))
    started = time.perf_counter()
    cold_trace = Azure2019Dataset(bench_root).load(config)
    cold_seconds = time.perf_counter() - started

    # A fresh handle: nothing carried over but the on-disk cache itself.
    started = time.perf_counter()
    cached_trace = Azure2019Dataset(bench_root).load(config)
    cached_seconds = time.perf_counter() - started

    assert len(cold_trace) == INGEST_FUNCTIONS
    assert cold_trace.duration_minutes == INGEST_DAYS * MINUTES_PER_DAY
    assert cached_trace.fingerprint() == cold_trace.fingerprint()
    assert cached_seconds < cold_seconds, (cached_seconds, cold_seconds)

    # Full-dataset-scale engine row: one sparse day at 83k functions driven
    # through the vectorized engine via the CSR-transposed invocation index.
    scale_trace = _synthetic_sparse_day(ENGINE_FUNCTIONS)
    Simulator(scale_trace, warmup_minutes=0).run(FixedKeepAlivePolicy(10))
    started = time.perf_counter()
    result = Simulator(scale_trace, warmup_minutes=0).run(
        FixedKeepAlivePolicy(10)
    )
    engine_seconds = time.perf_counter() - started
    assert result.total_invocations > 0

    payload = {
        "workload": {
            "n_functions": INGEST_FUNCTIONS,
            "days": INGEST_DAYS,
            "function_days": function_days,
            "total_invocations": int(cold_trace.total_invocations()),
            "engine_scale_functions": ENGINE_FUNCTIONS,
        },
        "ingest": {
            "cold": {
                "seconds": round(cold_seconds, 3),
                "function_days_per_second": round(function_days / cold_seconds, 1),
            },
            "cached": {
                "seconds": round(cached_seconds, 4),
                "function_days_per_second": round(
                    function_days / cached_seconds, 1
                ),
                "speedup_vs_cold": round(cold_seconds / cached_seconds, 1),
            },
            "fixture-write": {
                "seconds": round(write_seconds, 3),
                "function_days_per_second": round(
                    function_days / write_seconds, 1
                ),
            },
        },
        "engines": {
            "vectorized-83k": {
                "sweep_seconds": round(engine_seconds, 3),
                "sim_minutes_per_second": round(
                    MINUTES_PER_DAY / engine_seconds, 1
                ),
            },
        },
    }
    lines = [
        f"Azure 2019 ingestion - {INGEST_FUNCTIONS:,} functions x "
        f"{INGEST_DAYS} days ({function_days:,} function-days)",
        f"fixture write: {write_seconds:8.2f}s "
        f"({function_days / write_seconds:>12,.0f} fn-days/s)",
        f"cold ingest:   {cold_seconds:8.2f}s "
        f"({function_days / cold_seconds:>12,.0f} fn-days/s)",
        f"cached replay: {cached_seconds:8.3f}s "
        f"({function_days / cached_seconds:>12,.0f} fn-days/s, "
        f"{cold_seconds / cached_seconds:,.0f}x over cold)",
        f"engine at {ENGINE_FUNCTIONS:,} functions: {engine_seconds:8.2f}s for "
        f"one day ({MINUTES_PER_DAY / engine_seconds:,.0f} sim-min/s)",
    ]
    save_and_print(output_dir, "azure2019_ingest", "\n".join(lines))
    (output_dir / "BENCH_pr6.json").write_text(json.dumps(payload, indent=2) + "\n")
    # The cache must pay for itself by at least an order of magnitude —
    # anything less means sweeps re-ingest in all but name.
    assert cold_seconds / cached_seconds >= 10.0, payload["ingest"]
