"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.traces import (
    AzureTraceGenerator,
    FunctionRecord,
    GeneratorProfile,
    Trace,
    TriggerType,
    split_trace,
)
from repro.traces.schema import TraceMetadata

# The dict-stepping policy oracles (``dict_policies``) live beside this file.
# Putting the directory on the path here, before any test module is
# collected, lets every test directory import them under any import mode.
_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-built 3-function, 20-minute trace with known properties.

    * ``periodic`` fires every 5 minutes.
    * ``chained`` fires 2 minutes after ``periodic``.
    * ``rare`` fires once.
    """
    duration = 20
    periodic = np.zeros(duration, dtype=np.int64)
    periodic[::5] = 1
    chained = np.zeros(duration, dtype=np.int64)
    chained[2::5] = 1
    rare = np.zeros(duration, dtype=np.int64)
    rare[7] = 1
    records = [
        FunctionRecord("periodic", "app-1", "owner-1", TriggerType.TIMER),
        FunctionRecord("chained", "app-1", "owner-1", TriggerType.QUEUE),
        FunctionRecord("rare", "app-2", "owner-2", TriggerType.HTTP),
    ]
    counts = {"periodic": periodic, "chained": chained, "rare": rare}
    metadata = TraceMetadata(name="tiny", duration_minutes=duration)
    return Trace(records, counts, metadata)


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """A small synthetic trace shared (read-only) across the test session."""
    profile = GeneratorProfile.small(seed=99)
    return AzureTraceGenerator(profile).generate()


@pytest.fixture(scope="session")
def small_split(small_trace):
    """Training / simulation split of the small synthetic trace."""
    return split_trace(small_trace, training_days=2.0)
