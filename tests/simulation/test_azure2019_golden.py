"""Golden-fingerprint pin of the committed Azure 2019 mini-fixture.

``tests/data/azure2019-fixture/`` holds CSVs generated once by
:func:`repro.traces.write_azure2019_fixture` (12 functions, 2 days, seed 77)
and committed, so this test is independent of the generator's current
behaviour: it pins the whole chain *files → streaming ingestion → CSR →
engines* against bit-level drift.  Three layers of identity, outermost
first, so a failure names the layer that moved:

1. the dataset fingerprint (content hashes of the committed CSVs themselves);
2. the ingested trace's content fingerprint (selection, CSR assembly,
   duration joins);
3. one simulation fingerprint across every (implementation × engine)
   combination, extending the equivalence harness to a real-schema trace
   source.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from harness import ALL_ENGINES, collect_fingerprints
from dict_policies import DictFixedKeepAlivePolicy
from repro.baselines import FixedKeepAlivePolicy
from repro.simulation import EventConfig
from repro.traces import (
    Azure2019Config,
    Azure2019Dataset,
    SparseTrace,
    split_trace,
)

FIXTURE_ROOT = Path(__file__).resolve().parent.parent / "data" / "azure2019-fixture"

# Dataset and trace fingerprints moved when the memory join landed: the
# dataset digest now covers the app_memory_percentiles files and the trace
# digest includes each function's joined footprint.  The simulation
# fingerprint is pinned unchanged across that release — unit-mode accounting
# ignores footprints, so engine output must stay byte-identical.
DATASET_FINGERPRINT = (
    "68c4e681945f8e2dd745473a204ba096cc37c7a6576b4177dd668df397123703"
)
TRACE_FINGERPRINT = (
    "bb0d9bbf88bab113157d84d63d32e08eb9f0d661345233f623166247996fad52"
)
SIMULATION_FINGERPRINT = (
    "01f99cf4959b9e4cfad53362d49fb782b840a0ab78bf8e26fdd622f42f87b8d9"
)

CONFIG = Azure2019Config(days=(1, 2))


@pytest.fixture(scope="module")
def dataset() -> Azure2019Dataset:
    return Azure2019Dataset(FIXTURE_ROOT, cache_dir=None)


@pytest.fixture(scope="module")
def trace(dataset) -> SparseTrace:
    return dataset.load(CONFIG)


class TestCommittedFixtureGolden:
    def test_committed_files_are_unchanged(self, dataset):
        assert dataset.available_days() == [1, 2]
        assert dataset.fingerprint(CONFIG) == DATASET_FINGERPRINT

    def test_ingested_trace_matches_the_golden_fingerprint(self, trace):
        assert isinstance(trace, SparseTrace)
        assert len(trace) == 12
        assert trace.total_invocations() == 3315
        assert trace.fingerprint() == TRACE_FINGERPRINT

    def test_durations_join_for_most_of_the_population(self, trace):
        measured = [r for r in trace.records() if r.duration is not None]
        unmeasured = [r for r in trace.records() if r.duration is None]
        # The fixture deliberately leaves a fraction of functions without a
        # duration row (the archetype-fallback path).
        assert measured and unmeasured

    def test_every_engine_produces_the_pinned_fingerprint(self, trace):
        split = split_trace(trace, training_days=1.0)
        fingerprints = collect_fingerprints(
            {
                "dict": lambda: DictFixedKeepAlivePolicy(10),
                "indexed": lambda: FixedKeepAlivePolicy(10),
            },
            split,
            engines=ALL_ENGINES,
            events=EventConfig(seed=77),
            warmup_minutes=60,
        )
        assert set(fingerprints.values()) == {SIMULATION_FINGERPRINT}, fingerprints
