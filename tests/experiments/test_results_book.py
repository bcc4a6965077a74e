"""The results book: structure, determinism, and its markdown building blocks.

The committed ``docs/RESULTS.md`` is a generated artifact that CI regenerates
and diffs on every build, so the generator itself must be deterministic and
structurally stable.  These tests pin the contract on a miniature
configuration (seconds, not the CI-sized book): every RQ section renders, two
runs produce byte-identical documents, wall-clock measurement columns stay
out, and the GFM rendering underneath cannot be broken by cell content.
"""

from dataclasses import replace

import pytest

from repro.experiments import ResultsConfig, generate_results, write_results
from repro.metrics import ComparisonTable
from repro.scenarios import Scenario

TINY = ResultsConfig(
    n_functions=8, population=12, days=1.5, training_days=1.0, seeds=(3,)
)


@pytest.fixture(scope="module")
def tiny_book():
    return generate_results(TINY)


class TestResultsBook:
    def test_contains_every_rq_section(self, tiny_book):
        for number in range(1, 7):
            assert f"## RQ{number} " in tiny_book, f"RQ{number} section missing"

    def test_is_deterministic(self, tiny_book):
        assert generate_results(TINY) == tiny_book

    def test_builds_each_seed_workload_once(self, monkeypatch):
        """RQ1-RQ6 share one built workload per seed; RQ5/RQ6 derive theirs."""
        builds = []
        original = Scenario.build

        def counting_build(self, *args, **kwargs):
            builds.append(kwargs["seed"])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "build", counting_build)
        generate_results(replace(TINY, seeds=(3, 4)))
        assert sorted(builds) == [3, 4]

    def test_declares_itself_generated(self, tiny_book):
        assert "do not edit by hand" in tiny_book
        # The book embeds the exact command that reproduces it.
        assert "results" in tiny_book and "--functions 8" in tiny_book

    def test_excludes_wall_clock_columns(self, tiny_book):
        """Scheduler-overhead measurements vary run to run; a diffable book
        must not carry them."""
        assert "overhead_s_per_min" not in tiny_book
        assert "overhead_comparison" not in tiny_book

    def test_mb_mode_reports_measured_memory(self, tiny_book):
        assert TINY.memory_mode == "mb"
        assert "wmt_mb_min" in tiny_book
        assert "emcr_mb_pct" in tiny_book

    def test_write_results_creates_parents(self, tmp_path):
        target = tmp_path / "nested" / "book.md"
        write_results(target, TINY)
        assert target.read_text() == generate_results(TINY)

    def test_config_rejects_bad_memory_mode(self):
        with pytest.raises(ValueError):
            generate_results(ResultsConfig(memory_mode="bogus"))


class TestMarkdownRendering:
    def build(self):
        table = ComparisonTable(
            title="demo", columns=("name", "value", "note")
        )
        table.add_row(name="a|b", value=1.25, note="plain")
        table.add_row(name="c", value=2, note=None)
        return table

    def test_gfm_shape_and_alignment(self):
        lines = self.build().to_markdown(float_format="{:.2f}").splitlines()
        assert lines[0] == "**demo**"
        assert lines[2] == "| name | value | note |"
        # Numeric columns right-align; text columns do not.
        assert lines[3] == "|---|---:|---|"

    def test_pipes_in_cells_are_escaped(self):
        rendered = self.build().to_markdown()
        assert "a\\|b" in rendered

    def test_floats_use_the_requested_format(self):
        rendered = self.build().to_markdown(float_format="{:.1f}")
        assert "| 1.2 |" in rendered

    def test_drop_columns_removes_named_columns(self):
        table = self.build().drop_columns("note", "not-a-column")
        assert tuple(table.columns) == ("name", "value")
        assert all("note" not in row for row in table.rows)
        # The original is untouched.
        assert "note" in self.build().columns
