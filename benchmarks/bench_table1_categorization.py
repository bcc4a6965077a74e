"""Table I -- the categorization itself: population and coverage per category.

The paper's Table I defines the five deterministic categories; §IV-B adds the
three supplementary assignments.  This bench times the full offline
categorization of the 12-day training window and reports how many functions
land in each category, plus the fraction left unknown (the paper notes only
functions without usable history stay unknown).
"""

from repro.core import OfflineCategorizer
from repro.metrics.summary import ComparisonTable

from .conftest import BENCHMARK_CONFIG, save_and_print


def test_table1_offline_categorization(benchmark, split, output_dir):
    training = split.training
    categorizer = OfflineCategorizer(BENCHMARK_CONFIG.spes_config)

    result = benchmark.pedantic(categorizer.categorize, args=(training,), rounds=1, iterations=1)

    counts = result.category_counts()
    total = sum(counts.values())
    table = ComparisonTable(
        title="Table I - offline categorization of the training window",
        columns=("category", "functions", "share_pct"),
    )
    for category, count in sorted(counts.items(), key=lambda item: -item[1]):
        table.add_row(
            category=category.value, functions=count, share_pct=100.0 * count / total
        )
    save_and_print(output_dir, "table1_categorization", table.render())

    from repro.core.categories import FunctionCategory

    unknown_share = counts.get(FunctionCategory.UNKNOWN, 0) / total
    # Most functions must be categorized; unknown is reserved for functions
    # with no usable training history.
    assert unknown_share < 0.3
    assert len(counts) >= 5
