"""The closed-form sequence extraction and strategy validation match their oracles.

``offline_reference`` keeps the per-minute loops that ``extract_sequences``,
``evaluate_pulsed_strategy`` and ``evaluate_possible_strategy`` replaced;
every generated series must give the identical summary and outcomes.
"""

from __future__ import annotations

import numpy as np
import offline_reference as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.indeterminate import evaluate_possible_strategy, evaluate_pulsed_strategy
from repro.core.predictive import PredictiveValues
from repro.core.sequences import extract_sequences

#: Sparse and dense per-minute series, empty and all-idle ones included.
series_strategy = st.lists(st.sampled_from((0, 0, 1, 3)), max_size=150)


@st.composite
def predictive_strategy(draw) -> PredictiveValues:
    """Empty, discrete, windowed or mixed predictions, overlaps allowed."""
    discrete = draw(st.lists(st.integers(min_value=0, max_value=40), max_size=4))
    window = None
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=40))
        window = (low, low + draw(st.integers(min_value=0, max_value=15)))
    return PredictiveValues(discrete=tuple(sorted(set(discrete))), window=window)


class TestExtractSequences:
    @given(series=series_strategy)
    @example(series=[])
    @example(series=[0, 0, 0])
    @example(series=[0, 0, 4, 0, 1, 1, 0, 0])
    @example(series=[28, 0, 12, 1, 0, 0, 0, 7])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_minute_walk(self, series):
        assert extract_sequences(series) == reference.extract_sequences(series)

    def test_long_sparse_series(self):
        rng = np.random.default_rng(3)
        series = (rng.random(2880) < 0.02) * rng.integers(1, 50, 2880)
        assert extract_sequences(series) == reference.extract_sequences(series)


class TestPulsedStrategy:
    @given(series=series_strategy, theta_givenup=st.integers(min_value=1, max_value=12))
    @example(series=[0, 0, 0], theta_givenup=5)
    @example(series=[0, 0, 1, 0, 0, 0, 1, 0, 0], theta_givenup=1)
    @example(series=[0, 1, 0, 0, 1, 0, 0, 0, 0, 0], theta_givenup=3)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_minute_replay(self, series, theta_givenup):
        assert evaluate_pulsed_strategy(series, theta_givenup) == (
            reference.evaluate_pulsed_strategy(series, theta_givenup)
        )


class TestPossibleStrategy:
    @given(
        series=series_strategy,
        predictive=predictive_strategy(),
        theta_prewarm=st.integers(min_value=0, max_value=4),
        theta_givenup=st.integers(min_value=1, max_value=12),
    )
    @example(
        series=[0, 0, 0, 0],
        predictive=PredictiveValues.from_discrete([2]),
        theta_prewarm=1,
        theta_givenup=1,
    )
    @example(
        series=[0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        predictive=PredictiveValues.none(),
        theta_prewarm=2,
        theta_givenup=1,
    )
    @example(
        series=[1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        predictive=PredictiveValues(discrete=(3, 5), window=(4, 9)),
        theta_prewarm=2,
        theta_givenup=1,
    )
    @example(
        series=[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        predictive=PredictiveValues.from_discrete([4]),
        theta_prewarm=0,
        theta_givenup=1,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_minute_replay(
        self, series, predictive, theta_prewarm, theta_givenup
    ):
        assert evaluate_possible_strategy(
            series, predictive, theta_prewarm, theta_givenup
        ) == reference.evaluate_possible_strategy(
            series, predictive, theta_prewarm, theta_givenup
        )

    def test_long_series_against_the_replay(self):
        rng = np.random.default_rng(11)
        series = (rng.random(2880) < 0.05).astype(int)
        predictive = PredictiveValues(discrete=(10, 20, 60), window=(30, 45))
        assert evaluate_possible_strategy(series, predictive, 2, 5) == (
            reference.evaluate_possible_strategy(series, predictive, 2, 5)
        )
