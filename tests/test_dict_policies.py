"""Tests for the per-minute state queries the dict oracles step with."""

from dict_policies import idle_minutes, prediction_matches, preload_due

from repro.core.categories import FunctionCategory
from repro.core.predictive import PredictiveValues
from repro.core.state import FunctionState


def make_state(**kwargs):
    defaults = dict(function_id="f", category=FunctionCategory.REGULAR)
    defaults.update(kwargs)
    return FunctionState(**defaults)


class TestIdleAndPreload:
    def test_idle_minutes_without_invocation(self):
        state = make_state()
        assert idle_minutes(state, 4) == 5

    def test_idle_minutes_after_invocation(self):
        state = make_state()
        state.record_invocation(10, cold=True)
        assert idle_minutes(state, 10) == 0
        assert idle_minutes(state, 13) == 3

    def test_preload_due_requires_history_and_predictions(self):
        state = make_state(predictive=PredictiveValues.from_discrete([10]))
        assert not preload_due(state, 5)
        state.record_invocation(0, cold=True)
        assert preload_due(state, 9)
        assert not preload_due(state, 20)

    def test_preload_due_empty_prediction(self):
        state = make_state()
        state.record_invocation(0, cold=True)
        assert not preload_due(state, 1)


class TestPredictionMatches:
    def test_matches_inside_prewarm_window(self):
        values = PredictiveValues.from_discrete([30])
        assert prediction_matches(values, 128, last_invocation=100, theta_prewarm=2)
        assert prediction_matches(values, 132, last_invocation=100, theta_prewarm=2)
        assert not prediction_matches(values, 127, last_invocation=100, theta_prewarm=2)
        assert not prediction_matches(values, 133, last_invocation=100, theta_prewarm=2)

    def test_matches_window_prediction(self):
        values = PredictiveValues.from_range(10, 20)
        assert prediction_matches(values, 109, last_invocation=100, theta_prewarm=1)
        assert prediction_matches(values, 121, last_invocation=100, theta_prewarm=1)
        assert not prediction_matches(values, 122, last_invocation=100, theta_prewarm=1)

    def test_empty_never_matches(self):
        assert not prediction_matches(PredictiveValues.none(), 5, 0, 10)
